#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "src/common/rng.h"
#include "src/model/config.h"
#include "src/model/gating.h"
#include "src/model/reference_model.h"

namespace ktx {
namespace {

// --- Table 1: parameter-count derivation -------------------------------------

TEST(ConfigTest, DeepSeekV3MatchesTable1) {
  const MoeModelConfig c = DeepSeekV3Config();
  EXPECT_NEAR(c.RoutedExpertParams() / 1e9, 654.0, 15.0);  // "CPU parameters"
  EXPECT_NEAR(c.GpuParams() / 1e9, 17.0, 3.0);             // "GPU parameters"
  EXPECT_NEAR(c.TotalParams() / 1e9, 671.0, 15.0);
  EXPECT_EQ(c.num_moe_layers(), 58);
  EXPECT_EQ(c.num_experts, 256);
  EXPECT_EQ(c.top_k, 8);
}

TEST(ConfigTest, DeepSeekV2MatchesTable1) {
  const MoeModelConfig c = DeepSeekV2Config();
  EXPECT_NEAR(c.RoutedExpertParams() / 1e9, 223.0, 10.0);
  EXPECT_NEAR(c.GpuParams() / 1e9, 13.0, 3.0);
  EXPECT_NEAR(c.TotalParams() / 1e9, 236.0, 12.0);
  EXPECT_EQ(c.num_moe_layers(), 59);
  EXPECT_EQ(c.num_experts, 160);
  EXPECT_EQ(c.top_k, 6);
}

TEST(ConfigTest, Qwen2MatchesTable1) {
  const MoeModelConfig c = Qwen2MoeConfig();
  EXPECT_NEAR(c.RoutedExpertParams() / 1e9, 49.0, 3.0);
  EXPECT_NEAR(c.GpuParams() / 1e9, 8.0, 2.5);
  EXPECT_NEAR(c.TotalParams() / 1e9, 57.0, 4.0);
  EXPECT_EQ(c.num_moe_layers(), 28);
}

TEST(ConfigTest, CpuBytesPerTokenDs3Bf16) {
  // 8 routed experts x 58 layers x 3 x 7168 x 2048 x 2B ~ 40.8 GB per decoded
  // token — the number that makes DS-3 decode bandwidth-bound on CPU.
  const MoeModelConfig c = DeepSeekV3Config();
  EXPECT_NEAR(c.CpuBytesPerToken(2.0) / 1e9, 40.8, 1.0);
}

// --- Gating -------------------------------------------------------------------

TEST(GatingTest, SoftmaxTopKSelectsHighestLogits) {
  MoeModelConfig c = TinyMoeConfig();
  c.num_experts = 6;
  c.top_k = 2;
  c.hidden = 4;
  // Router rows: expert e scores x[e] (identity-ish).
  Tensor router({6, 4}, DType::kF32);
  for (int e = 0; e < 6; ++e) {
    router.At(e, 0) = static_cast<float>(e);  // logits ~ e * x[0]
  }
  Tensor x = Tensor::Full({1, 4}, 0.0f);
  x.f32()[0] = 1.0f;
  const MoeRouting r = ComputeRouting(c, RefProjection(), router, Tensor(), x.f32(), 1);
  EXPECT_EQ(r.id(0, 0), 5);  // highest logit first
  EXPECT_EQ(r.id(0, 1), 4);
  EXPECT_GT(r.weight(0, 0), r.weight(0, 1));
}

TEST(GatingTest, WeightsSumToScalingFactor) {
  const MoeModelConfig c = TinyMoeConfig();
  Rng rng(1);
  Tensor router = Tensor::Randn({c.num_experts, c.hidden}, rng);
  Tensor x = Tensor::Randn({5, c.hidden}, rng);
  const MoeRouting r = ComputeRouting(c, RefProjection(), router, Tensor(), x.f32(), 5);
  for (std::int64_t t = 0; t < 5; ++t) {
    float sum = 0.0f;
    std::set<int> ids;
    for (int s = 0; s < c.top_k; ++s) {
      sum += r.weight(t, s);
      ids.insert(r.id(t, s));
    }
    EXPECT_EQ(static_cast<int>(ids.size()), c.top_k) << "duplicate expert";
    EXPECT_LE(sum, c.routed_scaling + 1e-4f);  // softmax mass over selected set
    EXPECT_GT(sum, 0.0f);
  }
}

TEST(GatingTest, GroupedGatingRespectsGroupLimit) {
  const MoeModelConfig c = TinyMlaConfig();  // 16 experts, 4 groups, top-2 groups
  Rng rng(2);
  Tensor router = Tensor::Randn({c.num_experts, c.hidden}, rng);
  Tensor bias = Tensor::Randn({c.num_experts}, rng, 0.01f);
  Tensor x = Tensor::Randn({8, c.hidden}, rng);
  const MoeRouting r = ComputeRouting(c, RefProjection(), router, bias, x.f32(), 8);
  const int per_group = c.num_experts / c.n_group;
  for (std::int64_t t = 0; t < 8; ++t) {
    std::set<int> groups;
    for (int s = 0; s < c.top_k; ++s) {
      groups.insert(r.id(t, s) / per_group);
    }
    EXPECT_LE(static_cast<int>(groups.size()), c.topk_group);
  }
}

TEST(GatingTest, GroupedWeightsNormalizedOverSelection) {
  const MoeModelConfig c = TinyMlaConfig();
  Rng rng(3);
  Tensor router = Tensor::Randn({c.num_experts, c.hidden}, rng);
  Tensor x = Tensor::Randn({3, c.hidden}, rng);
  const MoeRouting r = ComputeRouting(c, RefProjection(), router, Tensor(), x.f32(), 3);
  for (std::int64_t t = 0; t < 3; ++t) {
    float sum = 0.0f;
    for (int s = 0; s < c.top_k; ++s) {
      sum += r.weight(t, s);
    }
    EXPECT_NEAR(sum, c.routed_scaling, 1e-4f);
  }
}

TEST(GatingTest, SlotsSortedByDescendingScore) {
  for (const MoeModelConfig& c : {TinyMoeConfig(), TinyMlaConfig()}) {
    Rng rng(4);
    Tensor router = Tensor::Randn({c.num_experts, c.hidden}, rng);
    Tensor x = Tensor::Randn({4, c.hidden}, rng);
    const MoeRouting r = ComputeRouting(c, RefProjection(), router, Tensor(), x.f32(), 4);
    for (std::int64_t t = 0; t < 4; ++t) {
      for (int s = 1; s < c.top_k; ++s) {
        // Weights track scores monotonically within a token for both gatings.
        EXPECT_GE(r.weight(t, s - 1), r.weight(t, s) - 1e-6f) << c.name;
      }
    }
  }
}

// --- Reference model ----------------------------------------------------------

class RefModelTest : public ::testing::Test {
 protected:
  static RefModel Make(const MoeModelConfig& config, std::uint64_t seed = 7) {
    auto weights = std::make_shared<const ModelWeights>(ModelWeights::Generate(config, seed));
    return RefModel(config, weights);
  }
};

TEST_F(RefModelTest, ForwardShapesAndFiniteness) {
  for (const MoeModelConfig& c : {TinyMoeConfig(), TinyMlaConfig()}) {
    RefModel model = Make(c);
    KvCache cache(c);
    const Tensor logits = model.Forward({1, 2, 3, 4}, &cache);
    EXPECT_EQ(logits.dim(0), 4);
    EXPECT_EQ(logits.dim(1), c.vocab);
    EXPECT_EQ(cache.position(), 4);
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
      EXPECT_TRUE(std::isfinite(logits.f32()[i])) << c.name;
    }
  }
}

TEST_F(RefModelTest, IncrementalDecodeMatchesFullPrefill) {
  // Causal invariant: prefill([a,b,c,d]) last-row logits == prefill([a,b,c])
  // then decode(d).
  for (const MoeModelConfig& c : {TinyMoeConfig(), TinyMlaConfig()}) {
    RefModel model = Make(c);
    KvCache full_cache(c);
    const Tensor full = model.Forward({5, 6, 7, 8}, &full_cache);

    KvCache inc_cache(c);
    model.Forward({5, 6, 7}, &inc_cache);
    const Tensor inc = model.Forward({8}, &inc_cache);

    const Tensor full_last = full.Slice(3, 1);
    EXPECT_LT(RelativeError(inc, full_last.Clone()), 1e-4f) << c.name;
  }
}

TEST_F(RefModelTest, DeterministicAcrossRuns) {
  const MoeModelConfig c = TinyMoeConfig();
  RefModel m1 = Make(c, 11);
  RefModel m2 = Make(c, 11);
  KvCache c1(c);
  KvCache c2(c);
  EXPECT_EQ(MaxAbsDiff(m1.Forward({9, 8, 7}, &c1), m2.Forward({9, 8, 7}, &c2)), 0.0f);
}

TEST_F(RefModelTest, ZeroDeferralIsStandardExecution) {
  const MoeModelConfig c = TinyMlaConfig();
  RefModel model = Make(c);
  KvCache a(c);
  KvCache b(c);
  ForwardOptions defer0;
  defer0.n_deferred = 0;
  const Tensor base = model.Forward({1, 2, 3}, &a);
  const Tensor same = model.Forward({1, 2, 3}, &b, defer0);
  EXPECT_EQ(MaxAbsDiff(base, same), 0.0f);
}

TEST_F(RefModelTest, DeferralPerturbsLessThanSkipping) {
  // The Fig. 13 mechanism: deferring k experts injects their output one layer
  // late (second-order error); skipping discards it entirely (first-order).
  const MoeModelConfig c = SmallMoeConfig();
  RefModel model = Make(c, 3);
  const std::vector<int> tokens{10, 20, 30, 40, 50};

  KvCache base_c(c);
  const Tensor base = model.Forward(tokens, &base_c);

  for (int affected : {2, 4, 6}) {
    ForwardOptions defer;
    defer.n_deferred = affected;
    KvCache dc(c);
    const Tensor deferred = model.Forward(tokens, &dc, defer);

    ForwardOptions skip;
    skip.n_deferred = affected;
    skip.expert_skipping = true;
    KvCache sc(c);
    const Tensor skipped = model.Forward(tokens, &sc, skip);

    const float defer_err = RelativeError(deferred, base);
    const float skip_err = RelativeError(skipped, base);
    EXPECT_LT(defer_err, skip_err) << "affected=" << affected;
    EXPECT_GT(skip_err, 0.0f);
  }
}

TEST_F(RefModelTest, DeferralErrorGrowsWithAffectedExperts) {
  const MoeModelConfig c = SmallMoeConfig();
  RefModel model = Make(c, 4);
  const std::vector<int> tokens{1, 2, 3};
  KvCache base_c(c);
  const Tensor base = model.Forward(tokens, &base_c);
  float prev = 0.0f;
  for (int affected : {1, 3, 6}) {
    ForwardOptions defer;
    defer.n_deferred = affected;
    KvCache dc(c);
    const float err = RelativeError(model.Forward(tokens, &dc, defer), base);
    EXPECT_GE(err, prev);
    prev = err;
  }
}

TEST_F(RefModelTest, GreedyGenerationDeterministic) {
  const MoeModelConfig c = TinyMoeConfig();
  RefModel model = Make(c);
  const std::vector<int> out1 = model.GenerateGreedy({3, 1, 4}, 8);
  const std::vector<int> out2 = model.GenerateGreedy({3, 1, 4}, 8);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(out1.size(), 8u);
  for (int t : out1) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, c.vocab);
  }
}

TEST_F(RefModelTest, KvCacheBytesPerPosition) {
  const MoeModelConfig gqa = TinyMoeConfig();
  KvCache cache(gqa);
  // 3 layers x 2 (k,v) x kv_heads*head_dim x 4B
  EXPECT_EQ(cache.BytesPerPosition(),
            static_cast<std::size_t>(gqa.num_layers) * 2 *
                static_cast<std::size_t>(gqa.num_kv_heads * gqa.head_dim) * sizeof(float));

  const MoeModelConfig mla = TinyMlaConfig();
  KvCache mcache(mla);
  EXPECT_EQ(mcache.BytesPerPosition(),
            static_cast<std::size_t>(mla.num_layers) *
                static_cast<std::size_t>(mla.kv_lora_rank + mla.rope_dim) * sizeof(float));
}

}  // namespace
}  // namespace ktx
