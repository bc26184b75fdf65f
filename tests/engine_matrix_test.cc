// Exhaustive engine configuration matrix: every combination of weight
// precision, NUMA placement, deferral depth, graph mode and pipeline staging
// must track the reference model. This is the integration sweep that guards
// option interactions the focused tests do not cross.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/engine.h"
#include "src/cpu/kernel_registry.h"

namespace ktx {
namespace {

struct MatrixCase {
  DType dtype;
  NumaMode numa;
  int deferred;
  bool graph;
  int stages;
};

class EngineMatrix : public ::testing::TestWithParam<MatrixCase> {
 protected:
  static const MoeModelConfig& Config() {
    static const MoeModelConfig config = TinyMlaConfig();  // top_k 4, MLA, grouped gating
    return config;
  }
  static std::shared_ptr<const ModelWeights> Weights() {
    static const auto weights =
        std::make_shared<const ModelWeights>(ModelWeights::Generate(Config(), 99));
    return weights;
  }
};

TEST_P(EngineMatrix, TracksReference) {
  const MatrixCase c = GetParam();
  EngineOptions opts;
  opts.cpu_weight_dtype = c.dtype;
  opts.numa_mode = c.numa;
  opts.n_deferred = c.deferred;
  opts.use_cuda_graph = c.graph;
  opts.pipeline_stages = c.stages;
  HybridEngine engine(Config(), Weights(), opts);

  const std::vector<int> prompt{5, 6, 7, 8};
  const Tensor logits = engine.Prefill(prompt);
  const Tensor decode = engine.DecodeStep(9);

  RefModel ref(Config(), Weights());
  KvCache cache(Config());
  const Tensor ref_prefill = ref.Forward(prompt, &cache).Slice(3, 1).Clone();
  ForwardOptions ref_opts;
  ref_opts.n_deferred = c.deferred;
  const Tensor ref_decode = ref.Forward({9}, &cache, ref_opts);

  const float tol = c.dtype == DType::kBF16 ? 0.05f : c.dtype == DType::kI8 ? 0.1f : 0.4f;
  EXPECT_LT(RelativeError(logits, ref_prefill), tol);
  EXPECT_LT(RelativeError(decode, ref_decode), tol);
  EXPECT_GT(CosineSimilarity(decode, ref_decode), c.dtype == DType::kI4 ? 0.95 : 0.999);
}

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& c = info.param;
  std::string name(DTypeName(c.dtype));
  name += c.numa == NumaMode::kTensorParallel ? "_tp" : "_flat";
  name += "_d" + std::to_string(c.deferred);
  name += c.graph ? "_graph" : "_eager";
  name += "_s" + std::to_string(c.stages);
  return name;
}

std::vector<MatrixCase> AllCases() {
  std::vector<MatrixCase> cases;
  for (DType dtype : {DType::kBF16, DType::kI8, DType::kI4}) {
    for (NumaMode numa : {NumaMode::kTensorParallel, NumaMode::kNaiveInterleaved}) {
      for (int deferred : {0, 2}) {
        for (bool graph : {true, false}) {
          for (int stages : {1, 2}) {
            if (stages > 1 && graph) {
              continue;  // pipeline downgrades graphs; covered by stages=2 eager
            }
            cases.push_back(MatrixCase{dtype, numa, deferred, graph, stages});
          }
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineMatrix, ::testing::ValuesIn(AllCases()), CaseName);

// The vGPU side (attention, dense FFN, shared experts, router, lm_head) runs
// its weight products on the f32 kernel variant KTX_FORCE_KERNEL names (the
// CPU MoE follows the same override). Every variant runs the same per-output
// fma chain, so prefill and batched-decode logits must be bit-identical
// across them.
class DenseKernelMatrix : public ::testing::TestWithParam<bool> {
 protected:
  static MoeModelConfig Config() { return GetParam() ? TinyMlaConfig() : TinyMoeConfig(); }
};

// Sets KTX_FORCE_KERNEL for one engine construction and restores the
// caller's value (the CI kernel-variant matrix sets it for the whole run).
class ScopedForcedKernel {
 public:
  explicit ScopedForcedKernel(const std::string& variant) {
    if (const char* prev = std::getenv("KTX_FORCE_KERNEL")) {
      prev_ = prev;
    }
    setenv("KTX_FORCE_KERNEL", variant.c_str(), 1);
  }
  ~ScopedForcedKernel() {
    if (prev_.has_value()) {
      setenv("KTX_FORCE_KERNEL", prev_->c_str(), 1);
    } else {
      unsetenv("KTX_FORCE_KERNEL");
    }
  }
  ScopedForcedKernel(const ScopedForcedKernel&) = delete;
  ScopedForcedKernel& operator=(const ScopedForcedKernel&) = delete;

 private:
  std::optional<std::string> prev_;
};

// The f32 variants a caller can select, scalar first (the reference).
std::vector<std::string> SelectableF32Variants() {
  std::vector<std::string> names;
  for (const char* name : {"scalar", "avx2_native", "avx512_native"}) {
    const std::optional<ForcedKernel> forced = ParseForcedKernel(name);
    const KernelVariant* v = FindKernelVariant(forced->kind, forced->impl);
    if (v != nullptr && v->available() && v->supports_dtype(DType::kF32)) {
      names.push_back(name);
    }
  }
  return names;
}

// Prefill of three sessions, then four batched decode steps over all three.
std::vector<Tensor> PrefillThenBatchedDecode(const MoeModelConfig& config,
                                             const std::shared_ptr<const ModelWeights>& weights,
                                             const std::string& variant) {
  EngineOptions opts;
  opts.max_batch = 4;
  std::unique_ptr<HybridEngine> owned;
  {
    const ScopedForcedKernel force(variant);
    owned = std::make_unique<HybridEngine>(config, weights, opts);
  }
  HybridEngine& engine = *owned;
  EXPECT_STREQ(engine.dense_projection().variant().name, variant.c_str());
  const int s1 = engine.CreateSession();
  const int s2 = engine.CreateSession();
  std::vector<Tensor> out;
  out.push_back(engine.Prefill(0, {5, 6, 7, 8, 9, 10, 11}));
  out.push_back(engine.Prefill(s1, {1, 2, 3}));
  out.push_back(engine.Prefill(s2, {40, 41, 42, 43, 44}));
  for (int step = 0; step < 4; ++step) {
    out.push_back(engine.DecodeBatch(
        {SessionToken{0, 12 + step}, SessionToken{s1, 20 + step}, SessionToken{s2, 30 + step}}));
  }
  return out;
}

TEST_P(DenseKernelMatrix, LogitsAreBitIdenticalAcrossF32Variants) {
  const MoeModelConfig config = Config();
  const auto weights = std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 17));
  const std::vector<std::string> variants = SelectableF32Variants();
  ASSERT_EQ(variants.front(), "scalar");
  const std::vector<Tensor> expect = PrefillThenBatchedDecode(config, weights, variants.front());
  for (std::size_t v = 1; v < variants.size(); ++v) {
    const std::vector<Tensor> got = PrefillThenBatchedDecode(config, weights, variants[v]);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].shape(), expect[i].shape());
      EXPECT_EQ(std::memcmp(got[i].raw(), expect[i].raw(), got[i].byte_size()), 0)
          << variants[v] << " differs from scalar at output " << i;
    }
  }
}

// Each of the engine's packed products stays within the forward error bound
// of an f32 fma chain of length k against the double-accumulated RefGemm:
// |y - ref| <= gamma_{k+1} * sum_c |x_c w_c|, gamma_n = n u / (1 - n u).
TEST_P(DenseKernelMatrix, PackedProjectionsStayWithinF32BoundOfRefGemm) {
  const MoeModelConfig config = Config();
  const auto weights = std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 17));
  std::vector<const Tensor*> products{&weights->lm_head};
  for (const LayerWeights& lw : weights->layers) {
    for (const Tensor* w : {&lw.attn.wq, &lw.attn.wk, &lw.attn.wv, &lw.attn.w_dq, &lw.attn.w_uq,
                            &lw.attn.w_dkv, &lw.attn.w_uk, &lw.attn.w_uv, &lw.attn.wo,
                            &lw.dense_gate, &lw.dense_up, &lw.dense_down, &lw.shared_gate,
                            &lw.shared_up, &lw.shared_down, &lw.router}) {
      if (!w->empty()) {
        products.push_back(w);
      }
    }
  }
  for (const std::string& variant : SelectableF32Variants()) {
    std::unique_ptr<HybridEngine> engine;
    {
      const ScopedForcedKernel force(variant);
      engine = std::make_unique<HybridEngine>(config, weights, EngineOptions{});
    }
    const Projection& packed = engine->dense_projection();
    Rng rng(3);
    for (const Tensor* w : products) {
      const std::int64_t n = w->dim(0);
      const std::int64_t k = w->dim(1);
      constexpr std::int64_t kRows = 5;
      const Tensor x = Tensor::Randn({kRows, k}, rng, 1.0f);
      Tensor got({kRows, n}, DType::kF32);
      Tensor ref({kRows, n}, DType::kF32);
      packed.Apply(*w, x.f32(), kRows, k, got.f32(), n);
      RefProjection().Apply(*w, x.f32(), kRows, k, ref.f32(), n);
      const double u = std::ldexp(1.0, -24);
      const double gamma = static_cast<double>(k + 1) * u / (1.0 - static_cast<double>(k + 1) * u);
      for (std::int64_t i = 0; i < kRows; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
          double abs_sum = 0.0;
          for (std::int64_t c = 0; c < k; ++c) {
            abs_sum += std::fabs(static_cast<double>(x.f32()[i * k + c]) * w->f32()[j * k + c]);
          }
          const double err = std::fabs(static_cast<double>(got.f32()[i * n + j]) -
                                       static_cast<double>(ref.f32()[i * n + j]));
          ASSERT_LE(err, gamma * abs_sum)
              << variant << " [" << n << "x" << k << "] row " << i << " col " << j;
        }
      }
    }
  }
}

std::string AttentionName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "mla" : "gqa";
}

INSTANTIATE_TEST_SUITE_P(Attention, DenseKernelMatrix, ::testing::Bool(), AttentionName);

}  // namespace
}  // namespace ktx
