// Shows that each correctness check of the benchmark passes on a genuine
// output and fails on a corrupted one. Runs on a small model with the
// fixture's shape of routing (top-6, deferral 2, BF16 experts) in a few
// seconds; exits non-zero if any expectation fails.
//
//   ktxbench_checks_test

#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "ktxbench/checks.h"
#include "ktxbench/fixture.h"
#include "src/common/rng.h"
#include "src/core/engine.h"

namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what);
  g_failures += cond ? 0 : 1;
}

ktx::MoeModelConfig SmallConfig() {
  ktx::MoeModelConfig c = ktxbench::BenchModelConfig();
  c.hidden = 64;
  c.vocab = 256;
  c.dense_inter = 128;
  c.num_experts = 16;
  c.moe_inter = 64;
  c.num_heads = 2;
  c.num_kv_heads = 1;
  c.head_dim = 32;
  c.max_seq = 256;
  return c;
}

// Index of the smallest logit in the last row.
int ArgminLastToken(const ktx::Tensor& logits) {
  const std::int64_t vocab = logits.dim(1);
  const float* row = logits.f32() + (logits.dim(0) - 1) * vocab;
  int worst = 0;
  for (std::int64_t v = 1; v < vocab; ++v) {
    if (row[v] < row[worst]) {
      worst = static_cast<int>(v);
    }
  }
  return worst;
}

void TestTeacherForced() {
  const ktx::MoeModelConfig config = SmallConfig();
  auto weights =
      std::make_shared<const ktx::ModelWeights>(ktx::ModelWeights::Generate(config, 7));
  ktx::EngineOptions eopts = ktxbench::BenchEngineOptions(1);
  std::vector<int> prompt;
  for (int i = 0; i < 40; ++i) {
    prompt.push_back((i * 37 + 11) % static_cast<int>(config.vocab));
  }
  std::vector<int> emitted;
  {
    ktx::HybridEngine engine(config, weights, eopts);
    emitted = engine.GenerateGreedy(prompt, 24);
  }
  const ktx::RefModel ref(config, weights);
  const double margin = ktxbench::TeacherForcedMargin(config);
  Expect(ktxbench::CheckTeacherForced(ref, prompt, emitted, eopts.n_deferred, margin).ok,
         "teacher-forced check passes the engine's BF16 stream");

  // Replace token 10 with the token the reference ranks last there.
  ktx::KvCache cache(config);
  ktx::ForwardOptions decode;
  decode.n_deferred = eopts.n_deferred;
  ktx::Tensor logits = ref.Forward(prompt, &cache);
  for (int i = 0; i < 10; ++i) {
    logits = ref.Forward({emitted[static_cast<std::size_t>(i)]}, &cache, decode);
  }
  std::vector<int> corrupted = emitted;
  corrupted[10] = ArgminLastToken(logits);
  Expect(!ktxbench::CheckTeacherForced(ref, prompt, corrupted, eopts.n_deferred, margin).ok,
         "teacher-forced check rejects a token the reference ranks last");
  corrupted = emitted;
  corrupted.back() = static_cast<int>(config.vocab);
  Expect(!ktxbench::CheckTeacherForced(ref, prompt, corrupted, eopts.n_deferred, margin).ok,
         "teacher-forced check rejects an out-of-vocabulary token");
}

void TestSameStream() {
  const std::vector<int> a = {5, 6, 7, 8};
  std::vector<int> b = a;
  Expect(ktxbench::CheckSameStream(1, a, b).ok, "identical replay passes");
  b[2] = 9;
  Expect(!ktxbench::CheckSameStream(1, a, b).ok, "replay differing in one token fails");
  b = a;
  b.pop_back();
  Expect(!ktxbench::CheckSameStream(1, a, b).ok, "truncated replay fails");
}

ktx::GenerationResult Result(std::uint64_t id, int tokens) {
  ktx::GenerationResult r;
  r.id = id;
  r.tokens.assign(static_cast<std::size_t>(tokens), 1);
  r.finish_reason = ktx::FinishReason::kLength;
  return r;
}

void TestOneTerminalEach() {
  const std::vector<std::uint64_t> ids = {1, 2, 3};
  std::vector<ktx::GenerationResult> results = {Result(1, 2), Result(2, 2), Result(3, 2)};
  Expect(ktxbench::CheckOneTerminalEach(ids, results).ok, "one result per id passes");
  auto dup = results;
  dup.push_back(Result(2, 2));
  Expect(!ktxbench::CheckOneTerminalEach(ids, dup).ok, "duplicate terminal result fails");
  auto missing = results;
  missing.pop_back();
  Expect(!ktxbench::CheckOneTerminalEach(ids, missing).ok, "missing terminal result fails");
  auto stranger = results;
  stranger.push_back(Result(9, 2));
  Expect(!ktxbench::CheckOneTerminalEach(ids, stranger).ok, "result for unknown id fails");
  auto open = results;
  open[0].finish_reason = ktx::FinishReason::kNone;
  Expect(!ktxbench::CheckOneTerminalEach(ids, open).ok, "non-terminal result fails");
}

void TestTotals() {
  const std::vector<ktx::GenerationResult> results = {Result(1, 3), Result(2, 4)};
  ktx::ServingLoop::Stats stats;
  stats.tokens_generated = 7;
  stats.prefill_tokens = 90;
  Expect(ktxbench::CheckTotals(results, 100, stats, 10).ok, "agreeing totals pass");
  stats.tokens_generated = 8;
  Expect(!ktxbench::CheckTotals(results, 100, stats, 10).ok, "token total mismatch fails");
  stats.tokens_generated = 7;
  Expect(!ktxbench::CheckTotals(results, 100, stats, 0).ok, "prompt total mismatch fails");
}

void TestDrainedPool() {
  ktx::KvBlockPool::Stats pool;
  pool.blocks_in_use = 12;
  pool.evictable_blocks = 12;
  Expect(ktxbench::CheckDrainedPool(pool).ok, "pool holding cache-only blocks passes");
  pool.blocks_in_use = 13;
  Expect(!ktxbench::CheckDrainedPool(pool).ok, "leaked block fails");
}

void TestMoeBound() {
  const std::int64_t hidden = 64, inter = 96, tokens = 4;
  const int experts = 8, top_k = 3;
  ktx::Rng rng(3);
  std::vector<ktx::Tensor> gate, up, down;
  for (int e = 0; e < experts; ++e) {
    gate.push_back(ktx::Tensor::Randn({inter, hidden}, rng, 0.125f));
    up.push_back(ktx::Tensor::Randn({inter, hidden}, rng, 0.125f));
    down.push_back(ktx::Tensor::Randn({hidden, inter}, rng, 0.1f));
  }
  auto packed = ktx::PackedExperts::Pack(gate, up, down, ktx::DType::kBF16);
  Expect(packed.ok(), "BF16 experts pack");
  if (!packed.ok()) {
    return;
  }
  ktx::ThreadPool pool(1);
  ktx::CpuMoe moe(std::make_shared<const ktx::PackedExperts>(std::move(*packed)), &pool, {});
  std::vector<float> x(static_cast<std::size_t>(tokens * hidden));
  for (float& v : x) {
    v = rng.NextGaussian();
  }
  ktx::MoeRouting routing;
  routing.tokens = tokens;
  routing.top_k = top_k;
  for (std::int64_t t = 0; t < tokens; ++t) {
    for (int s = 0; s < top_k; ++s) {
      routing.expert_ids.push_back(static_cast<int>((t + 3 * s) % experts));
      routing.weights.push_back(0.2f + 0.1f * static_cast<float>(s));
    }
  }
  std::vector<float> got(x.size(), 0.0f), want(x.size(), 0.0f);
  moe.Forward(x.data(), tokens, routing, got.data());
  ktx::RefMoeForward(gate, up, down, x.data(), tokens, routing, 0, top_k, want.data());
  const std::vector<double> bound =
      ktxbench::MoeErrorBound(gate, up, down, x.data(), tokens, routing, 0, top_k);
  Expect(ktxbench::CheckWithinBound("moe", got, want, bound).ok,
         "BF16 CpuMoe output lies within the analytic bound");
  Expect(got != want, "BF16 CpuMoe output differs from f32 (the bound is exercised)");
  auto bad = got;
  bad[17] += static_cast<float>(2.0 * bound[17]) + 1e-3f;
  Expect(!ktxbench::CheckWithinBound("moe", bad, want, bound).ok,
         "output moved past the bound fails");
  // A dropped expert slot is a realistic operator fault.
  std::vector<float> dropped(x.size(), 0.0f);
  moe.Forward(x.data(), tokens, routing, 0, top_k - 1, dropped.data());
  Expect(!ktxbench::CheckWithinBound("moe", dropped, want, bound).ok,
         "output missing one routed expert fails");
}

}  // namespace

int main() {
  TestTeacherForced();
  TestSameStream();
  TestOneTerminalEach();
  TestTotals();
  TestDrainedPool();
  TestMoeBound();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
