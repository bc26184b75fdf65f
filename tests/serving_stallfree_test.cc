// Stall-free serving tests: budgeted chunked prefill interleaved with decode.
//
// Two loop configurations are compared throughout: prefill_budget_tokens = 0
// (synchronous admission — the whole prompt prefills inside the admitting
// sweep, stalling every decoding neighbor) and a small positive budget
// (interleaved — each sweep spends at most the budget on prompt chunks, then
// decodes). The core guarantee is that interleaving changes WHEN work runs
// but not WHAT it computes: token streams must be bit-identical between the
// two modes across attention variants, deferral, and graph-off, and a
// request that dies mid-prefill (deadline, injected session fault) retires
// alone while decoding siblings are untouched.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/serve/serving.h"

namespace ktx {
namespace {

std::vector<int> Prompt(int n, int vocab = 256) {
  std::vector<int> tokens(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    tokens[static_cast<std::size_t>(i)] = (i * 7 + 3) % vocab;
  }
  return tokens;
}

GenerationRequest Req(std::vector<int> prompt, int max_new = 6) {
  GenerationRequest r;
  r.prompt = std::move(prompt);
  r.max_new_tokens = max_new;
  return r;
}

const GenerationResult& FindResult(const std::vector<GenerationResult>& results,
                                   std::uint64_t id) {
  const auto it = std::find_if(results.begin(), results.end(),
                               [&](const GenerationResult& r) { return r.id == id; });
  EXPECT_NE(it, results.end()) << "request " << id << " missing";
  return *it;
}

// Runs the same mixed workload (short prompts + one long prompt + one
// sampled request) through a synchronous loop and an interleaved loop on
// twin engines, and requires identical token streams.
void ExpectInterleavedMatchesSync(const MoeModelConfig& config, EngineOptions eopts,
                                  unsigned seed) {
  auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(config, seed));
  eopts.prefill_chunk = 4;
  HybridEngine sync_engine(config, weights, eopts);
  HybridEngine inter_engine(config, weights, eopts);

  ServingOptions sopts;
  sopts.max_concurrent = 3;
  sopts.prefill_budget_tokens = 0;
  ServingLoop sync_loop(&sync_engine, sopts);
  sopts.prefill_budget_tokens = 4;
  ServingLoop inter_loop(&inter_engine, sopts);

  GenerationRequest sampled = Req({9, 2, 5}, 5);
  sampled.sampling.temperature = 0.8f;
  sampled.sampling.top_k = 16;
  sampled.sampling.seed = 7;
  for (ServingLoop* loop : {&sync_loop, &inter_loop}) {
    loop->Submit(Req({1, 2}, 5));
    loop->Submit(Req(Prompt(13, config.vocab), 4));  // spans 4 chunks
    loop->Submit(Req({7, 8, 9}, 6));
    GenerationRequest s = sampled;
    loop->Submit(std::move(s));
  }

  const auto sync_results = sync_loop.RunToCompletion();
  const auto inter_results = inter_loop.RunToCompletion();
  ASSERT_EQ(sync_results.size(), 4u);
  ASSERT_EQ(inter_results.size(), 4u);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    const GenerationResult& a = FindResult(sync_results, id);
    const GenerationResult& b = FindResult(inter_results, id);
    EXPECT_EQ(a.tokens, b.tokens) << "request " << id;
    EXPECT_EQ(a.finish_reason, b.finish_reason) << "request " << id;
    EXPECT_TRUE(b.ok) << "request " << id << ": " << b.status.ToString();
  }
  EXPECT_EQ(sync_loop.stats().tokens_generated, inter_loop.stats().tokens_generated);
  // Same prompts, same engine-fixed chunk boundaries => same chunk count.
  EXPECT_EQ(sync_loop.stats().prefill_chunks, inter_loop.stats().prefill_chunks);
  EXPECT_EQ(sync_loop.stats().prefill_tokens, inter_loop.stats().prefill_tokens);
}

TEST(ServingStallFreeTest, InterleavedMatchesSynchronousGqa) {
  ExpectInterleavedMatchesSync(TinyMoeConfig(), EngineOptions{}, 60);
}

TEST(ServingStallFreeTest, InterleavedMatchesSynchronousMla) {
  ExpectInterleavedMatchesSync(TinyMlaConfig(), EngineOptions{}, 61);
}

TEST(ServingStallFreeTest, InterleavedMatchesSynchronousWithDeferral) {
  EngineOptions opts;
  opts.n_deferred = 1;
  ExpectInterleavedMatchesSync(TinyMoeConfig(), opts, 62);
}

TEST(ServingStallFreeTest, InterleavedMatchesSynchronousGraphOff) {
  EngineOptions opts;
  opts.use_cuda_graph = false;
  ExpectInterleavedMatchesSync(TinyMoeConfig(), opts, 63);
}

TEST(ServingStallFreeTest, BudgetSpendsWholeChunksAndCountsThem) {
  // Budget accounting is whole-chunk: budget 1 with chunk 4 still advances a
  // full 4-token chunk per sweep (at least one chunk of progress), and the
  // chunk counter reflects the engine-fixed cut points.
  MoeModelConfig config = TinyMoeConfig();
  auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 60));
  EngineOptions eopts;
  eopts.prefill_chunk = 4;
  HybridEngine engine(config, weights, eopts);
  ServingOptions sopts;
  sopts.max_concurrent = 2;
  sopts.prefill_budget_tokens = 1;
  ServingLoop loop(&engine, sopts);
  loop.Submit(Req(Prompt(8), 2));
  loop.Submit(Req(Prompt(9), 2));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.tokens.size(), 2u);
  }
  EXPECT_EQ(loop.stats().prefill_tokens, 17);
  EXPECT_EQ(loop.stats().prefill_chunks, 2 + 3);  // ceil(8/4) + ceil(9/4)
}

TEST(ServingStallFreeTest, PrefillingRowsOccupyConcurrencySlots) {
  MoeModelConfig config = TinyMoeConfig();
  auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 60));
  EngineOptions eopts;
  eopts.prefill_chunk = 4;
  HybridEngine engine(config, weights, eopts);
  ServingOptions sopts;
  sopts.max_concurrent = 1;
  sopts.prefill_budget_tokens = 4;
  ServingLoop loop(&engine, sopts);
  loop.Submit(Req(Prompt(8), 3));
  loop.Submit(Req(Prompt(8), 3));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_TRUE(r.ok);
  }
  EXPECT_EQ(loop.stats().peak_concurrency, 1);
  EXPECT_LE(engine.num_sessions(), 2);  // one slot -> one pooled session
}

TEST(ServingStallFreeTest, MidPrefillDeadlineRetiresOnlyThatRow) {
  // A prompt far too long to prefill inside the deadline, advanced one token
  // per sweep: the deadline check BETWEEN chunks must retire it mid-prefill
  // while a decoding sibling in the same loop is bit-identical to its solo
  // run. The margins are deliberately lopsided (admission is sub-millisecond
  // vs a 250 ms deadline; 8000 chunk-1 forwards take far longer than 250 ms)
  // so the test is deterministic under sanitizer slowdowns.
  MoeModelConfig config = TinyMoeConfig();
  config.max_seq = 8192;
  auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 60));
  EngineOptions eopts;
  eopts.prefill_chunk = 1;
  HybridEngine engine(config, weights, eopts);
  ServingOptions sopts;
  sopts.max_concurrent = 2;
  sopts.prefill_budget_tokens = 1;
  ServingLoop loop(&engine, sopts);

  loop.Submit(Req({3, 1, 4}, 6));
  GenerationRequest doomed = Req(Prompt(8000), 4);
  doomed.deadline_s = 0.25;
  loop.Submit(std::move(doomed));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);

  const GenerationResult& dead = FindResult(results, 2);
  EXPECT_FALSE(dead.ok);
  EXPECT_EQ(dead.finish_reason, FinishReason::kDeadline);
  EXPECT_EQ(dead.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(dead.tokens.empty());
  EXPECT_NE(dead.status.message().find("prompt tokens prefilled"), std::string::npos)
      << dead.status.ToString();

  HybridEngine solo(config, weights, eopts);
  EXPECT_EQ(FindResult(results, 1).tokens, solo.GenerateGreedy({3, 1, 4}, 6));
}

TEST(ServingStallFreeTest, MidPrefillSessionFaultRetiresOnlyPrefillingRow) {
  // The session fault is polled once per sweep; a 16-token prompt at budget 4
  // spans 4 sweeps, so after_polls = 2 fires while the row is still
  // prefilling. Only that row retires; the decoding sibling's stream matches
  // its solo run exactly.
  MoeModelConfig config = TinyMoeConfig();
  auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 60));
  EngineOptions eopts;
  eopts.prefill_chunk = 4;
  HybridEngine engine(config, weights, eopts);
  ServingOptions sopts;
  sopts.max_concurrent = 2;
  sopts.prefill_budget_tokens = 4;
  ServingLoop loop(&engine, sopts);

  loop.Submit(Req({3, 1, 4}, 8));       // admits first -> session 0
  loop.Submit(Req(Prompt(16), 4));      // admits second -> session 1
  engine.InjectSessionFault(1, InternalError("vcuda: injected ECC error"),
                            /*after_polls=*/2);
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 2u);

  const GenerationResult& faulted = FindResult(results, 2);
  EXPECT_FALSE(faulted.ok);
  EXPECT_EQ(faulted.finish_reason, FinishReason::kBackendError);
  EXPECT_EQ(faulted.status.code(), StatusCode::kInternal);
  EXPECT_TRUE(faulted.tokens.empty());  // died before its first token

  HybridEngine solo(config, weights, eopts);
  EXPECT_EQ(FindResult(results, 1).tokens, solo.GenerateGreedy({3, 1, 4}, 8));
  EXPECT_EQ(loop.stats().requests_failed, 1);
}

TEST(ServingStallFreeTest, PeakConcurrencyCountsRowsThatFailAtAdmission) {
  // A backend fault that fires during the admission prefill must still count
  // toward peak_concurrency: the row held a slot (and a session) when it
  // died. Synchronous mode, where admission runs the whole prompt and is the
  // only path that polls the device fault at admission.
  MoeModelConfig config = TinyMoeConfig();
  auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 60));
  HybridEngine engine(config, weights, EngineOptions{});
  ServingOptions sopts;
  sopts.max_concurrent = 2;
  sopts.prefill_budget_tokens = 0;
  ServingLoop loop(&engine, sopts);
  engine.InjectBackendFault(InternalError("vcuda: injected admission fault"));
  loop.Submit(Req({5, 6}, 3));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok);
  EXPECT_EQ(results[0].finish_reason, FinishReason::kBackendError);
  EXPECT_EQ(loop.stats().peak_concurrency, 1);
  EXPECT_EQ(loop.stats().requests_failed, 1);
}

TEST(ServingStallFreeTest, LatencyHistogramsTrackEveryToken) {
  MoeModelConfig config = TinyMoeConfig();
  auto weights =
      std::make_shared<const ModelWeights>(ModelWeights::Generate(config, 60));
  EngineOptions eopts;
  eopts.prefill_chunk = 4;
  HybridEngine engine(config, weights, eopts);
  ServingOptions sopts;
  sopts.max_concurrent = 3;
  sopts.prefill_budget_tokens = 4;
  ServingLoop loop(&engine, sopts);
  loop.Submit(Req({1, 2}, 5));
  loop.Submit(Req(Prompt(13), 4));
  loop.Submit(Req({4}, 6));
  const auto results = loop.RunToCompletion();
  ASSERT_EQ(results.size(), 3u);

  const ServingLoop::Stats& stats = loop.stats();
  // One TTFT sample per admitted request; one TBT sample per decoded token.
  EXPECT_EQ(stats.ttft_s.count(), 3);
  EXPECT_EQ(stats.tbt_s.count(), stats.decoded_tokens);
  EXPECT_EQ(stats.tokens_generated, 5 + 4 + 6);
  EXPECT_GT(stats.ttft_s.max_seconds(), 0.0);
  EXPECT_LE(stats.tbt_s.Percentile(50.0), stats.tbt_s.Percentile(95.0));
  EXPECT_LE(stats.tbt_s.Percentile(95.0), stats.tbt_s.Percentile(99.0));
  EXPECT_LE(stats.ttft_s.Percentile(50.0), stats.ttft_s.Percentile(99.0));
  // Per-request TTFT mirrors the histogram's view of the loop.
  for (const auto& r : results) {
    EXPECT_GT(r.time_to_first_token_s, 0.0);
    EXPECT_LE(r.time_to_first_token_s, r.total_seconds);
  }
}

}  // namespace
}  // namespace ktx
