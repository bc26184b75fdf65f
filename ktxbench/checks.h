// Correctness checks of the serving benchmark.
//
// Every check compares against something computed independently of the
// engine's fast path — the f32 reference model, a solo batch-1 replay, or a
// total reached by a second path — never against a stored copy of earlier
// output. Each returns a CheckOutcome; the benchmark fails the run (prints
// "correct": false and exits non-zero) if any outcome is not ok.

#ifndef KTX_KTXBENCH_CHECKS_H_
#define KTX_KTXBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cpu/moe_cpu.h"
#include "src/model/kv_block_pool.h"
#include "src/model/reference_model.h"
#include "src/serve/serving.h"

namespace ktxbench {

struct CheckOutcome {
  std::string name;
  bool ok = true;
  std::string detail;  // what failed, or the figure that passed
};

// BF16 unit roundoff (8-bit significand, round to nearest): 2^-8.
inline constexpr double kBf16UnitRoundoff = 1.0 / 256.0;

// Logit margin of the teacher-forced check: how far below the reference
// argmax an emitted token's reference logit may sit. Derived from the BF16
// expert error in README.md ("Reference check margin").
double TeacherForcedMargin(const ktx::MoeModelConfig& config);

// Teacher-forced reference check of one generated stream. Runs `prompt`
// through the f32 RefModel without deferral (prefill never defers), then each
// emitted token but the last one at a time with `n_deferred` (decode
// positions defer like the engine). At every position the emitted token's
// reference logit must be within `margin` of the reference maximum.
CheckOutcome CheckTeacherForced(const ktx::RefModel& ref, const std::vector<int>& prompt,
                                const std::vector<int>& emitted, int n_deferred, double margin);

// Batch invariance: a stream re-run alone at batch 1 equals the stream the
// request produced inside the workload's batches, token for token.
CheckOutcome CheckSameStream(std::uint64_t id, const std::vector<int>& batched,
                             const std::vector<int>& solo);

// Every submitted id reaches exactly one terminal result, and no result
// carries an id that was never submitted.
CheckOutcome CheckOneTerminalEach(const std::vector<std::uint64_t>& submitted,
                                  const std::vector<ktx::GenerationResult>& results);

// Totals reached by independent paths agree: the tokens in the results sum
// to Stats::tokens_generated, and the submitted prompt tokens equal prefill
// tokens plus prompt tokens the prefix cache served.
CheckOutcome CheckTotals(const std::vector<ktx::GenerationResult>& results,
                         std::int64_t submitted_prompt_tokens,
                         const ktx::ServingLoop::Stats& stats,
                         std::int64_t prefix_tokens_reused);

// After drain no session holds a block: every block in use is referenced by
// the prefix cache alone.
CheckOutcome CheckDrainedPool(const ktx::KvBlockPool::Stats& pool);

// Element-wise bound on |CpuMoe - RefMoeForward| for BF16 experts, from the
// operands: both GEMM stages round weights and activations to BF16 and
// accumulate in f32 (README.md, "MoE isolation bound"). Returns one bound per
// output element of routing slots [slot_begin, slot_end).
std::vector<double> MoeErrorBound(const std::vector<ktx::Tensor>& gate,
                                  const std::vector<ktx::Tensor>& up,
                                  const std::vector<ktx::Tensor>& down, const float* x,
                                  std::int64_t tokens, const ktx::MoeRouting& routing,
                                  int slot_begin, int slot_end);

CheckOutcome CheckWithinBound(const std::string& name, const std::vector<float>& got,
                              const std::vector<float>& want, const std::vector<double>& bound);

}  // namespace ktxbench

#endif  // KTX_KTXBENCH_CHECKS_H_
