// The benchmark's one engine fixture and its two workloads.
//
// The model is expert-heavy, as in the paper: 64 routed experts of
// intermediate size 768 at hidden 384, top-6, over 3 MoE layers. In BF16 the
// routed experts take ~340 MB, more than the host's last-level cache, so
// decode streams expert weights from DRAM like a real deployment does.
// Unlike the paper's deployment, the CPU MoE is not the larger part of a
// decode step here: the vGPU side's f32 kernels on their one stream thread
// take about three quarters of it (moe.share_of_decode_step, README.md).
//
// Thread budget: the engine runs cpu_threads pool workers, one MoE control
// thread (which also joins every ParallelRun) and one vGPU stream worker,
// all of which spin or yield rather than sleep while a step is in flight.
// cpu_threads = nproc - 2 keeps that set within nproc; more runnable threads
// than cores makes step times depend on the OS scheduler, not on the program.

#ifndef KTX_KTXBENCH_FIXTURE_H_
#define KTX_KTXBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/model/config.h"
#include "src/model/weights.h"
#include "src/serve/serving.h"

namespace ktxbench {

// Weights are fixed: every workload and every run serves the same model.
inline constexpr std::uint64_t kModelSeed = 20250917;

ktx::MoeModelConfig BenchModelConfig();
// Engine options for the fixture; cpu_threads comes from the thread budget.
ktx::EngineOptions BenchEngineOptions(int cpu_threads);
// nproc minus the MoE control thread and the vGPU stream worker, at least 1.
int CpuThreadBudget();

std::shared_ptr<const ktx::ModelWeights> BenchWeights(const ktx::MoeModelConfig& config);

enum class WorkloadKind { kDecodeBatch, kSharedPrefix };

bool ParseWorkload(const std::string& name, WorkloadKind* kind);
const char* WorkloadName(WorkloadKind kind);

// One request of a workload. Both workloads are closed loops of max_batch
// clients: a request is submitted as soon as another one finishes.
struct BenchRequest {
  std::vector<int> prompt;
  int max_new_tokens = 0;
};

struct WorkloadRequests {
  // Served to completion before the timed window, outside set-up: one
  // request per shared prefix, so the window sees a server whose shared
  // prompts are already cached rather than a cold-start transient.
  std::vector<BenchRequest> priming;
  std::vector<BenchRequest> timed;
};

// The workload's requests for `seed`: `count` timed requests, drawn in
// order as clients free up.
WorkloadRequests MakeRequests(WorkloadKind kind, std::uint64_t seed, int count);

// Short prompts used to warm the engine (graph capture at full batch width,
// workspaces, page faults) before any timed work. They come from their own
// random stream, so they share no full KV block with any workload prompt and
// never seed the prefix cache with a workload prefix.
std::vector<BenchRequest> WarmupRequests(int count);

}  // namespace ktxbench

#endif  // KTX_KTXBENCH_FIXTURE_H_
