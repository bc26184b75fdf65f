#include "ktxbench/fixture.h"

#include <algorithm>
#include <cmath>
#include <thread>
#include <utility>

#include "src/common/rng.h"

namespace ktxbench {

namespace {

// Shared-prefix workload shape.
constexpr int kSharedPrefixes = 2;
constexpr int kSharedPrefixTokens = 512;

std::vector<int> RandomTokens(ktx::Rng& rng, int n, std::int64_t vocab) {
  std::vector<int> tokens(static_cast<std::size_t>(n));
  for (int& t : tokens) {
    t = static_cast<int>(rng.NextBounded(static_cast<std::uint64_t>(vocab)));
  }
  return tokens;
}

// `n` evenly spaced integers from lo to hi inclusive.
std::vector<int> Spread(int lo, int hi, int n) {
  std::vector<int> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(lo + (hi - lo) * i / (n - 1));
  }
  return v;
}

// Draws lengths in whole rounds: each round is the same set of values in a
// seeded order, so every run sees the same mix of lengths and the seed only
// changes which comes when. This keeps the per-run figures comparable
// across seeds.
class Rounds {
 public:
  explicit Rounds(std::vector<int> values) : values_(std::move(values)) {}
  int Next(ktx::Rng& rng) {
    if (next_ == round_.size()) {
      round_ = values_;
      for (std::size_t i = round_.size(); i > 1; --i) {
        std::swap(round_[i - 1], round_[rng.NextBounded(i)]);
      }
      next_ = 0;
    }
    return round_[next_++];
  }

 private:
  std::vector<int> values_;
  std::vector<int> round_;
  std::size_t next_ = 0;
};

}  // namespace

ktx::MoeModelConfig BenchModelConfig() {
  ktx::MoeModelConfig c;
  c.name = "ktxbench-moe";
  c.hidden = 384;
  c.vocab = 2048;
  c.num_layers = 4;
  c.first_dense_layers = 1;
  c.dense_inter = 1024;
  c.num_experts = 64;
  c.top_k = 6;
  c.moe_inter = 768;
  c.n_shared_experts = 0;
  c.gating = ktx::GatingKind::kSoftmaxTopK;
  c.attention = ktx::AttentionKind::kGqa;
  c.num_heads = 6;
  c.num_kv_heads = 2;
  c.head_dim = 64;
  c.max_seq = 2304;
  return c;
}

ktx::EngineOptions BenchEngineOptions(int cpu_threads) {
  ktx::EngineOptions o;
  o.cpu_weight_dtype = ktx::DType::kBF16;
  o.n_deferred = 2;
  o.numa_mode = ktx::NumaMode::kSingleSocket;
  o.cpu_threads = cpu_threads;
  o.prefill_chunk = 256;
  o.kv_pool_blocks = -1;  // one max_seq context per batch slot
  o.kv_block_size = 16;
  o.enable_prefix_cache = true;
  o.max_batch = 8;
  // Startup calibration times kernels, so its dispatch table (and with it
  // every per-step kernel choice) would differ from run to run.
  o.calibrate_kernels = false;
  return o;
}

int CpuThreadBudget() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, cores - 2);
}

std::shared_ptr<const ktx::ModelWeights> BenchWeights(const ktx::MoeModelConfig& config) {
  return std::make_shared<const ktx::ModelWeights>(
      ktx::ModelWeights::Generate(config, kModelSeed));
}

bool ParseWorkload(const std::string& name, WorkloadKind* kind) {
  for (WorkloadKind k : {WorkloadKind::kDecodeBatch, WorkloadKind::kSharedPrefix}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kDecodeBatch:
      return "decode_batch";
    case WorkloadKind::kSharedPrefix:
      return "shared_prefix";
  }
  return "?";
}

WorkloadRequests MakeRequests(WorkloadKind kind, std::uint64_t seed, int count) {
  const ktx::MoeModelConfig config = BenchModelConfig();
  ktx::Rng rng = ktx::Rng(seed).Split(static_cast<std::uint64_t>(kind) + 1);
  WorkloadRequests w;
  std::vector<BenchRequest>& out = w.timed;
  switch (kind) {
    case WorkloadKind::kDecodeBatch: {
      // Short unique prompts, long outputs: decode does almost all the work.
      // Output lengths differ so the eight slots do not retire in lockstep.
      Rounds prompt_len(Spread(16, 44, 8)), output_len(Spread(64, 160, 8));
      for (int i = 0; i < count; ++i) {
        BenchRequest r;
        r.prompt = RandomTokens(rng, prompt_len.Next(rng), config.vocab);
        r.max_new_tokens = output_len.Next(rng);
        out.push_back(std::move(r));
      }
      break;
    }
    case WorkloadKind::kSharedPrefix: {
      // One of a few 512-token shared prefixes plus a short unique suffix,
      // and a short output: the prefix cache serves most of every prompt,
      // and suffix prefill chunks share sweeps with decoding rows.
      std::vector<std::vector<int>> prefixes;
      for (int p = 0; p < kSharedPrefixes; ++p) {
        prefixes.push_back(RandomTokens(rng, kSharedPrefixTokens, config.vocab));
      }
      for (const std::vector<int>& p : prefixes) {
        BenchRequest r;
        r.prompt = p;
        const std::vector<int> suffix = RandomTokens(rng, 16, config.vocab);
        r.prompt.insert(r.prompt.end(), suffix.begin(), suffix.end());
        r.max_new_tokens = 1;
        w.priming.push_back(std::move(r));
      }
      Rounds prefix({0, 1}), suffix_len(Spread(16, 48, 8)), output_len(Spread(8, 16, 8));
      for (int i = 0; i < count; ++i) {
        BenchRequest r;
        r.prompt = prefixes[static_cast<std::size_t>(prefix.Next(rng))];
        const std::vector<int> suffix = RandomTokens(rng, suffix_len.Next(rng), config.vocab);
        r.prompt.insert(r.prompt.end(), suffix.begin(), suffix.end());
        r.max_new_tokens = output_len.Next(rng);
        out.push_back(std::move(r));
      }
      break;
    }
  }
  return w;
}

std::vector<BenchRequest> WarmupRequests(int count) {
  const ktx::MoeModelConfig config = BenchModelConfig();
  ktx::Rng rng(~kModelSeed);
  std::vector<BenchRequest> out;
  for (int i = 0; i < count; ++i) {
    BenchRequest r;
    r.prompt = RandomTokens(rng, 24, config.vocab);
    r.max_new_tokens = 8;
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace ktxbench
