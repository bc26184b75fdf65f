// ktx serving benchmark: one workload per process, one engine per process.
//
//   ktxbench_serve --workload <decode_batch|shared_prefix>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
// the same workload with the program's tracer switched on and off in
// alternating segments of the timed window, and reports the per-layer
// metrics of the traced segments, their tracing overhead against the
// untraced ones, and an isolated timing of the CPU MoE operator. Either way
// the run ends with the correctness checks of checks.h; the last line of
// stdout is one JSON object {"correct", "attempted", "failed", "metrics"},
// with each metric a bare number (run.py attaches the units BENCHMARK.json
// lists); the exit code is 0 only if every check passed. Human-readable
// detail goes to stderr.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ktxbench/checks.h"
#include "ktxbench/fixture.h"
#include "src/common/metrics.h"
#include "src/common/rng.h"
#include "src/common/trace.h"
#include "src/cpu/moe_cpu.h"

namespace ktxbench {
namespace {

using Clock = std::chrono::steady_clock;
// Latched during static initialisation, so set-up time runs from process
// start, not from the first line of main.
const Clock::time_point kProcessStart = Clock::now();

// Load runs this long before each timed window, so the closed loop reaches
// its steady mix of request ages.
constexpr double kLoadWarmupS = 5.0;

double Now() { return std::chrono::duration<double>(Clock::now() - kProcessStart).count(); }

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// Linear-interpolated percentile of raw samples (p in [0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

struct Args {
  WorkloadKind kind = WorkloadKind::kDecodeBatch;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      have_workload = ParseWorkload(value, &args->kind);
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0.0 &&
                     args->seconds <= 600.0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        return false;
      }
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

// Per-sweep record: the benchmark's own timers around RunOnce plus the
// counter deltas the sweep produced.
struct Sweep {
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t decoded = 0;       // rows decoded in this sweep
  std::int64_t first_tokens = 0;  // requests that sampled their first token
  std::int64_t chunks = 0;
  std::int64_t prefill_tokens = 0;
  std::int64_t moe_tokens = 0;   // MoeStats::tokens delta
  std::int64_t moe_experts = 0;  // MoeStats::activated_experts delta
  std::int64_t graph_launches = 0;
  std::int64_t host_funcs = 0;
  double cpu_end_s = 0.0;  // process CPU time when the sweep ended
  int segment = -1;        // segment of the timed window; -1 outside it
  bool traced = false;
};

// Sums over the sweeps of one segment of the timed window.
struct SegmentSums {
  double busy_s = 0.0;       // time inside RunOnce
  std::int64_t work = 0;     // prompt tokens computed plus tokens decoded
  std::int64_t tokens = 0;   // tokens emitted (first tokens plus decoded)
  double cpu_s = 0.0;        // process CPU time
  bool traced = false;
};

// Token gaps from sweep timestamps, as ServingLoop::Stats::tbt_s defines
// them: a token is emitted when the sweep's batched decode ends, so a row
// decoding in consecutive sweeps waits from one sweep's end to the next. A
// row whose prompt finished in the sweep emitted its first token when its
// prefill chunk ended, somewhere inside the sweep, and waited from there to
// the decode's end: at most the whole sweep (`fresh_whole_sweep`), at least
// the decode alone, taken as the median time of the sweeps in the range that
// decoded as many rows and ran no prefill chunk. Appends one gap per decoded
// row of sweeps [begin, end).
void SweepGaps(const std::vector<Sweep>& sweeps, std::size_t begin, std::size_t end,
               bool fresh_whole_sweep, std::vector<double>* gaps) {
  std::map<std::int64_t, std::vector<double>> decode_only;  // rows -> sweep times
  for (std::size_t i = begin; i < end; ++i) {
    const Sweep& s = sweeps[i];
    if (s.chunks == 0 && s.decoded > 0) {
      decode_only[s.decoded].push_back(s.end_s - s.start_s);
    }
  }
  std::map<std::int64_t, double> decode_s;
  for (auto& [rows, v] : decode_only) {
    std::sort(v.begin(), v.end());
    decode_s[rows] = v[v.size() / 2];
  }
  for (std::size_t i = begin; i < end; ++i) {
    const Sweep& s = sweeps[i];
    const std::int64_t fresh = std::min(s.first_tokens, s.decoded);
    const double run = s.end_s - s.start_s;
    const auto it = decode_s.find(s.decoded);
    const double fresh_gap =
        fresh_whole_sweep || it == decode_s.end() ? run : std::min(it->second, run);
    const double since_prev = i > 0 ? s.end_s - sweeps[i - 1].end_s : run;
    for (std::int64_t r = 0; r < s.decoded; ++r) {
      gaps->push_back(r < fresh ? fresh_gap : since_prev);
    }
  }
}

// What one phase produced: a fresh ServingLoop under load for a warm-up
// period and then the timed window, then drained with no new submissions.
struct PhaseResult {
  double window_s = 0.0;
  ktx::ServingLoop::Stats final_stats;  // after drain
  double peak_rss_mb = 0.0;             // at the end of the window
  std::vector<Sweep> sweeps;            // warm-up, window and drain
  std::size_t window_begin = 0;         // sweeps started inside the window
  std::size_t window_end = 0;
  std::vector<std::uint64_t> submitted;
  std::vector<ktx::GenerationResult> results;
  std::map<std::uint64_t, BenchRequest> request_of;
  std::vector<double> ttft_s;  // requests submitted in the window
  std::vector<double> tpot_s;  // the same requests' time per output token
  std::int64_t prompt_tokens = 0;
  std::int64_t prefix_reused = 0;  // engine counter delta over the phase
  ktx::KvBlockPool::Stats pool_before, pool_after;
  ktx::MoeStats moe_before, moe_after;
  ktx::EngineCounters engine_before, engine_after;
  // Tracer-clock bounds of the load (priming excluded), for span filtering.
  std::int64_t start_ns = 0, end_ns = 0;

  // Sums over the window's sweeps.
  std::int64_t WindowTokens() const {
    std::int64_t n = 0;
    for (std::size_t i = window_begin; i < window_end; ++i) {
      n += sweeps[i].decoded + sweeps[i].first_tokens;
    }
    return n;
  }
  std::int64_t WindowPrefill() const {
    std::int64_t n = 0;
    for (std::size_t i = window_begin; i < window_end; ++i) {
      n += sweeps[i].prefill_tokens;
    }
    return n;
  }
  std::map<int, SegmentSums> Segments() const {
    std::map<int, SegmentSums> out;
    for (std::size_t i = std::max<std::size_t>(window_begin, 1); i < window_end; ++i) {
      const Sweep& s = sweeps[i];
      SegmentSums& g = out[s.segment];
      g.busy_s += s.end_s - s.start_s;
      g.work += s.prefill_tokens + s.decoded;
      g.tokens += s.decoded + s.first_tokens;
      g.cpu_s += s.cpu_end_s - sweeps[i - 1].cpu_end_s;
      g.traced = s.traced;
    }
    return out;
  }
};

ktx::GenerationRequest ToRequest(const BenchRequest& r) {
  ktx::GenerationRequest g;
  g.prompt = r.prompt;
  g.max_new_tokens = r.max_new_tokens;
  return g;  // greedy, no EOS, no deadline
}

// Drives one phase: a closed loop that keeps max_batch requests in flight,
// submitting from this thread between sweeps as requests finish. The first
// `warm_s` seconds bring the loop to its steady mix of request ages and are
// not measured. With `segment_s` > 0 the window is cut into segments of that
// length and the tracer is on in segments 1, 2, 5, 6, ... (untraced, traced,
// traced, untraced, ...), so that a drift in host speed over the window
// weighs on traced and untraced time alike; with 0 it stays off.
PhaseResult RunPhase(ktx::HybridEngine* engine,
                     const WorkloadRequests& workload, std::size_t* next_request,
                     double warm_s, double window_s, double segment_s) {
  PhaseResult out;
  ktx::ServingOptions sopts;
  sopts.max_concurrent = engine->options().max_batch;
  sopts.max_queue = 4096;
  if (!workload.priming.empty()) {
    ktx::ServingLoop priming(engine, sopts);
    for (const BenchRequest& r : workload.priming) {
      priming.Submit(ToRequest(r));
    }
    priming.RunToCompletion();
  }
  const std::vector<BenchRequest>& requests = workload.timed;
  ktx::ServingLoop loop(engine, sopts);
  std::map<std::uint64_t, double> submitted_at;  // since t0

  out.pool_before = engine->kv_pool()->stats();
  out.moe_before = engine->moe_stats();
  out.engine_before = engine->counters();
  const double t0 = Now();
  out.start_ns = ktx::SteadyNowNanos();
  int in_flight = 0;
  int segment = -1;
  bool tracing = false;

  auto submit = [&](const BenchRequest& r, double now) {
    const std::uint64_t id = loop.Submit(ToRequest(r));
    out.submitted.push_back(id);
    out.request_of[id] = r;
    out.prompt_tokens += static_cast<std::int64_t>(r.prompt.size());
    submitted_at[id] = now;
    ++in_flight;
  };
  auto collect = [&] {
    for (ktx::GenerationResult& r : loop.TakeResults()) {
      --in_flight;
      out.results.push_back(std::move(r));
    }
  };
  auto sweep = [&] {
    Sweep s;
    const ktx::ServingLoop::Stats& st = loop.stats();
    const std::int64_t decoded0 = st.decoded_tokens;
    const std::int64_t first0 = st.ttft_s.count();
    const std::int64_t chunks0 = st.prefill_chunks;
    const std::int64_t prefill0 = st.prefill_tokens;
    const ktx::MoeStats m0 = engine->moe_stats();
    const std::int64_t launches0 = engine->device().stats().graph_launches.load();
    const std::int64_t host0 = engine->device().stats().host_funcs.load();
    s.start_s = Now();
    loop.RunOnce();
    s.end_s = Now();
    const ktx::MoeStats m1 = engine->moe_stats();
    s.decoded = st.decoded_tokens - decoded0;
    s.first_tokens = st.ttft_s.count() - first0;
    s.chunks = st.prefill_chunks - chunks0;
    s.prefill_tokens = st.prefill_tokens - prefill0;
    s.moe_tokens = m1.tokens - m0.tokens;
    s.moe_experts = m1.activated_experts - m0.activated_experts;
    s.graph_launches = engine->device().stats().graph_launches.load() - launches0;
    s.host_funcs = engine->device().stats().host_funcs.load() - host0;
    s.cpu_end_s = CpuSeconds();
    s.segment = segment;
    s.traced = tracing;
    out.sweeps.push_back(s);
    collect();
  };

  bool in_window = false;
  for (;;) {
    const double now = Now() - t0;
    if (!in_window && now >= warm_s) {
      in_window = true;
      out.window_begin = out.sweeps.size();
    }
    if (now >= warm_s + window_s) {
      break;
    }
    if (in_window) {
      segment = segment_s > 0.0 ? static_cast<int>((now - warm_s) / segment_s) : 0;
      const bool want = segment_s > 0.0 && (segment % 4 == 1 || segment % 4 == 2);
      if (want != tracing) {
        ktx::trace::SetEnabled(want);
        tracing = want;
      }
    }
    while (in_flight < sopts.max_concurrent && *next_request < requests.size()) {
      submit(requests[*next_request], now);
      ++*next_request;
    }
    sweep();
  }
  out.window_end = out.sweeps.size();
  out.window_s = Now() - (t0 + warm_s);
  out.peak_rss_mb = PeakRssMb();
  if (tracing) {
    ktx::trace::SetEnabled(false);
    tracing = false;
  }
  segment = -1;

  // Drain: no new submissions; every request in flight runs to its end.
  while (loop.pending() > 0) {
    sweep();
  }
  collect();
  out.end_ns = ktx::SteadyNowNanos();
  out.final_stats = loop.stats();
  out.pool_after = engine->kv_pool()->stats();
  out.moe_after = engine->moe_stats();
  out.engine_after = engine->counters();
  out.prefix_reused =
      out.engine_after.prefix_tokens_reused - out.engine_before.prefix_tokens_reused;
  // A closed-loop client submits the moment it is ready, so the loop's
  // Submit-anchored time to first token is the client's.
  for (const ktx::GenerationResult& r : out.results) {
    const double at = submitted_at[r.id];
    if (r.ok && at >= warm_s && at < warm_s + window_s) {
      out.ttft_s.push_back(r.time_to_first_token_s);
      if (r.tokens.size() > 1) {
        out.tpot_s.push_back((r.total_seconds - r.time_to_first_token_s) /
                             static_cast<double>(r.tokens.size() - 1));
      }
    }
  }
  return out;
}

// Warm-up: eight concurrent short requests capture the decode graph at full
// batch width and size every workspace; one longer prompt grows the MoE
// workspace to the prefill-chunk shape. Runs inside set-up.
void WarmUp(ktx::HybridEngine* engine) {
  ktx::ServingOptions sopts;
  sopts.max_concurrent = engine->options().max_batch;
  ktx::ServingLoop loop(engine, sopts);
  std::vector<BenchRequest> warm = WarmupRequests(engine->options().max_batch);
  warm.front().prompt.resize(static_cast<std::size_t>(engine->options().prefill_chunk) + 32,
                             1);
  for (const BenchRequest& r : warm) {
    loop.Submit(ToRequest(r));
  }
  loop.RunToCompletion();
}

// Seeded sample of OK results to re-check (replay and reference).
std::vector<const ktx::GenerationResult*> SampleResults(const PhaseResult& phase,
                                                        std::uint64_t seed, int count) {
  std::vector<const ktx::GenerationResult*> ok;
  for (const ktx::GenerationResult& r : phase.results) {
    if (r.ok) {
      ok.push_back(&r);
    }
  }
  std::sort(ok.begin(), ok.end(), [](const auto* a, const auto* b) { return a->id < b->id; });
  ktx::Rng rng = ktx::Rng(seed).Split(0xC4EC);
  std::vector<const ktx::GenerationResult*> pick;
  while (!ok.empty() && static_cast<int>(pick.size()) < count) {
    const std::size_t i = rng.NextBounded(ok.size());
    pick.push_back(ok[i]);
    ok.erase(ok.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return pick;
}

// Per-layer figures from the traced run's snapshot and sweep records.
struct LayerFigures {
  std::map<std::string, double> values;
  std::vector<CheckOutcome> checks;
};

struct SpanSet {
  std::vector<std::pair<std::int64_t, std::int64_t>> v;  // (start, end) ns, sorted
  double total_ms() const {
    double s = 0.0;
    for (const auto& [a, b] : v) {
      s += static_cast<double>(b - a) * 1e-6;
    }
    return s;
  }
  std::vector<double> durations_ms() const {
    std::vector<double> d;
    for (const auto& [a, b] : v) {
      d.push_back(static_cast<double>(b - a) * 1e-6);
    }
    return d;
  }
};

// Sum of `inner` span time whose start falls inside any `outer` span.
double NestedMs(const SpanSet& outer, const SpanSet& inner) {
  double ms = 0.0;
  std::size_t j = 0;
  for (const auto& [a, b] : outer.v) {
    while (j < inner.v.size() && inner.v[j].first < a) {
      ++j;
    }
    for (std::size_t k = j; k < inner.v.size() && inner.v[k].first <= b; ++k) {
      ms += static_cast<double>(inner.v[k].second - inner.v[k].first) * 1e-6;
    }
  }
  return ms;
}

// Span figures come from the traced segments of the window (the only time
// the tracer was on), counter figures from the whole phase.
LayerFigures LayerTable(const PhaseResult& traced, const ktx::trace::Snapshot& snap,
                        const ktx::MoeModelConfig& config) {
  LayerFigures f;
  auto& m = f.values;
  std::map<std::string, SpanSet> spans;
  std::vector<double> subtasks;
  for (const ktx::trace::SnapshotEvent& e : snap.events) {
    if (e.phase != ktx::trace::Phase::kComplete || e.ts_ns < traced.start_ns ||
        e.ts_ns > traced.end_ns) {
      continue;
    }
    const std::string key = std::string(e.cat) + "." + e.name;
    spans[key].v.emplace_back(e.ts_ns, e.ts_ns + e.dur_ns);
    if (key == "pool.parallel_run") {
      subtasks.push_back(static_cast<double>(e.arg_value));
    }
  }
  for (auto& [k, s] : spans) {
    std::sort(s.v.begin(), s.v.end());
  }
  const SpanSet& decode = spans["engine.decode_batch"];
  const SpanSet& chunk = spans["engine.prefill_chunk"];
  const SpanSet& moe = spans["moe.cpu_moe_forward"];

  // --- serve -----------------------------------------------------------------
  std::vector<double> sweep_ms;
  double sweep_total_ms = 0.0;
  for (const Sweep& s : traced.sweeps) {
    if (s.traced) {
      sweep_ms.push_back((s.end_s - s.start_s) * 1e3);
      sweep_total_ms += (s.end_s - s.start_s) * 1e3;
    }
  }
  const double engine_ms = decode.total_ms() + chunk.total_ms();
  const double sweeps = static_cast<double>(std::max<std::size_t>(1, sweep_ms.size()));
  m["serve.sweep_ms_p50"] = Percentile(sweep_ms, 50);
  m["serve.overhead_us_per_sweep"] = (sweep_total_ms - engine_ms) * 1e3 / sweeps;
  std::vector<double> queue_ms;
  for (const ktx::GenerationResult& r : traced.results) {
    queue_ms.push_back(r.queue_seconds * 1e3);
  }
  m["serve.queue_wait_ms_p50"] = Percentile(queue_ms, 50);
  const ktx::ServingLoop::Stats& st = traced.final_stats;
  m["serve.rows_per_decode_iter"] =
      st.decode_iterations > 0
          ? static_cast<double>(st.decoded_tokens) / static_cast<double>(st.decode_iterations)
          : 0.0;
  m["serve.prefill_chunks_per_request"] =
      traced.results.empty()
          ? 0.0
          : static_cast<double>(st.prefill_chunks) / static_cast<double>(traced.results.size());

  // --- core ------------------------------------------------------------------
  m["engine.decode_step_ms_p50"] = Percentile(decode.durations_ms(), 50);
  m["engine.prefill_chunk_ms_p50"] = Percentile(chunk.durations_ms(), 50);
  m["engine.graph_captures"] = static_cast<double>(traced.engine_after.graph_captures);
  // Sweeps that decoded rows and ran no prefill chunk ("decode-only") give
  // the decode path's share of the MoE and device counters.
  std::int64_t decode_only_steps = 0, decode_only_tokens = 0, decode_only_experts = 0,
               decode_only_launches = 0, decode_only_host = 0, decode_only_moe_tokens = 0;
  for (const Sweep& s : traced.sweeps) {
    if (s.chunks == 0 && s.decoded > 0) {
      ++decode_only_steps;
      decode_only_tokens += s.decoded;
      decode_only_experts += s.moe_experts;
      decode_only_moe_tokens += s.moe_tokens;
      decode_only_launches += s.graph_launches;
      decode_only_host += s.host_funcs;
    }
  }
  const ktx::MoeStats& m0 = traced.moe_before;
  const ktx::MoeStats& m1 = traced.moe_after;
  const auto per = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  // Every MoE request of a decode step carries all of its rows, so MoE
  // tokens over decoded rows is the requests per step.
  m["engine.moe_requests_per_step"] =
      per(static_cast<double>(decode_only_moe_tokens),
          static_cast<double>(decode_only_tokens));
  // --- cpu -------------------------------------------------------------------
  const double moe_in_decode = NestedMs(decode, moe);
  const double moe_in_chunk = NestedMs(chunk, moe);
  m["moe.busy_ms_per_step"] = per(moe_in_decode, static_cast<double>(decode.v.size()));
  m["moe.share_of_decode_step"] = per(moe_in_decode, decode.total_ms());
  m["moe.busy_ms_per_chunk"] = per(moe_in_chunk, static_cast<double>(chunk.v.size()));
  // Token-slots over activated experts: a decode token occupies top_k slots
  // in every MoE layer; so does a prefill token.
  const double slots_per_token = static_cast<double>(config.top_k * config.num_moe_layers());
  m["moe.tokens_per_expert_decode"] =
      per(static_cast<double>(decode_only_tokens) * slots_per_token,
          static_cast<double>(decode_only_experts));
  m["moe.gemm_calls_amx"] = static_cast<double>(m1.amx_calls - m0.amx_calls);
  m["moe.gemm_calls_avx512"] = static_cast<double>(m1.avx512_calls - m0.avx512_calls);

  // --- gpu -------------------------------------------------------------------
  m["gpu.nonmoe_ms_per_step"] =
      per(decode.total_ms() - moe_in_decode, static_cast<double>(decode.v.size()));
  m["gpu.graph_launches_per_step"] =
      per(static_cast<double>(decode_only_launches), static_cast<double>(decode_only_steps));
  m["gpu.host_funcs_per_step"] =
      per(static_cast<double>(decode_only_host), static_cast<double>(decode_only_steps));

  // --- common ----------------------------------------------------------------
  double mean_subtasks = 0.0;
  for (double s : subtasks) {
    mean_subtasks += s;
  }
  m["pool.subtasks_per_run"] = per(mean_subtasks, static_cast<double>(subtasks.size()));
  const std::map<int, SegmentSums> segments = traced.Segments();
  double untraced_cpu_s = 0.0;
  std::int64_t untraced_tokens = 0;
  for (const auto& [k, g] : segments) {
    if (!g.traced) {
      untraced_cpu_s += g.cpu_s;
      untraced_tokens += g.tokens;
    }
  }
  m["process.cpu_s_per_output_token"] = per(untraced_cpu_s, static_cast<double>(untraced_tokens));
  // Sweep seconds per unit of work, traced over untraced, in each pair of
  // adjacent segments (0, 1), (2, 3), ...: each pair holds one of each, so
  // the median pair ratio compares time spans a few seconds apart.
  const auto cost = [](const SegmentSums& g) {
    return g.work > 0 ? g.busy_s / static_cast<double>(g.work) : 0.0;
  };
  std::vector<double> pair_ratios;
  for (const auto& [k, g] : segments) {
    const auto next = segments.find(k + 1);
    if (k % 2 == 0 && next != segments.end()) {
      const SegmentSums& t = g.traced ? g : next->second;
      const SegmentSums& u = g.traced ? next->second : g;
      pair_ratios.push_back(per(cost(t), cost(u)));
    }
  }
  m["trace.overhead_ratio"] = Percentile(pair_ratios, 50);
  m["trace.dropped_events"] = static_cast<double>(snap.dropped);

  // --- kv --------------------------------------------------------------------
  const ktx::KvBlockPool::Stats& k0 = traced.pool_before;
  const ktx::KvBlockPool::Stats& k1 = traced.pool_after;
  m["kv.prefix_tokens_reused_per_request"] =
      per(static_cast<double>(traced.prefix_reused), static_cast<double>(traced.results.size()));
  m["kv.prefix_hit_rate"] = per(static_cast<double>(k1.prefix_hits - k0.prefix_hits),
                                static_cast<double>(k1.prefix_lookups - k0.prefix_lookups));
  m["kv.peak_blocks_in_use"] = static_cast<double>(st.kv_blocks_in_use);
  m["kv.cow_copies"] = static_cast<double>(k1.cow_copies - k0.cow_copies);
  m["kv.evictions"] = static_cast<double>(k1.evictions - k0.evictions);

  // --- bound checks ----------------------------------------------------------
  // Every engine span runs inside a traced sweep, so their total is bounded by
  // the traced sweeps' time on the benchmark's clock.
  CheckOutcome spans_fit{"engine_spans_within_wall", engine_ms <= sweep_total_ms, ""};
  char buf[160];
  std::snprintf(buf, sizeof(buf), "engine spans %.1f ms, traced sweeps %.1f ms", engine_ms,
                sweep_total_ms);
  spans_fit.detail = buf;
  f.checks.push_back(spans_fit);

  // The loop's own TBT histogram against gaps from the benchmark's RunOnce
  // timestamps, over every sweep of the phase. The sweep clock cannot see
  // when inside a sweep a first token was emitted, so its median is the
  // range between the two readings of SweepGaps.
  std::vector<double> gaps_lo, gaps_hi;
  SweepGaps(traced.sweeps, 0, traced.sweeps.size(), false, &gaps_lo);
  SweepGaps(traced.sweeps, 0, traced.sweeps.size(), true, &gaps_hi);
  const double own_lo = Percentile(gaps_lo, 50);
  const double own_hi = Percentile(gaps_hi, 50);
  const double hist = st.tbt_s.Percentile(50);
  const double bucket = std::exp2(1.0 / 8.0);  // LatencyHistogram resolution
  CheckOutcome tbt{"tbt_median_matches_sweep_clock",
                   own_lo > 0.0 && hist <= own_hi * bucket && hist >= own_lo / bucket, ""};
  std::snprintf(buf, sizeof(buf), "Stats::tbt_s p50 %.3f ms, sweep-clock p50 %.3f-%.3f ms",
                hist * 1e3, own_lo * 1e3, own_hi * 1e3);
  tbt.detail = buf;
  f.checks.push_back(tbt);
  if (snap.dropped != 0) {
    f.checks.push_back({"trace_complete", false, "trace ring wrapped; spans were dropped"});
  }
  return f;
}

// Isolated CPU MoE operator at the fixture's expert shape and pool width,
// checked against RefMoeForward within the analytic bound; with `timed` it
// also reports per-call latency and the expert-weight bandwidth it implies.
void MoeIsolation(const ktx::ModelWeights& weights, const ktx::MoeModelConfig& config,
                  const ktx::EngineOptions& eopts, std::uint64_t seed, bool timed,
                  std::vector<CheckOutcome>* checks, std::map<std::string, double>* metrics) {
  const ktx::LayerWeights& lw =
      weights.layers[static_cast<std::size_t>(config.first_dense_layers)];
  auto packed = ktx::PackedExperts::Pack(lw.expert_gate, lw.expert_up, lw.expert_down,
                                         eopts.cpu_weight_dtype);
  if (!packed.ok()) {
    checks->push_back({"moe_isolation_pack", false, packed.status().ToString()});
    return;
  }
  auto experts = std::make_shared<const ktx::PackedExperts>(std::move(*packed));
  ktx::ThreadPool pool(static_cast<std::size_t>(eopts.cpu_threads));
  ktx::MoeOptions mopts = eopts.moe;
  // The engine floors the fallback threshold at max_batch; match it.
  mopts.ari_threshold = std::max<std::int64_t>(mopts.ari_threshold, eopts.max_batch);
  ktx::CpuMoe moe(experts, &pool, mopts);
  ktx::Rng rng = ktx::Rng(seed).Split(0x3E);
  const std::int64_t hidden = config.hidden;
  // Untraced runs check the decode shape only; the traced run checks and
  // times all three.
  const std::vector<std::int64_t> shapes =
      timed ? std::vector<std::int64_t>{1, 8, 256} : std::vector<std::int64_t>{8};
  for (std::int64_t m : shapes) {
    std::vector<float> x(static_cast<std::size_t>(m * hidden));
    for (float& v : x) {
      v = rng.NextGaussian();
    }
    ktx::MoeRouting routing;
    routing.tokens = m;
    routing.top_k = config.top_k;
    for (std::int64_t t = 0; t < m; ++t) {
      std::vector<int> ids;
      while (static_cast<int>(ids.size()) < config.top_k) {
        const auto e = static_cast<int>(
            rng.NextBounded(static_cast<std::uint64_t>(config.num_experts)));
        if (std::find(ids.begin(), ids.end(), e) == ids.end()) {
          ids.push_back(e);
        }
      }
      for (int e : ids) {
        routing.expert_ids.push_back(e);
        routing.weights.push_back(0.05f + 0.25f * rng.NextFloat());
      }
    }
    std::vector<float> got(x.size(), 0.0f), want(x.size(), 0.0f);
    moe.Forward(x.data(), m, routing, got.data());
    ktx::RefMoeForward(lw.expert_gate, lw.expert_up, lw.expert_down, x.data(), m, routing, 0,
                       config.top_k, want.data());
    const std::vector<double> bound = MoeErrorBound(lw.expert_gate, lw.expert_up,
                                                    lw.expert_down, x.data(), m, routing, 0,
                                                    config.top_k);
    checks->push_back(
        CheckWithinBound("moe_isolation_m" + std::to_string(m), got, want, bound));
    if (!timed) {
      continue;
    }
    const int reps = m >= 256 ? 20 : 200;
    std::vector<double> us;
    ktx::MoeStats stats;
    for (int r = 0; r < reps; ++r) {
      std::fill(got.begin(), got.end(), 0.0f);
      stats = ktx::MoeStats{};
      const double t0 = Now();
      moe.Forward(x.data(), m, routing, got.data(), &stats);
      us.push_back((Now() - t0) * 1e6);
    }
    const double p50 = Percentile(us, 50);
    (*metrics)["moe.forward_us_m" + std::to_string(m)] = p50;
    if (m == 8) {
      // Bytes of the activated experts' packed weights, from tensor sizes.
      const double bytes = static_cast<double>(stats.activated_experts) *
                           static_cast<double>(experts->total_bytes()) /
                           static_cast<double>(experts->num_experts());
      (*metrics)["moe.stream_gbps_m8"] = bytes / (p50 * 1e-6) / 1e9;
    }
  }
}

void PrintChecks(const std::vector<CheckOutcome>& checks) {
  for (const CheckOutcome& c : checks) {
    std::fprintf(stderr, "check %-34s %s  %s\n", c.name.c_str(), c.ok ? "ok  " : "FAIL",
                 c.detail.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ktxbench_serve --workload <decode_batch|shared_prefix> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const ktx::MoeModelConfig config = BenchModelConfig();
  const ktx::EngineOptions eopts = BenchEngineOptions(CpuThreadBudget());

  // --- set-up: weights, engine, decode graph ----------------------------------
  std::shared_ptr<const ktx::ModelWeights> weights = BenchWeights(config);
  auto engine = std::make_unique<ktx::HybridEngine>(config, weights, eopts);
  WarmUp(engine.get());
  const double setup_s = Now();

  // Closed loops draw from a stream far longer than any window can use.
  const WorkloadRequests requests = MakeRequests(args.kind, args.seed, 4096);
  std::size_t next_request = 0;
  std::vector<CheckOutcome> checks;
  std::map<std::string, double> metrics;
  PhaseResult main_phase;

  if (!args.trace) {
    main_phase =
        RunPhase(engine.get(), requests, &next_request, kLoadWarmupS, args.seconds, 0.0);
    const PhaseResult& p = main_phase;
    std::vector<double> gaps;
    SweepGaps(p.sweeps, p.window_begin, p.window_end, false, &gaps);
    metrics["setup_s"] = setup_s;
    metrics["peak_rss_mb"] = p.peak_rss_mb;
    double tpot_sum = 0.0;
    for (double t : p.tpot_s) {
      tpot_sum += t;
    }
    // A mean over requests: one request's TPOT doubles when a suffix chunk
    // lands among its few gaps, so the per-request median jumps between the
    // stalled and the unstalled mode from run to run.
    metrics["tpot_mean_ms"] =
        p.tpot_s.empty() ? 0.0 : tpot_sum / static_cast<double>(p.tpot_s.size()) * 1e3;
    metrics["output_tok_s"] = static_cast<double>(p.WindowTokens()) / p.window_s;
    metrics["prefill_tok_s"] = static_cast<double>(p.WindowPrefill()) / p.window_s;
    metrics["ttft_p50_ms"] = Percentile(p.ttft_s, 50) * 1e3;
    // Reference figures only, not metrics: per-gap TBT percentiles jump
    // between step modes from run to run, and a run has fewer than the ~100
    // TTFT samples a p90 needs (README.md).
    std::fprintf(stderr,
                 "window %.2f s, %zu requests; token gaps (%zu): p50 %.2f p90 %.2f p99 %.2f ms; "
                 "ttft (%zu): p90 %.1f ms\n",
                 p.window_s, p.submitted.size(), gaps.size(), Percentile(gaps, 50) * 1e3,
                 Percentile(gaps, 90) * 1e3, Percentile(gaps, 99) * 1e3, p.ttft_s.size(),
                 Percentile(p.ttft_s, 90) * 1e3);
    // Output tokens per second in 5 s slices of the window: shows whether
    // throughput still climbs after the warm-up, or the host changed speed.
    // A last, partial slice is left out.
    std::vector<double> slice_tokens(static_cast<std::size_t>(p.window_s / 5.0), 0.0);
    const double w0 = p.sweeps[p.window_begin].start_s;
    for (std::size_t i = p.window_begin; i < p.window_end; ++i) {
      const auto k = static_cast<std::size_t>((p.sweeps[i].end_s - w0) / 5.0);
      if (k < slice_tokens.size()) {
        slice_tokens[k] += static_cast<double>(p.sweeps[i].decoded + p.sweeps[i].first_tokens);
      }
    }
    std::fprintf(stderr, "output tok/s per 5 s slice:");
    for (double tokens : slice_tokens) {
      std::fprintf(stderr, " %.1f", tokens / 5.0);
    }
    std::fprintf(stderr, "\n");
  } else {
    // One phase whose window alternates untraced and traced segments; eight
    // segments give four (untraced, traced) pairs for trace.overhead_ratio.
    ktx::trace::SetRingCapacity(std::size_t{1} << 17);
    ktx::trace::Clear();
    main_phase = RunPhase(engine.get(), requests, &next_request, kLoadWarmupS, args.seconds,
                          args.seconds / 8.0);
    const ktx::trace::Snapshot snap = ktx::trace::TakeSnapshot();
    LayerFigures layers = LayerTable(main_phase, snap, config);
    metrics = layers.values;
    checks.insert(checks.end(), layers.checks.begin(), layers.checks.end());
  }
  const PhaseResult& p = main_phase;

  // --- checks that need the engine -------------------------------------------
  checks.push_back(CheckOneTerminalEach(p.submitted, p.results));
  checks.push_back(CheckTotals(p.results, p.prompt_tokens, p.final_stats, p.prefix_reused));
  checks.push_back(CheckDrainedPool(engine->kv_pool()->stats()));
  const std::vector<const ktx::GenerationResult*> sample = SampleResults(p, args.seed, 3);
  if (sample.empty()) {
    checks.push_back({"sample_nonempty", false, "no request completed"});
  }
  // The replay runs the workload's own prefill chunks (cached prefix tokens
  // are not recomputed) beside at most one decode row, whose token activates
  // exactly top_k distinct experts per MoE layer; taking those out of a
  // sweep's MoeStats delta leaves the prefill path's tokens per expert.
  // (Under load, every chunk shares its sweep with several decode rows.)
  const std::int64_t slots_per_token =
      static_cast<std::int64_t>(config.top_k) * config.num_moe_layers();
  std::int64_t prefill_slots = 0, prefill_experts = 0;
  {
    ktx::ServingOptions solo_opts;
    solo_opts.max_concurrent = 1;
    ktx::ServingLoop solo(engine.get(), solo_opts);
    for (const ktx::GenerationResult* r : sample) {
      solo.Submit(ToRequest(p.request_of.at(r->id)));
      std::vector<ktx::GenerationResult> again;
      while (solo.pending() > 0) {
        const ktx::ServingLoop::Stats st0 = solo.stats();
        const ktx::MoeStats m0 = engine->moe_stats();
        solo.RunOnce();
        const ktx::MoeStats m1 = engine->moe_stats();
        const std::int64_t decoded = solo.stats().decoded_tokens - st0.decoded_tokens;
        if (solo.stats().prefill_chunks > st0.prefill_chunks && decoded <= 1) {
          prefill_slots += (solo.stats().prefill_tokens - st0.prefill_tokens) * slots_per_token;
          prefill_experts += m1.activated_experts - m0.activated_experts - decoded * slots_per_token;
        }
        for (ktx::GenerationResult& g : solo.TakeResults()) {
          again.push_back(std::move(g));
        }
      }
      checks.push_back(again.size() == 1 && again[0].ok
                           ? CheckSameStream(r->id, r->tokens, again[0].tokens)
                           : CheckOutcome{"batch1_replay_identical", false, "replay failed"});
    }
  }
  if (args.trace) {
    metrics["moe.tokens_per_expert_prefill"] =
        prefill_experts > 0
            ? static_cast<double>(prefill_slots) / static_cast<double>(prefill_experts)
            : 0.0;
  }
  // Nothing below needs the engine; ending it frees its spinning threads for
  // the reference checks.
  engine.reset();
  const double replay_done_s = Now();

  // --- reference checks, one thread per sampled request ----------------------
  const ktx::RefModel ref(config, weights);
  const double margin = TeacherForcedMargin(config);
  std::vector<CheckOutcome> ref_checks(sample.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      threads.emplace_back([&, i] {
        ref_checks[i] = CheckTeacherForced(ref, p.request_of.at(sample[i]->id).prompt,
                                           sample[i]->tokens, eopts.n_deferred, margin);
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  checks.insert(checks.end(), ref_checks.begin(), ref_checks.end());
  const double reference_done_s = Now();
  MoeIsolation(*weights, config, eopts, args.seed, args.trace, &checks, &metrics);
  std::fprintf(stderr,
               "timeline: set-up %.1f s, workload and replay done %.1f s, reference done "
               "%.1f s, MoE isolation done %.1f s\n",
               setup_s, replay_done_s, reference_done_s, Now());

  // --- report -----------------------------------------------------------------
  bool correct = true;
  for (const CheckOutcome& c : checks) {
    correct = correct && c.ok;
  }
  std::int64_t failed = 0;
  for (const ktx::GenerationResult& r : p.results) {
    failed += r.ok ? 0 : 1;
  }
  PrintChecks(checks);
  ktx::JsonWriter w;
  w.BeginObject();
  w.Field("correct", correct);
  w.Field("attempted", static_cast<std::int64_t>(p.submitted.size()));
  w.Field("failed", failed);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& [name, value] : metrics) {
    std::fprintf(stderr, "metric %-36s %14.4f\n", name.c_str(), value);
    w.Field(name, std::isfinite(value) ? value : 0.0);
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace ktxbench

int main(int argc, char** argv) { return ktxbench::Main(argc, argv); }
