// Low-concurrency serving loop (paper §1: "local deployments with low
// concurrency (e.g., single or few requests per batch)").
//
// Requests wait in a bounded admission queue; the loop admits up to
// `max_concurrent` generations, each on its own engine session (independent
// KV cache over the shared weights and captured decode graph). Sessions are
// pooled: the engine's session 0 is the first handed out, and new ones are
// created up to EngineOptions::max_sessions; at that bound an admission
// waits for an in-flight request to pool its session. The loop owns every
// session it hands out, session 0 included. Decoding is
// *continuous batching*: every iteration admits into free slots, decodes ALL
// decoding requests in one HybridEngine::DecodeBatch call (one graph replay,
// one MoE request per layer for the whole batch), and retires finished rows
// in place — a freed slot is refilled on the very next iteration. Per-request
// outputs are bit-identical to the sequential batch-1 loop (engine
// guarantee); `batched_decode = false` keeps the old round-robin DecodeStep
// loop, which tests use as the reference.
//
// Stall-free admission (§4.1 chunked prefill, Sarathi-style): with
// `prefill_budget_tokens > 0` (the default) an admitted request enters a
// *prefilling* state holding an engine PrefillCursor instead of running its
// whole prompt synchronously. Each sweep spends at most the budget advancing
// prompt tokens — whole engine chunks — then decodes every active row in one
// batch, so the decode cadence (TBT) is bounded by the budget, not by the
// longest queued prompt. Budget accounting is whole-chunk: it is checked
// before each chunk, guaranteeing at least one chunk of progress per sweep
// and bounding per-sweep overshoot by prefill_chunk - 1 tokens. A budget of 0
// restores synchronous admission (the whole prompt prefills inside the
// admitting sweep), which benches use as the stall baseline. Token streams
// are bit-identical between the two modes: chunk boundaries are engine-fixed
// and sessions are isolated.
//
// SLO-aware scheduling (ServingOptions::policy): every scheduling decision —
// which waiting request to admit, which prefilling row gets the next budget
// chunk, which row to preempt — orders candidates by priority class first,
// then by *slack to deadline*: deadline_s minus elapsed time minus the
// estimated remaining work (prefill chunks times an EMA of measured
// per-chunk seconds, plus remaining tokens times an EMA of per-sweep decode
// seconds). Within a priority class, requests whose deadline is already
// estimated unreachable sort last (serving them would burn capacity a
// feasible request could use; they expire cheaply in the queue instead of
// expensively mid-decode). kFifo keeps pure submit order as the measurable
// baseline. No deadline means infinite slack; ties break by submit order, so
// a deadline-free equal-priority workload schedules exactly like FIFO.
//
// Preemption (kSlackPreempt): when every slot is busy and the best waiting
// request outranks the lowest-priority running row (strictly — equal
// priority never preempts, so no ping-pong), the victim is evicted
// KV-preserved and re-queued in a *preempted* state. A prefilling victim
// simply re-queues as pending (it has sampled nothing; re-running its prompt
// through the same engine-fixed chunk grid is bit-identical by the stall-free
// guarantee, and its full prompt blocks are usually still in the prefix
// cache). A decoding victim must NOT re-prefill its generated tokens —
// chunked prefill is not bitwise-identical to batch-1 decode (ARI kernel
// dispatch differs with tokens-per-expert) — so its exact KV bits are saved:
// serialized to a KTXV blob, and (paged engines) its full blocks re-registered
// in the pool's prefix cache before the session resets, making resume mostly
// a block-table adoption of the very same physical rows plus a blob copy of
// the tail. The Sampler (with its RNG state), emitted tokens, pending sampled
// token and Submit-anchored clock travel with the preempted entry, so a
// resumed stream is bit-identical to an uninterrupted run. A resume that
// cannot get blocks is retried after retirements free them.
//
// Request lifecycle: every request ends in exactly one terminal state,
// recorded on its GenerationResult as {ok, status, finish_reason}. Invalid
// requests and a full queue are rejected at Submit (never an abort); admitted
// requests retire with EOS / length on success, or kv_exhausted / deadline /
// backend_error when capacity runs out, the wall-clock budget expires, or an
// injected backend fault hits their session — including *during* a chunked
// prefill. The queue itself is swept for expired deadlines every iteration
// (and at Submit when full), so a dead request can never pin a max_queue slot
// and starve fresh arrivals. Queue expiries count requests_deadline_expired,
// NOT requests_rejected: an SLO miss is not an admission rejection.
//
// Single-threaded by design: the engine already parallelizes inside each
// step (CPU worker pool + GPU stream), and the control flow here is the
// simple dispatcher a local deployment runs. RunOnce exposes one sweep so
// open-loop drivers (bench/bench_serving_slo.cc) can interleave Submit with
// the loop's progress.

#ifndef KTX_SRC_SERVE_SERVING_H_
#define KTX_SRC_SERVE_SERVING_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/metrics.h"
#include "src/common/status.h"
#include "src/common/stopwatch.h"
#include "src/core/engine.h"
#include "src/model/sampler.h"

namespace ktx {

// Terminal state of a request. kNone only while the request is in flight
// (queued, prefilling, decoding, or preempted — preemption is a scheduling
// state, not a terminal one: a preempted request resumes or expires).
enum class FinishReason {
  kNone = 0,
  kEos,           // emitted the request's eos_token
  kLength,        // reached max_new_tokens
  kKvExhausted,   // session KV cache ran out of positions mid-generation
  kRejected,      // never admitted: invalid request, full queue, no session
  kDeadline,      // wall-clock deadline expired (queued, prefilling or decoding)
  kBackendError,  // backend fault attributed to this request (or its sweep)
};
std::string_view FinishReasonName(FinishReason reason);

// Scheduling policy for admission order, prefill-budget order and preemption.
enum class SchedulePolicy {
  kFifo = 0,          // pure submit order; no preemption (the baseline)
  kSlack = 1,         // priority class, then least slack-to-deadline
  kSlackPreempt = 2,  // kSlack + KV-preserving preemption of lower-priority rows
};
std::string_view SchedulePolicyName(SchedulePolicy policy);

// Highest admissible GenerationRequest::priority (inclusive).
inline constexpr int kMaxRequestPriority = 3;

struct GenerationRequest {
  std::vector<int> prompt;
  int max_new_tokens = 32;
  SamplerOptions sampling;  // temperature 0 = greedy
  int eos_token = -1;       // stop token; -1 disables
  // Wall-clock budget measured from Submit; 0 disables (negative is
  // kInvalidArgument — it is NOT a silent "no deadline"). Checked by the
  // per-iteration queue sweep, at admission, between prefill chunks, and once
  // per decode sweep; an expired request retires with finish_reason kDeadline
  // and a kDeadlineExceeded status.
  double deadline_s = 0.0;
  // Scheduling class, [0, kMaxRequestPriority]; higher is more important.
  // Under kSlackPreempt a waiting request preempts only rows of STRICTLY
  // lower priority.
  int priority = 0;
};

struct GenerationResult {
  std::uint64_t id = 0;
  std::vector<int> tokens;
  bool stopped_at_eos = false;  // == (finish_reason == kEos); kept for compat
  // Terminal state: ok mirrors status.ok(). EOS and length finishes are OK;
  // every other finish carries the error that retired the request.
  bool ok = true;
  Status status;
  FinishReason finish_reason = FinishReason::kNone;
  std::int64_t prompt_tokens = 0;
  // Times this request was preempted (evicted from its slot and later
  // resumed or expired). The token stream is unaffected by construction.
  int preemptions = 0;
  // Wall-clock request metrics (this process; the paper-scale numbers come
  // from the timed plane). All are measured from Submit, so queue wait is
  // visible: queue_seconds <= time_to_first_token_s <= total_seconds.
  double queue_seconds = 0.0;          // Submit -> (latest) admission
  double time_to_first_token_s = 0.0;  // Submit -> first sampled token
  double total_seconds = 0.0;          // Submit -> terminal state
};

struct ServingOptions {
  // Bounds simultaneously active generations (sessions are pooled, reused).
  // Prefilling requests occupy a slot: they hold a session.
  int max_concurrent = 2;
  // Continuous batching (default) vs. the round-robin batch-1 reference loop.
  bool batched_decode = true;
  // Bound on queued-but-unadmitted requests. Submit past it rejects the new
  // request with kResourceExhausted instead of queueing without limit —
  // after first sweeping expired entries out of the queue, so dead requests
  // never hold capacity against live ones.
  int max_queue = 256;
  // Prompt tokens each sweep may spend advancing prefilling requests before
  // the decode batch runs (Sarathi-style chunked-prefill budget). Spent in
  // whole engine chunks, checked before each chunk, best-scheduled request
  // first: a sweep always makes >= 1 chunk of progress and overshoots by at
  // most prefill_chunk - 1 tokens. Lower budget => tighter TBT bound for
  // decoding neighbors but later TTFT for long prompts; 0 => synchronous
  // admission (the legacy stall-prone behavior, kept as the measurable
  // baseline).
  std::int64_t prefill_budget_tokens = 256;
  // Scheduling policy (see the header comment). The default kSlack is
  // behaviorally identical to kFifo for workloads without deadlines or
  // priorities (infinite slack ties break by submit order).
  SchedulePolicy policy = SchedulePolicy::kSlack;
};

class ServingLoop {
 public:
  struct Stats {
    // Requests that reached a terminal state after admission (any finish).
    std::int64_t requests_completed = 0;
    // Requests rejected at Submit (never admitted): invalid argument, full
    // queue, no session. Deadline expiries are NOT rejections — see
    // requests_deadline_expired.
    std::int64_t requests_rejected = 0;
    // Admitted requests retired with a non-OK status.
    std::int64_t requests_failed = 0;
    // Requests whose wall-clock deadline expired, on ANY path: still queued
    // (never admitted — counted here only), mid-prefill, mid-decode or while
    // preempted (those also count requests_completed + requests_failed, like
    // every post-admission failure).
    std::int64_t requests_deadline_expired = 0;
    std::int64_t tokens_generated = 0;
    // Goodput: tokens of requests that finished OK *within their deadline*
    // (deadline-free requests count in full; a late or failed request
    // contributes zero — its tokens were wasted work). The SLO counterpart
    // of tokens_generated, and the number the scheduling policies compete on.
    std::int64_t goodput_tokens = 0;
    // Preemption telemetry (kSlackPreempt only). preemptions counts
    // evictions; preempt_resumes counts successful re-admissions;
    // preempt_tokens_preserved counts KV positions a resume restored without
    // recompute (blob copy or block adoption), of which
    // preempt_tokens_adopted came straight from the paged prefix cache as a
    // block-table adoption of the victim's own blocks.
    std::int64_t preemptions = 0;
    std::int64_t preempt_resumes = 0;
    std::int64_t preempt_tokens_preserved = 0;
    std::int64_t preempt_tokens_adopted = 0;
    // Engine decode calls: one per DecodeBatch (batched) / DecodeStep
    // (sequential). Batching shows up as fewer iterations for the same
    // tokens_generated.
    std::int64_t decode_iterations = 0;
    // Tokens produced by those decode calls (excludes the prefill-sampled
    // first token of each request).
    std::int64_t decoded_tokens = 0;
    // Prompt tokens pushed through prefill, and the engine chunks that
    // carried them (interleaved mode advances chunk by chunk; synchronous
    // admission counts one chunk per prefill_chunk-sized piece).
    std::int64_t prefill_tokens = 0;
    std::int64_t prefill_chunks = 0;
    int peak_concurrency = 0;
    // Widest single decode batch issued.
    int peak_batch = 0;
    // Streaming latency distributions (seconds), the SLO view of the loop:
    // ttft_s records Submit -> first sampled token per admitted request;
    // tbt_s records every gap between consecutive sampled tokens of the same
    // request, across all requests. Tail TBT is what a synchronous long
    // prefill wrecks and the budget bounds — p99(tbt_s) is the number the
    // stall-free bench asserts on.
    LatencyHistogram ttft_s;
    LatencyHistogram tbt_s;
    // Paged-KV pool telemetry, sampled once per sweep (all zero when the
    // engine runs contiguous caches). prefix_tokens_reused counts prompt
    // tokens served from the pool's prefix cache instead of prefill compute;
    // prefix_hit_rate is cache hits over lookups (one lookup per empty-start
    // prompt with >= 1 full block). kv_blocks_in_use is the PEAK pool
    // occupancy observed, and kv_utilization that peak over the pool's total
    // blocks — the capacity-planning pair: high utilization with low hit rate
    // means the pool is sized for genuinely distinct contexts.
    std::int64_t prefix_tokens_reused = 0;
    double prefix_hit_rate = 0.0;
    std::int64_t kv_blocks_in_use = 0;
    double kv_utilization = 0.0;
    // Expert-placement cache telemetry, sampled once per sweep (all zero when
    // the engine runs without placement). Lookups/hits count routed slots:
    // a hit is a slot served from the vGPU-resident hot-expert cache instead
    // of streaming cold expert weights on the CPU — cold_bytes_saved is the
    // weight traffic those hits avoided. Promotions/demotions count the
    // cache-management transfers issued by the EMA rebalancer.
    std::int64_t expert_cache_lookups = 0;
    std::int64_t expert_cache_hits = 0;
    double expert_cache_hit_rate = 0.0;
    std::int64_t expert_promotions = 0;
    std::int64_t expert_demotions = 0;
    std::int64_t expert_hot_bytes = 0;
    std::int64_t expert_cold_bytes_saved = 0;

    // Appends this snapshot as a JSON object on `w` (histograms as
    // {count, mean_s, min_s, max_s, p50_s, p95_s, p99_s}). The single
    // serialization path every BENCH_*.json emitter shares.
    void AppendJson(JsonWriter& w) const;
    // The same object as a standalone string.
    std::string ToJson() const;
    // Mirrors every field into the process metrics registry under
    // "serving.*" names (counters for monotonic totals, gauges for rates and
    // peaks, histograms for ttft/tbt), so ToPrometheusText() exports them.
    void PublishTo(MetricsRegistry* registry) const;
  };

  // The engine must outlive the loop.
  explicit ServingLoop(HybridEngine* engine, ServingOptions options = {});
  // Compat spelling of the two historical knobs.
  ServingLoop(HybridEngine* engine, int max_concurrent, bool batched_decode = true);

  // Enqueues a request and returns its id. Never aborts: an invalid request
  // (empty prompt, out-of-vocab token, max_new_tokens < 1, negative
  // deadline_s, priority outside [0, kMaxRequestPriority], or a doomed
  // capacity ask — prompt.size() + max_new_tokens > max_seq can never finish,
  // so it is rejected here instead of burning prefill work and dying
  // kv_exhausted later) or a full queue produces an immediate terminal result
  // with finish_reason kRejected, returned by RunToCompletion like any
  // other. Thread-compatible (call from the same thread as Run*).
  std::uint64_t Submit(GenerationRequest request);

  std::size_t pending() const {
    return queue_.size() + prefilling_.size() + active_.size() + preempted_.size();
  }

  // Runs ONE scheduling sweep: queue deadline sweep, admission (+ preemption
  // under kSlackPreempt), budgeted prefill, token consumption/retirement,
  // failure sweep, one batched decode. A no-op when nothing is pending.
  // Returns the number of requests that reached a terminal state. Open-loop
  // drivers interleave Submit with RunOnce and collect via TakeResults().
  int RunOnce();
  // Terminal results accumulated so far (terminal order), clearing the
  // internal buffer.
  std::vector<GenerationResult> TakeResults();

  // Runs sweeps until everything pending completes. Results are returned in
  // terminal order (rejections first).
  std::vector<GenerationResult> RunToCompletion();

  const Stats& stats() const { return stats_; }

 private:
  struct Pending {
    std::uint64_t id = 0;
    GenerationRequest request;
    Stopwatch submitted;  // running since Submit
    // Carried across a mid-prefill preemption (the row re-queues as pending;
    // its count must survive to the result).
    int preemptions = 0;
  };

  // One admitted request. Lives in prefilling_ while its PrefillCursor still
  // has prompt tokens left (the kPrefilling state), then moves to active_
  // once its first token is sampled (the decoding state).
  struct Active {
    std::uint64_t id = 0;
    int session = -1;
    GenerationRequest request;
    GenerationResult result;
    Sampler sampler;
    PrefillCursor cursor;  // engaged while prefilling
    int last_token = -1;
    double last_emit_s = 0.0;  // clock reading at the previous sampled token
    Stopwatch clock;  // copied from Pending::submitted: running since Submit
    // Name of the request's currently-open nested lifecycle span ("prefill",
    // "decode", "preempted", "queued") on its trace track, or nullptr.
    const char* trace_phase = nullptr;

    Active(std::uint64_t rid, GenerationRequest req)
        : id(rid), request(std::move(req)), sampler(request.sampling) {}
  };

  // A decoding row evicted by preemption: the full Active state (sampler RNG,
  // emitted tokens, pending sampled token, Submit clock) minus the session,
  // plus what a bit-exact resume needs — the serialized KV and the token
  // history it covers (prompt + every decoded token fed back).
  struct Preempted {
    Active row;
    std::string kv_blob;
    std::vector<int> history;

    explicit Preempted(Active&& r) : row(std::move(r)) {}
  };

  // Scheduling key; see ScheduledBefore for the ordering.
  struct SchedKey {
    int priority = 0;
    bool infeasible = false;  // deadline set and estimated unreachable
    double slack_s = 0.0;     // +inf when no deadline
    std::uint64_t id = 0;
  };

  // Submit-time validation of everything the caller controls.
  Status ValidateRequest(const GenerationRequest& request) const;
  // Records a terminal result for a request that never got admitted.
  void Reject(std::uint64_t id, const GenerationRequest& request, Status status,
              FinishReason reason, double elapsed_s);
  // Terminal kDeadline for a queued (never admitted) request: counts
  // requests_deadline_expired, not requests_rejected/completed/failed.
  void ExpireQueued(Pending&& pending, double waited_s);
  // Removes expired requests from the queue and the preempted set. Runs
  // every sweep and from Submit when the queue is full, so expired requests
  // never pin queue slots (the starvation bug) and preempted requests cannot
  // wait past their deadline unnoticed.
  void SweepQueueDeadlines();

  // --- scheduling ----------------------------------------------------------
  // Remaining-work estimates from measured EMAs (optimistic zero until the
  // first measurement; the estimate only orders requests, never gates them).
  void NoteChunkSeconds(double s);
  void NoteSweepSeconds(double s);
  double EstimateQueuedSeconds(const GenerationRequest& request) const;
  // Estimated seconds for a running row to finish (remaining prefill chunks
  // plus remaining decode sweeps at the measured EMAs).
  double EstimateActiveSeconds(const Active& row) const;
  SchedKey MakeKey(int priority, double deadline_s, double elapsed_s, double estimate_s,
                   std::uint64_t id) const;
  SchedKey KeyOf(const Pending& pending) const;
  SchedKey KeyOf(const Preempted& preempted) const;
  SchedKey KeyOf(const Active& row) const;  // prefilling or decoding
  // Strict weak order: true if `a` should be scheduled before `b` under the
  // configured policy (kFifo: submit order; otherwise priority desc, feasible
  // before infeasible, slack asc, submit order).
  bool ScheduledBefore(const SchedKey& a, const SchedKey& b) const;
  // Index of the best-scheduled entry, or -1 when empty.
  int BestQueuedIndex() const;
  int BestPreemptedIndex() const;

  // Fills free slots from the queue and the preempted set in scheduling
  // order. Admission is gated on real KV headroom: contiguous engines size
  // every session to max_seq, but paged engines draw from one shared pool, so
  // a request whose (post-prefix-sharing) block reservation — or KV restore —
  // fails while other rows are in flight is put back to retry after
  // retirements free blocks; it only fails kv_exhausted when nothing in
  // flight could ever unblock it.
  void AdmitWaiting();
  // Admits queue_[index] into a free slot (erases it from the queue).
  // Returns false when admission must stop this sweep (pool pressure).
  bool AdmitPending(std::size_t index);
  // Resumes preempted_[index]: acquires a session, restores the saved KV
  // (paged: adopting the victim's own still-cached blocks first), and
  // re-joins active_ exactly where it left off. Returns false when the
  // restore hit pool pressure and admission must stop this sweep.
  bool ResumePreempted(std::size_t index);
  // kSlackPreempt: while the best waiting request strictly outranks the
  // worst-scheduled running row, evict that victim (KV-preserved for
  // decoding rows; back to pending for prefilling rows) and re-admit.
  void MaybePreempt();
  void PreemptPrefilling(std::size_t index);
  void PreemptDecoding(std::size_t index);

  // Spends this sweep's prefill token budget advancing prefilling requests in
  // scheduling order; completed ones sample their first token and join
  // active_. Deadlines are re-checked between chunks; a chunk-level engine
  // error (injected fault, KV overrun) retires only that request.
  void AdvancePrefill();
  // Records a freshly sampled token into the latency histograms.
  void NoteFirstToken(Active* active);
  void NoteDecodedToken(Active* active);
  // Consumes `active`'s pending sampled token; returns true if the request
  // is finished (EOS or max_new_tokens) and should be retired.
  bool ConsumeToken(Active* active);
  // Retires rows whose deadline expired or whose session has an injected
  // backend fault (prefilling and decoding rows), or whose KV cache has no
  // room for the next token (decoding rows) — leaving batch siblings
  // untouched. Paged engines get a second, aggregate pass: rows sharing one
  // block pool can each have room individually yet not fit together, so the
  // youngest rows (least sunk work) retire kv_exhausted until the sweep's
  // total block need fits the pool.
  void SweepFailures();
  // Folds the engine's prefix-cache counters and the pool's occupancy into
  // stats_ (peak-tracking for blocks in use). No-op sans paged pool except
  // for prefix_tokens_reused, which mirrors the engine counter.
  void SampleKvStats();
  // Mirrors the engine's expert-cache counters into stats_ (no-op values
  // when placement is disabled).
  void SampleExpertCacheStats();
  // Closes the row's open lifecycle span (if any) and opens `phase` on its
  // request track; phase == nullptr just closes. No-ops when tracing is off.
  void TracePhase(Active* row, const char* phase);
  // Terminal bookkeeping shared by every retirement path.
  void RetireRow(Active&& active);
  void FailRow(Active&& active, FinishReason reason, Status status);
  void FailActive(std::size_t index, FinishReason reason, Status status);
  void Retire(std::size_t index);
  // Decodes one token for every decoding request: one DecodeBatch sweep
  // (chunked by the engine's max_batch) or sequential DecodeSteps. A
  // whole-chunk backend failure (not attributable to one row) retires every
  // row of that chunk with kBackendError; other chunks are unaffected.
  void DecodeActive();

  HybridEngine* engine_;
  ServingOptions options_;
  std::uint64_t next_id_ = 1;
  std::deque<Pending> queue_;
  std::vector<Active> prefilling_;   // admitted, prompt not fully processed
  std::vector<Active> active_;       // decoding
  std::deque<Preempted> preempted_;  // evicted, waiting to resume
  std::vector<int> free_sessions_;
  std::vector<GenerationResult> completed_;
  // Measured-work EMAs feeding the slack estimate (seconds; 0 = no sample
  // yet). One sweep produces one token per active row, so per-sweep decode
  // seconds approximate a request's TBT.
  double ema_chunk_s_ = 0.0;
  double ema_sweep_s_ = 0.0;
  Stats stats_;
};

}  // namespace ktx

#endif  // KTX_SRC_SERVE_SERVING_H_
