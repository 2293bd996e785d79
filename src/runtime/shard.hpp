// ProcessShardExecutor: batch execution sharded across worker subprocesses.
//
// A thread pool stops scaling at one machine's cores and shares one address
// space; process shards are the next rung.  This backend streams each job to
// a worker process (normally `edsim worker`) as one NDJSON line on stdin and
// reads one NDJSON result line per job from its stdout.  Since schema 2 the
// workers are *pooled*: a runtime::WorkerPool (worker_pool.hpp) keeps the
// fleet alive across batches, so repeated sweeps pay fork/exec and
// plan-cache warmup once instead of per batch.  The Executor contract is
// preserved exactly:
//
//  * Deterministic job-order merge — every result line carries its job
//    index and lands in the shared reorder buffer, so delivery is the
//    strictly increasing prefix regardless of shard scheduling.
//  * Resilience on worker death — by default a worker that exits (or
//    breaks protocol) mid-batch no longer fails its unfinished jobs: the
//    in-flight job is charged one attempt and the orphans are re-queued
//    to a healthy/respawned worker with exponential backoff, so the batch
//    completes byte-identical to an in-process run (retries are visible
//    in stats(), not in results).  A job that keeps killing workers is
//    *poisoned* once its attempt budget (Options::max_retries) runs out
//    and fails alone, carrying every attempt's exit status; optional job
//    and batch deadlines kill hung workers instead of stalling; a
//    crash-loop breaker quarantines the pool, optionally degrading to
//    in-process execution.  Setting max_retries to zero restores the
//    strict prefix rule: every unfinished job of a dead shard fails with
//    an ExecutionError naming the exit status, results before the lowest
//    failure are delivered, and a shard that answers all its jobs but
//    then deviates fails the batch after full delivery.  Either way the
//    next batch transparently respawns dead slots (workers_respawned).
//  * Per-shard plan caches — each worker keeps its own PlanCache and
//    reports compiled/hit counters in a per-batch summary line; jobs are
//    routed by JobSpec::group (the graph's structural hash), so one
//    structure is compiled by exactly one worker and the aggregated
//    counters match a single-process sweep (absent cache eviction).
//    Because the cache outlives the batch, a warm pool turns repeated
//    structures into hits across batches, not just within one.
//
// The wire format (`schema` 2) is NDJSON with a fixed field order — a
// private protocol between same-version binaries, versioned so a foreign
// schema is rejected loudly instead of misparsed.  Batches are framed
// explicitly so one worker process can serve many batches:
//
//   parent -> worker:  {"schema":2,"batch_begin":{"batch":B}}
//                      {"schema":2,"job":{"index":I,"algorithm":"T",
//                       "param":P,"threads":N,"max_rounds":R,
//                       ["async":{…},]"graph":"…"}}
//                      {"schema":2,"batch_end":{"batch":B}}
//   worker -> parent:  {"schema":2,"result":{"index":I,"rounds":R,
//                       "messages":M,"ports_served":S,"selected":"0110…"}}
//                      {"schema":2,"error":{"index":I,"message":"…"}}
//                      {"schema":2,"worker_summary":{"batch":B,"jobs":J,
//                       "plans_compiled":C,"plan_hits":H,"total_jobs":TJ,
//                       "total_compiled":TC,"total_hits":TH}}
//
// The optional `async` object serializes AsyncOptions (canonical delay
// spec, seed, loss/duplication probabilities at max_digits10 so they
// round-trip bit-exactly, round timeout, scripted crashes), which is what
// lets `--model async` jobs cross the wire.  Adversarial Schedules do NOT
// cross: they are an in-process search artifact (validate rejects them).
//
// Workers process jobs sequentially in arrival order and flush after every
// line, so the parent can interleave writing and reading without deadlock.
// A schema-2 worker answers `batch_end` with one `worker_summary` carrying
// per-batch AND cumulative cache counters, then waits for the next
// `batch_begin`; stdin EOF ends the process cleanly (exit 0).  For
// back-compat a worker whose *first* stdin line is a schema-1 job line
// runs the legacy single-batch protocol: jobs until EOF, then one
// schema-1 summary ({"jobs":J,"plans_compiled":C,"plan_hits":H}).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/batch.hpp"
#include "runtime/executor.hpp"
#include "runtime/fault.hpp"

namespace eds::runtime {

class WorkerPool;

/// The NDJSON protocol version spoken by ProcessShardExecutor and
/// `edsim worker` (and stamped on `edsim sweep --ndjson` output).
inline constexpr int kWireSchemaVersion = 2;

/// The oldest schema `edsim worker` still accepts (single-batch, no
/// framing, no async payload).  Anything outside [legacy, current] is
/// rejected loudly.
inline constexpr int kLegacyWireSchemaVersion = 1;

/// One job as it crosses the process boundary.
struct WireJob {
  std::size_t index = 0;     ///< global batch index, echoed in the result
  std::string algorithm;     ///< opaque token (algo::algorithm_from_token)
  Port param = 0;            ///< resolved factory parameter
  unsigned threads = 1;      ///< ExecOptions::threads inside the worker
  Round max_rounds = 0;      ///< RunOptions::max_rounds
  /// Asynchronous execution model, if any (schema >= 2 only).  The
  /// embedded Schedule must be empty: adversarial schedules never cross.
  std::optional<AsyncOptions> async;
  std::string graph_text;    ///< port::write_port_graph text form
};

/// Worker-side counters reported in the summary line that ends a batch.
/// Schema-1 workers report the three legacy fields once, at EOF; schema-2
/// workers add the batch id and cumulative process-lifetime totals, which
/// is how a warm pool proves its caches stayed hot across batches.
struct WorkerSummary {
  std::uint64_t batch_id = 0;        ///< echoed batch id (schema >= 2)
  std::uint64_t jobs = 0;            ///< result/error lines in this batch
  std::uint64_t plans_compiled = 0;  ///< PlanCache misses in this batch
  std::uint64_t plan_hits = 0;       ///< PlanCache hits in this batch
  std::uint64_t total_jobs = 0;      ///< jobs over the worker's lifetime
  std::uint64_t total_compiled = 0;  ///< lifetime PlanCache misses
  std::uint64_t total_hits = 0;      ///< lifetime PlanCache hits
};

/// One parsed line of worker output.
struct WorkerLine {
  enum class Kind { kResult, kError, kSummary };
  Kind kind = Kind::kResult;
  int schema = kWireSchemaVersion;  ///< version the worker spoke
  std::size_t index = 0;   ///< kResult / kError
  RunResult result;        ///< kResult (mask + stats; no trace/log)
  std::string message;     ///< kError
  WorkerSummary summary;   ///< kSummary
};

/// One parsed line of parent input, as seen by the worker main loop.
struct ParentLine {
  enum class Kind { kJob, kBatchBegin, kBatchEnd };
  Kind kind = Kind::kJob;
  int schema = kWireSchemaVersion;  ///< version the parent spoke
  WireJob job;                      ///< kJob
  std::uint64_t batch_id = 0;       ///< kBatchBegin / kBatchEnd
};

/// Wire codecs.  Encoders emit exactly one line (no trailing newline);
/// decoders are strict — any deviation from the fixed shape, including an
/// unknown schema version, throws InvalidArgument.  Worker-side encoders
/// take the schema to speak (a legacy-mode worker answers in schema 1).
[[nodiscard]] std::string encode_wire_job(const WireJob& job,
                                          int schema = kWireSchemaVersion);
[[nodiscard]] WireJob decode_wire_job(const std::string& line);
[[nodiscard]] std::string encode_batch_begin(std::uint64_t batch_id);
[[nodiscard]] std::string encode_batch_end(std::uint64_t batch_id);
[[nodiscard]] ParentLine decode_parent_line(const std::string& line);
[[nodiscard]] std::string encode_wire_result(std::size_t index,
                                             const RunResult& result,
                                             int schema = kWireSchemaVersion);
[[nodiscard]] std::string encode_wire_error(std::size_t index,
                                            const std::string& message,
                                            int schema = kWireSchemaVersion);
[[nodiscard]] std::string encode_worker_summary(const WorkerSummary& summary,
                                                int schema = kWireSchemaVersion);
[[nodiscard]] WorkerLine decode_worker_line(const std::string& line);

namespace detail {
/// Writer-thread fast path (worker_pool.cpp): escape each distinct graph
/// text once, then stamp job lines around the cached segment instead of
/// re-scanning the (potentially large) text per repeat.
void wire_escape(std::string& out, const std::string& text);
[[nodiscard]] std::string encode_wire_job_preescaped(
    const WireJob& job, const std::string& escaped_graph);
/// Diagnostic context for a protocol failure: `line 17 ("{"schema":2,…")`
/// — 1-based line number plus a truncated, escape-sanitized snippet of the
/// raw line, so a chaos-garbled frame is debuggable from the error alone.
[[nodiscard]] std::string describe_wire_line(std::size_t line_no,
                                             const std::string& line);
}  // namespace detail

// ---------------------------------------------------------------------------
// Deterministic process-level chaos (the `edsim worker --chaos SPEC` hook,
// also routed through the EDS_WORKER_CHAOS environment variable).  Every
// retry / deadline / quarantine path in the resilience layer is exercised
// by *replayable* worker misbehaviour: the spec is a pure function of
// (spec, job ordinal, wire index), so a failing run reproduces exactly.

/// One parsed `--chaos` specification.
///
///   crash:N        exit 7 after answering the Nth job (process-cumulative;
///                  `--fail-after K` is an alias for `crash:K`)
///   hang:N:MS      sleep MS ms before answering the Nth job
///   garbage:N      emit a non-protocol line instead of the Nth result and
///                  keep running (the parent kills on the violation)
///   slow:N:MS      write the Nth result line in two flushes MS ms apart
///   exit-mid:N     write half of the Nth result line and exit 11
///   poison:I       exit 13 on receiving the job with *wire index* I —
///                  the poison-job simulator: every worker that is handed
///                  job I dies, every time
///   rand:SEED:PM   seeded per-job draw: with probability PM/1000 apply one
///                  of crash / garbage / exit-mid / slow, chosen by the
///                  same draw (deterministic in SEED and the job ordinal)
struct ChaosSpec {
  enum class Mode {
    kNone,
    kCrash,
    kHang,
    kGarbage,
    kSlow,
    kExitMid,
    kPoison,
    kRandom,
  };
  Mode mode = Mode::kNone;
  std::uint64_t n = 0;         ///< job ordinal (1-based), or wire index (poison)
  std::uint64_t ms = 0;        ///< hang / slow delay
  std::uint64_t seed = 0;      ///< rand
  std::uint64_t permille = 0;  ///< rand: fault probability out of 1000
};

/// Parses a chaos spec ("" = none).  Throws InvalidArgument on anything
/// malformed — an unknown mode, a missing field, permille > 1000.
[[nodiscard]] ChaosSpec parse_chaos_spec(const std::string& spec);

/// Canonical text form; parse_chaos_spec(format_chaos_spec(s)) == s.
[[nodiscard]] std::string format_chaos_spec(const ChaosSpec& spec);

/// The action a worker applies to one job: a pure function of the spec,
/// the 1-based process-cumulative job ordinal, and the job's wire index.
/// kCrash in the result means "die after answering this job"; kNone means
/// behave normally.
struct ChaosAction {
  ChaosSpec::Mode mode = ChaosSpec::Mode::kNone;
  std::uint64_t ms = 0;
};
[[nodiscard]] ChaosAction chaos_action(const ChaosSpec& spec,
                                       std::uint64_t job_ordinal,
                                       std::size_t wire_index);

/// The process-sharding backend.  POSIX-only: constructing one on a
/// platform without fork/pipe throws InvalidArgument.
class ProcessShardExecutor final : public Executor {
 public:
  /// Aggregate counters across every run_streaming call (monotonic).
  /// plans_compiled/plan_hits sum the per-batch worker summaries, so a
  /// sweep can report cache effectiveness exactly as an in-process run
  /// would; workers_spawned counts every fork (a respawn increments both
  /// it and workers_respawned), so a warm second batch shows a spawn
  /// delta of zero.
  struct Stats {
    std::uint64_t jobs_shipped = 0;       ///< job shipments incl. retries
    std::uint64_t batches_run = 0;
    std::uint64_t workers_spawned = 0;
    std::uint64_t workers_respawned = 0;  ///< replacements for dead workers
    std::uint64_t workers_reaped = 0;     ///< idle-timeout retirements
    std::uint64_t plans_compiled = 0;
    std::uint64_t plan_hits = 0;
    // Resilience counters (all zero on a clean run, so the observable
    // sweep summary is byte-identical to the pre-resilience format).
    std::uint64_t jobs_retried = 0;     ///< orphaned jobs re-shipped
    std::uint64_t jobs_poisoned = 0;    ///< jobs whose attempt budget ran out
    std::uint64_t deadline_kills = 0;   ///< SIGKILLs for a blown job deadline
    std::uint64_t batch_timeouts = 0;   ///< batches cut off at the deadline
    std::uint64_t pool_quarantines = 0; ///< crash-loop breaker trips
    std::uint64_t fallback_jobs = 0;    ///< jobs rerouted in-process
    std::uint64_t summaries_lost = 0;   ///< batch summaries a death swallowed
  };

  /// Pool behaviour knobs (see WorkerPool for the lifecycle details).
  struct Options {
    /// Keep workers alive between run_streaming calls (the default).
    /// When false every batch forks a fresh fleet and drains it before
    /// returning — the pre-pool behaviour, kept as the `--no-pool`
    /// escape hatch and as the differential baseline for tests.
    bool pooled = true;
    /// A warm worker untouched for this long is retired at the start of
    /// the next batch (0 = never).  Pooled mode only.
    std::uint64_t idle_timeout_ms = 5 * 60 * 1000;
    /// Attempt budget per job beyond the first try.  A job orphaned by a
    /// worker death is re-queued (with backoff) until the budget runs out,
    /// at which point it is *poisoned*: it fails alone with per-attempt
    /// diagnostics while its batch siblings complete.  0 restores the
    /// strict pre-resilience prefix rule: any worker death fails every
    /// unfinished job of that shard and the batch throws.
    unsigned max_retries = 2;
    /// Base delay before a retry pass; doubles each pass, capped at 1s.
    std::uint64_t retry_backoff_ms = 10;
    /// A worker that goes this long without completing a result line is
    /// SIGKILLed (counted in deadline_kills) and its in-flight job charged
    /// an attempt + retried elsewhere.  0 = no job deadline.
    std::uint64_t job_timeout_ms = 0;
    /// Hard wall-clock bound for one batch: past it every still-running
    /// worker is killed and the unfinished jobs fail cleanly instead of
    /// hanging.  0 = no batch deadline.
    std::uint64_t batch_timeout_ms = 0;
    /// Crash-loop breaker: more worker deaths than this inside one batch
    /// quarantines the pool (0 = breaker off).  A quarantined pool fails
    /// fast — or degrades gracefully when fallback_inprocess is set —
    /// until drain() resets it.
    std::uint64_t breaker_deaths = 8;
    /// When the breaker trips (or a quarantined pool receives a batch),
    /// reroute the remaining jobs through in-process execution instead of
    /// failing them.  Results stay bit-identical by construction: workers
    /// run the same run_synchronous the fallback calls.
    bool fallback_inprocess = false;
  };

  /// `worker_command` is the argv of one shard process (e.g.
  /// {"/path/to/edsim", "worker"}); it must speak the wire protocol above.
  /// `shards` as in ExecOptions::threads: 0 = one shard per hardware
  /// thread.  Workers are spawned lazily — a shard no batch has routed a
  /// job to is never forked — so an idle executor holds no processes.
  explicit ProcessShardExecutor(std::vector<std::string> worker_command,
                                unsigned shards = 0);
  ProcessShardExecutor(std::vector<std::string> worker_command,
                       unsigned shards, Options options);
  ~ProcessShardExecutor() override;

  /// Every job must carry a JobSpec and must not request trace or message
  /// collection (those RunResult fields do not cross the wire).  Async
  /// jobs cross since schema 2, but their Schedule must be empty.
  void validate(const std::vector<BatchJob>& jobs) const override;

  /// Throws InvalidArgument (via validate) before anything is spawned.
  /// Batches are serialized: concurrent callers queue on the pool.
  void run_streaming(const std::vector<BatchJob>& jobs,
                     const ResultCallback& on_result) const override;

  /// Shard count after resolving 0 to the hardware thread count.
  [[nodiscard]] unsigned shards() const noexcept { return shards_; }

  /// Worker processes currently alive and warm (0 before the first batch,
  /// after an idle reap, or always in unpooled mode).
  [[nodiscard]] std::size_t live_workers() const;

  /// Retires pooled workers now (clean EOF + reap); the next batch
  /// respawns lazily.  Also lifts a quarantine.  No-op in unpooled mode.
  void drain() const;

  /// True while the pooled fleet is quarantined by the crash-loop breaker
  /// (always false in unpooled mode: an ephemeral pool's quarantine dies
  /// with its batch).  drain() resets it.
  [[nodiscard]] bool quarantined() const;

  [[nodiscard]] Stats stats() const;

 private:
  std::vector<std::string> worker_command_;
  unsigned shards_;
  Options options_;
  mutable std::mutex pool_mutex_;        ///< guards pool_ and retired_
  mutable std::unique_ptr<WorkerPool> pool_;  ///< live fleet (pooled mode)
  mutable Stats retired_;  ///< counters from already-drained pools
};

}  // namespace eds::runtime
