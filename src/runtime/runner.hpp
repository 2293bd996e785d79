// The synchronous executor for the port-numbering model.
//
// run_synchronous implements Section 2.2 of the paper exactly: in each round
// every non-halted node performs local computation, sends one message to each
// of its ports, and receives one message from each of its ports; the
// involution p routes traffic (including directed loops, where a node
// receives its own message).  Halted nodes emit silence and ignore input.
// The execution ends when every node has halted, or fails with
// ExecutionError when the round limit is exceeded (deterministic algorithms
// that do not halt would otherwise loop forever).
//
// The actual round loop lives in the engine layer (runtime/engine.hpp):
// run_synchronous runs it on the graph's own tables, on a ThreadPool of
// RunOptions::exec's lane count — one lane, run inline on the caller, by
// default.  A wider pool is leased from IdleLease (util/parallel.hpp), so
// back-to-back calls of one width start their threads once; nested and
// overlapping calls get pools of their own.  Every lane count produces
// bit-identical RunResults (outputs, stats, trace, message log order); the
// choice only affects wall-clock time.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/fault.hpp"
#include "runtime/program.hpp"

namespace eds::runtime {

class PlanCache;

/// Execution-engine selection (scheduling, structure counting, and the
/// execution *model*).  Everything except `async` never affects
/// results — every scheduling combination is bit-identical by differential
/// test.  `async` selects a different semantics on purpose: with the
/// α-synchronizer it is bit-identical too (that equivalence is itself a
/// differential oracle), without it results may legitimately differ.
struct ExecOptions {
  /// Lanes to shard each round's fused gather/receive/send pass over
  /// (contiguous ranges of the round's dispatch list balanced by port
  /// count, one barrier per round): 1 = inline on the caller (default),
  /// >1 = that many pool lanes, 0 = one lane per hardware thread.  At the
  /// batch level (`algo::run_batch`) this is instead the number of
  /// concurrent jobs.
  unsigned threads = 1;

  /// When set, the run counts its graph's structure in this cache (one
  /// PlanCache::get: a hit or a miss), so the cache reports the distinct
  /// structures its runs used; null counts nothing.  The run reads the
  /// graph itself either way, so the choice is invisible except in the
  /// cache's statistics.
  PlanCache* plan_cache = nullptr;

  /// When set, run_synchronous routes the run through the event-driven
  /// asynchronous engine (runtime/async.hpp) configured by these options
  /// instead of the round loop; the returned RunResult is the async run's
  /// `AsyncResult::run` (call run_asynchronous directly for the fault log
  /// and async counters).  The event loop is sequential, so `threads` only
  /// parallelizes across batch jobs, never within a run.
  std::optional<AsyncOptions> async = std::nullopt;

  [[nodiscard]] bool operator==(const ExecOptions&) const = default;
};

struct RunOptions {
  /// Hard cap on rounds; exceeding it throws ExecutionError.  Must be
  /// positive — a zero cap is rejected up front with InvalidArgument.
  Round max_rounds = 100000;

  /// Record a per-round trace (message counts, halts) in RunResult::trace.
  bool collect_trace = false;

  /// Record every delivered non-silence message in RunResult::message_log
  /// (for transcripts and debugging; memory grows with traffic).
  bool collect_messages = false;

  /// Lanes, structure counting and execution model; only the model can
  /// affect results.
  ExecOptions exec;
};

/// One delivered message, as recorded by RunOptions::collect_messages.
struct DeliveredMessage {
  Round round = 0;
  port::PortRef from;  ///< sender's (node, port)
  port::PortRef to;    ///< receiver's (node, port)
  Message payload;

  [[nodiscard]] bool operator==(const DeliveredMessage&) const = default;
};

/// Aggregate execution statistics.
struct RunStats {
  Round rounds = 0;                 ///< rounds until the last node halted
  std::uint64_t messages_sent = 0;  ///< non-silence messages over all rounds

  /// Total port-slots of *non-halted* nodes, summed over rounds: each round
  /// contributes the degree of every node that is still running.  Halted
  /// nodes neither send nor receive, so their ports are not "served"
  /// (invariant: ports_served == Σ_v d(v) · halt_round(v)).  A model
  /// quantity: the round engine skips nodes that sleep through a round
  /// and adds d(v) · halt_round(v) when v halts; the dispatches it really
  /// makes are EngineStageStats::dispatched (runtime/engine.hpp).
  std::uint64_t ports_served = 0;

  [[nodiscard]] bool operator==(const RunStats&) const = default;
};

/// Per-round trace entry (only with RunOptions::collect_trace).
struct RoundTrace {
  Round round = 0;
  std::uint64_t messages = 0;   ///< non-silence messages this round
  std::size_t halted_nodes = 0; ///< cumulative halted count after the round

  [[nodiscard]] bool operator==(const RoundTrace&) const = default;
};

/// Execution outcome: every node's announced output plus statistics.
struct RunResult {
  /// The announced outputs as one flat per-port mask: selected[q] is 1
  /// when flat port q = PortGraph::offset(v) + i - 1 is in X(v), else 0.
  /// selected_ports() (runtime/outputs.hpp) reads one node's X(v).
  std::vector<std::uint8_t> selected;
  RunStats stats;
  std::vector<RoundTrace> trace;
  std::vector<DeliveredMessage> message_log;

  /// Whether RunOptions::collect_messages was on — distinguishes "no
  /// messages were recorded" from "recording was disabled".
  bool messages_collected = false;

  [[nodiscard]] bool operator==(const RunResult&) const = default;
};

/// Renders a recorded message log as a human-readable round-by-round
/// transcript ("r3  (5,2) -> (7,1)  tag=3 [1 0 0]").  When the run was
/// executed without RunOptions::collect_messages, says so explicitly
/// instead of printing an empty transcript.
[[nodiscard]] std::string format_transcript(const RunResult& result);

/// Runs `factory`'s program on every node of `g` until all halt, through
/// ProgramFactory::run: by default the programs are built through
/// ProgramFactory::create_all into one ProgramArena, which lives for the
/// duration of the call, and run over NodeProgram*; the built-in factories
/// run their own typed instantiation of the round loop instead.
[[nodiscard]] RunResult run_synchronous(const port::PortGraph& g,
                                        const ProgramFactory& factory,
                                        const RunOptions& options = {});

/// Runs caller-provided per-node programs (programs[v] runs on node v).
/// This is the entry point for *non-anonymous* models — e.g. the ID-model
/// baselines of Section 1.3, where each node's program is seeded with a
/// unique identifier.  The synchronous semantics are identical.
[[nodiscard]] RunResult run_synchronous_programs(
    const port::PortGraph& g,
    std::vector<std::unique_ptr<NodeProgram>> programs,
    const RunOptions& options = {}, const std::string& name = "custom");

}  // namespace eds::runtime
