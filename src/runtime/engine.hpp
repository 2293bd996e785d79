// The execution engine: the lanes that drive the synchronous rounds over a
// port graph's own tables.
//
// The paper's algorithms are local — O(1) or O(∆²) rounds — so essentially
// all wall-clock time in this reproduction is simulator overhead, not
// algorithm logic.  This layer attacks that overhead twice over:
//
//  * The round loop takes the graph's three flat uint32 tables (port
//    offsets, the involution as flat indices, and the node owning each
//    partner port) as raw pointers once per run, so the inner loops never
//    pay PortGraph's bounds-checked lookups.
//
//  * run_plan schedules each round over a *dispatch list*: the nodes that
//    are due by their wake hint (NodeProgram::wake_hint) or have a
//    non-silence message waiting, in ascending node order.  Halted and
//    sleeping nodes cost nothing, and a round with nothing to do is
//    skipped without a barrier.  Senders set their receivers' wake bits
//    while they count their segment; hints past next round wait in an
//    O(n) calendar.  Until the first node hints past next round, every
//    live node is due every round, so the list keeps every live node, no
//    wake bit is set and no sparse state is set up — a program without
//    hints runs that way to the end.
//    A ThreadPool (make_policy) spreads the shards across its lanes; a
//    one-lane pool runs them inline.  Shard boundaries equalize *port*
//    counts, not node counts (balanced_shard_bounds), so power-law degree
//    sequences cannot starve all lanes but one.
//
//  * Message transport is sender-indexed and double-buffered: each buffer
//    holds one round's messages at their *senders'* flat ports (programs
//    write straight into their own contiguous segment — sequential stores,
//    no staging copy, single-writer by construction).  Each round runs ONE
//    sharded stage behind ONE barrier: a node gathers its round-r input
//    from the current buffer *through the involution* (delivery IS the
//    gather — the permutation is applied on the read side, where loads
//    pipeline, instead of as scattered stores), then — unless it halted —
//    writes round r+1 into its own segment of the next buffer and counts
//    that segment's non-silence slots while it is still in L1; the buffers
//    swap after the barrier.  A halting node is silenced with two
//    contiguous fills of its own segment, and the buffers are never reset
//    between runs: every slot a live receiver reads was written this run
//    by its owner in the round before, or silenced — when the owner halted
//    (at start() or in a round), or after its messages were read, unless
//    it runs again and rewrites them.  (Message storage stays
//    array-of-structs: struct-of-arrays splits, of the whole message or of
//    the tag alone, measured as net costs — see ARCHITECTURE.md.)
//
// Hard guarantee, enforced by differential tests: every lane count produces
// bit-identical RunResults — outputs, stats, trace, and message-log order —
// identical to dispatching every node every round, as long as every wake
// hint is correct (never late).
// Parallel merges always combine per-shard results in shard (= node-range)
// order, which is exactly the sequential order; see ARCHITECTURE.md for
// the full double-buffer determinism argument.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/program.hpp"
#include "runtime/runner.hpp"
#include "util/parallel.hpp"

namespace eds::runtime {

/// The name edsbench's traced replay gives the graph it runs (PlanCache::get
/// hands it one): the engines run on the port graph's own tables, so the
/// plan is the graph.  Nothing in the library uses the name.
using ExecutionPlan = port::PortGraph;

/// The thread pool ExecOptions selects: ExecOptions::threads lanes.  Each
/// round's shards run on it, one barrier per stage; a one-lane pool runs
/// every shard inline on the caller.  Reusable across runs, but not safe
/// for concurrent use by multiple runs.
[[nodiscard]] std::unique_ptr<ThreadPool> make_policy(const ExecOptions& exec);

/// Drives `programs` (one per node, already constructed, not yet started)
/// over `g` until every node halts, scheduling stages on `pool`, then
/// collects every node's output into the result's flat selection mask.
/// This is the engine core under run_synchronous; call it directly to
/// reuse a thread pool across runs.  The programs stay owned by the caller
/// (e.g. a ProgramArena).
///
/// Message transport is pooled: both outbox buffers, the dispatch list,
/// the wake state and the per-shard scratch all live in a per-thread
/// workspace that is reused
/// (not reallocated, and the outboxes not even reset) across runs, so
/// repeated executions on one lane perform no per-run buffer allocation
/// once the workspace has grown to the largest graph seen.  The double
/// buffer costs a second port-count-sized Message array of pooled bytes —
/// the price of running each round behind a single barrier.
[[nodiscard]] RunResult run_plan(const port::PortGraph& g,
                                 std::span<NodeProgram* const> programs,
                                 const RunOptions& options,
                                 const std::string& name, ThreadPool& pool);

/// run_plan over caller-owned heap programs.
[[nodiscard]] RunResult run_plan(
    const port::PortGraph& g,
    std::vector<std::unique_ptr<NodeProgram>>& programs,
    const RunOptions& options, const std::string& name, ThreadPool& pool);

/// Allocation-pressure counters for the pooled message transport
/// (process-wide, monotonic except `workspace_bytes`).  A healthy steady
/// state shows `workspace_reuses` ~ runs and `workspace_growths` ~ the
/// number of distinct lanes times the number of times a strictly larger
/// graph appeared; bench_micro_runtime exports the deltas per benchmark.
struct EngineAllocStats {
  std::uint64_t workspace_reuses = 0;   ///< runs served without growing
  std::uint64_t workspace_growths = 0;  ///< runs that grew a pooled buffer
  std::uint64_t workspace_bytes = 0;    ///< bytes currently pooled, all lanes

  [[nodiscard]] bool operator==(const EngineAllocStats&) const = default;
};

/// Snapshot of the pooled-transport counters.
[[nodiscard]] EngineAllocStats engine_alloc_stats() noexcept;

/// Round-loop wall time, rounds and node dispatches, accumulated by every
/// run_plan (process-wide, monotonic).  A run takes two timestamps, one
/// before the initial exchange and one after the last round: `round_ns`
/// sums the time between them, `rounds` the rounds the runs covered
/// (skipped rounds included), and `dispatched` the node dispatches
/// (receive plus send) they made — Σ_v halt_round(v) for a program without
/// wake hints, less for one with them.  A run that throws adds nothing.
/// bench_micro_runtime exports the deltas per benchmark.
struct EngineStageStats {
  std::uint64_t round_ns = 0;    ///< round-loop wall time
  std::uint64_t rounds = 0;      ///< rounds run
  std::uint64_t dispatched = 0;  ///< node dispatches

  [[nodiscard]] bool operator==(const EngineStageStats&) const = default;
};

/// Snapshot of the stage counters.
[[nodiscard]] EngineStageStats engine_stage_stats() noexcept;

}  // namespace eds::runtime
