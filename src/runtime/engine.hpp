// The execution engine: a compiled per-graph plan plus pluggable policies
// that decide *how* the synchronous rounds are driven.
//
// The paper's algorithms are local — O(1) or O(∆²) rounds — so essentially
// all wall-clock time in this reproduction is simulator overhead, not
// algorithm logic.  This layer attacks that overhead twice over:
//
//  * ExecutionPlan precomputes everything the round loop needs as flat
//    arrays (degrees, port offsets, the involution as flat indices), so the
//    inner loops never pay PortGraph's bounds-checked lookups.
//
//  * Policies schedule each round over a *dispatch list*: the nodes that
//    are due by their wake hint (NodeProgram::wake_hint) or have a
//    non-silence message waiting, in ascending node order.  Halted and
//    sleeping nodes cost nothing, and a round with nothing to do is
//    skipped without a barrier.  Senders set their receivers' wake bits
//    while they count their segment; hints past next round wait in an
//    O(n) calendar.  Until the first node hints past next round, every
//    live node is due every round, so the list keeps every live node, no
//    wake bit is set and no sparse state is set up — a program without
//    hints runs that way to the end.
//    SequentialPolicy runs the shards inline; ParallelPolicy spreads them
//    across a thread pool.  Shard boundaries equalize *port* counts, not
//    node counts (balanced_shard_bounds), so power-law degree sequences
//    cannot starve all lanes but one.
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
// Hard guarantee, enforced by differential tests: every policy produces
// bit-identical RunResults — outputs, stats, trace, and message-log order —
// identical to dispatching every node every round, as long as every wake
// hint is correct (never late).
// Parallel merges always combine per-shard results in shard (= node-range)
// order, which is exactly the sequential order; see ARCHITECTURE.md for
// the full double-buffer determinism argument.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/program.hpp"
#include "runtime/runner.hpp"
#include "util/parallel.hpp"

namespace eds::runtime {

/// Largest port count an ExecutionPlan can index: flat partner indices are
/// stored as uint32.
inline constexpr std::uint64_t kMaxPlanPorts = 0xFFFFFFFFULL;

/// Throws InvalidArgument when a graph of `total_ports` ports is too large
/// for an ExecutionPlan (more than kMaxPlanPorts), so flat indices can never
/// wrap.  ExecutionPlan's constructor calls it before allocating anything.
void check_plan_ports(std::uint64_t total_ports);

/// Immutable, flat-array view of a PortGraph, precomputed once per run (or
/// shared across many runs on the same graph).  All accessors are unchecked
/// hot-path lookups; apart from the port-count bound (check_plan_ports) the
/// constructor performs no validation of its own and relies on the
/// PortGraph invariants (PortGraphBuilder::build and read_port_graph both
/// verify the involution before a graph exists).
class ExecutionPlan {
 public:
  explicit ExecutionPlan(const port::PortGraph& g);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return degrees_.size();
  }
  [[nodiscard]] std::size_t total_ports() const noexcept {
    return partner_flat_.size();
  }
  /// Degree of node v (unchecked).
  [[nodiscard]] Port degree(std::size_t v) const noexcept {
    return degrees_[v];
  }
  /// Flat index of port (v, 1); port (v, i) lives at offset(v) + i - 1.
  [[nodiscard]] std::size_t offset(std::size_t v) const noexcept {
    return offsets_[v];
  }
  /// Flat index of the involution partner of flat port q (unchecked).
  /// Stored as uint32 — the table is swept once per round by the receive
  /// gather, so halving its bytes is a straight hot-loop bandwidth win
  /// (check_plan_ports rejects graphs whose indices would not fit).
  [[nodiscard]] std::size_t partner_flat(std::size_t q) const noexcept {
    return partner_flat_[q];
  }
  /// The involution partner of flat port q as a (node, port) pair.
  [[nodiscard]] port::PortRef partner_ref(std::size_t q) const noexcept {
    return partner_ref_[q];
  }

  /// True when this plan was compiled from a graph with exactly the same
  /// structure as `g` (degree sequence and involution).  A graph carrying
  /// the non-zero build id of the graph this plan was compiled from (the
  /// same graph, or a copy of it) matches in O(1); any other graph is
  /// compared table by table.  This is the PlanCache's collision guard: a
  /// 64-bit structural hash narrows the candidates, matches() proves the
  /// identification.
  [[nodiscard]] bool matches(const port::PortGraph& g) const;

  /// Heap footprint of the flat arrays, for cache accounting.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return degrees_.capacity() * sizeof(Port) +
           offsets_.capacity() * sizeof(std::size_t) +
           partner_flat_.capacity() * sizeof(std::uint32_t) +
           partner_ref_.capacity() * sizeof(port::PortRef);
  }

  /// Process-wide count of plan compilations (the graph-converting
  /// constructor only).  Tests assert cache effectiveness through deltas
  /// of this counter: a 1000-job sweep over one graph must raise it by 1.
  [[nodiscard]] static std::uint64_t constructed_count() noexcept {
    return constructed_.load(std::memory_order_relaxed);
  }

 private:
  static inline std::atomic<std::uint64_t> constructed_{0};

  std::vector<Port> degrees_;
  std::vector<std::size_t> offsets_;        // prefix sums of degrees
  std::vector<std::uint32_t> partner_flat_; // involution over flat indices
  std::vector<port::PortRef> partner_ref_;  // involution as (node, port)
  std::uint64_t build_id_ = 0;              // the source graph's build id
};

/// How the per-round stages are scheduled.  A policy is reusable across
/// runs but not safe for concurrent use by multiple runs.
class ExecutionPolicy {
 public:
  virtual ~ExecutionPolicy() = default;

  /// Number of lanes the stages are sharded across (1 = sequential).
  [[nodiscard]] virtual unsigned lanes() const noexcept = 0;

  /// Executes fn(s) for every shard s in [0, shards) and returns when all
  /// calls have finished (the once-per-round barrier).  `fn` must not
  /// throw.
  virtual void for_each_shard(
      std::size_t shards, const std::function<void(std::size_t)>& fn) = 0;
};

/// The seed semantics, stage by stage on one thread — over the dispatch
/// list.
class SequentialPolicy final : public ExecutionPolicy {
 public:
  [[nodiscard]] unsigned lanes() const noexcept override { return 1; }
  void for_each_shard(
      std::size_t shards,
      const std::function<void(std::size_t)>& fn) override {
    for (std::size_t s = 0; s < shards; ++s) fn(s);
  }
};

/// Shards each round's dispatch list across a persistent thread pool with
/// a barrier per stage.  `threads` as in ExecOptions (0 = hardware lanes).
class ParallelPolicy final : public ExecutionPolicy {
 public:
  explicit ParallelPolicy(unsigned threads = 0) : pool_(threads) {}

  [[nodiscard]] unsigned lanes() const noexcept override {
    return pool_.lanes();
  }
  void for_each_shard(
      std::size_t shards,
      const std::function<void(std::size_t)>& fn) override {
    pool_.run(shards, fn);
  }

 private:
  ThreadPool pool_;
};

/// The policy ExecOptions selects: SequentialPolicy for threads == 1,
/// ParallelPolicy otherwise.
[[nodiscard]] std::unique_ptr<ExecutionPolicy> make_policy(
    const ExecOptions& exec);

/// Drives `programs` (one per node, already constructed, not yet started)
/// over the plan's graph until every node halts, scheduling stages with
/// `policy`, then collects every node's output into the result's flat
/// selection mask.  This is the engine core under run_synchronous; call it
/// directly to reuse a plan or a policy (and its thread pool) across runs.
/// The programs stay owned by the caller (e.g. a ProgramArena).
///
/// Message transport is pooled: both outbox buffers, the dispatch list,
/// the wake state and the per-shard scratch all live in a per-thread
/// workspace that is reused
/// (not reallocated, and the outboxes not even reset) across runs, so
/// repeated executions on one lane perform no per-run buffer allocation
/// once the workspace has grown to the largest graph seen.  The double
/// buffer costs a second total_ports-sized Message array of pooled bytes —
/// the price of running each round behind a single barrier.
[[nodiscard]] RunResult run_plan(const ExecutionPlan& plan,
                                 std::span<NodeProgram* const> programs,
                                 const RunOptions& options,
                                 const std::string& name,
                                 ExecutionPolicy& policy);

/// run_plan over caller-owned heap programs.
[[nodiscard]] RunResult run_plan(
    const ExecutionPlan& plan,
    std::vector<std::unique_ptr<NodeProgram>>& programs,
    const RunOptions& options, const std::string& name,
    ExecutionPolicy& policy);

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

/// Round-loop wall time and dispatch count, accumulated by run_plan while
/// profiling is enabled (process-wide, monotonic).  A profiled run runs the
/// same fused round loop as any other and takes one timestamp per
/// dispatched round, after the barrier and the shard merge: `round_ns`
/// sums the time from the initial exchange to the last round's stamp,
/// `profiled_rounds` the rounds it covers (skipped rounds included), and
/// `dispatched` the node dispatches (receive plus send) the rounds made —
/// Σ_v halt_round(v) for a program without wake hints, less for one with
/// them.  bench_micro_runtime exports the deltas per benchmark.
struct EngineStageStats {
  std::uint64_t round_ns = 0;          ///< round-loop wall time
  std::uint64_t profiled_rounds = 0;   ///< rounds timed while enabled
  std::uint64_t dispatched = 0;        ///< node dispatches while enabled

  [[nodiscard]] bool operator==(const EngineStageStats&) const = default;
};

/// Toggles stage profiling (default off).  The hot loop samples the flag
/// once per run (through a per-thread epoch cache), so enabling it mid-run
/// affects the *next* run; when off, the round loop takes no timestamps at
/// all.
void engine_stage_profiling(bool enabled) noexcept;

/// Snapshot of the stage-timing counters.
[[nodiscard]] EngineStageStats engine_stage_stats() noexcept;

/// Zeroes the stage-timing counters.  They are process-wide and cumulative
/// across runs, so per-run (or per-mode, e.g. sync vs async) attribution
/// needs a reset between measurements; callers that prefer deltas can keep
/// snapshotting instead.  The reset also invalidates every lane's cached
/// sample of the profiling flag, so a toggle followed by a reset is picked
/// up by the very next run on any thread.
void engine_stage_stats_reset() noexcept;

}  // namespace eds::runtime
