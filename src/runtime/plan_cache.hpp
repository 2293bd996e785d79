// PlanCache: one immutable ExecutionPlan shared across every run on the
// same port-graph structure.
//
// Sweep-style workloads (Table 1, scaling benches, `edsim sweep --repeat`)
// execute hundreds to thousands of jobs on a handful of distinct graphs.
// Compiling an ExecutionPlan is O(total ports) time *and* four array
// allocations per run; at 100k+ nodes the compilation churn rivals the
// round loop itself.  The cache keys plans by the structural hash stored on
// the graph (degree sequence + involution, computed once at build) and
// verifies candidates before sharing them (ExecutionPlan::matches: O(1) for
// the graph the plan was compiled from or a copy of it, by build id; field
// by field for any other graph), so two graphs ever share a plan only when
// their port structure is literally identical — a different port numbering
// of the same underlying graph changes the involution and therefore gets
// its own plan.  Sharing is safe because ExecutionPlan is deeply immutable
// and run_plan only reads it.
//
// Concurrency: all operations are serialized on an internal mutex —
// BatchRunner jobs race get() freely, and a plan is constructed exactly
// once per structure (construction happens under the lock; the counters
// make that assertable).  Both an entry count and a byte total are
// LRU-bounded, so long-lived processes cannot accumulate unbounded plan
// memory even when individual plans are tens of megabytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/engine.hpp"

namespace eds::runtime {

/// Thread-safe, LRU-bounded cache of shared ExecutionPlans.
class PlanCache {
 public:
  /// Counters (monotonic except `size`/`bytes`): one `miss` per plan
  /// actually compiled, one `hit` per reuse, one `eviction` per LRU drop.
  struct Stats {
    std::uint64_t hits = 0;       ///< get() calls served by a cached plan
    std::uint64_t misses = 0;     ///< get() calls that compiled a new plan
    std::uint64_t evictions = 0;  ///< plans dropped by the LRU bound
    std::size_t size = 0;         ///< plans currently cached
    std::size_t bytes = 0;        ///< approximate bytes held by cached plans

    [[nodiscard]] bool operator==(const Stats&) const = default;
  };

  /// `capacity` is the maximum number of cached plans (>= 1) and
  /// `max_bytes` the maximum bytes they may hold together; after a miss,
  /// least-recently-used plans are evicted until both bounds hold (the
  /// newest plan is always kept, so a single oversized plan still caches).
  /// The byte bound is what keeps one-shot runs on huge graphs from
  /// pinning plan memory: a 100k-node plan is ~11 MB, so the default cap
  /// retains a handful of those, not `capacity` of them.
  explicit PlanCache(std::size_t capacity = kDefaultCapacity,
                     std::size_t max_bytes = kDefaultMaxBytes);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The plan for `g`: a cached one when an identical structure is
  /// resident, a freshly compiled (and cached) one otherwise.  The
  /// returned plan stays valid even after eviction — eviction only drops
  /// the cache's own reference.
  [[nodiscard]] std::shared_ptr<const ExecutionPlan> get(
      const port::PortGraph& g);

  /// Snapshot of the counters.
  [[nodiscard]] Stats stats() const;

  /// Drops every cached plan (outstanding shared_ptrs stay valid) and
  /// leaves the hit/miss/eviction counters untouched.
  void clear();

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t max_bytes() const noexcept { return max_bytes_; }

  /// The process-wide cache used by `algo::run_algorithm` / `run_batch`
  /// when the caller does not supply one.
  [[nodiscard]] static PlanCache& global();

  static constexpr std::size_t kDefaultCapacity = 32;
  static constexpr std::size_t kDefaultMaxBytes = 64u << 20;  // 64 MiB

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::shared_ptr<const ExecutionPlan> plan;
  };

  // Recency list (front = most recent) plus a hash index into it.  The
  // index maps to *lists* of iterators because distinct structures may
  // collide on the 64-bit hash; candidates are verified structurally.
  mutable std::mutex mutex_;
  std::list<Entry> lru_;
  std::unordered_map<std::uint64_t, std::vector<std::list<Entry>::iterator>>
      index_;
  std::size_t capacity_;
  std::size_t max_bytes_;
  Stats stats_;
};

/// The plan a run of `g` uses: borrowed from `exec.plan_cache` into
/// `shared`, or compiled into `local` when no cache is configured.  Every
/// sync and async entry point resolves its plan here.
[[nodiscard]] const ExecutionPlan& resolve_plan(
    const port::PortGraph& g, const ExecOptions& exec,
    std::shared_ptr<const ExecutionPlan>& shared,
    std::optional<ExecutionPlan>& local);

/// The cache key: the 64-bit structural hash PortGraphBuilder::build()
/// stored on `g` (degree sequence and flat involution).  Collisions are
/// possible (and handled by structural verification in the cache); equal
/// structures always hash equal.
[[nodiscard]] inline std::uint64_t structural_hash(const port::PortGraph& g) {
  return g.structural_hash();
}

}  // namespace eds::runtime
