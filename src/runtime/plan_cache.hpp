// PlanCache: identifies the distinct port-graph structures of a sweep.
//
// The engines run on the port graph itself, so the cache saves no work;
// what it does is count.  A run whose ExecOptions::plan_cache is set calls
// get() once on its graph, which either finds an identical structure (a
// hit) or adds one (a miss), so a sweep's `plan-cache: compiled=K hits=H`
// line and its NDJSON summary report how many distinct structures its jobs
// ran on.  Candidates are keyed by the structural hash stored on the graph
// (degree sequence + involution, computed once at build) and verified
// before a hit (PortGraph::operator==: O(1) for the graph the entry was
// made from or a copy of it, table by table for any other graph), so two
// graphs share an entry only when their port structure is literally
// identical — a different port numbering of the same underlying graph
// changes the involution and therefore gets its own entry.
//
// A cache lives as long as its owner (one sweep, one batch or one
// benchmark pass) and holds a copy of the first graph of each distinct
// structure it has seen, which shares that graph's tables.  All operations
// are serialized on an internal mutex, so BatchRunner jobs race get()
// freely and each structure is counted as a miss exactly once.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "port/port_graph.hpp"

namespace eds::runtime {

/// Thread-safe record of the distinct structures a set of runs used.
class PlanCache {
 public:
  /// Monotonic counters: one `miss` per structure first seen, one `hit`
  /// per later get() on it.
  struct Stats {
    std::uint64_t hits = 0;    ///< get() calls on a structure already seen
    std::uint64_t misses = 0;  ///< get() calls that added a structure

    [[nodiscard]] bool operator==(const Stats&) const = default;
  };

  /// The graph kept for `g`'s structure: the one kept for an identical
  /// structure when there is one, else a copy of `g`, which is kept.
  [[nodiscard]] std::shared_ptr<const port::PortGraph> get(
      const port::PortGraph& g);

  /// Snapshot of the counters.
  [[nodiscard]] Stats stats() const;

 private:
  // Keyed by structural hash; distinct structures may collide on it, so a
  // hash can hold several graphs, each verified before a hit.
  mutable std::mutex mutex_;
  std::unordered_multimap<std::uint64_t, std::shared_ptr<const port::PortGraph>>
      graphs_;
  Stats stats_;
};

/// The cache key: the 64-bit structural hash PortGraphBuilder::build()
/// stored on `g` (degree sequence and flat involution).  Collisions are
/// possible (and handled by structural verification in the cache); equal
/// structures always hash equal.
[[nodiscard]] inline std::uint64_t structural_hash(const port::PortGraph& g) {
  return g.structural_hash();
}

}  // namespace eds::runtime
