// Simple undirected graphs with stable edge identifiers.
//
// SimpleGraph is the centralised ("God's eye") graph representation used by
// generators, exact solvers, baselines and verifiers.  Distributed executions
// never see it directly: they operate on a PortGraph (src/port) derived from
// it.  The representation is immutable after construction, which keeps edge
// identifiers stable across the whole pipeline (generation -> port numbering
// -> simulation -> verification).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace eds::graph {

using NodeId = std::uint32_t;
using EdgeId = std::uint32_t;

/// An undirected edge; stored with u <= v after normalisation.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  [[nodiscard]] bool operator==(const Edge&) const = default;

  /// The endpoint different from `x`; throws if `x` is not an endpoint.
  [[nodiscard]] NodeId other(NodeId x) const {
    if (x == u) return v;
    if (x == v) return u;
    throw InvalidArgument("Edge::other: node is not an endpoint");
  }

  /// True when the two edges share at least one endpoint.
  [[nodiscard]] bool adjacent_to(const Edge& rhs) const noexcept {
    return u == rhs.u || u == rhs.v || v == rhs.u || v == rhs.v;
  }
};

/// One entry of a node's adjacency list.
struct Incidence {
  NodeId neighbour = 0;
  EdgeId edge = 0;

  [[nodiscard]] bool operator==(const Incidence&) const = default;
};

/// Throws InvalidArgument, naming `who` and `n`, when `n` nodes are more
/// than the largest NodeId.  SimpleGraph and GraphBuilder call it before
/// sizing anything, a generator before its edge list.
void check_node_count(std::uint64_t n, const char* who);

/// Throws InvalidArgument, naming `who` and `m`, when `m` edges are more
/// than the largest EdgeId (ids run 0 .. m − 1).  SimpleGraph::from_edges
/// calls it before sizing anything, a generator before its edge list.
void check_edge_count(std::uint64_t m, const char* who);

/// An immutable simple undirected graph (no loops, no parallel edges).
/// Adjacency is stored as CSR: one flat incidence array, node v's list at
/// [first_[v], first_[v + 1]).
class SimpleGraph {
 public:
  /// Empty graph with `n` isolated nodes; throws InvalidArgument when `n`
  /// is above the largest NodeId.
  explicit SimpleGraph(std::size_t n = 0);

  /// Builds a graph from an edge list.  Endpoints are normalised (u <= v);
  /// loops and duplicate edges are rejected with InvalidStructure, and an
  /// `n` above the largest NodeId or more edges than check_edge_count
  /// allows with InvalidArgument.
  /// Edge ids equal positions in `edges` (after normalisation).
  [[nodiscard]] static SimpleGraph from_edges(std::size_t n,
                                              std::vector<Edge> edges);

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return first_.empty() ? 0 : first_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  [[nodiscard]] const Edge& edge(EdgeId e) const { return edges_.at(e); }
  [[nodiscard]] std::span<const Edge> edges() const noexcept { return edges_; }

  /// Adjacency list of `v`, ordered by (neighbour, edge id).  Throws
  /// std::out_of_range for a node out of range.
  [[nodiscard]] std::span<const Incidence> incidences(NodeId v) const {
    check_node(v);
    return {adjacency_.data() + first_[v], first_[v + 1] - first_[v]};
  }

  [[nodiscard]] std::size_t degree(NodeId v) const {
    check_node(v);
    return first_[v + 1] - first_[v];
  }

  /// Largest node degree; 0 for an edgeless graph.
  [[nodiscard]] std::size_t max_degree() const noexcept;

  /// Smallest node degree; 0 for the empty graph.
  [[nodiscard]] std::size_t min_degree() const noexcept;

  /// True when every node has degree exactly `d`.
  [[nodiscard]] bool is_regular(std::size_t d) const noexcept;

  /// The edge id joining u and v, if present: a binary search of the
  /// smaller of the two adjacency lists.
  [[nodiscard]] std::optional<EdgeId> find_edge(NodeId u, NodeId v) const;

  /// True when u and v are joined by an edge.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const {
    return find_edge(u, v).has_value();
  }

  /// Human-readable one-line summary ("n=12 m=18 degmax=3").
  [[nodiscard]] std::string summary() const;

 private:
  void check_node(NodeId v) const {
    if (v >= num_nodes()) {
      throw std::out_of_range("SimpleGraph: node out of range");
    }
  }

  std::vector<Edge> edges_;
  std::vector<std::size_t> first_;    // CSR offsets, num_nodes() + 1 entries
  std::vector<Incidence> adjacency_;  // 2 * num_edges() incidences
};

/// Convenience helper for building edge lists incrementally with validation
/// at the end (via SimpleGraph::from_edges).
class GraphBuilder {
 public:
  /// Throws InvalidArgument, naming n, when n exceeds the NodeId range
  /// (as SimpleGraph does), before any edge is recorded.
  explicit GraphBuilder(std::size_t n);

  /// Records an undirected edge {u, v}; bounds-checked immediately,
  /// loop/duplicate checks happen in build().
  GraphBuilder& add_edge(NodeId u, NodeId v);

  /// Number of edges recorded so far.
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Validates and produces the immutable graph.
  [[nodiscard]] SimpleGraph build();

 private:
  std::size_t n_;
  std::vector<Edge> edges_;
};

}  // namespace eds::graph
