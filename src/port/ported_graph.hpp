// A simple graph together with a port numbering, plus the cross-map that
// lets us translate between the distributed world (node, port) and the
// centralised world (edge id).
//
// All distributed executions in this library run on a PortedGraph (or a bare
// PortGraph for multigraph covering spaces); all verification runs on the
// underlying SimpleGraph via edge ids.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "graph/simple_graph.hpp"
#include "port/port_graph.hpp"
#include "util/rng.hpp"

namespace eds::port {

using graph::EdgeId;
using graph::SimpleGraph;

/// A simple graph with a port numbering and one edge -> port table; the
/// port -> edge direction is derived from the involution.
class PortedGraph {
 public:
  /// Builds from a graph and, for each node, its incident edge ids in port
  /// order (order_per_node[v][i-1] is the edge on port i of v).  Validates
  /// that each node's list is a permutation of its incident edges, and
  /// throws InvalidArgument when the graph has more ports than a uint32
  /// flat index can address.
  PortedGraph(SimpleGraph graph,
              const std::vector<std::vector<EdgeId>>& order_per_node);

  [[nodiscard]] const SimpleGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const PortGraph& ports() const noexcept { return ports_; }

  /// The edge connected to port i of node v, derived from the involution:
  /// the edge to the partner node.  Throws InvalidArgument for a non-port.
  [[nodiscard]] EdgeId edge_at(NodeId v, Port i) const;

  /// The edge -> port map, indexed by edge id: the flat ports (see
  /// PortGraph::offset) of edge e at its `u` and `v` ends, in that order.
  /// One contiguous table, so per-edge sweeps over a selection mask need
  /// no involution lookup.
  [[nodiscard]] const std::vector<std::array<std::uint32_t, 2>>&
  edge_port_table() const noexcept {
    return edge_ports_;
  }

  /// The port of node v on edge e, in O(1); throws InvalidArgument unless
  /// v is an endpoint of edge e.
  [[nodiscard]] Port port_of(NodeId v, EdgeId e) const;

  /// The paper's l_G(v, u): the port of v on the edge {v, u}.
  [[nodiscard]] Port port_towards(NodeId v, NodeId u) const;

 private:
  SimpleGraph graph_;
  PortGraph ports_;
  std::vector<std::array<std::uint32_t, 2>> edge_ports_;  // edge -> ports
};

/// Ports assigned in adjacency-list order (deterministic).
[[nodiscard]] PortedGraph with_canonical_ports(SimpleGraph g);

/// Ports assigned by an independent random permutation at every node.
[[nodiscard]] PortedGraph with_random_ports(SimpleGraph g, Rng& rng);

}  // namespace eds::port
