#include "port/ported_graph.hpp"

#include <sstream>
#include <string>
#include <utility>

namespace eds::port {

PortedGraph::PortedGraph(
    SimpleGraph graph, const std::vector<std::vector<EdgeId>>& order_per_node)
    : graph_(std::move(graph)) {
  const std::size_t n = graph_.num_nodes();
  const std::size_t m = graph_.num_edges();
  if (order_per_node.size() != n) {
    throw InvalidArgument("PortedGraph: order_per_node size mismatch");
  }
  if (2 * static_cast<std::uint64_t>(m) > 0xFFFFFFFFULL) {
    throw InvalidArgument("PortedGraph: " + std::to_string(2 * m) +
                          " ports exceed the 32-bit flat port index");
  }
  // Validate that each node's list is a permutation of its incident edge
  // ids (right length, every entry a distinct incident edge), recording the
  // port each edge takes at its u and v ends on the way.
  std::vector<Port> port_at_u(m, 0);
  std::vector<Port> port_at_v(m, 0);
  std::vector<Port> degrees(n);
  for (NodeId v = 0; v < n; ++v) {
    const auto& order = order_per_node[v];
    bool ok = order.size() == graph_.degree(v);
    for (std::size_t k = 0; ok && k < order.size(); ++k) {
      const EdgeId e = order[k];
      Port* slot = nullptr;
      if (e < m && graph_.edge(e).u == v) slot = &port_at_u[e];
      if (e < m && graph_.edge(e).v == v) slot = &port_at_v[e];
      ok = slot != nullptr && *slot == 0;
      if (ok) *slot = static_cast<Port>(k + 1);
    }
    if (!ok) {
      std::ostringstream os;
      os << "PortedGraph: port order of node " << v
         << " is not a permutation of its incident edges";
      throw InvalidStructure(os.str());
    }
    degrees[v] = static_cast<Port>(order.size());
  }

  PortGraphBuilder builder(std::move(degrees));
  // Connect port i of v to the port of the other endpoint carrying the same
  // edge.  Iterate over edges so each connection is made exactly once.
  for (EdgeId e = 0; e < m; ++e) {
    const auto& edge = graph_.edge(e);
    builder.connect({edge.u, port_at_u[e]}, {edge.v, port_at_v[e]});
  }
  ports_ = builder.build();
  edge_ports_.resize(m);
  for (EdgeId e = 0; e < m; ++e) {
    const auto& edge = graph_.edge(e);
    edge_ports_[e] = {
        static_cast<std::uint32_t>(ports_.offset(edge.u) + port_at_u[e] - 1),
        static_cast<std::uint32_t>(ports_.offset(edge.v) + port_at_v[e] - 1)};
  }
}

EdgeId PortedGraph::edge_at(NodeId v, Port i) const {
  if (v >= ports_.num_nodes() || i < 1 || i > ports_.degree(v)) {
    throw InvalidArgument("PortedGraph::edge_at: port out of range");
  }
  // The graph is simple, so the neighbour names exactly one edge.
  return *graph_.find_edge(v, ports_.partner(v, i).node);
}

Port PortedGraph::port_of(NodeId v, EdgeId e) const {
  if (v >= ports_.num_nodes()) {
    throw InvalidArgument("PortedGraph::port_of: node out of range");
  }
  if (e >= edge_ports_.size()) {
    throw InvalidArgument("PortedGraph::port_of: edge out of range");
  }
  const auto& edge = graph_.edge(e);
  if (edge.u != v && edge.v != v) {
    throw InvalidArgument("PortedGraph::port_of: node is not an endpoint");
  }
  return static_cast<Port>(edge_ports_[e][edge.u == v ? 0 : 1] -
                           ports_.offset(v) + 1);
}

Port PortedGraph::port_towards(NodeId v, NodeId u) const {
  const auto e = graph_.find_edge(v, u);
  if (!e) throw InvalidArgument("PortedGraph::port_towards: no such edge");
  return port_of(v, *e);
}

PortedGraph with_canonical_ports(SimpleGraph g) {
  std::vector<std::vector<EdgeId>> order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    order[v].reserve(g.degree(v));
    for (const auto& inc : g.incidences(v)) order[v].push_back(inc.edge);
  }
  return PortedGraph(std::move(g), order);
}

PortedGraph with_random_ports(SimpleGraph g, Rng& rng) {
  std::vector<std::vector<EdgeId>> order(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    order[v].reserve(g.degree(v));
    for (const auto& inc : g.incidences(v)) order[v].push_back(inc.edge);
    rng.shuffle(order[v]);
  }
  return PortedGraph(std::move(g), order);
}

}  // namespace eds::port
