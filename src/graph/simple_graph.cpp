#include "graph/simple_graph.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

namespace eds::graph {

// Nodes are named by NodeId; at SIZE_MAX the n + 1 CSR offsets would also
// wrap to none.
void check_node_count(std::uint64_t n, const char* who) {
  if (n > std::numeric_limits<NodeId>::max()) {
    throw InvalidArgument(std::string(who) + ": " + std::to_string(n) +
                          " nodes exceed the NodeId range");
  }
}

void check_edge_count(std::uint64_t m, const char* who) {
  if (m > std::numeric_limits<EdgeId>::max()) {
    throw InvalidArgument(std::string(who) + ": " + std::to_string(m) +
                          " edges exceed the EdgeId range");
  }
}

SimpleGraph::SimpleGraph(std::size_t n) {
  check_node_count(n, "SimpleGraph");
  first_.assign(n + 1, 0);
}

SimpleGraph SimpleGraph::from_edges(std::size_t n, std::vector<Edge> edges) {
  check_edge_count(edges.size(), "SimpleGraph");
  SimpleGraph g(n);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    Edge& e = edges[k];
    const bool out_of_range = e.u >= n || e.v >= n;
    if (out_of_range || e.u == e.v) {
      // Errors are reported for the first offending edge in input order: a
      // parallel pair among the earlier edges wins over this one.
      edges.resize(k);
      static_cast<void>(from_edges(n, std::move(edges)));
      throw InvalidStructure(out_of_range
                                 ? "SimpleGraph: edge endpoint out of range"
                                 : "SimpleGraph: loops are not allowed");
    }
    if (e.u > e.v) std::swap(e.u, e.v);
  }

  for (const auto& e : edges) {
    ++g.first_[e.u + 1];
    ++g.first_[e.v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) g.first_[v + 1] += g.first_[v];
  g.adjacency_.resize(2 * edges.size());
  std::vector<std::size_t> fill(g.first_.begin(), g.first_.end() - 1);
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const auto id = static_cast<EdgeId>(k);
    g.adjacency_[fill[edges[k].u]++] = {edges[k].v, id};
    g.adjacency_[fill[edges[k].v]++] = {edges[k].u, id};
  }
  for (std::size_t v = 0; v < n; ++v) {
    const auto begin = g.adjacency_.begin() +
                       static_cast<std::ptrdiff_t>(g.first_[v]);
    const auto end = g.adjacency_.begin() +
                     static_cast<std::ptrdiff_t>(g.first_[v + 1]);
    std::sort(begin, end, [](const Incidence& a, const Incidence& b) {
      return std::pair(a.neighbour, a.edge) < std::pair(b.neighbour, b.edge);
    });
    // Sorted by neighbour, so parallel edges sit next to each other.
    if (std::adjacent_find(begin, end,
                           [](const Incidence& a, const Incidence& b) {
                             return a.neighbour == b.neighbour;
                           }) != end) {
      throw InvalidStructure("SimpleGraph: parallel edges are not allowed");
    }
  }
  g.edges_ = std::move(edges);
  return g;
}

std::size_t SimpleGraph::max_degree() const noexcept {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    best = std::max(best, first_[v + 1] - first_[v]);
  }
  return best;
}

std::size_t SimpleGraph::min_degree() const noexcept {
  if (num_nodes() == 0) return 0;
  std::size_t best = first_[1];
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    best = std::min(best, first_[v + 1] - first_[v]);
  }
  return best;
}

bool SimpleGraph::is_regular(std::size_t d) const noexcept {
  for (std::size_t v = 0; v < num_nodes(); ++v) {
    if (first_[v + 1] - first_[v] != d) return false;
  }
  return true;
}

std::optional<EdgeId> SimpleGraph::find_edge(NodeId u, NodeId v) const {
  if (u >= num_nodes() || v >= num_nodes()) {
    throw InvalidArgument("SimpleGraph::find_edge: node out of range");
  }
  // Search the smaller adjacency list; it is sorted by neighbour.
  const NodeId probe = degree(u) <= degree(v) ? u : v;
  const NodeId target = probe == u ? v : u;
  const auto list = incidences(probe);
  const auto it = std::lower_bound(
      list.begin(), list.end(), target,
      [](const Incidence& inc, NodeId x) { return inc.neighbour < x; });
  if (it == list.end() || it->neighbour != target) return std::nullopt;
  return it->edge;
}

std::string SimpleGraph::summary() const {
  std::ostringstream os;
  os << "n=" << num_nodes() << " m=" << num_edges()
     << " degmin=" << min_degree() << " degmax=" << max_degree();
  return os.str();
}

GraphBuilder::GraphBuilder(std::size_t n) : n_(n) {
  check_node_count(n, "GraphBuilder");
}

GraphBuilder& GraphBuilder::add_edge(NodeId u, NodeId v) {
  if (u >= n_ || v >= n_) {
    throw InvalidArgument("GraphBuilder::add_edge: node out of range");
  }
  edges_.push_back({u, v});
  return *this;
}

SimpleGraph GraphBuilder::build() {
  return SimpleGraph::from_edges(n_, std::move(edges_));
}

}  // namespace eds::graph
