#include "analysis/verify.hpp"

#include <algorithm>
#include <vector>

namespace eds::analysis {

namespace {

/// One flag per node: 1 when a member of `s` covers it.  Every member goes
/// through the checked SimpleGraph::edge, so an id of m or more throws
/// std::out_of_range.
std::vector<char> covered_nodes(const SimpleGraph& g, const EdgeSet& s) {
  std::vector<char> covered(g.num_nodes(), 0);
  s.for_each([&](graph::EdgeId e) {
    const auto& member = g.edge(e);
    covered[member.u] = 1;
    covered[member.v] = 1;
  });
  return covered;
}

}  // namespace

EdgeSet dominated_edges(const SimpleGraph& g, const EdgeSet& s) {
  const auto node_covered = covered_nodes(g, s);
  EdgeSet out(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    if (node_covered[g.edge(e).u] || node_covered[g.edge(e).v]) out.insert(e);
  }
  return out;
}

bool is_edge_dominating_set(const SimpleGraph& g, const EdgeSet& s) {
  // Mark the nodes the members cover, straight from the set's words (every
  // member first, so a member id of m or more throws just as in
  // dominated_edges), then look for an edge with neither endpoint marked.
  const auto covered = covered_nodes(g, s);
  for (const auto& e : g.edges()) {
    if (covered[e.u] == 0 && covered[e.v] == 0) return false;
  }
  return true;
}

bool is_matching(const SimpleGraph& g, const EdgeSet& s) {
  return is_k_matching(g, s, 1);
}

bool is_k_matching(const SimpleGraph& g, const EdgeSet& s, std::size_t k) {
  std::vector<std::size_t> deg(g.num_nodes(), 0);
  for (const auto e : s.to_vector()) {
    if (++deg[g.edge(e).u] > k) return false;
    if (++deg[g.edge(e).v] > k) return false;
  }
  return true;
}

bool is_maximal_matching(const SimpleGraph& g, const EdgeSet& s) {
  if (!is_matching(g, s)) return false;
  // A matching is maximal iff it dominates every edge.
  return is_edge_dominating_set(g, s);
}

bool is_edge_cover(const SimpleGraph& g, const EdgeSet& s) {
  const auto covered = covered_nodes(g, s);
  return std::find(covered.begin(), covered.end(), 0) == covered.end();
}

bool is_forest(const SimpleGraph& g, const EdgeSet& s) {
  // Union-find over the member edges.
  std::vector<graph::NodeId> parent(g.num_nodes());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) parent[v] = v;
  auto find = [&parent](graph::NodeId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  for (const auto e : s.to_vector()) {
    const auto ru = find(g.edge(e).u);
    const auto rv = find(g.edge(e).v);
    if (ru == rv) return false;
    parent[ru] = rv;
  }
  return true;
}

bool is_star_forest(const SimpleGraph& g, const EdgeSet& s) {
  if (!is_forest(g, s)) return false;
  // In a forest, "every component is a star" is equivalent to "every edge
  // has an endpoint of set-degree 1" (no path of three edges).
  std::vector<std::size_t> deg(g.num_nodes(), 0);
  for (const auto e : s.to_vector()) {
    ++deg[g.edge(e).u];
    ++deg[g.edge(e).v];
  }
  for (const auto e : s.to_vector()) {
    if (deg[g.edge(e).u] > 1 && deg[g.edge(e).v] > 1) return false;
  }
  return true;
}

bool node_disjoint(const SimpleGraph& g, const EdgeSet& a, const EdgeSet& b) {
  const auto in_a = covered_nodes(g, a);
  for (const auto e : b.to_vector()) {
    if (in_a[g.edge(e).u] || in_a[g.edge(e).v]) return false;
  }
  return true;
}

}  // namespace eds::analysis
