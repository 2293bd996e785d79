#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <span>
#include <utility>

namespace eds::graph {

namespace {

NodeId nid(std::size_t v) { return static_cast<NodeId>(v); }

}  // namespace

SimpleGraph path(std::size_t n) {
  if (n < 1) throw InvalidArgument("path: need n >= 1");
  GraphBuilder b(n);
  for (std::size_t i = 0; i + 1 < n; ++i) b.add_edge(nid(i), nid(i + 1));
  return b.build();
}

SimpleGraph cycle(std::size_t n) {
  if (n < 3) throw InvalidArgument("cycle: need n >= 3");
  GraphBuilder b(n);
  for (std::size_t i = 0; i < n; ++i) b.add_edge(nid(i), nid((i + 1) % n));
  return b.build();
}

SimpleGraph complete(std::size_t n) {
  if (n < 1) throw InvalidArgument("complete: need n >= 1");
  GraphBuilder b(n);  // n fits a NodeId, so n(n - 1) / 2 fits 64 bits
  check_edge_count(std::uint64_t{n} * (n - 1) / 2, "complete");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) b.add_edge(nid(i), nid(j));
  }
  return b.build();
}

SimpleGraph complete_bipartite(std::size_t a, std::size_t b) {
  if (a < 1 || b < 1) throw InvalidArgument("complete_bipartite: empty side");
  GraphBuilder builder(a + b);
  for (std::size_t i = 0; i < a; ++i) {
    for (std::size_t j = 0; j < b; ++j) builder.add_edge(nid(i), nid(a + j));
  }
  return builder.build();
}

SimpleGraph star(std::size_t leaves) {
  GraphBuilder b(leaves + 1);
  for (std::size_t i = 1; i <= leaves; ++i) b.add_edge(0, nid(i));
  return b.build();
}

SimpleGraph crown(std::size_t n) {
  if (n < 1) throw InvalidArgument("crown: need n >= 1");
  GraphBuilder b(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) b.add_edge(nid(i), nid(n + j));
    }
  }
  return b.build();
}

SimpleGraph hypercube(std::size_t dim) {
  if (dim < 1 || dim > 20) throw InvalidArgument("hypercube: dim out of range");
  const std::size_t n = std::size_t{1} << dim;
  GraphBuilder b(n);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t bit = 0; bit < dim; ++bit) {
      const std::size_t u = v ^ (std::size_t{1} << bit);
      if (v < u) b.add_edge(nid(v), nid(u));
    }
  }
  return b.build();
}

SimpleGraph grid(std::size_t rows, std::size_t cols) {
  if (rows < 1 || cols < 1) throw InvalidArgument("grid: empty dimension");
  GraphBuilder b(rows * cols);
  auto at = [cols](std::size_t r, std::size_t c) { return nid(r * cols + c); };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(at(r, c), at(r, c + 1));
      if (r + 1 < rows) b.add_edge(at(r, c), at(r + 1, c));
    }
  }
  return b.build();
}

SimpleGraph torus(std::size_t rows, std::size_t cols) {
  if (rows < 3 || cols < 3) {
    throw InvalidArgument("torus: need rows, cols >= 3 for a simple graph");
  }
  GraphBuilder b(rows * cols);
  auto at = [cols](std::size_t r, std::size_t c) { return nid(r * cols + c); };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      b.add_edge(at(r, c), at(r, (c + 1) % cols));
      b.add_edge(at(r, c), at((r + 1) % rows, c));
    }
  }
  return b.build();
}

SimpleGraph circulant(std::size_t n, const std::vector<std::size_t>& offsets) {
  if (n < 3) throw InvalidArgument("circulant: need n >= 3");
  std::set<std::size_t> seen;
  for (std::size_t off : offsets) {
    if (off < 1 || off > n / 2) {
      throw InvalidArgument("circulant: offsets must lie in [1, n/2]");
    }
    if (!seen.insert(off).second) {
      throw InvalidArgument("circulant: duplicate offset");
    }
  }
  GraphBuilder b(n);
  for (std::size_t off : offsets) {
    if (2 * off == n) {
      for (std::size_t v = 0; v < n / 2; ++v) b.add_edge(nid(v), nid(v + off));
    } else {
      for (std::size_t v = 0; v < n; ++v) b.add_edge(nid(v), nid((v + off) % n));
    }
  }
  return b.build();
}

SimpleGraph petersen() {
  GraphBuilder b(10);
  for (std::size_t i = 0; i < 5; ++i) {
    b.add_edge(nid(i), nid((i + 1) % 5));      // outer cycle
    b.add_edge(nid(5 + i), nid(5 + (i + 2) % 5));  // inner pentagram
    b.add_edge(nid(i), nid(5 + i));            // spokes
  }
  return b.build();
}

SimpleGraph prism(std::size_t n) {
  if (n < 3) throw InvalidArgument("prism: need n >= 3");
  GraphBuilder b(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add_edge(nid(i), nid((i + 1) % n));          // outer cycle
    b.add_edge(nid(n + i), nid(n + (i + 1) % n));  // inner cycle
    b.add_edge(nid(i), nid(n + i));                // rungs
  }
  return b.build();
}

SimpleGraph moebius_ladder(std::size_t n) {
  if (n < 2) throw InvalidArgument("moebius_ladder: need n >= 2");
  GraphBuilder b(2 * n);
  for (std::size_t i = 0; i < 2 * n; ++i) {
    b.add_edge(nid(i), nid((i + 1) % (2 * n)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    b.add_edge(nid(i), nid(i + n));
  }
  return b.build();
}

SimpleGraph wheel(std::size_t n) {
  if (n < 3) throw InvalidArgument("wheel: need n >= 3");
  GraphBuilder b(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    b.add_edge(nid(i), nid((i + 1) % n));
    b.add_edge(nid(i), nid(n));  // hub
  }
  return b.build();
}

SimpleGraph complete_multipartite(const std::vector<std::size_t>& parts) {
  if (parts.empty()) throw InvalidArgument("complete_multipartite: no parts");
  std::size_t n = 0;
  std::vector<std::size_t> part_of;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (parts[p] == 0) {
      throw InvalidArgument("complete_multipartite: empty part");
    }
    for (std::size_t i = 0; i < parts[p]; ++i) part_of.push_back(p);
    n += parts[p];
  }
  GraphBuilder b(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      if (part_of[u] != part_of[v]) b.add_edge(nid(u), nid(v));
    }
  }
  return b.build();
}

SimpleGraph barbell(std::size_t m, std::size_t bridge) {
  if (m < 3) throw InvalidArgument("barbell: need clique size >= 3");
  const std::size_t n = 2 * m + (bridge > 0 ? bridge - 1 : 0);
  GraphBuilder b(n);
  auto clique = [&b](std::size_t base, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t j = i + 1; j < size; ++j) {
        b.add_edge(nid(base + i), nid(base + j));
      }
    }
  };
  clique(0, m);
  clique(m, m);
  if (bridge == 0) return b.build();
  // Path of `bridge` edges from node m-1 (first clique) to node m (second),
  // through bridge-1 fresh nodes placed after the cliques.
  NodeId prev = nid(m - 1);
  for (std::size_t i = 0; i + 1 < bridge; ++i) {
    const auto mid = nid(2 * m + i);
    b.add_edge(prev, mid);
    prev = mid;
  }
  b.add_edge(prev, nid(m));
  return b.build();
}

SimpleGraph caterpillar(std::size_t spine, std::size_t legs_per_node) {
  if (spine < 1) throw InvalidArgument("caterpillar: need spine >= 1");
  GraphBuilder b(spine * (1 + legs_per_node));
  for (std::size_t i = 0; i + 1 < spine; ++i) b.add_edge(nid(i), nid(i + 1));
  for (std::size_t i = 0; i < spine; ++i) {
    for (std::size_t leg = 0; leg < legs_per_node; ++leg) {
      b.add_edge(nid(i), nid(spine + i * legs_per_node + leg));
    }
  }
  return b.build();
}

SimpleGraph random_tree(std::size_t n, Rng& rng) {
  if (n < 1) throw InvalidArgument("random_tree: need n >= 1");
  GraphBuilder b(n);
  // Random attachment over a random node relabelling gives a well-mixed tree
  // (not the uniform spanning tree distribution, but adequate for workloads).
  const auto label = rng.permutation(n);
  for (std::size_t i = 1; i < n; ++i) {
    const auto parent = static_cast<std::size_t>(rng.below(i));
    b.add_edge(nid(label[i]), nid(label[parent]));
  }
  return b.build();
}

namespace {

// Randomises a simple graph's edge list over nodes 0..n-1 in place with
// degree-preserving double-edge swaps: {a,b},{c,d} -> {a,c},{b,d} or
// {a,d},{b,c}, rejected when a swap would create a loop or a parallel edge
// (and, when `side` is set, when it would join two nodes of the same side).
// This always succeeds, unlike configuration-model rejection, whose
// acceptance probability decays like exp(-Θ(d²)).
void double_edge_swaps(std::size_t n, std::vector<Edge>& edges,
                       const std::vector<int>* side, Rng& rng) {
  if (edges.size() < 2) return;
  // Swaps keep every degree, so each node's neighbour list keeps its
  // length: a CSR whose entries a swap rewrites in place.
  std::vector<std::size_t> offset(n + 1, 0);
  for (const auto& e : edges) {
    ++offset[e.u + 1];
    ++offset[e.v + 1];
  }
  std::partial_sum(offset.begin(), offset.end(), offset.begin());
  std::vector<NodeId> adjacency(2 * edges.size());
  {
    std::vector<std::size_t> fill(offset.begin(), offset.end() - 1);
    for (const auto& e : edges) {
      adjacency[fill[e.u]++] = e.v;
      adjacency[fill[e.v]++] = e.u;
    }
  }
  const auto neighbours = [&](NodeId v) {
    return std::span(adjacency).subspan(offset[v], offset[v + 1] - offset[v]);
  };
  const auto contains = [](std::span<const NodeId> list, NodeId v) {
    return std::find(list.begin(), list.end(), v) != list.end();
  };
  // Presence scans the shorter of the two lists.
  const auto adjacent = [&](NodeId a, NodeId b) {
    const auto of_a = neighbours(a);
    const auto of_b = neighbours(b);
    return of_a.size() <= of_b.size() ? contains(of_a, b) : contains(of_b, a);
  };
  const auto relink = [&](NodeId v, NodeId from, NodeId to) {
    const auto list = neighbours(v);
    *std::find(list.begin(), list.end(), from) = to;
  };

  const std::size_t attempts = 12 * edges.size();
  for (std::size_t it = 0; it < attempts; ++it) {
    const auto i = static_cast<std::size_t>(rng.below(edges.size()));
    const auto j = static_cast<std::size_t>(rng.below(edges.size()));
    if (i == j) continue;
    Edge e1 = edges[i];
    Edge e2 = edges[j];
    // Orient e2 at random so both swap variants are reachable.
    if (rng.chance(0.5)) std::swap(e2.u, e2.v);
    // Proposed replacement: {e1.u, e2.u} and {e1.v, e2.v}.
    const NodeId a = e1.u, b = e1.v, c = e2.u, dn = e2.v;
    if (a == c || b == dn || a == dn || b == c) continue;  // would self-loop
    if (side != nullptr &&
        (((*side)[a] == (*side)[c]) || ((*side)[b] == (*side)[dn]))) {
      continue;  // would break bipartiteness
    }
    if (adjacent(a, c) || adjacent(b, dn)) continue;
    relink(a, b, c);
    relink(b, a, dn);
    relink(c, dn, a);
    relink(dn, c, b);
    edges[i] = {a, c};
    edges[j] = {b, dn};
  }
}

}  // namespace

SimpleGraph random_regular(std::size_t n, std::size_t d, Rng& rng) {
  if (d >= n) throw InvalidArgument("random_regular: need d < n");
  check_node_count(n, "random_regular");
  check_edge_count(std::uint64_t{n} * d / 2, "random_regular");  // d < n
  if ((n * d) % 2 != 0) {
    throw InvalidArgument("random_regular: n*d must be even");
  }
  if (d == 0) return SimpleGraph(n);

  // Deterministic d-regular seed: a circulant with offsets 1..floor(d/2),
  // plus the antipodal offset n/2 when d is odd (n is even then, since n*d
  // must be even).  Then mix with double-edge swaps.
  std::vector<std::size_t> offsets;
  for (std::size_t o = 1; o <= d / 2; ++o) offsets.push_back(o);
  if (d % 2 == 1) offsets.push_back(n / 2);
  std::vector<Edge> edges;
  for (const std::size_t off : offsets) {
    if (2 * off == n) {
      for (std::size_t v = 0; v < n / 2; ++v) {
        edges.push_back({nid(v), nid(v + off)});
      }
    } else {
      for (std::size_t v = 0; v < n; ++v) {
        edges.push_back({nid(v), nid((v + off) % n)});
      }
    }
  }
  double_edge_swaps(n, edges, nullptr, rng);
  auto g = SimpleGraph::from_edges(n, std::move(edges));
  EDS_ENSURE(g.is_regular(d), "random_regular: swaps broke regularity");
  return g;
}

SimpleGraph random_bounded_degree(std::size_t n, std::size_t max_degree,
                                  std::size_t target_edges, Rng& rng) {
  if (n < 2) throw InvalidArgument("random_bounded_degree: need n >= 2");
  if (max_degree < 1) {
    throw InvalidArgument("random_bounded_degree: need max_degree >= 1");
  }
  std::vector<std::size_t> degree(n, 0);
  std::set<std::pair<NodeId, NodeId>> seen;
  std::vector<Edge> edges;
  const std::size_t cap = std::min(target_edges, n * max_degree / 2);
  // Random pair sampling; the attempt budget is generous enough that the
  // generator fills the budget except when the degree cap makes it infeasible.
  const std::size_t attempts = 20 * cap + 100;
  for (std::size_t it = 0; it < attempts && edges.size() < cap; ++it) {
    auto u = nid(rng.below(n));
    auto v = nid(rng.below(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (degree[u] >= max_degree || degree[v] >= max_degree) continue;
    if (!seen.emplace(u, v).second) continue;
    edges.push_back({u, v});
    ++degree[u];
    ++degree[v];
  }
  return SimpleGraph::from_edges(n, std::move(edges));
}

SimpleGraph random_power_law(std::size_t n, double exponent, Rng& rng,
                             std::size_t max_degree) {
  if (n < 2) throw InvalidArgument("random_power_law: need n >= 2");
  if (!(exponent > 0.0)) {
    throw InvalidArgument("random_power_law: need exponent > 0");
  }
  if (max_degree == 0) {
    max_degree = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
  }
  max_degree = std::min(max_degree, n - 1);

  // Target degrees by inverse-CDF sampling over the truncated power law
  // P(d) ∝ d^-exponent, d in [1, max_degree].
  std::vector<double> cdf(max_degree);
  double total = 0.0;
  for (std::size_t d = 1; d <= max_degree; ++d) {
    total += std::pow(static_cast<double>(d), -exponent);
    cdf[d - 1] = total;
  }
  std::vector<std::size_t> target(n);
  std::size_t stub_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const double u = rng.uniform01() * total;
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    target[v] = static_cast<std::size_t>(it - cdf.begin()) + 1;
    stub_count += target[v];
  }
  // Even-ize the stub count so the configuration model can pair everything,
  // without breaching the cap: bump a node still below max_degree, or (all
  // nodes at the cap already) drop a stub from a node with more than one.
  if (stub_count % 2 != 0) {
    const auto start = static_cast<std::size_t>(rng.below(n));
    bool bumped = false;
    for (std::size_t k = 0; k < n && !bumped; ++k) {
      const std::size_t v = (start + k) % n;
      if (target[v] < max_degree) {
        ++target[v];
        ++stub_count;
        bumped = true;
      }
    }
    if (!bumped) {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t v = (start + k) % n;
        if (target[v] > 1) {
          --target[v];
          --stub_count;
          break;
        }
      }
    }
  }

  // Configuration model: shuffle the stub multiset, pair consecutively, and
  // drop pairs that would form a loop or a parallel edge (realised degrees
  // may therefore undershoot their targets).
  std::vector<NodeId> stubs;
  stubs.reserve(stub_count);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t k = 0; k < target[v]; ++k) stubs.push_back(nid(v));
  }
  rng.shuffle(stubs);
  std::set<std::pair<NodeId, NodeId>> seen;
  std::vector<Edge> edges;
  for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
    auto u = stubs[i];
    auto v = stubs[i + 1];
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    if (!seen.emplace(u, v).second) continue;
    edges.push_back({u, v});
  }
  return SimpleGraph::from_edges(n, std::move(edges));
}

SimpleGraph random_bipartite_regular(std::size_t side, std::size_t d,
                                     Rng& rng) {
  if (side < 1) throw InvalidArgument("random_bipartite_regular: empty side");
  if (d > side) {
    throw InvalidArgument("random_bipartite_regular: need d <= side");
  }
  // Deterministic seed: d pairwise-disjoint cyclic-shift perfect matchings
  // (left i -> right (i + k) mod side); then bipartiteness-preserving
  // double-edge swaps.
  std::vector<Edge> edges;
  for (std::size_t k = 0; k < d; ++k) {
    for (std::size_t i = 0; i < side; ++i) {
      edges.push_back({nid(i), nid(side + (i + k) % side)});
    }
  }
  std::vector<int> colour(2 * side, 0);
  for (std::size_t v = side; v < 2 * side; ++v) colour[v] = 1;
  double_edge_swaps(2 * side, edges, &colour, rng);
  auto g = SimpleGraph::from_edges(2 * side, std::move(edges));
  EDS_ENSURE(g.is_regular(d), "random_bipartite_regular: swaps broke regularity");
  return g;
}

SimpleGraph disjoint_union(const SimpleGraph& a, const SimpleGraph& b) {
  GraphBuilder builder(a.num_nodes() + b.num_nodes());
  for (const auto& e : a.edges()) builder.add_edge(e.u, e.v);
  const auto shift = static_cast<NodeId>(a.num_nodes());
  for (const auto& e : b.edges()) {
    builder.add_edge(e.u + shift, e.v + shift);
  }
  return builder.build();
}

}  // namespace eds::graph
