#include "lb/lower_bounds.hpp"

#include <limits>
#include <utility>

#include "analysis/verify.hpp"
#include "factor/two_factor.hpp"
#include "util/error.hpp"

namespace eds::lb {

namespace {

using graph::EdgeId;
using graph::GraphBuilder;
using graph::NodeId;
using graph::SimpleGraph;
using port::Port;
using port::PortGraphBuilder;
using port::PortRef;

NodeId nid(std::size_t v) { return static_cast<NodeId>(v); }

/// a · b, or UINT64_MAX when the product does not fit.
std::uint64_t saturating_product(std::uint64_t a, std::uint64_t b) {
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  return b != 0 && a > kMax / b ? kMax : a * b;
}

}  // namespace

Fraction forced_ratio_regular(Port d) {
  if (d == 0) throw InvalidArgument("forced_ratio_regular: d must be positive");
  const auto dd = static_cast<std::int64_t>(d);
  if (d % 2 == 0) return Fraction(4) - Fraction(2, dd);
  return Fraction(4) - Fraction(6, dd + 1);
}

std::uint64_t even_lower_bound_ports(Port d) {
  const std::uint64_t x = d;
  return saturating_product(x, 2 * x - 1);
}

LowerBoundInstance even_lower_bound(Port d) {
  if (d < 2 || d % 2 != 0) {
    throw InvalidArgument("even_lower_bound: d must be even and >= 2");
  }
  const std::size_t k = d / 2;

  // Nodes: A = {0..d-1}, B = {d..2d-2}.
  const std::size_t n = 2 * static_cast<std::size_t>(d) - 1;
  GraphBuilder builder(n);

  // S: a perfect matching on A — {a1,a2}, {a3,a4}, ...
  std::vector<EdgeId> s_edges;
  for (std::size_t i = 0; i + 1 < d; i += 2) {
    s_edges.push_back(static_cast<EdgeId>(builder.num_edges()));
    builder.add_edge(nid(i), nid(i + 1));
  }
  // T: the complete bipartite graph A x B.
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d - 1; ++j) {
      builder.add_edge(nid(i), nid(d + j));
    }
  }
  SimpleGraph g = builder.build();
  EDS_ENSURE(g.is_regular(d), "even_lower_bound: graph is not d-regular");

  graph::EdgeSet optimal(g.num_edges(), s_edges);
  EDS_ENSURE(analysis::is_edge_dominating_set(g, optimal),
             "even_lower_bound: S is not an EDS");
  EDS_ENSURE(optimal.size() == k, "even_lower_bound: |S| != d/2");
  // Optimality: |E| = (2d-1)|S| and one edge dominates at most 2d-1 edges.
  EDS_ENSURE(g.num_edges() == (2 * static_cast<std::size_t>(d) - 1) * k,
             "even_lower_bound: edge count mismatch");

  // Adversarial ports: factor i of a 2-factorisation pairs ports 2i-1 / 2i.
  auto ported = factor::with_factor_ports(std::move(g));

  // Covering multigraph M: one node of degree d, p(x, 2i-1) <-> (x, 2i).
  PortGraphBuilder mb({d});
  for (Port i = 1; i <= static_cast<Port>(k); ++i) {
    mb.connect(PortRef{0, static_cast<Port>(2 * i - 1)},
               PortRef{0, static_cast<Port>(2 * i)});
  }
  auto base = mb.build();

  std::vector<NodeId> f(n, 0);
  const auto check = port::check_covering_map(ported.ports(), base, f);
  EDS_ENSURE(check.ok, "even_lower_bound: covering map invalid: " + check.reason);

  return LowerBoundInstance{std::move(ported), std::move(optimal),
                            std::move(base), std::move(f),
                            forced_ratio_regular(d)};
}

std::uint64_t odd_lower_bound_ports(Port d) {
  const std::uint64_t x = d;
  return saturating_product(x, saturating_product(2 * x - 1, x + 1));
}

LowerBoundInstance odd_lower_bound(Port d) {
  if (d < 3 || d % 2 != 1) {
    throw InvalidArgument("odd_lower_bound: d must be odd and >= 3");
  }
  const std::size_t k = (static_cast<std::size_t>(d) - 1) / 2;
  const std::size_t comp_size = 4 * k + 1;  // |A(l)| + |B(l)| + |C(l)|
  const std::size_t dd = d;

  // Global node layout:
  //   component l (0-based l = 0..d-1) occupies [l*comp_size, (l+1)*comp_size)
  //     a_{l,i} (1-based i in [1, 2k])  -> l*comp_size + (i-1)
  //     b_{l,i}                          -> l*comp_size + 2k + (i-1)
  //     c_l                              -> l*comp_size + 4k
  //   p_i (1-based i in [1, d])          -> d*comp_size + (i-1)
  //   q_i (1-based i in [1, 2k])         -> d*comp_size + d + (i-1)
  const std::size_t n = dd * comp_size + dd + 2 * k;
  auto a_node = [&](std::size_t l, std::size_t i) {
    return nid(l * comp_size + (i - 1));
  };
  auto b_node = [&](std::size_t l, std::size_t i) {
    return nid(l * comp_size + 2 * k + (i - 1));
  };
  auto c_node = [&](std::size_t l) { return nid(l * comp_size + 4 * k); };
  auto p_node = [&](std::size_t i) { return nid(dd * comp_size + (i - 1)); };
  auto q_node = [&](std::size_t i) {
    return nid(dd * comp_size + dd + (i - 1));
  };

  GraphBuilder builder(n);
  std::vector<EdgeId> optimal_edges;

  // Per-component local graphs (for the 2-factorisations) mirror the global
  // edges; local index = global index - l*comp_size.
  std::vector<GraphBuilder> local;
  local.reserve(dd);
  for (std::size_t l = 0; l < dd; ++l) local.emplace_back(comp_size);

  auto add_component_edge = [&](std::size_t l, NodeId gu, NodeId gv) {
    builder.add_edge(gu, gv);
    local[l].add_edge(nid(gu - l * comp_size), nid(gv - l * comp_size));
  };

  for (std::size_t l = 0; l < dd; ++l) {
    // R(l): the star around c_l.
    for (std::size_t i = 1; i <= 2 * k; ++i) {
      add_component_edge(l, c_node(l), b_node(l, i));
    }
    // S(l): the matching on A(l) — optimal edges.
    for (std::size_t i = 1; i + 1 <= 2 * k; i += 2) {
      optimal_edges.push_back(static_cast<EdgeId>(builder.num_edges()));
      add_component_edge(l, a_node(l, i), a_node(l, i + 1));
    }
    // T(l): the crown graph between A(l) and B(l) (i != j).
    for (std::size_t i = 1; i <= 2 * k; ++i) {
      for (std::size_t j = 1; j <= 2 * k; ++j) {
        if (i != j) {
          if (a_node(l, i) < b_node(l, j)) {
            add_component_edge(l, a_node(l, i), b_node(l, j));
          }
        }
      }
    }
  }

  // External edges.  Y = {p_l, c_l} edges are part of the optimum.
  for (std::size_t l = 1; l <= dd; ++l) {
    optimal_edges.push_back(static_cast<EdgeId>(builder.num_edges()));
    builder.add_edge(p_node(l), c_node(l - 1));
  }
  for (std::size_t l = 1; l <= dd; ++l) {
    for (std::size_t i = 1; i <= 2 * k; ++i) {
      if (i != l) builder.add_edge(p_node(i), b_node(l - 1, i));
    }
  }
  for (std::size_t l = 1; l <= 2 * k; ++l) {
    builder.add_edge(p_node(dd), b_node(l - 1, l));
  }
  for (std::size_t l = 1; l <= dd; ++l) {
    for (std::size_t i = 1; i <= 2 * k; ++i) {
      builder.add_edge(q_node(i), a_node(l - 1, i));
    }
  }

  SimpleGraph g = builder.build();
  EDS_ENSURE(g.is_regular(d), "odd_lower_bound: graph is not d-regular");

  graph::EdgeSet optimal(g.num_edges(), optimal_edges);
  EDS_ENSURE(optimal.size() == (k + 1) * dd,
             "odd_lower_bound: |D*| != (k+1)d");
  EDS_ENSURE(analysis::is_edge_dominating_set(g, optimal),
             "odd_lower_bound: D* is not an EDS");

  // Port numbering.  Components use factor ports 1..2k internally and port
  // d on the external edge; hubs use port l towards component l.
  std::vector<std::vector<EdgeId>> order(n);

  for (std::size_t l = 0; l < dd; ++l) {
    auto local_graph = local[l].build();
    EDS_ENSURE(local_graph.is_regular(2 * k),
               "odd_lower_bound: H(l) is not 2k-regular");
    const auto factorisation = factor::two_factorise(local_graph);
    const auto local_ported =
        factor::with_factor_ports(std::move(local_graph), factorisation);
    // Translate local port order into global edge ids.
    for (std::size_t lv = 0; lv < comp_size; ++lv) {
      const auto gv = nid(l * comp_size + lv);
      auto& slots = order[gv];
      slots.resize(dd);
      for (Port i = 1; i <= static_cast<Port>(2 * k); ++i) {
        const auto lu = local_ported.ports().partner(nid(lv), i).node;
        const auto ge = g.find_edge(gv, nid(l * comp_size + lu));
        EDS_ENSURE(ge.has_value(), "odd_lower_bound: lost component edge");
        slots[i - 1] = *ge;
      }
      // Port d: the unique external edge (towards P or Q).
      const auto no_edge = static_cast<EdgeId>(g.num_edges());
      EdgeId external = no_edge;
      for (const auto& inc : g.incidences(gv)) {
        if (inc.neighbour >= dd * comp_size) {
          EDS_ENSURE(external == no_edge,
                     "odd_lower_bound: multiple external edges at a node");
          external = inc.edge;
        }
      }
      EDS_ENSURE(external != no_edge,
                 "odd_lower_bound: missing external edge at a node");
      slots[dd - 1] = external;
    }
  }

  // Hubs: port l of u in P ∪ Q carries its edge into component l.
  for (NodeId v = nid(dd * comp_size); v < n; ++v) {
    auto& slots = order[v];
    slots.resize(dd);
    std::vector<bool> filled(dd, false);
    for (const auto& inc : g.incidences(v)) {
      const std::size_t l = inc.neighbour / comp_size;  // component index
      EDS_ENSURE(l < dd, "odd_lower_bound: hub joined to a non-component");
      EDS_ENSURE(!filled[l], "odd_lower_bound: hub port collision");
      slots[l] = inc.edge;
      filled[l] = true;
    }
  }

  port::PortedGraph ported(std::move(g), order);

  // Covering multigraph M: nodes x_1..x_d (indices 0..d-1) and y (index d).
  PortGraphBuilder mb(std::vector<Port>(dd + 1, d));
  for (std::size_t l = 0; l < dd; ++l) {
    for (std::size_t i = 1; i <= k; ++i) {
      mb.connect(PortRef{nid(l), static_cast<Port>(2 * i - 1)},
                 PortRef{nid(l), static_cast<Port>(2 * i)});
    }
    mb.connect(PortRef{nid(dd), static_cast<Port>(l + 1)},
               PortRef{nid(l), d});
  }
  auto base = mb.build();

  std::vector<NodeId> f(n);
  for (std::size_t v = 0; v < n; ++v) {
    f[v] = v < dd * comp_size ? nid(v / comp_size) : nid(dd);
  }
  const auto check = port::check_covering_map(ported.ports(), base, f);
  EDS_ENSURE(check.ok, "odd_lower_bound: covering map invalid: " + check.reason);

  return LowerBoundInstance{std::move(ported), std::move(optimal),
                            std::move(base), std::move(f),
                            forced_ratio_regular(d)};
}

}  // namespace eds::lb
