#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "algo/common.hpp"
#include "factor/two_factor.hpp"
#include "graph/generators.hpp"
#include "lb/lower_bounds.hpp"
#include "port/covering.hpp"
#include "port/labels.hpp"
#include "port/port_graph.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::port {
namespace {

using graph::EdgeId;
using graph::SimpleGraph;

// Figure 2 of the paper; shared with other suites via test_util.hpp.
using test::figure2_graph_h;
using test::figure2_multigraph_m;

TEST(PortGraphBuilder, Figure2MultigraphStructure) {
  const auto m = figure2_multigraph_m();
  EXPECT_EQ(m.num_nodes(), 2u);
  EXPECT_EQ(m.num_ports(), 7u);
  EXPECT_EQ(m.partner(0, 1), (PortRef{1, 2}));
  EXPECT_EQ(m.partner(1, 2), (PortRef{0, 1}));
  EXPECT_EQ(m.partner(0, 3), (PortRef{0, 3}));  // directed loop
  EXPECT_EQ(m.partner(1, 3), (PortRef{1, 4}));  // undirected loop

  const auto edges = m.port_edges();
  EXPECT_EQ(edges.size(), 4u);
  std::size_t loops = 0;
  std::size_t directed = 0;
  for (const auto& e : edges) {
    if (e.is_loop()) ++loops;
    if (e.directed_loop) ++directed;
  }
  EXPECT_EQ(loops, 2u);
  EXPECT_EQ(directed, 1u);
  EXPECT_FALSE(m.is_simple());
}

TEST(PortGraphBuilder, RejectsDoubleAssignment) {
  PortGraphBuilder b({2, 2});
  b.connect({0, 1}, {1, 1});
  EXPECT_THROW(b.connect({0, 1}, {1, 2}), InvalidStructure);
}

TEST(PortGraphBuilder, RejectsSelfConnect) {
  PortGraphBuilder b({2});
  EXPECT_THROW(b.connect({0, 1}, {0, 1}), InvalidArgument);
}

TEST(PortGraphBuilder, RejectsIncompleteBuild) {
  PortGraphBuilder b({2, 2});
  b.connect({0, 1}, {1, 1});
  EXPECT_THROW((void)b.build(), InvalidStructure);
}

TEST(PortGraphBuilder, RejectsOutOfRangePort) {
  PortGraphBuilder b({2});
  EXPECT_THROW(b.fix({0, 3}), InvalidArgument);
  EXPECT_THROW(b.fix({1, 1}), InvalidArgument);
}

TEST(PortedGraph, CanonicalPortsAreValid) {
  const auto pg = with_canonical_ports(graph::cycle(5));
  pg.ports().validate();
  EXPECT_TRUE(pg.ports().is_simple());
  EXPECT_EQ(pg.ports().num_ports(), 10u);
}

TEST(PortedGraph, RandomPortsAreValidPermutation) {
  Rng rng(1);
  const auto g = graph::complete(6);
  const auto pg = with_random_ports(g, rng);
  pg.ports().validate();
  for (graph::NodeId v = 0; v < 6; ++v) {
    std::vector<bool> seen(g.num_edges(), false);
    for (Port i = 1; i <= 5; ++i) {
      const auto e = pg.edge_at(v, i);
      EXPECT_FALSE(seen[e]);
      seen[e] = true;
    }
  }
}

TEST(PortedGraph, PortEdgeRoundTrip) {
  Rng rng(2);
  const auto pg = test::random_ported_regular(12, 3, rng);
  const auto& g = pg.graph();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    EXPECT_EQ(pg.edge_at(edge.u, pg.port_of(edge.u, e)), e);
    EXPECT_EQ(pg.edge_at(edge.v, pg.port_of(edge.v, e)), e);
  }
}

TEST(PortedGraph, PortTowards) {
  const auto pg = figure2_graph_h();
  EXPECT_EQ(pg.port_towards(0, 2), 1u);  // a's port 1 points to c
  EXPECT_EQ(pg.port_towards(2, 0), 2u);  // c's port 2 points to a
  EXPECT_THROW((void)pg.port_towards(0, 3), InvalidArgument);  // no edge a-d
}

TEST(PortedGraph, RejectsNonPermutationOrder) {
  auto g = SimpleGraph::from_edges(3, {{0, 1}, {1, 2}});
  const std::vector<std::vector<EdgeId>> bad{{0}, {0, 0}, {1}};
  EXPECT_THROW((void)PortedGraph(std::move(g), bad), InvalidStructure);
}

TEST(PortedGraph, InvolutionMatchesPorts) {
  const auto pg = figure2_graph_h();
  // a: port1->c (c receives on its port 2).
  EXPECT_EQ(pg.ports().partner(0, 1), (PortRef{2, 2}));
  // b: port3->d (d receives on its port 2).
  EXPECT_EQ(pg.ports().partner(1, 3), (PortRef{3, 2}));
}

TEST(Labels, Figure2LabelPairs) {
  const auto pg = figure2_graph_h();
  const auto& g = pg.graph();
  // Edge cd carries label pair {1,1}; edge ab carries {1,2}.
  EXPECT_EQ(label_pair(pg, *g.find_edge(2, 3)), (LabelPair{1, 1}));
  EXPECT_EQ(label_pair(pg, *g.find_edge(0, 1)), (LabelPair{1, 2}));
}

TEST(Labels, Figure2DistinguishableNeighbours) {
  const auto pg = figure2_graph_h();
  // The paper's stated facts: a is the DN of b, d is the DN of c, and a has
  // no uniquely labelled edge (hence no DN).
  EXPECT_EQ(distinguishable_neighbour(pg, 1), graph::NodeId{0});
  EXPECT_EQ(distinguishable_neighbour(pg, 2), graph::NodeId{3});
  EXPECT_EQ(distinguishable_neighbour(pg, 0), std::nullopt);
  EXPECT_TRUE(uniquely_labelled_edges(pg, 0).empty());
}

TEST(Labels, Figure2MatchingsM) {
  const auto pg = figure2_graph_h();
  const auto& g = pg.graph();
  const auto m12 = matching_m(pg, 1, 2);
  EXPECT_EQ(m12.size(), 1u);
  EXPECT_TRUE(m12.contains(*g.find_edge(0, 1)));
  const auto m11 = matching_m(pg, 1, 1);
  EXPECT_EQ(m11.size(), 1u);
  EXPECT_TRUE(m11.contains(*g.find_edge(2, 3)));
}

TEST(Labels, Lemma1OddDegreeAlwaysHasDn) {
  // Property test over random odd-regular graphs and random numberings.
  Rng rng(7);
  for (const std::size_t d : {3u, 5u, 7u}) {
    for (int trial = 0; trial < 5; ++trial) {
      const auto pg =
          test::random_ported_regular(2 * d + 2, d, rng);
      for (graph::NodeId v = 0; v < pg.graph().num_nodes(); ++v) {
        EXPECT_TRUE(distinguishable_neighbour(pg, v).has_value())
            << "d=" << d << " v=" << v;
      }
    }
  }
}

TEST(Labels, Lemma1HoldsForOddDegreeNodesInIrregularGraphs) {
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pg = with_random_ports(
        graph::random_bounded_degree(30, 5, 50, rng), rng);
    for (graph::NodeId v = 0; v < pg.graph().num_nodes(); ++v) {
      if (pg.graph().degree(v) % 2 == 1) {
        EXPECT_TRUE(distinguishable_neighbour(pg, v).has_value());
      }
    }
  }
}

TEST(Labels, Lemma2EveryMijIsAMatching) {
  Rng rng(9);
  for (int trial = 0; trial < 6; ++trial) {
    const auto g = graph::random_regular(14, 4, rng);
    const auto pg = with_random_ports(g, rng);
    const auto d = static_cast<Port>(pg.graph().max_degree());
    for (Port i = 1; i <= d; ++i) {
      for (Port j = 1; j <= d; ++j) {
        const auto m = matching_m(pg, i, j);
        // Verify no two member edges share an endpoint.
        std::vector<int> deg(pg.graph().num_nodes(), 0);
        for (const auto e : m.to_vector()) {
          EXPECT_LE(++deg[pg.graph().edge(e).u], 1);
          EXPECT_LE(++deg[pg.graph().edge(e).v], 1);
        }
      }
    }
  }
}

TEST(Labels, UnionOfMijCoversOddDegreeNodes) {
  // Lemmas 1+2 together: the union of all M(i,j) covers each odd-degree node.
  Rng rng(10);
  const auto g = graph::random_regular(12, 5, rng);
  const auto pg = with_random_ports(g, rng);
  std::vector<bool> covered(g.num_nodes(), false);
  for (Port i = 1; i <= 5; ++i) {
    for (Port j = 1; j <= 5; ++j) {
      for (const auto e : matching_m(pg, i, j).to_vector()) {
        covered[g.edge(e).u] = true;
        covered[g.edge(e).v] = true;
      }
    }
  }
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(covered[v]) << "node " << v;
  }
}

/// The distinguishable-neighbour port by its definition: the lowest port
/// whose label pair {i, r_i} occurs once in the node's multiset of label
/// pairs, or 0.
Port dn_by_label_pair_multiset(const std::vector<Port>& remote) {
  std::map<std::pair<Port, Port>, int> multiplicity;
  const auto pair_of = [&remote](Port i) {
    return std::pair(std::min(i, remote[i - 1]), std::max(i, remote[i - 1]));
  };
  for (Port i = 1; i <= remote.size(); ++i) ++multiplicity[pair_of(i)];
  for (Port i = 1; i <= remote.size(); ++i) {
    if (multiplicity[pair_of(i)] == 1) return i;
  }
  return 0;
}

Port dn_of(const std::vector<Port>& remote) {
  std::vector<algo::PortSlot> slots(remote.size());
  for (std::size_t i = 0; i < remote.size(); ++i) {
    slots[i].remote_port = remote[i];
  }
  return algo::distinguishable_port(slots);
}

TEST(Labels, DistinguishablePortMatchesTheLabelPairMultiset) {
  // The programs find their DN in O(d) from one rule: port j != i carries
  // {i, r_i} only when j = r_i and r_j = i.  Every remote-port vector of
  // degree <= 5 over 1..d+2 covers loops (r_i = i), remote ports past the
  // degree and ports paired with each other in every combination.
  for (Port d = 0; d <= 5; ++d) {
    std::vector<Port> remote(d, 1);
    while (true) {
      ASSERT_EQ(dn_of(remote), dn_by_label_pair_multiset(remote))
          << "remote ports " << ::testing::PrintToString(remote);
      std::size_t k = 0;
      while (k < d && remote[k] == d + 2) remote[k++] = 1;
      if (k == d) break;
      ++remote[k];
    }
  }
  // Larger degrees, drawn at random.
  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto d = static_cast<Port>(6 + rng.below(27));
    std::vector<Port> remote(d);
    for (auto& r : remote) r = static_cast<Port>(1 + rng.below(2 * d));
    EXPECT_EQ(dn_of(remote), dn_by_label_pair_multiset(remote))
        << ::testing::PrintToString(remote);
  }
  // Every port paired with another: no DN.  A loop's pair {i, i} and a
  // remote port past the degree are unique.
  EXPECT_EQ(dn_of({2, 1, 4, 3}), 0u);
  EXPECT_EQ(dn_of({2, 1, 3}), 3u);
  EXPECT_EQ(dn_of({2, 1, 9}), 3u);
}

/// Oriented C_6 covering the single-node multigraph with p(x,1) <-> (x,2).
TEST(Covering, CycleCoversBouquet) {
  const std::size_t n = 6;
  auto g = graph::cycle(n);
  std::vector<std::vector<EdgeId>> order(n, std::vector<EdgeId>(2));
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto fwd = *g.find_edge(v, static_cast<graph::NodeId>((v + 1) % n));
    const auto bwd =
        *g.find_edge(v, static_cast<graph::NodeId>((v + n - 1) % n));
    order[v] = {fwd, bwd};
  }
  const PortedGraph pg(std::move(g), order);

  PortGraphBuilder mb({2});
  mb.connect({0, 1}, {0, 2});
  const auto base = mb.build();

  const std::vector<graph::NodeId> f(n, 0);
  EXPECT_TRUE(is_covering_map(pg.ports(), base, f));
}

TEST(Covering, DetectsNonSurjective) {
  PortGraphBuilder b1({1, 1});
  b1.connect({0, 1}, {1, 1});
  const auto cover = b1.build();
  PortGraphBuilder b2({1, 1});
  b2.connect({0, 1}, {1, 1});
  const auto base = b2.build();
  const auto check = check_covering_map(cover, base, {0, 0});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("surjective"), std::string::npos);
}

TEST(Covering, DetectsDegreeMismatch) {
  PortGraphBuilder b1({1, 1});
  b1.connect({0, 1}, {1, 1});
  const auto cover = b1.build();
  PortGraphBuilder b2({2});
  b2.connect({0, 1}, {0, 2});
  const auto base = b2.build();
  const auto check = check_covering_map(cover, base, {0, 0});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("degree"), std::string::npos);
}

TEST(Covering, DetectsConnectionMismatch) {
  // C_4 with ports 1/2 towards fixed directions vs a base expecting 1<->1.
  const std::size_t n = 4;
  auto g = graph::cycle(n);
  std::vector<std::vector<EdgeId>> order(n, std::vector<EdgeId>(2));
  for (graph::NodeId v = 0; v < n; ++v) {
    const auto fwd = *g.find_edge(v, static_cast<graph::NodeId>((v + 1) % n));
    const auto bwd =
        *g.find_edge(v, static_cast<graph::NodeId>((v + n - 1) % n));
    order[v] = {fwd, bwd};
  }
  const PortedGraph pg(std::move(g), order);

  PortGraphBuilder mb({2});
  mb.connect({0, 1}, {0, 2});
  const auto base_ok = mb.build();
  EXPECT_TRUE(is_covering_map(pg.ports(), base_ok, {0, 0, 0, 0}));

  PortGraphBuilder mb2({2});
  mb2.fix({0, 1});
  mb2.fix({0, 2});
  const auto base_bad = mb2.build();
  const auto check = check_covering_map(pg.ports(), base_bad, {0, 0, 0, 0});
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.reason.find("connections"), std::string::npos);
}

TEST(Covering, IdentityIsACoveringMap) {
  const auto pg = figure2_graph_h();
  std::vector<graph::NodeId> id{0, 1, 2, 3};
  EXPECT_TRUE(is_covering_map(pg.ports(), pg.ports(), id));
}

TEST(PortGraph, TablesMirrorDegreesAndPartners) {
  // The engines read offsets(), partner_flat() and partner_node() through
  // raw pointers in place of degree() and partner().
  auto rng = test::make_rng(0xE63);
  std::vector<PortGraph> graphs;
  graphs.push_back(random_port_graph({3, 0, 2, 5, 1, 4}, rng));
  // Directed loops (fixed points of the involution) and, in the covering
  // bases of the lower bounds, ports paired on one node.
  graphs.push_back(random_port_graph({3, 0, 2, 5, 1, 4}, rng, 0.3));
  graphs.push_back(lb::even_lower_bound(4).covering_base);
  graphs.push_back(lb::odd_lower_bound(3).covering_base);
  graphs.emplace_back();
  for (const auto& g : graphs) {
    const auto offsets = g.offsets();
    const auto partner_flat = g.partner_flat();
    const auto partner_node = g.partner_node();
    ASSERT_EQ(offsets.size(), g.num_nodes() + 1);
    ASSERT_EQ(partner_flat.size(), g.num_ports());
    ASSERT_EQ(partner_node.size(), g.num_ports());
    std::size_t off = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(offsets[v], off);
      EXPECT_EQ(g.offset(v), off);
      EXPECT_EQ(offsets[v + 1] - offsets[v], g.degree(v));
      off += g.degree(v);
      for (Port i = 1; i <= g.degree(v); ++i) {
        const auto q = offsets[v] + i - 1;
        const auto dst = g.partner(v, i);
        EXPECT_EQ(g.partner_ref(q), dst);
        EXPECT_EQ(partner_node[q], dst.node);
        EXPECT_EQ(partner_flat[q], offsets[dst.node] + dst.port - 1);
        // Involution: following the partner index twice returns home.
        EXPECT_EQ(partner_flat[partner_flat[q]], q);
      }
    }
    EXPECT_EQ(off, g.num_ports());
    EXPECT_EQ(offsets.back(), g.num_ports());
  }
}

TEST(PortGraph, MemoryBytesCountsTheFlatArraysExactly) {
  Rng rng(43);
  for (const auto& g :
       {test::random_ported_regular(64, 4, rng).ports(),
        random_port_graph({3, 0, 2, 5, 1, 4}, rng, 0.3), PortGraph{}}) {
    // Three uint32 tables: n + 1 offsets, and per port the flat partner
    // and the partner's node.
    EXPECT_EQ(g.memory_bytes(), (g.num_nodes() + 1 + 2 * g.num_ports()) * 4);
  }
  // A 4-regular graph: 9 B per port plus 4 B.
  Rng regular_rng(44);
  const auto regular = test::random_ported_regular(256, 4, regular_rng);
  EXPECT_EQ(regular.ports().memory_bytes(), 9 * 1024 + 4);
}

TEST(PortGraph, SummaryMentionsLoops) {
  const auto m = figure2_multigraph_m();
  EXPECT_NE(m.summary().find("loops=2"), std::string::npos);
}

TEST(PortGraph, DegreeOutOfRangeThrows) {
  const auto m = figure2_multigraph_m();
  EXPECT_THROW((void)m.degree(5), InvalidArgument);
  EXPECT_THROW((void)m.partner(0, 9), InvalidArgument);
}

TEST(PortGraph, RejectsPortCountsBeyondThirtyTwoBits) {
  EXPECT_NO_THROW(check_port_count(0));
  EXPECT_NO_THROW(check_port_count(kMaxPorts));
  EXPECT_THROW(check_port_count(kMaxPorts + 1), InvalidArgument);
  EXPECT_THROW(check_port_count(std::uint64_t{1} << 40), Error);
  // The builder checks the degree sum before it allocates any table
  // (tests/alloc_test.cpp counts that it allocates none).
  EXPECT_THROW((void)PortGraphBuilder({0xFFFFFFFF, 1}), InvalidArgument);
  EXPECT_NO_THROW((void)PortGraphBuilder({0, 0, 0}).build());
}

TEST(PortGraphBuilder, BuildMovesTheGraphOutOnce) {
  PortGraphBuilder b({1, 1});
  b.connect({0, 1}, {1, 1});
  const auto g = b.build();
  EXPECT_EQ(g.num_ports(), 2u);
  EXPECT_THROW((void)b.build(), InvalidArgument);
}

TEST(PortedGraph, FlatEdgeTableMatchesPerPortLookups) {
  Rng rng(17);
  const auto pg = test::random_ported_bounded(30, 5, 50, rng);
  const auto& g = pg.ports();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (Port i = 1; i <= g.degree(v); ++i) {
      const EdgeId e = pg.edge_at(v, i);
      EXPECT_EQ(pg.port_of(v, e), i);
    }
  }
  EXPECT_THROW((void)pg.edge_at(30, 1), InvalidArgument);
  EXPECT_THROW((void)pg.edge_at(0, 0), InvalidArgument);
  EXPECT_THROW((void)pg.port_of(30, 0), InvalidArgument);
}

TEST(PortedGraph, EdgeLookupsAgreeOnEveryPort) {
  // edge_at reads the involution and port_of the edge table: on every
  // port of every kind of numbering they must invert each other and agree
  // with the table and with port_towards.
  Rng rng(29);
  const std::vector<std::pair<std::string, PortedGraph>> graphs = {
      {"canonical", with_canonical_ports(graph::petersen())},
      {"canonical grid", with_canonical_ports(graph::grid(4, 5))},
      {"random", test::random_ported_bounded(40, 6, 90, rng)},
      {"factor", factor::with_factor_ports(graph::random_regular(20, 4, rng))},
      {"figure 2", figure2_graph_h()},
  };
  for (const auto& [how, pg] : graphs) {
    const auto& g = pg.ports();
    const auto& edges = pg.graph();
    const auto m = static_cast<EdgeId>(edges.num_edges());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (Port i = 1; i <= g.degree(v); ++i) {
        const EdgeId e = pg.edge_at(v, i);
        ASSERT_LT(e, m) << how;
        const NodeId u = edges.edge(e).other(v);
        EXPECT_EQ(u, g.partner(v, i).node) << how;
        EXPECT_EQ(pg.port_of(v, e), i) << how;
        EXPECT_EQ(pg.edge_port_table()[e][edges.edge(e).u == v ? 0 : 1],
                  g.offset(v) + i - 1)
            << how;
        EXPECT_EQ(pg.port_towards(v, u), i) << how;
        EXPECT_EQ(pg.port_towards(u, v), g.partner(v, i).port) << how;
      }
      EXPECT_THROW((void)pg.port_of(v, m), InvalidArgument) << how;
      for (EdgeId e = 0; e < m; ++e) {
        if (edges.edge(e).u != v && edges.edge(e).v != v) {
          EXPECT_THROW((void)pg.port_of(v, e), InvalidArgument) << how;
          break;
        }
      }
    }
  }
}

TEST(PortedGraph, RejectsRepeatedOrForeignEdges) {
  const auto g = SimpleGraph::from_edges(3, {{0, 1}, {1, 2}});
  // Node 1 lists edge 0 twice, then a non-incident edge, then too few.
  for (const std::vector<EdgeId>& order1 :
       {std::vector<EdgeId>{0, 0}, std::vector<EdgeId>{0, 7},
        std::vector<EdgeId>{1}}) {
    EXPECT_THROW((void)PortedGraph(g, {{0}, order1, {1}}), InvalidStructure);
  }
  EXPECT_THROW((void)PortedGraph(g, {{1}, {0, 1}, {1}}), InvalidStructure);
}

}  // namespace
}  // namespace eds::port
