#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/edge_set.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "graph/simple_graph.hpp"
#include "util/rng.hpp"

namespace eds::graph {
namespace {

TEST(SimpleGraph, EmptyGraph) {
  const SimpleGraph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_TRUE(g.is_regular(0));
}

TEST(SimpleGraph, FromEdgesNormalises) {
  const auto g = SimpleGraph::from_edges(3, {{2, 0}, {1, 2}});
  EXPECT_EQ(g.edge(0).u, 0u);
  EXPECT_EQ(g.edge(0).v, 2u);
  EXPECT_EQ(g.degree(2), 2u);
}

TEST(SimpleGraph, RejectsLoops) {
  EXPECT_THROW((void)SimpleGraph::from_edges(2, {{1, 1}}), InvalidStructure);
}

TEST(SimpleGraph, RejectsParallelEdges) {
  EXPECT_THROW((void)SimpleGraph::from_edges(2, {{0, 1}, {1, 0}}),
               InvalidStructure);
}

TEST(SimpleGraph, RejectsOutOfRange) {
  EXPECT_THROW((void)SimpleGraph::from_edges(2, {{0, 2}}), InvalidStructure);
}

TEST(SimpleGraph, FindEdge) {
  const auto g = SimpleGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.find_edge(2, 1), EdgeId{1});
  EXPECT_EQ(g.find_edge(0, 3), std::nullopt);
  EXPECT_TRUE(g.has_edge(3, 2));
}

TEST(SimpleGraph, EdgeOther) {
  const Edge e{3, 7};
  EXPECT_EQ(e.other(3), 7u);
  EXPECT_EQ(e.other(7), 3u);
  EXPECT_THROW((void)e.other(5), InvalidArgument);
}

TEST(SimpleGraph, EdgeAdjacency) {
  const Edge e{1, 2};
  EXPECT_TRUE(e.adjacent_to(Edge{2, 3}));
  EXPECT_FALSE(e.adjacent_to(Edge{3, 4}));
}

TEST(SimpleGraph, IncidencesSorted) {
  const auto g = SimpleGraph::from_edges(4, {{0, 3}, {0, 1}, {0, 2}});
  const auto inc = g.incidences(0);
  ASSERT_EQ(inc.size(), 3u);
  EXPECT_EQ(inc[0].neighbour, 1u);
  EXPECT_EQ(inc[1].neighbour, 2u);
  EXPECT_EQ(inc[2].neighbour, 3u);
}

TEST(GraphBuilder, BoundsCheckedEagerly) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), InvalidArgument);
}

TEST(EdgeSet, InsertEraseContains) {
  EdgeSet s(5);
  EXPECT_TRUE(s.insert(2));
  EXPECT_FALSE(s.insert(2));
  EXPECT_TRUE(s.contains(2));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.erase(2));
  EXPECT_FALSE(s.erase(2));
  EXPECT_TRUE(s.empty());
}

TEST(EdgeSet, SetAlgebra) {
  EdgeSet a(4, {0, 1});
  EdgeSet b(4, {1, 2});
  EXPECT_EQ(a.set_union(b).to_vector(), (std::vector<EdgeId>{0, 1, 2}));
  EXPECT_EQ(a.set_intersection(b).to_vector(), (std::vector<EdgeId>{1}));
  EXPECT_EQ(a.set_difference(b).to_vector(), (std::vector<EdgeId>{0}));
}

TEST(EdgeSet, UniverseMismatchThrows) {
  EdgeSet a(4);
  EdgeSet b(5);
  EXPECT_THROW((void)a.set_union(b), InvalidArgument);
}

TEST(EdgeSet, WordPackingHoldsAtWordBoundaries) {
  // One bit per edge id, 64 to a word: universes just below, at and just
  // past a word boundary, plus the empty one.
  for (const std::size_t universe :
       {std::size_t{0}, std::size_t{63}, std::size_t{64}, std::size_t{65}}) {
    const std::string label = "universe " + std::to_string(universe);
    std::vector<EdgeId> thirds;  // 0, 3, 6, ... and the last id
    std::vector<EdgeId> odds;    // 1, 3, 5, ...
    for (EdgeId e = 0; e < universe; ++e) {
      if (e % 3 == 0 || e + 1 == universe) thirds.push_back(e);
      if (e % 2 == 1) odds.push_back(e);
    }
    const EdgeSet a(universe, thirds);
    const EdgeSet b(universe, odds);
    ASSERT_EQ(a.words().size(), (universe + 63) / 64) << label;
    EXPECT_EQ(a.to_vector(), thirds) << label;
    EXPECT_EQ(a.size(), thirds.size()) << label;

    const auto expect_op = [&](const EdgeSet& got, auto op, const char* what) {
      std::vector<EdgeId> want;
      op(thirds.begin(), thirds.end(), odds.begin(), odds.end(),
         std::back_inserter(want));
      EXPECT_EQ(got.to_vector(), want) << label << " " << what;
      EXPECT_EQ(got.size(), want.size()) << label << " " << what;
      EXPECT_EQ(got, EdgeSet(universe, want)) << label << " " << what;
    };
    expect_op(a.set_union(b),
              [](auto... args) { return std::set_union(args...); }, "union");
    expect_op(a.set_intersection(b),
              [](auto... args) { return std::set_intersection(args...); },
              "intersection");
    expect_op(a.set_difference(b),
              [](auto... args) { return std::set_difference(args...); },
              "difference");

    if (universe > 0) {
      // Erasing the last id leaves exactly the words of a set that never
      // held it: no stray bit survives past the members.
      EdgeSet erased = a;
      EXPECT_TRUE(erased.erase(static_cast<EdgeId>(universe - 1)));
      std::vector<EdgeId> rest(thirds.begin(), thirds.end() - 1);
      EXPECT_EQ(erased, EdgeSet(universe, rest)) << label;
      if (universe % 64 != 0) {
        EXPECT_EQ(a.set_union(b).words().back() >> (universe % 64), 0u)
            << label << ": a bit beyond the universe is set";
      }
    }
    std::vector<std::uint64_t> words(a.words().begin(), a.words().end());
    EXPECT_EQ(EdgeSet::from_words(universe, words), a) << label;

    const auto outside = static_cast<EdgeId>(universe);
    EdgeSet probe = a;
    EXPECT_THROW((void)probe.contains(outside), std::out_of_range) << label;
    EXPECT_THROW((void)probe.insert(outside), std::out_of_range) << label;
    EXPECT_THROW((void)probe.erase(outside), std::out_of_range) << label;
    EXPECT_EQ(probe, a) << label;
  }
}

TEST(EdgeSet, FromWordsRejectsMalformedWords) {
  EXPECT_THROW((void)EdgeSet::from_words(65, {0}), InvalidArgument);
  EXPECT_THROW((void)EdgeSet::from_words(64, {0, 0}), InvalidArgument);
  EXPECT_THROW((void)EdgeSet::from_words(65, {0, 2}), InvalidArgument)
      << "bit 65 lies beyond a 65-edge universe";
  const auto s = EdgeSet::from_words(65, {0b101, 1});
  EXPECT_EQ(s.to_vector(), (std::vector<EdgeId>{0, 2, 64}));
  EXPECT_EQ(s.size(), 3u);
}

TEST(EdgeSet, DegreeAndCover) {
  const auto g = SimpleGraph::from_edges(3, {{0, 1}, {1, 2}});
  EdgeSet s(2, {0});
  EXPECT_EQ(degree_in_set(g, s, 1), 1u);
  EXPECT_TRUE(covers_node(g, s, 0));
  EXPECT_FALSE(covers_node(g, s, 2));
}

TEST(Generators, Path) {
  const auto g = path(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_forest(g));
}

TEST(Generators, Cycle) {
  const auto g = cycle(6);
  EXPECT_TRUE(g.is_regular(2));
  EXPECT_TRUE(is_connected(g));
  EXPECT_FALSE(is_forest(g));
  EXPECT_THROW((void)cycle(2), InvalidArgument);
}

TEST(Generators, Complete) {
  const auto g = complete(6);
  EXPECT_TRUE(g.is_regular(5));
  EXPECT_EQ(g.num_edges(), 15u);
  // K_92682 has 4,294,930,221 edges, K_92683 4,295,022,903: past 2^32 - 1
  // the ids would wrap.  The count is checked before any edge is recorded.
  EXPECT_NO_THROW(check_edge_count(std::numeric_limits<EdgeId>::max(), "t"));
  EXPECT_THROW(check_edge_count(std::uint64_t{1} << 32, "t"), InvalidArgument);
  try {
    (void)complete(92683);
    ADD_FAILURE() << "complete(92683) built";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("4295022903 edges"),
              std::string::npos)
        << e.what();
  }
}

TEST(Generators, CompleteBipartite) {
  const auto g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_TRUE(is_bipartite(g));
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.degree(3), 3u);
}

TEST(Generators, Star) {
  const auto g = star(7);
  EXPECT_EQ(g.degree(0), 7u);
  EXPECT_EQ(g.max_degree(), 7u);
  EXPECT_TRUE(is_forest(g));
}

TEST(Generators, CrownIsRegularBipartite) {
  const auto g = crown(4);
  EXPECT_TRUE(g.is_regular(3));
  EXPECT_TRUE(is_bipartite(g));
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_FALSE(g.has_edge(0, 4));  // the removed perfect matching
}

TEST(Generators, Hypercube) {
  const auto g = hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16u);
  EXPECT_TRUE(g.is_regular(4));
  EXPECT_TRUE(is_bipartite(g));
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Grid) {
  const auto g = grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 17u);
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Generators, TorusIsFourRegular) {
  const auto g = torus(4, 5);
  EXPECT_TRUE(g.is_regular(4));
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW((void)torus(2, 5), InvalidArgument);
}

TEST(Generators, Circulant) {
  const auto g = circulant(10, {1, 2});
  EXPECT_TRUE(g.is_regular(4));
  const auto h = circulant(10, {5});  // antipodal offset: degree 1
  EXPECT_TRUE(h.is_regular(1));
  EXPECT_THROW((void)circulant(10, {0}), InvalidArgument);
  EXPECT_THROW((void)circulant(10, {6}), InvalidArgument);
  EXPECT_THROW((void)circulant(10, {2, 2}), InvalidArgument);
}

TEST(Generators, Petersen) {
  const auto g = petersen();
  EXPECT_EQ(g.num_nodes(), 10u);
  EXPECT_TRUE(g.is_regular(3));
  EXPECT_TRUE(is_connected(g));
  EXPECT_FALSE(is_bipartite(g));
}

TEST(Generators, RandomTree) {
  Rng rng(1);
  const auto g = random_tree(40, rng);
  EXPECT_EQ(g.num_edges(), 39u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(is_forest(g));
}

TEST(Generators, RandomRegularParities) {
  Rng rng(2);
  for (const std::size_t d : {2u, 3u, 4u, 5u, 6u}) {
    const std::size_t n = d % 2 == 0 ? 15 : 16;
    const auto g = random_regular(n, d, rng);
    EXPECT_TRUE(g.is_regular(d)) << "d=" << d;
  }
  EXPECT_THROW((void)random_regular(7, 3, rng), InvalidArgument);  // odd n*d
  EXPECT_THROW((void)random_regular(4, 4, rng), InvalidArgument);  // d >= n
}

TEST(Generators, RandomRegularZeroDegree) {
  Rng rng(3);
  const auto g = random_regular(5, 0, rng);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Generators, RandomBoundedDegreeRespectsCap) {
  Rng rng(4);
  const auto g = random_bounded_degree(60, 4, 100, rng);
  EXPECT_LE(g.max_degree(), 4u);
  EXPECT_GT(g.num_edges(), 50u);  // dense enough to be a useful workload
}

TEST(Generators, RandomBipartiteRegular) {
  Rng rng(5);
  const auto g = random_bipartite_regular(10, 3, rng);
  EXPECT_TRUE(g.is_regular(3));
  EXPECT_TRUE(is_bipartite(g));
}

TEST(Generators, DisjointUnion) {
  const auto g = disjoint_union(cycle(3), path(3));
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_EQ(g.num_edges(), 5u);
  EXPECT_EQ(num_components(g), 2u);
}

TEST(Properties, ComponentsAndConnectivity) {
  const auto g = disjoint_union(cycle(4), cycle(5));
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[3]);
  EXPECT_NE(comp[0], comp[4]);
  EXPECT_EQ(num_components(g), 2u);
  EXPECT_FALSE(is_connected(g));
}

TEST(Properties, BipartitionOddCycle) {
  EXPECT_FALSE(is_bipartite(cycle(5)));
  EXPECT_TRUE(is_bipartite(cycle(6)));
}

TEST(Properties, BipartitionIsProper) {
  const auto g = hypercube(3);
  const auto colour = bipartition(g);
  ASSERT_TRUE(colour.has_value());
  for (const auto& e : g.edges()) {
    EXPECT_NE((*colour)[e.u], (*colour)[e.v]);
  }
}

TEST(Properties, DegreeHistogram) {
  const auto g = star(4);
  const auto hist = degree_histogram(g);
  ASSERT_EQ(hist.size(), 5u);
  EXPECT_EQ(hist[1], 4u);
  EXPECT_EQ(hist[4], 1u);
}

TEST(Io, RoundTrip) {
  Rng rng(6);
  const auto g = random_regular(12, 3, rng);
  const auto text = to_edge_list_string(g);
  const auto h = from_edge_list_string(text);
  EXPECT_EQ(h.num_nodes(), g.num_nodes());
  EXPECT_EQ(h.num_edges(), g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.edge(e), g.edge(e));
  }
}

TEST(Io, CommentsAndWhitespaceIgnored) {
  const auto g =
      from_edge_list_string("# a comment\n3 2\n\n0 1\n# another\n1 2\n");
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Io, TruncatedInputThrows) {
  EXPECT_THROW((void)from_edge_list_string("3 2\n0 1\n"), InvalidStructure);
}

TEST(Io, MalformedHeaderThrows) {
  EXPECT_THROW((void)from_edge_list_string("nope\n"), InvalidStructure);
}

TEST(Io, OutOfRangeEndpointThrows) {
  EXPECT_THROW((void)from_edge_list_string("2 1\n0 5\n"), InvalidStructure);
}

TEST(SimpleGraph, ReportsTheFirstOffendingEdgeInInputOrder) {
  const auto message = [](std::size_t n, std::vector<Edge> edges) {
    try {
      (void)SimpleGraph::from_edges(n, std::move(edges));
    } catch (const InvalidStructure& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const std::string parallel = "SimpleGraph: parallel edges are not allowed";
  const std::string loop = "SimpleGraph: loops are not allowed";
  const std::string range = "SimpleGraph: edge endpoint out of range";
  EXPECT_EQ(message(3, {{0, 1}, {1, 0}, {2, 2}}), parallel);
  EXPECT_EQ(message(3, {{0, 1}, {2, 2}, {1, 0}}), loop);
  EXPECT_EQ(message(3, {{0, 5}, {0, 1}, {1, 0}}), range);
  EXPECT_EQ(message(3, {{1, 2}, {0, 1}, {2, 1}, {0, 9}}), parallel);
  EXPECT_EQ(message(3, {{1, 2}, {0, 1}, {0, 9}, {2, 1}}), range);
  EXPECT_EQ(message(3, {{1, 2}, {0, 1}}), "");
}

TEST(SimpleGraph, RejectsANodeCountAboveTheNodeIdRange) {
  // SIZE_MAX nodes once wrapped the n + 1 CSR offsets to no offsets at all.
  const std::size_t too_many = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW((void)SimpleGraph::from_edges(too_many, {}), InvalidArgument);
  EXPECT_THROW((void)SimpleGraph(too_many), InvalidArgument);
  EXPECT_THROW((void)SimpleGraph(too_many / 2), InvalidArgument);
}

TEST(GraphBuilder, RejectsANodeCountAboveTheNodeIdRangeBeforeAnyEdge) {
  // The generators size a GraphBuilder from n and narrow node indices to
  // NodeId unchecked; path(SIZE_MAX) once pushed edges until the
  // allocator threw std::bad_alloc.
  const std::size_t too_many = std::numeric_limits<std::size_t>::max();
  try {
    GraphBuilder builder(too_many);
    FAIL() << "GraphBuilder accepted " << too_many << " nodes";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(too_many)),
              std::string::npos)
        << e.what();
  }
  const std::size_t one_past =
      std::size_t{std::numeric_limits<NodeId>::max()} + 1;
  EXPECT_THROW(GraphBuilder{one_past}, InvalidArgument);
  EXPECT_THROW((void)path(too_many), InvalidArgument);
  EXPECT_THROW((void)cycle(too_many), InvalidArgument);
  EXPECT_THROW((void)cycle(one_past), InvalidArgument);
}

TEST(SimpleGraph, CsrAdjacencyMatchesTheEdgeList) {
  Rng rng(5);
  const auto g = random_bounded_degree(40, 5, 70, rng);
  std::size_t incidences = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto inc = g.incidences(v);
    EXPECT_EQ(inc.size(), g.degree(v));
    incidences += inc.size();
    for (std::size_t k = 0; k < inc.size(); ++k) {
      EXPECT_EQ(g.edge(inc[k].edge).other(v), inc[k].neighbour);
      if (k > 0) {
        EXPECT_LT(inc[k - 1].neighbour, inc[k].neighbour);
      }
    }
  }
  EXPECT_EQ(incidences, 2 * g.num_edges());
  EXPECT_THROW((void)g.incidences(40), std::out_of_range);
  EXPECT_THROW((void)g.degree(40), std::out_of_range);
  // A moved-from graph is empty, not a graph with 2^64 - 1 nodes.
  SimpleGraph a = g;
  const SimpleGraph b = std::move(a);
  EXPECT_EQ(b.num_edges(), g.num_edges());
  EXPECT_EQ(a.num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.max_degree(), 0u);  // NOLINT(bugprone-use-after-move)
}

}  // namespace
}  // namespace eds::graph
