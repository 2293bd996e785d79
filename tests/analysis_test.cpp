#include <gtest/gtest.h>

#include "analysis/ratio.hpp"
#include "analysis/verify.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::analysis {
namespace {

using graph::EdgeSet;
using graph::SimpleGraph;
using test::p4;

TEST(Verify, DominatedEdges) {
  const auto g = p4();
  const EdgeSet middle(3, {1});
  EXPECT_EQ(dominated_edges(g, middle).size(), 3u);
  const EdgeSet end(3, {0});
  EXPECT_EQ(dominated_edges(g, end).size(), 2u);
}

TEST(Verify, EdgeDominatingSet) {
  const auto g = p4();
  EXPECT_TRUE(is_edge_dominating_set(g, EdgeSet(3, {1})));
  EXPECT_FALSE(is_edge_dominating_set(g, EdgeSet(3, {0})));
  EXPECT_TRUE(is_edge_dominating_set(g, EdgeSet(3, {0, 2})));
}

TEST(Verify, EmptySetDominatesEdgelessGraph) {
  const SimpleGraph g(4);
  EXPECT_TRUE(is_edge_dominating_set(g, EdgeSet(0)));
}

TEST(Verify, Matching) {
  const auto g = p4();
  EXPECT_TRUE(is_matching(g, EdgeSet(3, {0, 2})));
  EXPECT_FALSE(is_matching(g, EdgeSet(3, {0, 1})));
  EXPECT_TRUE(is_matching(g, EdgeSet(3)));
}

TEST(Verify, KMatching) {
  const auto g = graph::star(3);
  const EdgeSet all(3, {0, 1, 2});
  EXPECT_FALSE(is_k_matching(g, all, 2));
  EXPECT_TRUE(is_k_matching(g, all, 3));
  EXPECT_TRUE(is_k_matching(g, EdgeSet(3, {0, 1}), 2));
}

TEST(Verify, MaximalMatching) {
  const auto g = p4();
  EXPECT_TRUE(is_maximal_matching(g, EdgeSet(3, {1})));
  EXPECT_TRUE(is_maximal_matching(g, EdgeSet(3, {0, 2})));
  EXPECT_FALSE(is_maximal_matching(g, EdgeSet(3, {0})));   // extendable
  EXPECT_FALSE(is_maximal_matching(g, EdgeSet(3, {0, 1})));  // not a matching
}

TEST(Verify, EdgeCover) {
  const auto g = p4();
  EXPECT_TRUE(is_edge_cover(g, EdgeSet(3, {0, 2})));
  EXPECT_FALSE(is_edge_cover(g, EdgeSet(3, {1})));
}

TEST(Verify, Forest) {
  const auto g = graph::cycle(4);
  EdgeSet three(4, {0, 1, 2});
  EXPECT_TRUE(is_forest(g, three));
  EdgeSet four(4, {0, 1, 2, 3});
  EXPECT_FALSE(is_forest(g, four));
}

TEST(Verify, StarForest) {
  const auto g = p4();
  EXPECT_TRUE(is_star_forest(g, EdgeSet(3, {0, 1})));   // a 2-edge star
  EXPECT_TRUE(is_star_forest(g, EdgeSet(3, {0, 2})));   // two single edges
  EXPECT_FALSE(is_star_forest(g, EdgeSet(3, {0, 1, 2})));  // path of length 3
  const auto c3 = graph::cycle(3);
  EXPECT_FALSE(is_star_forest(c3, EdgeSet(3, {0, 1, 2})));  // a cycle
}

TEST(Verify, BigStarIsAStarForest) {
  const auto g = graph::star(6);
  EdgeSet all(6, {0, 1, 2, 3, 4, 5});
  EXPECT_TRUE(is_star_forest(g, all));
}

TEST(Verify, NodeDisjoint) {
  const auto g = p4();
  EXPECT_TRUE(node_disjoint(g, EdgeSet(3, {0}), EdgeSet(3, {2})));
  EXPECT_FALSE(node_disjoint(g, EdgeSet(3, {0}), EdgeSet(3, {1})));
  EXPECT_TRUE(node_disjoint(g, EdgeSet(3), EdgeSet(3, {1})));
}

TEST(Verify, MaximalMatchingIsAlwaysEds) {
  // Classic fact from Section 1.1, as a property test.
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const auto g = graph::random_bounded_degree(25, 5, 45, rng);
    EdgeSet m(g.num_edges());
    std::vector<bool> matched(g.num_nodes(), false);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto& edge = g.edge(e);
      if (!matched[edge.u] && !matched[edge.v]) {
        matched[edge.u] = matched[edge.v] = true;
        m.insert(e);
      }
    }
    EXPECT_TRUE(is_maximal_matching(g, m));
    EXPECT_TRUE(is_edge_dominating_set(g, m));
  }
}

TEST(Ratio, Basics) {
  EXPECT_EQ(approximation_ratio(6, 2), Fraction(3));
  EXPECT_EQ(approximation_ratio(0, 0), Fraction(1));
  EXPECT_THROW((void)approximation_ratio(3, 0), InvalidArgument);
}

TEST(Ratio, PaperBoundRegularTable) {
  // Table 1, d-regular column.
  EXPECT_EQ(paper_bound_regular(1), Fraction(1));       // 4 - 6/2 = 1
  EXPECT_EQ(paper_bound_regular(2), Fraction(3));       // 4 - 2/2
  EXPECT_EQ(paper_bound_regular(3), Fraction(5, 2));    // 4 - 6/4
  EXPECT_EQ(paper_bound_regular(4), Fraction(7, 2));    // 4 - 2/4
  EXPECT_EQ(paper_bound_regular(5), Fraction(3));       // 4 - 6/6
  EXPECT_EQ(paper_bound_regular(6), Fraction(11, 3));   // 4 - 2/6
  EXPECT_EQ(paper_bound_regular(7), Fraction(13, 4));   // 4 - 6/8
  EXPECT_THROW((void)paper_bound_regular(0), InvalidArgument);
}

TEST(Ratio, PaperBoundBoundedTable) {
  // Table 1, bounded-degree column; α(2k) = α(2k+1) = 4 - 1/k.
  EXPECT_EQ(paper_bound_bounded(1), Fraction(1));
  EXPECT_EQ(paper_bound_bounded(2), Fraction(3));       // k=1: 4 - 1
  EXPECT_EQ(paper_bound_bounded(3), Fraction(3));       // 4 - 2/2
  EXPECT_EQ(paper_bound_bounded(4), Fraction(7, 2));    // k=2: 4 - 1/2
  EXPECT_EQ(paper_bound_bounded(5), Fraction(7, 2));    // 4 - 2/4
  EXPECT_EQ(paper_bound_bounded(6), Fraction(11, 3));   // k=3
  EXPECT_EQ(paper_bound_bounded(7), Fraction(11, 3));
  EXPECT_THROW((void)paper_bound_bounded(0), InvalidArgument);
}

TEST(Ratio, BoundedAndRegularAgreeOnEvenDegrees) {
  // α(2k) for bounded degree equals the even-regular bound 4 - 2/d at
  // d = 2k (Corollary 1's source).
  for (std::size_t k = 1; k <= 8; ++k) {
    EXPECT_EQ(paper_bound_bounded(2 * k), paper_bound_regular(2 * k));
  }
}

TEST(Ratio, MonotoneInDelta) {
  for (std::size_t d = 1; d < 12; ++d) {
    EXPECT_LE(paper_bound_bounded(d), paper_bound_bounded(d + 1));
  }
}

TEST(Verify, EdgeDominationMatchesDominatedEdgesOnRandomSets) {
  // is_edge_dominating_set stops at the first undominated edge instead of
  // building dominated_edges; results and exceptions must not change.
  auto rng = test::make_rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const auto g = graph::random_bounded_degree(14, 4, 20, rng);
    const std::size_t m = g.num_edges();
    std::vector<graph::EdgeId> members;
    const double density = rng.uniform01();
    for (graph::EdgeId e = 0; e < m; ++e) {
      if (rng.chance(density)) members.push_back(e);
    }
    const EdgeSet s(m, members);
    EXPECT_EQ(is_edge_dominating_set(g, s),
              dominated_edges(g, s).size() == m)
        << "trial " << trial;
  }
}

TEST(Verify, EdgeDominationRejectsMemberIdsBeyondTheGraph) {
  const auto g = p4();
  for (const std::size_t universe : {std::size_t{3}, std::size_t{5}}) {
    EdgeSet s(universe);
    s.insert(static_cast<graph::EdgeId>(universe - 1));
    if (universe > g.num_edges()) {
      EXPECT_THROW((void)dominated_edges(g, s), std::out_of_range);
      EXPECT_THROW((void)is_edge_dominating_set(g, s), std::out_of_range);
    } else {
      EXPECT_FALSE(is_edge_dominating_set(g, s));  // {2,3} misses {0,1}
    }
  }
  // A smaller universe with valid ids is fine either way.
  EXPECT_TRUE(is_edge_dominating_set(g, EdgeSet(2, {1})));
}

}  // namespace
}  // namespace eds::analysis
