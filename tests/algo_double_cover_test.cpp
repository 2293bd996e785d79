#include <gtest/gtest.h>

#include <string>

#include "algo/double_cover.hpp"
#include "algo/driver.hpp"
#include "analysis/verify.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "port/ported_graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::algo {
namespace {

using analysis::is_k_matching;

graph::EdgeSet solve(const port::PortedGraph& pg) {
  return run_algorithm(pg, Algorithm::kDoubleCover).solution;
}

TEST(DoubleCover, ProducesATwoMatching) {
  Rng rng(1);
  for (int trial = 0; trial < 15; ++trial) {
    const auto pg = test::random_ported_bounded(25, 5, 45, rng);
    const auto& g = pg.graph();
    const auto p = solve(pg);
    EXPECT_TRUE(is_k_matching(g, p, 2)) << "trial " << trial;
  }
}

TEST(DoubleCover, DominatesEveryEdge) {
  // The Polishchuk–Suomela guarantee: P dominates all edges (every edge has
  // a P-covered endpoint).
  Rng rng(2);
  for (int trial = 0; trial < 15; ++trial) {
    const auto g = graph::random_bounded_degree(25, 5, 45, rng);
    if (g.num_edges() == 0) continue;
    const auto pg = port::with_random_ports(g, rng);
    const auto p = solve(pg);
    EXPECT_TRUE(analysis::is_edge_dominating_set(g, p)) << "trial " << trial;
  }
}

TEST(DoubleCover, CoveredNodesFormAVertexCover) {
  // Corollary: P-nodes form a vertex cover (of size <= 3 OPT_VC; here we
  // verify coverage, not the ratio).
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const auto pg = test::random_ported_bounded(20, 4, 35, rng);
    const auto& g = pg.graph();
    const auto p = solve(pg);
    std::vector<bool> covered(g.num_nodes(), false);
    for (const auto e : p.to_vector()) {
      covered[g.edge(e).u] = true;
      covered[g.edge(e).v] = true;
    }
    for (const auto& edge : g.edges()) {
      EXPECT_TRUE(covered[edge.u] || covered[edge.v]);
    }
  }
}

TEST(DoubleCover, PathGetsDominated) {
  const auto g = graph::path(10);
  const auto pg = port::with_canonical_ports(g);
  const auto p = solve(pg);
  EXPECT_TRUE(analysis::is_edge_dominating_set(g, p));
  EXPECT_TRUE(is_k_matching(g, p, 2));
}

TEST(DoubleCover, CycleSelectsAlternatingStructure) {
  Rng rng(4);
  const auto g = graph::cycle(12);
  const auto pg = port::with_random_ports(g, rng);
  const auto p = solve(pg);
  EXPECT_TRUE(analysis::is_edge_dominating_set(g, p));
}

TEST(DoubleCover, ScheduleIsLinearInDelta) {
  EXPECT_EQ(DoubleCoverProgram::schedule_length(4), 8u);
  EXPECT_EQ(DoubleCoverProgram::schedule_length(7), 14u);
}

/// The message of the InvalidArgument `make` throws ("" when it does not).
template <class Make>
std::string rejection(Make&& make) {
  try {
    (void)make();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(DoubleCover, FactoryRejectsSchedulesBeyondARound) {
  // 2∆ in 64 bits: ∆ = 2^31 − 1 is the largest whose schedule fits.
  EXPECT_EQ(DoubleCoverProgram::schedule_length(2147483647), 4294967294u);
  EXPECT_NO_THROW(DoubleCoverFactory(2147483647));
  EXPECT_EQ(DoubleCoverProgram::schedule_length(2147483648), 4294967296u);
  const std::string message =
      rejection([] { return DoubleCoverFactory(2147483648); });
  EXPECT_NE(message.find("max degree 2147483648"), std::string::npos)
      << message;
  EXPECT_NE(message.find("4294967296 rounds"), std::string::npos) << message;
  EXPECT_NE(rejection([] { return DoubleCoverFactory(4294967295); }), "");
}

TEST(DoubleCover, RoundsMatchSchedule) {
  Rng rng(5);
  const auto pg = test::random_ported_regular(14, 4, rng);
  const auto outcome = run_algorithm(pg, Algorithm::kDoubleCover, 4);
  EXPECT_EQ(outcome.stats.rounds, DoubleCoverProgram::schedule_length(4));
}

TEST(DoubleCover, SingleEdge) {
  const auto g = graph::path(2);
  const auto pg = port::with_canonical_ports(g);
  const auto p = solve(pg);
  EXPECT_EQ(p.size(), 1u);  // both endpoints propose; the edge is selected
}

TEST(DoubleCover, RejectsZeroDelta) {
  EXPECT_THROW(DoubleCoverProgram{0}, InvalidArgument);
}

TEST(DoubleCover, RejectsOverDegree) {
  Rng rng(6);
  const auto g = graph::star(5);
  const auto pg = port::with_random_ports(g, rng);
  EXPECT_THROW((void)run_algorithm(pg, Algorithm::kDoubleCover, 2),
               ExecutionError);
}

TEST(DoubleCover, StarGetsDominatedThroughTheCentre) {
  const auto g = graph::star(7);
  const auto pg = port::with_canonical_ports(g);
  const auto p = solve(pg);
  EXPECT_TRUE(analysis::is_edge_dominating_set(g, p));
  EXPECT_TRUE(is_k_matching(g, p, 2));
  EXPECT_LE(p.size(), 2u);  // centre can appear in at most 2 P edges
}

}  // namespace
}  // namespace eds::algo
