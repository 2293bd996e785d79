#include <gtest/gtest.h>

#include <string>

#include "algo/bounded_degree.hpp"
#include "algo/driver.hpp"
#include "analysis/ratio.hpp"
#include "analysis/verify.hpp"
#include "exact/exact_eds.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "port/ported_graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::algo {
namespace {

using analysis::approximation_ratio;
using analysis::is_edge_dominating_set;
using analysis::paper_bound_bounded;

graph::EdgeSet solve(const port::PortedGraph& pg, port::Port delta) {
  return run_algorithm(pg, Algorithm::kBoundedDegree, delta).solution;
}

/// Fixture parameterised by (max degree, seed).
class BoundedDegreeSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(BoundedDegreeSweep, SolutionIsAlwaysAnEds) {
  const auto [delta, seed] = GetParam();
  Rng rng(seed);
  const auto g = graph::random_bounded_degree(26, delta, 3 * 26, rng);
  if (g.num_edges() == 0) GTEST_SKIP() << "degenerate instance";
  const auto pg = port::with_random_ports(g, rng);
  const auto solution =
      solve(pg, static_cast<port::Port>(std::max<std::size_t>(
                    g.max_degree(), 2)));
  EXPECT_TRUE(is_edge_dominating_set(g, solution));
}

INSTANTIATE_TEST_SUITE_P(
    DeltaAndSeed, BoundedDegreeSweep,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 5u, 6u, 7u),
                       ::testing::Values(1u, 2u, 3u, 4u)));

TEST(BoundedDegree, RatioWithinBoundAgainstExactOptimum) {
  Rng rng(101);
  int tested = 0;
  for (int trial = 0; trial < 30 && tested < 12; ++trial) {
    const auto g = graph::random_bounded_degree(14, 4, 20, rng);
    if (g.num_edges() < 4) continue;
    const auto delta = g.max_degree();
    if (delta < 2) continue;
    ++tested;
    const auto pg = port::with_random_ports(g, rng);
    const auto solution = solve(pg, static_cast<port::Port>(delta));
    const auto optimum = exact::minimum_eds_size(g);
    EXPECT_LE(approximation_ratio(solution.size(), optimum),
              paper_bound_bounded(delta))
        << "trial " << trial << " delta=" << delta;
  }
  EXPECT_GE(tested, 8);
}

TEST(BoundedDegree, WorksOnStructuredFamilies) {
  Rng rng(102);
  const struct {
    graph::SimpleGraph g;
    const char* name;
  } cases[] = {
      {graph::grid(4, 5), "grid"},
      {graph::star(6), "star"},
      {graph::path(11), "path"},
      {graph::complete_bipartite(3, 5), "K35"},
      {graph::petersen(), "petersen"},
      {graph::random_tree(25, rng), "tree"},
  };
  for (const auto& c : cases) {
    const auto delta = static_cast<port::Port>(c.g.max_degree());
    const auto pg = port::with_random_ports(c.g, rng);
    const auto solution = solve(pg, delta);
    EXPECT_TRUE(is_edge_dominating_set(c.g, solution)) << c.name;
  }
}

TEST(BoundedDegree, MixedParityDegreesAreFine) {
  // Graphs mixing odd- and even-degree nodes exercise the "no DN" path.
  Rng rng(103);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = graph::random_bounded_degree(30, 5, 55, rng);
    if (g.num_edges() == 0) continue;
    const auto pg = port::with_random_ports(g, rng);
    const auto solution = solve(
        pg, static_cast<port::Port>(std::max<std::size_t>(g.max_degree(), 2)));
    EXPECT_TRUE(is_edge_dominating_set(g, solution));
  }
}

TEST(BoundedDegree, EvenDeltaUsesOddSchedule) {
  EXPECT_EQ(BoundedDegreeProgram::normalised_delta(4), 5u);
  EXPECT_EQ(BoundedDegreeProgram::normalised_delta(5), 5u);
  EXPECT_EQ(BoundedDegreeProgram::schedule_length(4),
            BoundedDegreeProgram::schedule_length(5));
}

TEST(BoundedDegree, AEvenEqualsAOddExactly) {
  // The paper *defines* A(2k) = A(2k+1); the two parameters must therefore
  // produce bit-identical executions on any max-degree-2k graph.
  Rng rng(999);
  for (int trial = 0; trial < 6; ++trial) {
    const auto g = graph::random_bounded_degree(22, 4, 38, rng);
    if (g.num_edges() == 0) continue;
    const auto pg = port::with_random_ports(g, rng);
    const auto even = run_algorithm(pg, Algorithm::kBoundedDegree, 4);
    const auto odd = run_algorithm(pg, Algorithm::kBoundedDegree, 5);
    EXPECT_EQ(even.solution, odd.solution);
    EXPECT_EQ(even.stats.rounds, odd.stats.rounds);
    EXPECT_EQ(even.stats.messages_sent, odd.stats.messages_sent);
  }
}

TEST(BoundedDegree, ScheduleLengthIsQuadratic) {
  // 3 + 3∆'² for the normalised (odd) ∆'.
  EXPECT_EQ(BoundedDegreeProgram::schedule_length(3), 30u);
  EXPECT_EQ(BoundedDegreeProgram::schedule_length(5), 78u);
  EXPECT_EQ(BoundedDegreeProgram::schedule_length(7), 150u);
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

TEST(BoundedDegree, FactoryRejectsSchedulesBeyondARound) {
  // 3 + 3∆'² in 64 bits: ∆' = 37,837 is the largest odd parameter whose
  // schedule fits a Round; 37,838 normalises to 37,839, which does not.
  EXPECT_EQ(BoundedDegreeProgram::schedule_length(37837), 4294915710u);
  EXPECT_NO_THROW(BoundedDegreeFactory(37837));
  EXPECT_NO_THROW(BoundedDegreeFactory(37836));
  EXPECT_EQ(BoundedDegreeProgram::schedule_length(37838), 4295369766u);
  const std::string message =
      rejection([] { return BoundedDegreeFactory(37838); });
  EXPECT_NE(message.find("max degree 37838"), std::string::npos) << message;
  EXPECT_NE(message.find("4295369766 rounds"), std::string::npos) << message;
  EXPECT_NE(rejection([] { return BoundedDegreeFactory(4294967295); }), "");
  EXPECT_NE(rejection([] {
              return make_factory(Algorithm::kBoundedDegree, 4294967295);
            }),
            "");
}

TEST(BoundedDegree, RunAlgorithmRejectsAWrappingParameter) {
  // The schedule once wrapped to 6 rounds: a non-dominating set, no error.
  const auto pg = port::with_canonical_ports(graph::cycle(8));
  EXPECT_THROW(
      (void)run_algorithm(pg, Algorithm::kBoundedDegree, 4294967295),
      InvalidArgument);
}

TEST(BoundedDegree, RoundCapFollowsASchedulePastTheDefault) {
  // A(182) normalises to ∆' = 183: 3 + 3 · 183² = 100,470 rounds, past
  // RunOptions' default cap of 100,000, which once failed every graph of
  // max degree 182 or more.
  EXPECT_EQ(round_cap(Algorithm::kBoundedDegree, 182), 100470u);
  EXPECT_EQ(round_cap(Algorithm::kBoundedDegree, 181), 100000u);
  EXPECT_EQ(round_cap(Algorithm::kOddRegular, 225), 101252u);
  EXPECT_EQ(round_cap(Algorithm::kDoubleCover, 4), 100000u);
  EXPECT_EQ(round_cap(Algorithm::kPortOne, 0), 100000u);
  const auto star = port::with_canonical_ports(graph::star(182));
  const auto outcome = run_algorithm(star, Algorithm::kBoundedDegree);
  EXPECT_EQ(outcome.stats.rounds, 100470u);
  EXPECT_TRUE(is_edge_dominating_set(star.graph(), outcome.solution));
  const auto batch =
      run_batch({{&star, Algorithm::kBoundedDegree, 0}}, 1);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].stats.rounds, 100470u);
  EXPECT_EQ(batch[0].solution, outcome.solution);
  // A caller's own RunOptions keep their cap.
  EXPECT_THROW((void)runtime::run_synchronous(star.ports(),
                                              BoundedDegreeFactory(182)),
               ExecutionError);
}

TEST(BoundedDegree, RoundsIndependentOfN) {
  Rng rng(104);
  runtime::Round rounds[2] = {0, 0};
  int idx = 0;
  for (const std::size_t n : {16u, 64u}) {
    const auto g = graph::grid(4, n / 4);
    const auto pg = port::with_random_ports(g, rng);
    rounds[idx++] =
        run_algorithm(pg, Algorithm::kBoundedDegree, 4).stats.rounds;
  }
  EXPECT_EQ(rounds[0], rounds[1]);
}

TEST(BoundedDegree, RejectsOverDegreeNodes) {
  Rng rng(105);
  const auto g = graph::star(6);  // max degree 6
  const auto pg = port::with_random_ports(g, rng);
  EXPECT_THROW((void)run_algorithm(pg, Algorithm::kBoundedDegree, 3),
               ExecutionError);
}

TEST(BoundedDegree, DeltaOneRoutesToAllEdges) {
  const auto factory = make_factory(Algorithm::kBoundedDegree, 1);
  EXPECT_EQ(factory->name(), "all-edges");
}

TEST(BoundedDegree, ConstructorRejectsDeltaBelowTwo) {
  EXPECT_THROW(BoundedDegreeProgram{1}, InvalidArgument);
}

TEST(BoundedDegree, RegularGraphsAreAValidSpecialCase) {
  // Theorem 5 applies to regular graphs too (though Theorems 3/4 are
  // better); ratio must respect the *bounded-degree* bound.
  Rng rng(106);
  for (const port::Port d : {3u, 4u}) {
    const auto pg = test::random_ported_regular(10, d, rng);
    const auto& g = pg.graph();
    const auto solution = solve(pg, d);
    EXPECT_TRUE(is_edge_dominating_set(g, solution));
    const auto optimum = exact::minimum_eds_size(g);
    EXPECT_LE(approximation_ratio(solution.size(), optimum),
              paper_bound_bounded(d));
  }
}

TEST(BoundedDegree, PropertiesOfSection73) {
  // (a) M is a matching, P a 2-matching, node-disjoint from M;
  // (c) P edges join equal-degree nodes.  We recover M and P from the
  // solution: M edges have an endpoint of solution-degree 1 touching no
  // other solution edge... instead, verify the implied global facts:
  // the solution is a 3-matching at most (M: <=1 per node, P: <=2 per node,
  // and M/P node-disjoint means <=2 overall).
  Rng rng(107);
  for (int trial = 0; trial < 10; ++trial) {
    const auto g = graph::random_bounded_degree(24, 5, 45, rng);
    if (g.num_edges() == 0) continue;
    const auto pg = port::with_random_ports(g, rng);
    const auto solution = solve(
        pg, static_cast<port::Port>(std::max<std::size_t>(g.max_degree(), 2)));
    EXPECT_TRUE(analysis::is_k_matching(g, solution, 2))
        << "M ∪ P must be a 2-matching (M and P are node-disjoint)";
  }
}

TEST(BoundedDegree, LargeSparseInstance) {
  Rng rng(108);
  const auto pg = test::random_ported_bounded(400, 6, 900, rng);
  const auto& g = pg.graph();
  const auto solution = solve(
      pg, static_cast<port::Port>(std::max<std::size_t>(g.max_degree(), 2)));
  EXPECT_TRUE(is_edge_dominating_set(g, solution));
}

}  // namespace
}  // namespace eds::algo
