// Broad parameterised sweeps: the Table 1 tightness claims and the model's
// indistinguishability guarantees, exercised across the full parameter
// ranges the benches report.
#include <gtest/gtest.h>

#include "algo/driver.hpp"
#include "analysis/ratio.hpp"
#include "analysis/verify.hpp"
#include "factor/two_factor.hpp"
#include "graph/generators.hpp"
#include "lb/lower_bounds.hpp"
#include "port/ported_graph.hpp"
#include "port/views.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds {
namespace {

using analysis::approximation_ratio;

/// Theorem 1 + Theorem 3 tightness for every even d up to 16.
class EvenTightness : public ::testing::TestWithParam<unsigned> {};

TEST_P(EvenTightness, MeasuredRatioEqualsBound) {
  const port::Port d = GetParam();
  const auto inst = lb::even_lower_bound(d);
  const auto outcome =
      algo::run_algorithm(inst.ported, algo::Algorithm::kPortOne);
  EXPECT_EQ(approximation_ratio(outcome.solution.size(), inst.optimal.size()),
            analysis::paper_bound_regular(d));
  EXPECT_EQ(outcome.solution.size(), inst.ported.graph().num_nodes());
}

INSTANTIATE_TEST_SUITE_P(EvenDegrees, EvenTightness,
                         ::testing::Values(2u, 4u, 6u, 8u, 10u, 12u, 14u, 16u));

/// Theorem 2 + Theorem 4 tightness for every odd d up to 9.
class OddTightness : public ::testing::TestWithParam<unsigned> {};

TEST_P(OddTightness, MeasuredRatioEqualsBound) {
  const port::Port d = GetParam();
  const auto inst = lb::odd_lower_bound(d);
  const auto outcome =
      algo::run_algorithm(inst.ported, algo::Algorithm::kOddRegular, d);
  EXPECT_EQ(approximation_ratio(outcome.solution.size(), inst.optimal.size()),
            analysis::paper_bound_regular(d));
  EXPECT_EQ(outcome.solution.size(), (2u * d - 1) * d);
}

INSTANTIATE_TEST_SUITE_P(OddDegrees, OddTightness,
                         ::testing::Values(3u, 5u, 7u, 9u));

/// Corollary 1 tightness: A(∆) on the even-regular construction for ∆ up
/// to 12, both parities.
class BoundedTightness : public ::testing::TestWithParam<unsigned> {};

TEST_P(BoundedTightness, MeasuredRatioEqualsAlpha) {
  const port::Port delta = GetParam();
  const port::Port d = delta % 2 == 0 ? delta : delta - 1;
  const auto inst = lb::even_lower_bound(d);
  const auto outcome =
      algo::run_algorithm(inst.ported, algo::Algorithm::kBoundedDegree, delta);
  EXPECT_EQ(approximation_ratio(outcome.solution.size(), inst.optimal.size()),
            analysis::paper_bound_bounded(delta));
}

INSTANTIATE_TEST_SUITE_P(Deltas, BoundedTightness,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u,
                                           11u, 12u));

/// Radius-bounded indistinguishability: nodes sharing a radius-T view make
/// identical outputs under any algorithm that halts within T rounds.
TEST(RadiusViews, BoundedRadiusImpliesBoundedIndistinguishability) {
  Rng rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    const auto pg = test::random_ported_regular(14, 4, rng);
    const auto& g = pg.graph();

    // Port-one halts after exactly 1 round: radius-1 views decide outputs.
    const auto classes = port::view_classes(pg.ports(), 1);
    const auto factory = algo::make_factory(algo::Algorithm::kPortOne);
    const auto result = runtime::run_synchronous(pg.ports(), *factory);
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      for (std::size_t u = v + 1; u < g.num_nodes(); ++u) {
        if (classes[v] == classes[u]) {
          EXPECT_EQ(runtime::selected_ports(pg.ports(), result, v),
                    runtime::selected_ports(pg.ports(), result, u));
        }
      }
    }
  }
}

/// All numbering strategies preserve the guarantee on the same graph.
TEST(NumberingStrategies, GuaranteeHoldsUnderAllStrategies) {
  Rng rng(78);
  const auto g = graph::random_regular(12, 4, rng);
  const auto exact_size = 3u;  // not needed exactly; use |E|/(2d-1) bound
  (void)exact_size;
  const port::PortedGraph strategies[] = {
      port::with_canonical_ports(g),
      port::with_random_ports(g, rng),
      factor::with_factor_ports(g),
  };
  for (const auto& pg : strategies) {
    const auto outcome = algo::run_algorithm(pg, algo::Algorithm::kPortOne);
    EXPECT_TRUE(analysis::is_edge_dominating_set(g, outcome.solution));
    // |D| <= |V| always (the counting step of Theorem 3).
    EXPECT_LE(outcome.solution.size(), g.num_nodes());
  }
}

/// Determinism: the same ported graph always yields the same output.
TEST(Determinism, RepeatedRunsAreIdentical) {
  Rng rng(79);
  const auto pg = test::random_ported_bounded(24, 5, 40, rng);
  const auto& g = pg.graph();
  const auto delta = static_cast<port::Port>(
      std::max<std::size_t>(g.max_degree(), 2));
  const auto a = algo::run_algorithm(pg, algo::Algorithm::kBoundedDegree, delta);
  const auto b = algo::run_algorithm(pg, algo::Algorithm::kBoundedDegree, delta);
  EXPECT_EQ(a.solution, b.solution);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
}

/// The odd construction's graph really is the worst case: random numberings
/// of the SAME graph can do no better than the adversarial one forces.
TEST(OddConstruction, AdversarialPortsAreEssential) {
  Rng rng(80);
  const auto inst = lb::odd_lower_bound(3);
  // Same underlying graph, random ports: ratio may improve.
  const auto random_pg = port::with_random_ports(inst.ported.graph(), rng);
  const auto adversarial =
      algo::run_algorithm(inst.ported, algo::Algorithm::kOddRegular, 3);
  const auto relaxed =
      algo::run_algorithm(random_pg, algo::Algorithm::kOddRegular, 3);
  EXPECT_TRUE(
      analysis::is_edge_dominating_set(inst.ported.graph(), relaxed.solution));
  EXPECT_LE(relaxed.solution.size(), adversarial.solution.size());
}

}  // namespace
}  // namespace eds
