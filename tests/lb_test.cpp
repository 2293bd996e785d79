#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "algo/driver.hpp"
#include "analysis/ratio.hpp"
#include "analysis/verify.hpp"
#include "exact/exact_eds.hpp"
#include "lb/lower_bounds.hpp"
#include "port/covering.hpp"
#include "runtime/outputs.hpp"
#include "util/text.hpp"

namespace eds::lb {
namespace {

using analysis::approximation_ratio;

TEST(EvenLowerBound, StructureMatchesTheorem1) {
  for (const port::Port d : {2u, 4u, 6u, 8u, 10u}) {
    const auto inst = even_lower_bound(d);
    const auto& g = inst.ported.graph();
    EXPECT_EQ(g.num_nodes(), 2u * d - 1);
    EXPECT_TRUE(g.is_regular(d));
    EXPECT_EQ(inst.optimal.size(), d / 2);
    EXPECT_EQ(g.num_edges(), (2u * d - 1) * (d / 2));
    EXPECT_TRUE(analysis::is_edge_dominating_set(g, inst.optimal));
    EXPECT_EQ(inst.covering_base.num_nodes(), 1u);
    EXPECT_TRUE(port::is_covering_map(inst.ported.ports(), inst.covering_base,
                                      inst.covering_map));
  }
}

TEST(EvenLowerBound, OptimalIsExactlyOptimal) {
  // For small d, confirm |S| against the exact solver.
  for (const port::Port d : {2u, 4u, 6u}) {
    const auto inst = even_lower_bound(d);
    EXPECT_EQ(exact::minimum_eds_size(inst.ported.graph()),
              inst.optimal.size())
        << "d=" << d;
  }
}

TEST(EvenLowerBound, RejectsBadParameters) {
  EXPECT_THROW((void)even_lower_bound(3), InvalidArgument);
  EXPECT_THROW((void)even_lower_bound(0), InvalidArgument);
}

TEST(EvenLowerBound, PortOneAlgorithmHitsTheBoundExactly) {
  // The tightness half of Table 1 (even d): measured ratio == 4 - 2/d.
  for (const port::Port d : {2u, 4u, 6u, 8u, 10u}) {
    const auto inst = even_lower_bound(d);
    const auto outcome =
        algo::run_algorithm(inst.ported, algo::Algorithm::kPortOne);
    const auto ratio =
        approximation_ratio(outcome.solution.size(), inst.optimal.size());
    EXPECT_EQ(ratio, inst.forced_ratio) << "d=" << d;
    EXPECT_EQ(ratio, analysis::paper_bound_regular(d)) << "d=" << d;
  }
}

TEST(EvenLowerBound, AllNodesProduceTheSameOutput) {
  // The covering-map argument: every node of G behaves like the single node
  // of M, so all outputs are identical.
  const auto inst = even_lower_bound(6);
  const auto factory = algo::make_factory(algo::Algorithm::kPortOne);
  const auto result = runtime::run_synchronous(inst.ported.ports(), *factory);
  EXPECT_TRUE(runtime::all_outputs_identical(inst.ported.ports(), result));
}

TEST(OddLowerBound, StructureMatchesTheorem2) {
  for (const port::Port d : {3u, 5u, 7u, 9u}) {
    const std::size_t k = (d - 1) / 2;
    const auto inst = odd_lower_bound(d);
    const auto& g = inst.ported.graph();
    EXPECT_EQ(g.num_nodes(), d * (4 * k + 1) + d + 2 * k);
    EXPECT_TRUE(g.is_regular(d));
    EXPECT_EQ(inst.optimal.size(), (k + 1) * d);
    EXPECT_TRUE(analysis::is_edge_dominating_set(g, inst.optimal));
    EXPECT_EQ(inst.covering_base.num_nodes(), d + 1u);
    EXPECT_TRUE(port::is_covering_map(inst.ported.ports(), inst.covering_base,
                                      inst.covering_map));
  }
}

TEST(OddLowerBound, OptimalIsExactlyOptimalForD3) {
  const auto inst = odd_lower_bound(3);
  EXPECT_EQ(exact::minimum_eds_size(inst.ported.graph()),
            inst.optimal.size());
}

TEST(OddLowerBound, RejectsBadParameters) {
  EXPECT_THROW((void)odd_lower_bound(2), InvalidArgument);
  EXPECT_THROW((void)odd_lower_bound(1), InvalidArgument);
}

TEST(OddLowerBound, OddRegularAlgorithmHitsTheBoundExactly) {
  // The tightness half of Table 1 (odd d): measured ratio == 4 - 6/(d+1).
  for (const port::Port d : {3u, 5u, 7u}) {
    const auto inst = odd_lower_bound(d);
    const auto outcome =
        algo::run_algorithm(inst.ported, algo::Algorithm::kOddRegular, d);
    const auto ratio =
        approximation_ratio(outcome.solution.size(), inst.optimal.size());
    EXPECT_EQ(ratio, inst.forced_ratio) << "d=" << d;
    EXPECT_EQ(ratio, analysis::paper_bound_regular(d)) << "d=" << d;
  }
}

TEST(OddLowerBound, ForcedSizeMatchesTheProof) {
  // |D| >= (2d-1) d: the algorithm is forced to select, per component,
  // either a full 2-factor or all external edges.
  for (const port::Port d : {3u, 5u}) {
    const auto inst = odd_lower_bound(d);
    const auto outcome =
        algo::run_algorithm(inst.ported, algo::Algorithm::kOddRegular, d);
    EXPECT_EQ(outcome.solution.size(), (2u * d - 1) * d) << "d=" << d;
  }
}

TEST(OddLowerBound, EquivalenceClassesBehaveIdentically) {
  // Nodes with the same covering image produce identical outputs.
  const auto inst = odd_lower_bound(5);
  const auto factory = algo::make_factory(algo::Algorithm::kOddRegular, 5);
  const auto result = runtime::run_synchronous(inst.ported.ports(), *factory);
  const auto& g = inst.ported.ports();
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (port::NodeId u = v + 1; u < g.num_nodes(); ++u) {
      if (inst.covering_map[v] == inst.covering_map[u]) {
        EXPECT_EQ(runtime::selected_ports(g, result, v),
                  runtime::selected_ports(g, result, u))
            << "nodes " << v << " and " << u;
      }
    }
  }
}

TEST(ForcedRatio, MatchesTable1) {
  EXPECT_EQ(forced_ratio_regular(2), Fraction(3));
  EXPECT_EQ(forced_ratio_regular(3), Fraction(5, 2));
  EXPECT_EQ(forced_ratio_regular(4), Fraction(7, 2));
  EXPECT_EQ(forced_ratio_regular(5), Fraction(3));
  EXPECT_EQ(forced_ratio_regular(6), Fraction(11, 3));
  EXPECT_THROW((void)forced_ratio_regular(0), InvalidArgument);
}

TEST(LowerBounds, PortCountFormulasMatchTheConstructions) {
  for (port::Port d = 2; d <= 10; ++d) {
    const auto inst = d % 2 == 0 ? even_lower_bound(d) : odd_lower_bound(d);
    const auto ports =
        d % 2 == 0 ? even_lower_bound_ports(d) : odd_lower_bound_ports(d);
    EXPECT_EQ(ports, inst.ported.ports().num_ports()) << "d=" << d;
  }
  // The largest degrees whose instances a text port graph can hold.
  EXPECT_LE(even_lower_bound_ports(5792), kMaxTextPorts);
  EXPECT_GT(even_lower_bound_ports(5794), kMaxTextPorts);
  EXPECT_LE(odd_lower_bound_ports(321), kMaxTextPorts);
  EXPECT_GT(odd_lower_bound_ports(323), kMaxTextPorts);
  // Counts past 64 bits saturate instead of wrapping.
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(even_lower_bound_ports(4294967294u), kMax);
  EXPECT_EQ(odd_lower_bound_ports(4294967295u), kMax);
}

TEST(LowerBounds, BoundedDegreeAlgorithmAlsoRespectsItsBoundHere) {
  // Running A(∆) on the worst-case *regular* graphs: ratios stay within the
  // bounded-degree guarantee α(∆).
  for (const port::Port d : {4u, 6u}) {
    const auto inst = even_lower_bound(d);
    const auto outcome =
        algo::run_algorithm(inst.ported, algo::Algorithm::kBoundedDegree, d);
    EXPECT_TRUE(
        analysis::is_edge_dominating_set(inst.ported.graph(), outcome.solution));
    EXPECT_LE(approximation_ratio(outcome.solution.size(), inst.optimal.size()),
              analysis::paper_bound_bounded(d))
        << "d=" << d;
  }
}

}  // namespace
}  // namespace eds::lb
