// The covering-map execution lemma (Section 2.3), verified empirically:
// if f : V_H -> V_G is a covering map, then for ANY deterministic anonymous
// algorithm, the output of node v in H equals the output of f(v) in G.
// This is the engine behind both lower-bound theorems, and running it
// against the real simulator is a strong end-to-end check of the runtime.
#include <gtest/gtest.h>

#include "algo/driver.hpp"
#include "graph/generators.hpp"
#include "lb/lower_bounds.hpp"
#include "port/covering.hpp"
#include "port/ported_graph.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"

namespace eds {
namespace {

/// Asserts the lifting property for one algorithm on (cover, base, f).
void expect_lifts(const port::PortGraph& cover, const port::PortGraph& base,
                  const std::vector<graph::NodeId>& f,
                  const runtime::ProgramFactory& factory) {
  ASSERT_TRUE(port::is_covering_map(cover, base, f));
  const auto on_cover = runtime::run_synchronous(cover, factory);
  const auto on_base = runtime::run_synchronous(base, factory);
  ASSERT_EQ(on_cover.selected.size(), cover.num_ports());
  for (graph::NodeId v = 0; v < cover.num_nodes(); ++v) {
    EXPECT_EQ(runtime::selected_ports(cover, on_cover, v),
              runtime::selected_ports(base, on_base, f[v]))
        << "node " << v << " (image " << f[v] << ") diverged from its image";
  }
  // Round counts coincide as well: the executions are locally identical.
  EXPECT_EQ(on_cover.stats.rounds, on_base.stats.rounds);
}

TEST(CoveringExecution, PortOneOnTheorem1Construction) {
  for (const port::Port d : {2u, 4u, 6u, 8u}) {
    const auto inst = lb::even_lower_bound(d);
    const auto factory = algo::make_factory(algo::Algorithm::kPortOne);
    expect_lifts(inst.ported.ports(), inst.covering_base, inst.covering_map,
                 *factory);
  }
}

TEST(CoveringExecution, OddRegularOnTheorem2Construction) {
  for (const port::Port d : {3u, 5u}) {
    const auto inst = lb::odd_lower_bound(d);
    const auto factory = algo::make_factory(algo::Algorithm::kOddRegular, d);
    expect_lifts(inst.ported.ports(), inst.covering_base, inst.covering_map,
                 *factory);
  }
}

TEST(CoveringExecution, BoundedDegreeOnTheorem1Construction) {
  const auto inst = lb::even_lower_bound(4);
  const auto factory = algo::make_factory(algo::Algorithm::kBoundedDegree, 4);
  expect_lifts(inst.ported.ports(), inst.covering_base, inst.covering_map,
               *factory);
}

TEST(CoveringExecution, DoubleCoverOnTheorem1Construction) {
  const auto inst = lb::even_lower_bound(6);
  const auto factory = algo::make_factory(algo::Algorithm::kDoubleCover, 6);
  expect_lifts(inst.ported.ports(), inst.covering_base, inst.covering_map,
               *factory);
}

TEST(CoveringExecution, CycleCoversSmallerCycle) {
  // C_2n covers C_n when both carry the orientation-induced numbering
  // (port 1 forward, port 2 backward).
  auto oriented_cycle = [](std::size_t n) {
    auto g = graph::cycle(n);
    std::vector<std::vector<graph::EdgeId>> order(n, std::vector<graph::EdgeId>(2));
    for (graph::NodeId v = 0; v < n; ++v) {
      order[v][0] = *g.find_edge(v, static_cast<graph::NodeId>((v + 1) % n));
      order[v][1] =
          *g.find_edge(v, static_cast<graph::NodeId>((v + n - 1) % n));
    }
    return port::PortedGraph(std::move(g), order);
  };
  const auto big = oriented_cycle(12);
  const auto small = oriented_cycle(6);
  std::vector<graph::NodeId> f(12);
  for (graph::NodeId v = 0; v < 12; ++v) f[v] = v % 6;

  const auto factory = algo::make_factory(algo::Algorithm::kPortOne);
  expect_lifts(big.ports(), small.ports(), f, *factory);

  const auto dc = algo::make_factory(algo::Algorithm::kDoubleCover, 2);
  expect_lifts(big.ports(), small.ports(), f, *dc);
}

TEST(CoveringExecution, SymmetryForcesFactorSelection) {
  // On the Theorem 1 graph, whatever the algorithm does, its output on the
  // 1-node multigraph must pick some loop pair {2i-1, 2i} — and therefore
  // the full factor G(i) in the covering graph.  Verify the selected edge
  // count is a multiple of |V| (each factor has exactly |V| edges).
  const auto inst = lb::even_lower_bound(6);
  const auto outcome =
      algo::run_algorithm(inst.ported, algo::Algorithm::kPortOne);
  const auto n = inst.ported.graph().num_nodes();
  EXPECT_EQ(outcome.solution.size() % n, 0u);
  EXPECT_GE(outcome.solution.size(), n);
}

}  // namespace
}  // namespace eds
