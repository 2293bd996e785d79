#include <gtest/gtest.h>

#include <vector>

#include "algo/driver.hpp"
#include "factor/two_factor.hpp"
#include "graph/generators.hpp"
#include "lb/lower_bounds.hpp"
#include "port/lift.hpp"
#include "port/ported_graph.hpp"
#include "port/views.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::port {
namespace {

TEST(Views, RadiusZeroClassifiesByDegree) {
  const auto pg = with_canonical_ports(graph::star(4));
  const auto classes = view_classes(pg.ports(), 0);
  EXPECT_EQ(num_classes(classes), 2u);  // hub vs leaves
  EXPECT_EQ(classes[1], classes[2]);
  EXPECT_NE(classes[0], classes[1]);
}

TEST(Views, RefinementSeparatesPath) {
  // On a path with canonical ports, end nodes differ from internal nodes at
  // radius 0; deeper radii separate by distance to the ends.
  const auto pg = with_canonical_ports(graph::path(7));
  const auto r0 = view_classes(pg.ports(), 0);
  EXPECT_EQ(num_classes(r0), 2u);
  const auto stable = stable_view_classes(pg.ports());
  EXPECT_GT(num_classes(stable), 2u);
}

TEST(Views, FactorPortedRegularGraphIsViewHomogeneous) {
  // With factorisation ports every node looks identical at all radii —
  // this is exactly why Theorem 1's construction defeats every algorithm.
  const auto pg = factor::with_factor_ports(graph::torus(4, 5));
  const auto stable = stable_view_classes(pg.ports());
  EXPECT_EQ(num_classes(stable), 1u);
}

TEST(Views, LowerBoundConstructionClassesMatchCoveringMap) {
  for (const Port d : {3u, 5u}) {
    const auto inst = lb::odd_lower_bound(d);
    const auto stable = stable_view_classes(inst.ported.ports());
    // Nodes with the same covering image must have the same stable view.
    for (std::size_t v = 0; v < inst.covering_map.size(); ++v) {
      for (std::size_t u = v + 1; u < inst.covering_map.size(); ++u) {
        if (inst.covering_map[v] == inst.covering_map[u]) {
          EXPECT_EQ(stable[v], stable[u]);
        }
      }
    }
    // The class count is bounded by the number of covering images.
    EXPECT_LE(num_classes(stable), inst.covering_base.num_nodes());
  }
}

TEST(Views, EqualViewsForceEqualOutputs) {
  // The indistinguishability theorem, verified against the simulator: nodes
  // with equal stable views produce identical outputs under every algorithm.
  Rng rng(7);
  const auto pg = test::random_ported_regular(12, 3, rng);
  const auto& g = pg.graph();
  const auto stable = stable_view_classes(pg.ports());
  const auto factory = algo::make_factory(algo::Algorithm::kOddRegular, 3);
  const auto result = runtime::run_synchronous(pg.ports(), *factory);
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    for (std::size_t u = v + 1; u < g.num_nodes(); ++u) {
      if (stable[v] == stable[u]) {
        EXPECT_EQ(runtime::selected_ports(pg.ports(), result, v),
                  runtime::selected_ports(pg.ports(), result, u))
            << "nodes " << v << "," << u << " share a view but diverged";
      }
    }
  }
}

TEST(Views, RefinementStopsAtItsFixpoint) {
  // A radius far past the fixpoint returns the fixpoint's classes without
  // refining four billion times.
  std::vector<PortGraph> graphs;
  for (const Port d : {2u, 3u, 4u}) {
    graphs.push_back(d % 2 == 0 ? lb::even_lower_bound(d).ported.ports()
                                : lb::odd_lower_bound(d).ported.ports());
  }
  graphs.push_back(test::figure2_graph_h().ports());
  graphs.push_back(test::figure2_multigraph_m());
  for (const auto& g : graphs) {
    const auto far = view_classes(g, 4'000'000'000);
    EXPECT_EQ(far, view_classes(g, g.num_nodes() + 1));
    EXPECT_EQ(far, stable_view_classes(g));
  }
}

TEST(Views, CoveringMapsRespectViews) {
  for (const Port d : {2u, 4u}) {
    const auto inst = lb::even_lower_bound(d);
    EXPECT_TRUE(respects_views(inst.ported.ports(), inst.covering_base,
                               inst.covering_map));
  }
}

TEST(Views, MultigraphWithLoops) {
  PortGraphBuilder b({2, 2});
  b.connect({0, 1}, {1, 1});
  b.fix({0, 2});
  b.fix({1, 2});
  const auto g = b.build();
  const auto stable = stable_view_classes(g);
  EXPECT_EQ(num_classes(stable), 1u);  // perfectly symmetric
}

TEST(Lift, ProjectionIsACoveringMap) {
  Rng rng(11);
  const auto base = with_random_ports(graph::petersen(), rng).ports();
  for (const std::size_t layers : {1u, 2u, 3u, 5u}) {
    const auto lifted = cyclic_lift(base, layers, rng);
    lifted.validate();
    EXPECT_EQ(lifted.num_nodes(), 10 * layers);
    const auto f = lift_projection(base, layers);
    EXPECT_TRUE(is_covering_map(lifted, base, f));
  }
}

TEST(Lift, LiftsOfMultigraphsWork) {
  // Lift the Theorem 1 covering base (loops everywhere).
  Rng rng(12);
  const auto inst = lb::even_lower_bound(6);
  for (const std::size_t layers : {2u, 4u}) {
    const auto lifted = cyclic_lift(inst.covering_base, layers, rng);
    lifted.validate();
    EXPECT_TRUE(is_covering_map(lifted, inst.covering_base,
                                lift_projection(inst.covering_base, layers)));
  }
}

TEST(Lift, AlgorithmsLiftAlongLifts) {
  Rng rng(13);
  const auto base = test::random_ported_regular(8, 3, rng).ports();
  const auto lifted = cyclic_lift(base, 3, rng);
  const auto f = lift_projection(base, 3);
  const auto factory = algo::make_factory(algo::Algorithm::kOddRegular, 3);
  const auto on_base = runtime::run_synchronous(base, *factory);
  const auto on_lift = runtime::run_synchronous(lifted, *factory);
  for (std::size_t v = 0; v < lifted.num_nodes(); ++v) {
    EXPECT_EQ(runtime::selected_ports(lifted, on_lift, v),
              runtime::selected_ports(base, on_base, f[v]));
  }
}

TEST(Lift, RejectsZeroLayers) {
  Rng rng(14);
  const auto base = with_canonical_ports(graph::cycle(4)).ports();
  EXPECT_THROW((void)cyclic_lift(base, 0, rng), InvalidArgument);
}

}  // namespace
}  // namespace eds::port
