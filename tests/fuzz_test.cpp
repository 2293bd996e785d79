// Randomised structural fuzzing: arbitrary port-numbered multigraphs
// (random involutions with loops and parallel edges) pushed through the
// runtime and the standalone algorithms.  Checks are structural — validity
// of involutions, internal consistency of outputs, graceful failure — since
// no centralised edge-set semantics exist on multigraphs.
//
// Deterministic by default: streams derive from test_util.hpp's fixed
// master seed.  Set EDS_FUZZ_SEED=<n> in the environment to explore new
// streams (e.g. `EDS_FUZZ_SEED=42 ctest -L fuzz`).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "algo/double_cover.hpp"
#include "algo/driver.hpp"
#include "algo/port_one.hpp"
#include "port/random_port_graph.hpp"
#include "port/views.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"
#include "runtime/sched.hpp"
#include "util/rng.hpp"
#include "invariants.hpp"
#include "test_util.hpp"

namespace eds {
namespace {

std::vector<port::Port> random_degrees(Rng& rng, std::size_t n,
                                       port::Port max_degree) {
  std::vector<port::Port> degrees(n);
  for (auto& d : degrees) {
    d = static_cast<port::Port>(rng.below(max_degree + 1));
  }
  return degrees;
}

/// Random X(v) lists over g: each structural edge is claimed from both
/// sides with probability 1/2; on about half the calls, every port claim is
/// then flipped with probability 0.15, which makes one-sided claims.
std::vector<std::vector<port::Port>> random_claims(const port::PortGraph& g,
                                                   Rng& rng) {
  std::vector<std::vector<char>> pick(g.num_nodes());
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    pick[v].assign(g.degree(v), 0);
  }
  for (const auto& e : g.port_edges()) {
    if (rng.chance(0.5)) {
      pick[e.a.node][e.a.port - 1] = 1;
      pick[e.b.node][e.b.port - 1] = 1;
    }
  }
  const double flip = rng.chance(0.5) ? 0.0 : 0.15;
  std::vector<std::vector<port::Port>> claimed(g.num_nodes());
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (port::Port i = 1; i <= g.degree(v); ++i) {
      const bool take = (pick[v][i - 1] != 0) != rng.chance(flip);
      if (take) claimed[v].push_back(i);
    }
  }
  return claimed;
}

/// The message of the ExecutionError `f` throws ("" if it throws none).
template <typename F>
std::string execution_error(F&& f) {
  try {
    f();
  } catch (const ExecutionError& e) {
    return e.what();
  }
  return "";
}

TEST(Fuzz, SelectionSweepMatchesPerNodeReference) {
  // The one mask sweep behind measure_schedule, consistent_selection_size
  // and validated_selection_size against the per-node reference, on
  // multigraphs with directed loops, undirected loops and parallel edges.
  auto rng = test::make_rng(14);
  std::size_t directed_loops = 0;
  std::size_t undirected_loops = 0;
  std::size_t one_sided_trials = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto g =
        port::random_port_graph(random_degrees(rng, 10, 5), rng, 0.25);
    for (const auto& e : g.port_edges()) {
      if (e.directed_loop) {
        ++directed_loops;
      } else if (e.a.node == e.b.node) {
        ++undirected_loops;
      }
    }
    const auto claimed = random_claims(g, rng);
    const auto ref = test::reference_selection(g, claimed);
    runtime::AsyncResult result;
    result.run.selected = test::mask_of(g, claimed);
    const std::string context = "trial " + std::to_string(trial);

    const auto metrics = runtime::measure_schedule(g, result);
    EXPECT_EQ(metrics.selected, ref.selected) << context;
    EXPECT_EQ(metrics.inconsistent, ref.inconsistent) << context;
    for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(runtime::selected_ports(g, result.run, v), claimed[v])
          << context;
    }

    const auto size = runtime::consistent_selection_size(g, result.run);
    const auto thrown = execution_error(
        [&] { (void)runtime::validated_selection_size(g, result.run); });
    if (ref.has_one_sided) {
      ++one_sided_trials;
      EXPECT_FALSE(size.has_value()) << context;
      std::ostringstream want;
      want << "validated_selection_size: inconsistent output at node "
           << ref.first_claim.node << " port " << ref.first_claim.port;
      EXPECT_EQ(thrown, want.str()) << context;
    } else {
      ASSERT_TRUE(size.has_value()) << context;
      EXPECT_EQ(*size, ref.selected) << context;
      EXPECT_EQ(thrown, "") << context;
      EXPECT_EQ(runtime::validated_selection_size(g, result.run),
                ref.selected)
          << context;
    }
  }
  // The stream must actually reach the cases the sweep distinguishes.
  EXPECT_GT(directed_loops, 0u);
  EXPECT_GT(undirected_loops, 0u);
  EXPECT_GT(one_sided_trials, 0u);
  EXPECT_LT(one_sided_trials, 400u);
}

TEST(Fuzz, EdgeSetSweepMatchesPerNodeReference) {
  auto rng = test::make_rng(15);
  for (int trial = 0; trial < 200; ++trial) {
    const auto pg = test::random_ported_bounded(12, 4, 18, rng);
    const auto& g = pg.ports();
    const auto claimed = random_claims(g, rng);
    const auto ref = test::reference_selection(g, claimed);
    runtime::RunResult result;
    result.selected = test::mask_of(g, claimed);
    const std::string context = "trial " + std::to_string(trial);
    if (ref.has_one_sided) {
      std::ostringstream want;
      want << "validated_edge_set: inconsistent output — node "
           << ref.first_claim.node << " claims port " << ref.first_claim.port
           << " but node " << ref.first_partner.node
           << " does not claim port " << ref.first_partner.port;
      EXPECT_EQ(execution_error(
                    [&] { (void)runtime::validated_edge_set(pg, result); }),
                want.str())
          << context;
    } else {
      graph::EdgeSet want(pg.graph().num_edges());
      for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
        for (const port::Port i : claimed[v]) want.insert(pg.edge_at(v, i));
      }
      EXPECT_EQ(runtime::validated_edge_set(pg, result), want) << context;
      EXPECT_EQ(want.size(), ref.selected) << context;
    }
  }
}

TEST(Fuzz, SweepRejectsAMaskOfTheWrongSize) {
  auto rng = test::make_rng(16);
  const auto pg = test::random_ported_regular(8, 3, rng);
  for (const std::size_t size : {std::size_t{0}, pg.ports().num_ports() - 1,
                                 pg.ports().num_ports() + 1}) {
    runtime::AsyncResult result;
    result.run.selected.assign(size, 0);
    EXPECT_THROW((void)runtime::validated_edge_set(pg, result.run),
                 ExecutionError);
    EXPECT_THROW((void)runtime::validated_selection_size(pg.ports(),
                                                         result.run),
                 ExecutionError);
    EXPECT_THROW((void)runtime::consistent_selection_size(pg.ports(),
                                                          result.run),
                 ExecutionError);
    EXPECT_THROW((void)runtime::all_outputs_identical(pg.ports(), result.run),
                 ExecutionError);
    EXPECT_THROW((void)runtime::selected_ports(pg.ports(), result.run, 0),
                 ExecutionError);
    EXPECT_THROW((void)runtime::measure_schedule(pg.ports(), result),
                 InvalidArgument);
  }
}

TEST(Fuzz, RandomInvolutionsAlwaysValidate) {
  auto rng = test::make_rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto g = port::random_port_graph(random_degrees(rng, 12, 6), rng);
    EXPECT_NO_THROW(g.validate());
    // port_edges partitions the ports: every port appears exactly once.
    std::size_t accounted = 0;
    for (const auto& pe : g.port_edges()) {
      accounted += pe.directed_loop ? 1 : 2;
    }
    EXPECT_EQ(accounted, g.num_ports());
  }
}

TEST(Fuzz, DoubleCoverOnMultigraphsIsConsistent) {
  // The 2-matching algorithm runs on arbitrary port-numbered multigraphs;
  // outputs must be internally consistent at the port level.
  auto rng = test::make_rng(2);
  for (int trial = 0; trial < 40; ++trial) {
    const auto g = port::random_port_graph(random_degrees(rng, 10, 5), rng);
    const algo::DoubleCoverFactory factory(5);
    const auto result = runtime::run_synchronous(g, factory);
    test::check_eds_invariants(g, result, "trial " + std::to_string(trial));
  }
}

TEST(Fuzz, PortOneOnRegularMultigraphsIsConsistent) {
  auto rng = test::make_rng(3);
  for (int trial = 0; trial < 40; ++trial) {
    const auto degrees = std::vector<port::Port>(8, 4);  // 4-regular
    const auto g = port::random_port_graph(degrees, rng, 0.2);
    const algo::PortOneFactory factory;
    const auto result = runtime::run_synchronous(g, factory);
    test::check_eds_invariants(g, result, "trial " + std::to_string(trial));
    const auto selected = runtime::validated_selection_size(g, result);
    EXPECT_GE(selected, 1u);  // some port 1 always selects something
  }
}

TEST(Fuzz, ViewRefinementTerminatesOnArbitraryMultigraphs) {
  auto rng = test::make_rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const auto g = port::random_port_graph(random_degrees(rng, 14, 5), rng);
    const auto stable = port::stable_view_classes(g);
    EXPECT_EQ(stable.size(), g.num_nodes());
    EXPECT_LE(port::num_classes(stable), g.num_nodes());
    // Refining further cannot split classes.
    EXPECT_EQ(port::num_classes(port::view_classes(g, g.num_nodes() + 3)),
              port::num_classes(stable));
  }
}

TEST(Fuzz, ViewEqualityImpliesOutputEqualityOnMultigraphs) {
  auto rng = test::make_rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto g = port::random_port_graph(random_degrees(rng, 10, 4), rng);
    const auto stable = port::stable_view_classes(g);
    const algo::DoubleCoverFactory factory(4);
    const auto result = runtime::run_synchronous(g, factory);
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      for (std::size_t u = v + 1; u < g.num_nodes(); ++u) {
        if (stable[v] == stable[u]) {
          EXPECT_EQ(runtime::selected_ports(g, result, v),
                    runtime::selected_ports(g, result, u));
        }
      }
    }
  }
}

TEST(Fuzz, DriverOutcomesSatisfyEdsInvariants) {
  // The full shared harness on driver outcomes: feasibility always, the
  // Table 1 bound wherever one applies (small instances get an exact
  // optimum).  Odd-regular instances exercise the regular-row bound,
  // bounded instances the bounded-degree row.
  auto rng = test::make_rng(6);
  for (int trial = 0; trial < 8; ++trial) {
    const auto regular = test::random_ported_regular(8, 3, rng);
    const auto odd = algo::run_algorithm(regular, algo::Algorithm::kOddRegular,
                                         3);
    test::check_eds_invariants(regular, odd, algo::Algorithm::kOddRegular, 3,
                               "odd trial " + std::to_string(trial));

    const auto bounded = test::random_ported_bounded(8, 3, 10, rng);
    for (const auto alg : {algo::Algorithm::kBoundedDegree,
                           algo::Algorithm::kDoubleCover}) {
      const auto outcome = algo::run_algorithm(bounded, alg, 3);
      test::check_eds_invariants(bounded, outcome, alg, 3,
                                 "bounded trial " + std::to_string(trial));
    }
  }
}

TEST(Fuzz, SelectionSizeDetectsInconsistentOutputs) {
  // Hand-craft an inconsistent result to prove the checker bites.
  port::PortGraphBuilder b({1, 1});
  b.connect({0, 1}, {1, 1});
  const auto g = b.build();
  runtime::RunResult result;
  result.selected = {1, 0};  // node 0 claims the edge, node 1 does not
  EXPECT_THROW((void)runtime::validated_selection_size(g, result),
               ExecutionError);
}

TEST(Fuzz, DirectedLoopSelectionIsSelfConsistent) {
  port::PortGraphBuilder b({1});
  b.fix({0, 1});
  const auto g = b.build();
  runtime::RunResult result;
  result.selected = {1};
  EXPECT_EQ(runtime::validated_selection_size(g, result), 1u);
}

}  // namespace
}  // namespace eds
