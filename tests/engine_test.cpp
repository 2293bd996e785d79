// The execution engine's hard guarantee: every lane count (inline or
// sharded rounds, batch pool) produces bit-identical RunResults —
// outputs, stats, trace, and message-log order — and matches the seed
// semantics, reimplemented here as a policy-free oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "algo/bounded_degree.hpp"
#include "algo/common.hpp"
#include "algo/double_cover.hpp"
#include "algo/driver.hpp"
#include "algo/odd_regular.hpp"
#include "algo/port_one.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "invariants.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using port::Port;
using port::PortGraph;
using port::PortGraphBuilder;

using test::EchoFactory;
using test::EchoProgram;
// The policy-free seed-semantics oracle and the thread-count sweep live in
// test_util.hpp so every differential suite (this one, engine_soa_test)
// holds the engine to the same bit-identity bar.
using test::policy_thread_counts;
using test::reference_run;

class NeverHaltFactory final : public ProgramFactory {
  class P final : public NodeProgram {
   public:
    void start(Port) override {}
    void send(Round, std::span<Message>) override {}
    void receive(Round, std::span<const Message>) override {}
    [[nodiscard]] bool halted() const override { return false; }
    void output(OutputSink&) const override {}
  };

 public:
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<P>();
  }
  [[nodiscard]] std::string name() const override { return "never-halt"; }
};

void expect_all_policies_match(const PortGraph& g,
                               const ProgramFactory& factory,
                               const char* label) {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto expected = reference_run(g, factory, options);
  // Synchronous runs must satisfy endpoint consistency (shared harness;
  // vacuous for outputs-free programs like echo and relay).
  test::check_eds_invariants(g, expected, label);
  for (const unsigned threads : policy_thread_counts()) {
    options.exec.threads = threads;
    const auto got = run_synchronous(g, factory, options);
    EXPECT_TRUE(got == expected)
        << label << ": policy with threads=" << threads
        << " diverged from the seed semantics (rounds " << got.stats.rounds
        << " vs " << expected.stats.rounds << ", messages "
        << got.stats.messages_sent << " vs " << expected.stats.messages_sent
        << ", log " << got.message_log.size() << " vs "
        << expected.message_log.size() << ")";
  }
}

TEST(Engine, DifferentialOnPaperFixtures) {
  const auto h = test::figure2_graph_h();
  const auto p4 = port::with_canonical_ports(test::p4());
  const auto m = test::figure2_multigraph_m();  // loops, parallel edges

  for (const Round rounds : {1u, 3u, 7u}) {
    const EchoFactory echo(rounds);
    expect_all_policies_match(h.ports(), echo, "figure-2 H");
    expect_all_policies_match(p4.ports(), echo, "p4");
    expect_all_policies_match(m, echo, "figure-2 M");
  }
  expect_all_policies_match(h.ports(), algo::PortOneFactory(), "figure-2 H");
  expect_all_policies_match(h.ports(), algo::DoubleCoverFactory(3),
                            "figure-2 H");
  expect_all_policies_match(h.ports(), algo::BoundedDegreeFactory(3),
                            "figure-2 H");
  expect_all_policies_match(m, algo::PortOneFactory(), "figure-2 M");
  expect_all_policies_match(m, algo::DoubleCoverFactory(4), "figure-2 M");
}

TEST(Engine, DifferentialOnRandomPortedGraphs) {
  auto rng = test::make_rng(0xE61);
  for (int trial = 0; trial < 4; ++trial) {
    const auto pg = test::random_ported_regular(20, 4, rng);
    expect_all_policies_match(pg.ports(), algo::PortOneFactory(),
                              "random 4-regular");
    expect_all_policies_match(pg.ports(), algo::BoundedDegreeFactory(4),
                              "random 4-regular");
    const auto bounded = test::random_ported_bounded(24, 5, 40, rng);
    expect_all_policies_match(bounded.ports(), algo::BoundedDegreeFactory(5),
                              "random bounded");
  }
}

TEST(Engine, DifferentialOnRandomMultigraphs) {
  // Uniform random involutions: parallel edges, undirected loops and
  // directed loops all appear — the full generality of the model.
  auto rng = test::make_rng(0xE62);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Port> degrees(12);
    for (auto& d : degrees) d = static_cast<Port>(rng.below(5));
    const auto g = port::random_port_graph(degrees, rng);
    Port max_degree = 1;
    for (const auto d : degrees) max_degree = std::max(max_degree, d);
    expect_all_policies_match(g, EchoFactory(4), "random multigraph");
    expect_all_policies_match(g, algo::DoubleCoverFactory(max_degree),
                              "random multigraph");
  }
}

TEST(Engine, OddRegularMatchesTheSeedOracleUnderEveryPairOrder) {
  // Odd-regular's wake hints name at most 1 + d steps per phase from the
  // label view; the oracle dispatches every node every round, so any
  // missed step shows up in the outputs, the trace or the message log.
  auto rng = test::make_rng(0xE66);
  for (const Port d : {1u, 3u, 5u, 7u}) {
    for (const auto order : {algo::PairOrder::kLexicographic,
                             algo::PairOrder::kDiagonal,
                             algo::PairOrder::kReverse}) {
      for (int trial = 0; trial < 2; ++trial) {
        const auto pg = test::random_ported_regular(16, d, rng);
        expect_all_policies_match(pg.ports(),
                                  algo::OddRegularFactory(d, order),
                                  "odd-regular");
      }
    }
  }
}

TEST(Engine, PairPositionInvertsThePairSchedule) {
  for (Port d = 1; d <= 9; ++d) {
    for (const auto order : {algo::PairOrder::kLexicographic,
                             algo::PairOrder::kDiagonal,
                             algo::PairOrder::kReverse}) {
      const auto pairs = algo::pair_schedule(d, order);
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        EXPECT_EQ(algo::pair_position(d, order, pairs[k].first,
                                      pairs[k].second),
                  k)
            << "d=" << d << " pair (" << pairs[k].first << ", "
            << pairs[k].second << ")";
      }
    }
  }
}

/// True when the run's message log holds a phase-II acceptance of A(∆)
/// with parameter `delta`: both proposers and acceptors were at work.
bool accepts_in_phase_two(const RunResult& result, Port delta) {
  const auto d = static_cast<Round>(
      algo::BoundedDegreeProgram::normalised_delta(delta));
  const Round first = 3 + d * d;
  const Round last = 2 + d * d + 2 * d * (d - 1);
  return std::any_of(result.message_log.begin(), result.message_log.end(),
                     [&](const DeliveredMessage& m) {
                       return m.round >= first && m.round <= last &&
                              m.payload.tag == algo::kTagAccept;
                     });
}

TEST(Engine, HintedAlgorithmsMatchTheSeedOracleOnIrregularGraphs) {
  // A(∆) and double-cover on power-law and bounded-degree graphs: degrees
  // differ, so A(∆)'s phase II has proposers and acceptors, and both
  // algorithms sleep through most rounds.
  auto rng = test::make_rng(0xE67);
  std::vector<port::PortedGraph> graphs;
  for (int trial = 0; trial < 3; ++trial) {
    graphs.push_back(port::with_random_ports(
        graph::random_power_law(120, 2.5, rng), rng));
    graphs.push_back(test::random_ported_bounded(60, 5, 90, rng));
  }
  bool phase_two = false;
  for (const auto& pg : graphs) {
    const auto delta =
        static_cast<Port>(std::max<std::size_t>(pg.graph().max_degree(), 2));
    const algo::BoundedDegreeFactory bounded(delta);
    expect_all_policies_match(pg.ports(), bounded, "A(delta)");
    expect_all_policies_match(pg.ports(), algo::DoubleCoverFactory(delta),
                              "double-cover");
    RunOptions logged;
    logged.collect_messages = true;
    phase_two |=
        accepts_in_phase_two(reference_run(pg.ports(), bounded, logged), delta);
  }
  EXPECT_TRUE(phase_two) << "no instance exercised A(delta)'s phase II";
}

TEST(Engine, BoundedPhaseStatsCountEveryNodeUnderEveryPolicy) {
  // A(∆)'s nodes add their M and P port counts to the shared sink when
  // they halt, all in the same round and so from every shard at once;
  // no count may be lost.
  auto rng = test::make_rng(0xE6B);
  const auto pg = test::random_ported_regular(16384, 4, rng);
  const auto claims = [&pg](unsigned threads) {
    const auto sink = std::make_shared<algo::BoundedPhaseStats>();
    RunOptions options;
    options.exec.threads = threads;
    const auto result = run_synchronous(
        pg.ports(), algo::BoundedDegreeFactory(4, sink), options);
    const std::pair<std::size_t, std::size_t> counts{sink->m_port_claims,
                                                     sink->p_port_claims};
    // Every selected port is a node's M port or one of its P ports.
    EXPECT_EQ(counts.first + counts.second,
              static_cast<std::size_t>(std::count(result.selected.begin(),
                                                  result.selected.end(), 1)))
        << "threads=" << threads;
    return counts;
  };
  const auto expected = claims(1);
  EXPECT_GT(expected.first, 0u);
  EXPECT_GT(expected.second, 0u);
  for (const unsigned threads : policy_thread_counts()) {
    EXPECT_EQ(claims(threads), expected) << "threads=" << threads;
  }
}

TEST(Engine, PulseMatchesTheSeedOracle) {
  // The pulse fixture (test_util.hpp) sleeps between its own sends, so
  // its nodes are woken by hints and by mail in every combination; loops,
  // parallel edges and fixed points included.
  auto rng = test::make_rng(0xE68);
  expect_all_policies_match(test::figure2_multigraph_m(),
                            test::PulseFactory(30), "figure-2 M");
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Port> degrees(24);
    for (auto& d : degrees) d = static_cast<Port>(rng.below(7));
    const auto g = port::random_port_graph(degrees, rng);
    expect_all_policies_match(g, test::PulseFactory(40), "pulse multigraph");
  }
}

TEST(Engine, LateHintsDivergeFromTheSeedOracle) {
  // A hint may be early, never late: the engine trusts it.  Each fixture
  // names one dispatch a round too late — one misses a send, the other a
  // state change on silent input — and must come out different.
  auto rng = test::make_rng(0xE69);
  const auto pg = test::random_ported_regular(24, 3, rng);
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const test::PulseFactory late_pulse(20, /*late=*/true);
  const test::LateFlipFactory late_flip;
  for (const ProgramFactory* factory :
       {static_cast<const ProgramFactory*>(&late_pulse),
        static_cast<const ProgramFactory*>(&late_flip)}) {
    const auto expected = reference_run(pg.ports(), *factory, options);
    for (const unsigned threads : {1u, 8u}) {
      options.exec.threads = threads;
      const auto got = run_synchronous(pg.ports(), *factory, options);
      EXPECT_FALSE(got == expected)
          << factory->name() << " at threads=" << threads
          << ": a late hint went unnoticed";
    }
    options.exec.threads = 1;
  }
}

/// Dispatches the engine made for one run of `factory` on `g`, as a share
/// of the seed semantics' Σ_v halt_round(v) (the node-rounds a
/// dispatch-everyone engine performs).
double dispatch_share(const PortGraph& g, const ProgramFactory& factory) {
  RunOptions options;
  options.collect_trace = true;
  const auto before = engine_stage_stats().dispatched;
  const auto result = run_synchronous(g, factory, options);
  const auto dispatched = engine_stage_stats().dispatched - before;

  std::size_t halted = 0;  // nodes that halt in start() run no round
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto program = factory.create();
    program->start(g.degree(v));
    halted += program->halted() ? 1 : 0;
  }
  std::uint64_t node_rounds = 0;
  for (const auto& t : result.trace) {
    node_rounds += static_cast<std::uint64_t>(t.round) *
                   (t.halted_nodes - halted);
    halted = t.halted_nodes;
  }
  return static_cast<double>(dispatched) / static_cast<double>(node_rounds);
}

TEST(Engine, HintsCutDispatchesAndHintlessProgramsRunEveryRound) {
  // An early hint is always correct, so only a count catches a silent
  // fall-back to dispatching every node every round.
  auto rng = test::make_rng(0xE6A);
  const auto regular = test::random_ported_regular(256, 4, rng);
  EXPECT_LE(dispatch_share(regular.ports(), algo::BoundedDegreeFactory(4)),
            0.15);
  EXPECT_EQ(dispatch_share(regular.ports(), EchoFactory(7)), 1.0);

  const auto power = port::with_random_ports(
      graph::random_power_law(1024, 2.5, rng), rng);
  const auto delta =
      static_cast<Port>(std::max<std::size_t>(power.graph().max_degree(), 2));
  EXPECT_LE(dispatch_share(power.ports(), algo::BoundedDegreeFactory(delta)),
            0.01);
  EXPECT_LE(dispatch_share(power.ports(), algo::DoubleCoverFactory(delta)),
            0.10);

  const auto odd = test::random_ported_regular(1024, 7, rng);
  EXPECT_LE(dispatch_share(odd.ports(), algo::OddRegularFactory(7)), 0.15);
}

// The relay fixture (see test_util.hpp) is the adversarial probe for the
// fused exchange's silence bookkeeping: a halted node's feed slots are
// silenced exactly once, at halt time, and if a stale message ever
// "ghosted" past that point the relay would re-send it, diverging message
// counts, logs and traces from the seed-semantics oracle.
using test::RelayFactory;
using test::RelayProgram;

TEST(Engine, FusedExchangeOnLoopsWithStaggeredHalts) {
  // A handcrafted multigraph covering every involution case the fused
  // exchange must deliver directly: an undirected self-loop (two ports of
  // one node), directed self-loops (fixed points, where a node receives
  // its own message), parallel edges, a degree-0 node, and ordinary edges
  // between nodes of different degrees — which, under RelayFactory, halt
  // mid-run at different rounds.
  PortGraphBuilder b(std::vector<Port>{3, 2, 4, 1, 0, 2});
  b.connect({0, 1}, {0, 2});  // undirected loop at node 0
  b.fix({0, 3});              // directed loop at node 0
  b.connect({1, 1}, {2, 1});  // parallel edges between 1 and 2
  b.connect({1, 2}, {2, 2});
  b.connect({2, 3}, {3, 1});
  b.fix({2, 4});              // directed loop at node 2
  b.connect({5, 1}, {5, 2});  // undirected loop at node 5
  const auto g = b.build();

  for (const Round base : {1u, 2u, 5u}) {
    expect_all_policies_match(g, RelayFactory(base), "loops + stagger");
  }
}

TEST(Engine, FusedExchangeOnRandomMultigraphsWithStaggeredHalts) {
  // Random involutions (loops, parallel edges, irregular degrees) under
  // the relay probe: staggered halts on the full generality of the model.
  auto rng = test::make_rng(0xE64);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<Port> degrees(16);
    for (auto& d : degrees) d = static_cast<Port>(rng.below(6));
    const auto g = port::random_port_graph(degrees, rng);
    expect_all_policies_match(g, RelayFactory(2), "relay multigraph");
  }
}

TEST(Engine, MidRunHaltsWithPerNodePrograms) {
  // Per-node halt rounds decouple the stagger from node degrees: on a
  // cycle (uniform degree 2) node v halts after v % 7 + 2 + degree rounds,
  // so silence fronts sweep through the worklist while neighbours relay.
  // Policy identity is the contract here (run_synchronous_programs has no
  // factory for the oracle); the sequential run is the reference.
  const auto pg = port::with_canonical_ports(graph::cycle(48));
  const auto make_programs = [] {
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (std::size_t v = 0; v < 48; ++v) {
      programs.push_back(
          std::make_unique<RelayProgram>(static_cast<Round>(v % 7 + 2)));
    }
    return programs;
  };

  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto sequential =
      run_synchronous_programs(pg.ports(), make_programs(), options);
  for (const unsigned threads : policy_thread_counts()) {
    options.exec.threads = threads;
    const auto got =
        run_synchronous_programs(pg.ports(), make_programs(), options);
    EXPECT_TRUE(got == sequential) << "threads=" << threads;
  }
}

TEST(Engine, DoubleBufferWorkspaceFootprint) {
  // Deterministic, hardware-independent accounting for the double-buffered
  // transport: a fresh lane's pooled footprint for a P-port graph holds
  // exactly TWO P-slot Message buffers (the price of the single-barrier
  // round loop), plus small worklist and scratch arrays.  A third
  // ports-sized buffer, or a pair of int32 tag lanes beside the slots,
  // would bust the upper bound asserted here.
  auto rng = test::make_rng(0xE65);
  const auto pg = test::random_ported_regular(1024, 4, rng);
  const std::size_t ports = pg.ports().num_ports();
  ASSERT_EQ(ports, 4096u);

  std::uint64_t delta = 0;
  std::thread fresh_lane([&] {
    const auto before = engine_alloc_stats().workspace_bytes;
    const auto result = run_synchronous(pg.ports(), EchoFactory(3));
    ASSERT_EQ(result.stats.rounds, 3u);
    delta = engine_alloc_stats().workspace_bytes - before;
  });
  fresh_lane.join();

  const std::size_t buffer_pair = 2 * ports * sizeof(Message);
  EXPECT_GE(delta, buffer_pair) << "both outbox buffers must be accounted";
  EXPECT_LT(delta, buffer_pair + 2 * ports * sizeof(std::int32_t))
      << "a tag lane pair or a third ports-sized buffer is back in the "
         "workspace";
}

TEST(Engine, FirstSparseRunOnALaneCountsAsAGrowth) {
  // The sparse-round state (due[], the node bitsets, the calendar) is
  // pooled like the outboxes, and only a run in which some node sleeps
  // sets it up.  A lane that has run only port-one (one round, no hints)
  // has every other buffer sized for the graph, so its first hinted run
  // grows the workspace and must be counted as a growth, not a reuse.
  auto rng = test::make_rng(0xE6A);
  const auto pg = test::random_ported_regular(64, 3, rng);
  std::thread fresh_lane([&] {
    const auto growth = [&](algo::Algorithm algorithm, Port param) {
      const auto before = engine_alloc_stats();
      static_cast<void>(algo::run_algorithm(pg, algorithm, param));
      const auto after = engine_alloc_stats();
      EXPECT_EQ(after.workspace_growths + after.workspace_reuses,
                before.workspace_growths + before.workspace_reuses + 1);
      return after.workspace_growths != before.workspace_growths;
    };
    EXPECT_TRUE(growth(algo::Algorithm::kPortOne, 0)) << "a fresh lane";
    EXPECT_FALSE(growth(algo::Algorithm::kPortOne, 0));
    EXPECT_TRUE(growth(algo::Algorithm::kOddRegular, 3))
        << "the first run that sets up the sparse state";
    EXPECT_FALSE(growth(algo::Algorithm::kOddRegular, 3));
  });
  fresh_lane.join();
}

TEST(Engine, StageStatsCountEveryRun) {
  // No toggle: every run, at every lane count, adds its rounds, its
  // dispatches and a positive round-loop time to the process-wide
  // counters.  Echo has no wake hint, so it dispatches every node in
  // every round: 16 nodes x 6 rounds.
  const auto pg = port::with_canonical_ports(graph::cycle(16));
  for (const unsigned threads : policy_thread_counts()) {
    RunOptions options;
    options.exec.threads = threads;
    const auto before = engine_stage_stats();
    const auto result = run_synchronous(pg.ports(), EchoFactory(6), options);
    const auto after = engine_stage_stats();
    EXPECT_EQ(after.rounds - before.rounds, result.stats.rounds)
        << "threads=" << threads;
    EXPECT_EQ(after.dispatched - before.dispatched, 16u * 6u)
        << "threads=" << threads;
    EXPECT_GT(after.round_ns, before.round_ns) << "threads=" << threads;
  }
}

TEST(Engine, WorklistSkipsHaltedNodes) {
  // 90% of nodes halt in round 1; the long tail must not be charged for
  // them.  ports_served counts only non-halted nodes:
  // 2 ports x (90 nodes x 1 round + 10 nodes x 30 rounds) = 780.
  const auto pg = port::with_canonical_ports(graph::cycle(100));
  const auto make_programs = [] {
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (std::size_t v = 0; v < 100; ++v) {
      programs.push_back(
          std::make_unique<EchoProgram>(v % 10 == 0 ? 30 : 1));
    }
    return programs;
  };

  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto sequential =
      run_synchronous_programs(pg.ports(), make_programs(), options);
  EXPECT_EQ(sequential.stats.rounds, 30u);
  EXPECT_EQ(sequential.stats.ports_served, 780u);
  ASSERT_EQ(sequential.trace.size(), 30u);
  EXPECT_EQ(sequential.trace.front().halted_nodes, 90u);
  EXPECT_EQ(sequential.trace.back().halted_nodes, 100u);

  for (const unsigned threads : policy_thread_counts()) {
    options.exec.threads = threads;
    const auto got =
        run_synchronous_programs(pg.ports(), make_programs(), options);
    EXPECT_TRUE(got == sequential) << "threads=" << threads;
  }
}

TEST(Engine, PortsServedInvariantAcrossAlgorithms) {
  // ports_served == sum over nodes of degree x (rounds the node ran),
  // which for an algorithm where every node halts in the same round r is
  // r x total ports.
  const auto pg = port::with_canonical_ports(graph::cycle(6));
  const auto result = run_synchronous(pg.ports(), EchoFactory(5));
  EXPECT_EQ(result.stats.ports_served, 5u * 12u);
}

TEST(Engine, MoreThreadsThanNodes) {
  const auto pg = port::with_canonical_ports(graph::path(3));
  RunOptions options;
  options.collect_messages = true;
  options.collect_trace = true;
  const auto expected = reference_run(pg.ports(), EchoFactory(3), options);
  options.exec.threads = 16;
  const auto got = run_synchronous(pg.ports(), EchoFactory(3), options);
  EXPECT_TRUE(got == expected);
}

TEST(Engine, HardwareThreadsOptionRuns) {
  RunOptions options;
  options.exec.threads = 0;  // one lane per hardware thread
  const auto pg = port::with_canonical_ports(graph::cycle(12));
  const auto got = run_synchronous(pg.ports(), EchoFactory(2), options);
  EXPECT_EQ(got.stats.rounds, 2u);
}

TEST(Engine, EmptyGraphAndImmediateHalt) {
  const PortGraph empty = PortGraphBuilder(std::vector<Port>{}).build();
  for (const unsigned threads : policy_thread_counts()) {
    RunOptions options;
    options.exec.threads = threads;
    const auto result = run_synchronous(empty, EchoFactory(3), options);
    EXPECT_EQ(result.stats.rounds, 0u);
    EXPECT_TRUE(result.selected.empty());
  }
}

TEST(Engine, RoundLimitThrowsUnderEveryPolicy) {
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  for (const unsigned threads : policy_thread_counts()) {
    RunOptions options;
    options.max_rounds = 10;
    options.exec.threads = threads;
    EXPECT_THROW(
        (void)run_synchronous(pg.ports(), NeverHaltFactory(), options),
        ExecutionError);
  }
}

TEST(BatchRunner, DeterministicAcrossThreadCounts) {
  auto rng = test::make_rng(0xBA7);
  const auto h = test::figure2_graph_h();
  const auto m = test::figure2_multigraph_m();
  const auto cycle = port::with_canonical_ports(graph::cycle(9));
  const auto regular = test::random_ported_regular(16, 4, rng);

  const EchoFactory echo(4);
  const algo::PortOneFactory port_one;
  const algo::BoundedDegreeFactory bounded(4);

  RunOptions traced;
  traced.collect_trace = true;
  traced.collect_messages = true;
  const std::vector<BatchJob> jobs{
      {&h.ports(), &echo, traced},
      {&m, &echo, traced},
      {&cycle.ports(), &port_one, {}},
      {&regular.ports(), &bounded, traced},
      {&regular.ports(), &port_one, {}},
      {&h.ports(), &bounded, {}},
  };

  // The per-job oracle: what each job yields when run on its own.
  std::vector<RunResult> expected;
  for (const auto& job : jobs) {
    expected.push_back(run_synchronous(*job.graph, *job.factory, job.options));
  }

  for (const unsigned threads : {1u, 2u, 8u}) {
    const BatchRunner runner(threads);
    const auto results = runner.run(jobs);
    ASSERT_EQ(results.size(), jobs.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_TRUE(results[i] == expected[i])
          << "threads=" << threads << " job=" << i;
    }
  }
}

TEST(BatchRunner, RejectsMalformedJobsUpFront) {
  const EchoFactory echo(1);
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  const BatchRunner runner(2);
  EXPECT_THROW((void)runner.run({{nullptr, &echo, {}}}), InvalidArgument);
  EXPECT_THROW((void)runner.run({{&pg.ports(), nullptr, {}}}),
               InvalidArgument);
  EXPECT_TRUE(runner.run({}).empty());
}

TEST(BatchRunner, RethrowsLowestIndexedFailure) {
  const NeverHaltFactory never;
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  RunOptions three;
  three.max_rounds = 3;
  RunOptions five;
  five.max_rounds = 5;
  const std::vector<BatchJob> jobs{
      {&pg.ports(), &never, three},
      {&pg.ports(), &never, five},
  };
  for (const unsigned threads : {1u, 4u}) {
    const BatchRunner runner(threads);
    try {
      (void)runner.run(jobs);
      FAIL() << "expected ExecutionError";
    } catch (const ExecutionError& e) {
      EXPECT_NE(std::string(e.what()).find("within 3 rounds"),
                std::string::npos)
          << "threads=" << threads << ": " << e.what();
    }
  }
}

TEST(BatchRunner, StreamingMatchesRunAndArrivesInOrder) {
  auto rng = test::make_rng(0x57E);
  std::vector<port::PortedGraph> graphs;
  for (int i = 0; i < 6; ++i) {
    graphs.push_back(test::random_ported_regular(12 + 2 * i, 4, rng));
  }
  const algo::BoundedDegreeFactory bounded(4);
  RunOptions traced;
  traced.collect_trace = true;
  traced.collect_messages = true;
  std::vector<BatchJob> jobs;
  for (const auto& pg : graphs) {
    jobs.push_back({&pg.ports(), &bounded, traced});
  }

  for (const unsigned threads : {1u, 4u}) {
    const BatchRunner runner(threads);
    const auto expected = runner.run(jobs);
    std::vector<std::size_t> order;
    std::vector<RunResult> streamed(jobs.size());
    runner.run_streaming(jobs, [&](std::size_t i, RunResult&& result) {
      order.push_back(i);
      streamed[i] = std::move(result);
    });
    ASSERT_EQ(order.size(), jobs.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(order[i], i) << "delivery must follow job order";
      EXPECT_TRUE(streamed[i] == expected[i]) << "threads=" << threads;
    }
  }
}

TEST(BatchRunner, StreamingWithholdsResultsFromTheFailureOnward) {
  const NeverHaltFactory never;
  const EchoFactory echo(2);
  const auto pg = port::with_canonical_ports(graph::cycle(4));
  RunOptions capped;
  capped.max_rounds = 3;
  // Jobs 0 and 1 succeed, job 2 fails, job 3 would succeed but must be
  // withheld by the prefix rule.
  const std::vector<BatchJob> jobs{
      {&pg.ports(), &echo, {}},
      {&pg.ports(), &echo, {}},
      {&pg.ports(), &never, capped},
      {&pg.ports(), &echo, {}},
  };
  for (const unsigned threads : {1u, 4u}) {
    const BatchRunner runner(threads);
    std::vector<std::size_t> delivered;
    EXPECT_THROW(
        runner.run_streaming(jobs,
                             [&](std::size_t i, RunResult&&) {
                               delivered.push_back(i);
                             }),
        ExecutionError);
    EXPECT_EQ(delivered, (std::vector<std::size_t>{0, 1}))
        << "threads=" << threads;
  }
}

TEST(BatchRunner, StreamingRethrowsCallbackFailures) {
  const EchoFactory echo(1);
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  const std::vector<BatchJob> jobs{
      {&pg.ports(), &echo, {}},
      {&pg.ports(), &echo, {}},
  };
  const BatchRunner runner(2);
  std::size_t calls = 0;
  EXPECT_THROW(runner.run_streaming(jobs,
                                    [&](std::size_t, RunResult&&) {
                                      ++calls;
                                      throw InvalidArgument("consumer burp");
                                    }),
               InvalidArgument);
  EXPECT_EQ(calls, 1u) << "delivery stops at the first callback failure";
}

TEST(AlgoBatch, StreamingMatchesRunBatch) {
  auto rng = test::make_rng(0xA1C);
  std::vector<port::PortedGraph> graphs;
  graphs.push_back(test::random_ported_regular(14, 4, rng));
  graphs.push_back(test::random_ported_regular(12, 3, rng));
  std::vector<algo::BatchItem> items;
  items.push_back({&graphs[0], algo::Algorithm::kPortOne, 0});
  items.push_back({&graphs[1], algo::Algorithm::kOddRegular, 0});

  const auto expected = algo::run_batch(items, 2);
  std::vector<algo::EdsOutcome> streamed(items.size());
  std::vector<std::size_t> order;
  algo::run_batch_streaming(items, 2,
                            [&](std::size_t i, algo::EdsOutcome&& outcome) {
                              order.push_back(i);
                              streamed[i] = std::move(outcome);
                            });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(streamed[i].solution, expected[i].solution);
    EXPECT_TRUE(streamed[i].stats == expected[i].stats);
  }
}

TEST(AlgoBatch, BackToBackBatchesReuseTheirLanes) {
  // run_batch keeps its pool for the next batch of the same width, so a
  // second batch finds every lane's workspace already sized and no run
  // grows one.  Item 0's delivery waits until the other lane has started
  // a run, so each batch runs jobs on both lanes however they are
  // scheduled; a new pool per batch would grow its worker's workspace.
  auto rng = test::make_rng(0xA1D);
  const auto pg = test::random_ported_regular(64, 4, rng);
  const std::vector<algo::BatchItem> items(
      8, {&pg, algo::Algorithm::kPortOne, 0});
  const auto runs = [] {
    const auto stats = engine_alloc_stats();
    return stats.workspace_growths + stats.workspace_reuses;
  };
  const auto batch = [&] {
    const auto started = runs();
    algo::run_batch_streaming(
        items, 2, [&](std::size_t i, algo::EdsOutcome&&) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(30);
          while (i == 0 && runs() < started + 2 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
        });
    return runs() - started;
  };
  ASSERT_EQ(batch(), items.size());
  const auto growths = engine_alloc_stats().workspace_growths;
  ASSERT_EQ(batch(), items.size());
  EXPECT_EQ(engine_alloc_stats().workspace_growths, growths)
      << "the second batch ran on new lanes";
}

TEST(AlgoBatch, MatchesRunAlgorithm) {
  auto rng = test::make_rng(0xA1B);
  std::vector<port::PortedGraph> graphs;
  graphs.push_back(test::random_ported_regular(14, 4, rng));
  graphs.push_back(test::random_ported_regular(12, 3, rng));
  graphs.push_back(port::with_canonical_ports(graph::cycle(10)));

  std::vector<algo::BatchItem> items;
  items.push_back({&graphs[0], algo::Algorithm::kPortOne, 0});
  items.push_back({&graphs[1], algo::Algorithm::kOddRegular, 0});  // resolves 3
  items.push_back({&graphs[2], algo::Algorithm::kBoundedDegree, 0});

  const auto solo = {
      algo::run_algorithm(graphs[0], algo::Algorithm::kPortOne),
      algo::run_algorithm(graphs[1], algo::Algorithm::kOddRegular),
      algo::run_algorithm(graphs[2], algo::Algorithm::kBoundedDegree),
  };

  for (const unsigned threads : {1u, 3u}) {
    const auto outcomes = algo::run_batch(items, threads);
    ASSERT_EQ(outcomes.size(), items.size());
    std::size_t i = 0;
    for (const auto& expected : solo) {
      EXPECT_EQ(outcomes[i].solution, expected.solution);
      EXPECT_TRUE(outcomes[i].stats == expected.stats);
      ++i;
    }
  }
}

}  // namespace
}  // namespace eds::runtime
