// The typed round stage against the virtual one: every built-in factory
// runs its own instantiation of the round loop (ProgramFactory::run over
// one block of its final program type), while run_plan over create()
// programs runs the NodeProgram* instantiation of the same body.  Both must
// give the seed oracle's RunResult — outputs, stats, trace and message log
// — at every lane count, throw the same errors, start cleanly on a lane
// whose pooled outboxes grew without being initialized, and destroy a
// typed block exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/all_edges.hpp"
#include "algo/bounded_degree.hpp"
#include "algo/double_cover.hpp"
#include "algo/odd_regular.hpp"
#include "algo/port_one.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "runtime/engine.hpp"
#include "runtime/stage.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using port::Port;
using port::PortGraph;
using test::reference_run;

/// Where the heap-dirtying buffer of FirstRunOnAGrownLaneMatchesTheOracle
/// escapes, so its writes are not optimized away.
Message* volatile g_escape = nullptr;

/// The NodeProgram* path: run_plan over one create() program per node.
RunResult virtual_run(const PortGraph& g, const ProgramFactory& factory,
                      const RunOptions& options) {
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (std::size_t v = 0; v < g.num_nodes(); ++v) {
    programs.push_back(factory.create());
  }
  const auto pool = make_policy(options.exec);
  return run_plan(g, programs, options, factory.name(), *pool);
}

RunOptions traced() {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  return options;
}

/// The ExecutionError message `f` throws ("" if none).
template <typename F>
std::string execution_error(F&& f) {
  try {
    f();
  } catch (const ExecutionError& e) {
    return e.what();
  }
  return "";
}

/// Every built-in factory on a graph it accepts.
struct Case {
  std::string label;
  std::shared_ptr<const ProgramFactory> factory;
  PortGraph graph;
  std::uint64_t schedule = 0;  ///< the program's rounds, 0 for none
};

Port max_degree(const PortGraph& g) {
  Port d = 0;
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    d = std::max(d, g.degree(v));
  }
  return d;
}

std::vector<Case> builtin_cases() {
  auto rng = test::make_rng(0x7E5);
  const auto bounded = test::random_ported_bounded(48, 4, 70, rng).ports();
  const auto power_law =
      port::with_random_ports(graph::random_power_law(300, 2.3, rng), rng)
          .ports();
  const Port power_delta = max_degree(power_law);
  std::vector<Case> cases;
  cases.push_back({"all-edges", std::make_shared<algo::AllEdgesFactory>(),
                   test::random_ported_bounded(40, 1, 30, rng).ports(), 0});
  cases.push_back({"port-one", std::make_shared<algo::PortOneFactory>(),
                   test::random_ported_regular(64, 4, rng).ports(), 1});
  cases.push_back({"port-one on isolated nodes",
                   std::make_shared<algo::PortOneFactory>(), bounded, 1});
  for (const Port d : {3u, 5u}) {
    cases.push_back({"odd-regular(" + std::to_string(d) + ")",
                     std::make_shared<algo::OddRegularFactory>(d),
                     test::random_ported_regular(40, d, rng).ports(),
                     algo::OddRegularProgram::schedule_length(d)});
  }
  cases.push_back({"A(4)", std::make_shared<algo::BoundedDegreeFactory>(4),
                   bounded, algo::BoundedDegreeProgram::schedule_length(4)});
  cases.push_back(
      {"A(power-law)",
       std::make_shared<algo::BoundedDegreeFactory>(power_delta), power_law,
       algo::BoundedDegreeProgram::schedule_length(power_delta)});
  cases.push_back({"double-cover(4)",
                   std::make_shared<algo::DoubleCoverFactory>(4), bounded,
                   algo::DoubleCoverProgram::schedule_length(4)});
  return cases;
}

TEST(TypedStage, EveryBuiltinMatchesTheVirtualPathAndTheOracle) {
  for (const Case& c : builtin_cases()) {
    RunOptions options = traced();
    const RunResult expected = reference_run(c.graph, *c.factory, options);
    if (c.schedule > 1) {
      ASSERT_EQ(expected.stats.rounds, c.schedule) << c.label;
    }
    for (const unsigned threads : test::policy_thread_counts()) {
      options.exec.threads = threads;
      const RunResult typed = run_synchronous(c.graph, *c.factory, options);
      EXPECT_TRUE(typed == expected)
          << c.label << " threads=" << threads << ": typed path (rounds "
          << typed.stats.rounds << ", messages " << typed.stats.messages_sent
          << ") diverged from the oracle";
      EXPECT_TRUE(virtual_run(c.graph, *c.factory, options) == expected)
          << c.label << " threads=" << threads << ": virtual path diverged";
    }
  }
}

TEST(TypedStage, BothPathsThrowTheSameErrors) {
  for (const Case& c : builtin_cases()) {
    if (c.schedule < 2) continue;  // a cap of 0 is rejected up front
    for (const unsigned threads : test::policy_thread_counts()) {
      RunOptions capped;
      capped.max_rounds = static_cast<Round>(c.schedule - 1);
      capped.exec.threads = threads;
      const std::string typed = execution_error(
          [&] { (void)run_synchronous(c.graph, *c.factory, capped); });
      EXPECT_NE(typed.find("did not halt within"), std::string::npos)
          << c.label << ": " << typed;
      EXPECT_EQ(typed, execution_error([&] {
                  (void)virtual_run(c.graph, *c.factory, capped);
                }))
          << c.label << " threads=" << threads;
    }
  }
  // A(3) on a 4-regular graph: every node's degree exceeds ∆' = 3, which
  // start() rejects.
  auto rng = test::make_rng(0x7E6);
  const auto quartic = test::random_ported_regular(16, 4, rng).ports();
  const algo::BoundedDegreeFactory a3(3);
  const std::string typed =
      execution_error([&] { (void)run_synchronous(quartic, a3); });
  EXPECT_NE(typed.find("degree exceeds"), std::string::npos) << typed;
  EXPECT_EQ(typed, execution_error([&] {
              (void)virtual_run(quartic, a3, RunOptions{});
            }));
  // The failed runs released the lane.
  EXPECT_TRUE(run_synchronous(quartic, algo::PortOneFactory()) ==
              reference_run(quartic, algo::PortOneFactory(), RunOptions{}));
}

TEST(TypedStage, FirstRunOnAGrownLaneMatchesTheOracle) {
  // A lane's outboxes grow without being initialized, and growing drops
  // what they held.  Each case runs on a fresh thread (so a fresh
  // workspace): a small run sizes it, garbage is written to and freed from
  // the heap, and the first run on the larger graph grows the outboxes
  // into whatever memory comes back.  Every slot it reads must still be
  // one the run wrote or silenced.
  auto rng = test::make_rng(0x7E7);
  const auto small = test::random_ported_regular(8, 4, rng).ports();
  for (const Case& c : builtin_cases()) {
    for (const unsigned threads : test::policy_thread_counts()) {
      RunOptions options = traced();
      options.exec.threads = threads;
      const RunResult expected = reference_run(c.graph, *c.factory, options);
      RunResult got;
      std::thread lane([&] {
        (void)run_synchronous(small, algo::AllEdgesFactory(), options);
        {
          std::vector<Message> garbage(2 * c.graph.num_ports() + 64,
                                       msg(3, 7, 7, 7));
          g_escape = garbage.data();
        }
        got = run_synchronous(c.graph, *c.factory, options);
      });
      lane.join();
      EXPECT_TRUE(got == expected) << c.label << " threads=" << threads;
    }
  }
}

/// Counts constructions and destructions of CountingProgram.
struct Tally {
  int constructed = 0;
  int destroyed = 0;
  int throw_at = -1;  ///< the construction that throws, -1 for none
};

/// Sends for two rounds, then halts selecting port 1.  Throws from
/// receive() on the nodes of degree `fail_degree` when that is not 0.
class CountingProgram final : public NodeProgram {
 public:
  CountingProgram(Tally& tally, Port fail_degree)
      : tally_(tally), fail_degree_(fail_degree) {
    if (tally_.constructed == tally_.throw_at) {
      throw ExecutionError("counting: construction failed");
    }
    ++tally_.constructed;
  }
  ~CountingProgram() override { ++tally_.destroyed; }
  CountingProgram(const CountingProgram&) = delete;
  CountingProgram& operator=(const CountingProgram&) = delete;

  void start(Port degree) override { degree_ = degree; }
  void send(Round round, std::span<Message> out) override {
    for (auto& m : out) m = msg(1, static_cast<std::int32_t>(round));
  }
  void receive(Round round, std::span<const Message>) override {
    if (fail_degree_ != 0 && degree_ == fail_degree_) {
      throw ExecutionError("counting: failed");
    }
    halted_ = round >= 2;
  }
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(OutputSink& out) const override {
    if (degree_ > 0) out.select(1);
  }

 private:
  Tally& tally_;
  Port fail_degree_;
  Port degree_ = 0;
  bool halted_ = false;
};

/// A user factory on the typed path: its run() emplaces one block of
/// CountingProgram and calls run_block.
class CountingFactory final : public ProgramFactory {
 public:
  CountingFactory(Tally& tally, Port fail_degree = 0)
      : tally_(tally), fail_degree_(fail_degree) {}
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<CountingProgram>(tally_, fail_degree_);
  }
  [[nodiscard]] RunResult run(const PortGraph& g, const RunOptions& options,
                              ThreadPool& pool) const override {
    ProgramArena arena(g.num_nodes());
    return run_block(g,
                     arena.emplace_block<CountingProgram>(
                         g.num_nodes(), std::ref(tally_), fail_degree_),
                     options, name(), pool);
  }
  [[nodiscard]] std::string name() const override { return "counting"; }

 private:
  Tally& tally_;
  Port fail_degree_;
};

TEST(TypedStage, ATypedBlockIsDestroyedExactlyOnce) {
  auto rng = test::make_rng(0x7E8);
  const auto g = test::random_ported_bounded(30, 4, 45, rng).ports();
  const auto n = static_cast<int>(g.num_nodes());
  for (const unsigned threads : test::policy_thread_counts()) {
    Tally oracle;
    RunOptions options = traced();
    options.exec.threads = threads;
    const RunResult expected =
        reference_run(g, CountingFactory(oracle), options);
    Tally tally;
    EXPECT_TRUE(run_synchronous(g, CountingFactory(tally), options) ==
                expected)
        << "threads=" << threads;
    EXPECT_EQ(tally.constructed, n);
    EXPECT_EQ(tally.destroyed, n);

    // A run that fails in a round still destroys the block once.
    Tally failed;
    EXPECT_EQ(execution_error([&] {
                (void)run_synchronous(g, CountingFactory(failed, 2), options);
              }),
              "counting: failed");
    EXPECT_EQ(failed.constructed, n);
    EXPECT_EQ(failed.destroyed, n);
  }
  // A constructor that throws part-way leaves the programs built before it
  // to the arena, which destroys each once.
  Tally partial;
  partial.throw_at = 2;
  {
    ProgramArena arena(4);
    EXPECT_THROW((void)arena.emplace_block<CountingProgram>(
                     4, std::ref(partial), Port{0}),
                 ExecutionError);
    EXPECT_EQ(partial.constructed, 2);
    EXPECT_EQ(partial.destroyed, 0);
  }
  EXPECT_EQ(partial.destroyed, 2);
}

}  // namespace
}  // namespace eds::runtime
