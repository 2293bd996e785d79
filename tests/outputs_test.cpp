// The engine output contract: programs announce X(v) through an OutputSink
// into the run's flat selection mask, and factories build a run's programs
// into a ProgramArena (create_all).  Covers the sink's errors under both
// engines, crashed nodes' empty segments, the mask readers (the per-edge
// validation sweep against the per-port one included), the arena's
// ownership rules, and bit-identity of create_all against per-node
// create() for every algorithm factory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/driver.hpp"
#include "graph/edge_set.hpp"
#include "port/port_graph.hpp"
#include "port/ported_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/outputs.hpp"
#include "runtime/program.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using algo::Algorithm;
using port::Port;
using port::PortGraph;
using port::PortGraphBuilder;

/// Halts after round 1 and selects `ports` (as given, repeats included).
class SelectFactory final : public ProgramFactory {
  class P final : public NodeProgram {
   public:
    explicit P(std::vector<Port> ports) : ports_(std::move(ports)) {}
    void start(Port) override {}
    void send(Round, std::span<Message>) override {}
    void receive(Round, std::span<const Message>) override { halted_ = true; }
    [[nodiscard]] bool halted() const override { return halted_; }
    void output(OutputSink& out) const override {
      for (const Port i : ports_) out.select(i);
    }

   private:
    std::vector<Port> ports_;
    bool halted_ = false;
  };

 public:
  explicit SelectFactory(std::vector<Port> ports) : ports_(std::move(ports)) {}
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<P>(ports_);
  }
  [[nodiscard]] std::string name() const override { return "select"; }

 private:
  std::vector<Port> ports_;
};

/// Forwards create() and name() only, so runs take ProgramFactory's
/// default create_all (one adopted heap program per node).
class CreateOnlyFactory final : public ProgramFactory {
 public:
  explicit CreateOnlyFactory(const ProgramFactory& inner) : inner_(inner) {}
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return inner_.create();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const ProgramFactory& inner_;
};

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

/// A 3-node path with degrees 1, 2, 1.
PortGraph path3() {
  PortGraphBuilder b(std::vector<Port>{1, 2, 1});
  b.connect({0, 1}, {1, 1});
  b.connect({1, 2}, {2, 1});
  return b.build();
}

TEST(OutputSink, WritesTheNodeSegment) {
  std::vector<std::uint8_t> mask(5, 0);
  OutputSink sink({mask.data() + 1, 3}, "engine");
  sink.select(3);
  sink.select(1);
  EXPECT_EQ(mask, (std::vector<std::uint8_t>{0, 1, 0, 1, 0}));
  EXPECT_EQ(execution_error([&] { sink.select(0); }),
            "engine: node output contains an invalid port number");
  EXPECT_EQ(execution_error([&] { sink.select(4); }),
            "engine: node output contains an invalid port number");
  EXPECT_EQ(execution_error([&] { sink.select(1); }),
            "engine: node output contains a duplicate port");
  EXPECT_EQ(mask, (std::vector<std::uint8_t>{0, 1, 0, 1, 0}));
}

TEST(OutputSink, BothEnginesRejectInvalidAndRepeatedPorts) {
  const auto g = path3();
  AsyncOptions async;  // α-synchronizer
  async.delay = {DelayKind::kUniform, 1, 3};
  for (const std::vector<Port>& ports :
       {std::vector<Port>{2}, std::vector<Port>{0}, std::vector<Port>{1, 1}}) {
    const SelectFactory factory(ports);
    const bool repeated = ports.size() == 2;
    const std::string what = repeated
                                 ? ": node output contains a duplicate port"
                                 : ": node output contains an invalid port "
                                   "number";
    EXPECT_EQ(execution_error([&] { (void)run_synchronous(g, factory); }),
              "run_synchronous" + what);
    EXPECT_EQ(execution_error(
                  [&] { (void)run_asynchronous(g, factory, {}, async); }),
              "run_asynchronous" + what);
  }
  // Port 1 exists at every node: a clean run, X(v) = {1} everywhere.
  const auto ok = run_synchronous(g, SelectFactory({1}));
  EXPECT_EQ(ok.selected, (std::vector<std::uint8_t>{1, 1, 0, 1}));
}

TEST(OutputSink, CrashedAsyncNodesLeaveTheirSegmentZero) {
  Rng rng(0xC4A5);
  const auto pg = test::random_ported_regular(16, 4, rng);
  const auto& g = pg.ports();
  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kFixed, 2, 2};
  async.faults.crashes = {{2, 1}, {5, 1}, {11, 1}};
  const auto factory = algo::make_factory(Algorithm::kPortOne);
  const AsyncResult a = run_asynchronous(g, *factory, {}, async);
  ASSERT_EQ(a.run.selected.size(), g.num_ports());
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    std::size_t bytes = 0;
    for (Port i = 0; i < g.degree(v); ++i) {
      bytes += a.run.selected[g.offset(v) + i];
    }
    if (a.crashed[v] != 0) {
      EXPECT_EQ(bytes, 0u) << "crashed node " << v;
    } else {
      EXPECT_GE(bytes, 1u) << "port-one always selects port 1 at node " << v;
    }
  }
  EXPECT_EQ(a.crashed[2] + a.crashed[5] + a.crashed[11], 3);
}

TEST(SelectedPorts, ReadsOneNodeAndChecksItsInputs) {
  const auto g = path3();
  RunResult r;
  r.selected = {1, 0, 1, 1};
  EXPECT_EQ(selected_ports(g, r, 0), std::vector<Port>{1});
  EXPECT_EQ(selected_ports(g, r, 1), std::vector<Port>{2});
  EXPECT_EQ(selected_ports(g, r, 2), std::vector<Port>{1});
  EXPECT_THROW((void)selected_ports(g, r, 3), InvalidArgument);
  r.selected.pop_back();
  EXPECT_THROW((void)selected_ports(g, r, 0), ExecutionError);
}

TEST(ValidatedEdgeSet, EdgeSweepMatchesPortSweepAcrossWords) {
  // validated_edge_set sweeps edges and packs 64 selections per word; the
  // port-by-port sweep (count_selection, and an EdgeSet built from each
  // selected edge's lower port) is the reference.  Edge counts put members
  // in full words and in a partial last word.
  auto rng = test::make_rng(0x0E5);
  for (const std::size_t m : {63, 64, 65, 130, 200}) {
    const auto pg = test::random_ported_bounded(m, 6, m, rng);
    const auto& g = pg.ports();
    ASSERT_EQ(pg.graph().num_edges(), m);
    RunResult r;
    r.selected.assign(g.num_ports(), 0);
    for (const auto& [at_u, at_v] : pg.edge_port_table()) {
      if (rng.chance(0.5)) r.selected[at_u] = r.selected[at_v] = 1;
    }
    graph::EdgeSet want(m);
    for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
      for (Port i = 1; i <= g.degree(v); ++i) {
        if (r.selected[g.offset(v) + i - 1] != 0) {
          want.insert(pg.edge_at(v, i));
        }
      }
    }
    const auto got = validated_edge_set(pg, r);
    EXPECT_EQ(got, want) << "m=" << m;
    EXPECT_EQ(got.size(), count_selection(g, r, "test").selected)
        << "m=" << m;

    // Clear the higher port of the last selected edge: the error names its
    // lower port, now the only one-sided claim.
    const auto members = want.to_vector();
    ASSERT_FALSE(members.empty());
    const auto [u_port, v_port] = pg.edge_port_table()[members.back()];
    r.selected[std::max(u_port, v_port)] = 0;
    const auto lone = std::min(u_port, v_port);
    port::NodeId v = 0;
    while (v + 1 < g.num_nodes() && g.offset(v + 1) <= lone) ++v;
    const Port i = static_cast<Port>(lone - g.offset(v) + 1);
    const auto there = g.partner(v, i);
    std::ostringstream msg;
    msg << "validated_edge_set: inconsistent output — node " << v
        << " claims port " << i << " but node " << there.node
        << " does not claim port " << there.port;
    EXPECT_EQ(execution_error([&] { (void)validated_edge_set(pg, r); }),
              msg.str())
        << "m=" << m;
  }
}

TEST(AllOutputsIdentical, ComparesPortSetsAcrossDegrees) {
  const auto g = path3();  // degrees 1, 2, 1
  RunResult r;
  r.selected = {1, 1, 0, 1};  // {1}, {1}, {1}
  EXPECT_TRUE(all_outputs_identical(g, r));
  r.selected = {1, 1, 1, 1};  // {1}, {1, 2}, {1}
  EXPECT_FALSE(all_outputs_identical(g, r));
  r.selected = {0, 0, 1, 0};  // {}, {2}, {}
  EXPECT_FALSE(all_outputs_identical(g, r));
  r.selected = {0, 0, 0, 0};
  EXPECT_TRUE(all_outputs_identical(g, r));
  EXPECT_TRUE(all_outputs_identical(PortGraph{}, RunResult{}));
}

/// Counts live instances, to check the arena destroys what it holds.
struct Counted final : NodeProgram {
  explicit Counted(int& live) : live_(live) { ++live_; }
  ~Counted() override { --live_; }
  void start(Port) override {}
  void send(Round, std::span<Message>) override {}
  void receive(Round, std::span<const Message>) override {}
  [[nodiscard]] bool halted() const override { return true; }
  void output(OutputSink&) const override {}

  int& live_;
};

TEST(ProgramArena, OwnsEmplacedAndAdoptedProgramsInOrder) {
  int live = 0;
  {
    ProgramArena arena(4);
    arena.emplace<Counted>(2, std::ref(live));
    auto heap = std::make_unique<Counted>(live);
    NodeProgram* const adopted = heap.get();
    arena.adopt(std::move(heap));
    arena.emplace<Counted>(1, std::ref(live));
    arena.emplace<Counted>(0, std::ref(live));
    EXPECT_EQ(live, 4);
    const auto programs = arena.programs();
    ASSERT_EQ(programs.size(), 4u);
    EXPECT_EQ(programs[2], adopted);
    // One contiguous block per emplace call.
    EXPECT_EQ(static_cast<const void*>(programs[1]),
              static_cast<const void*>(static_cast<Counted*>(programs[0]) + 1));
  }
  EXPECT_EQ(live, 0);
}

TEST(ProgramArena, EnginesRejectBadFactories) {
  class NullFactory final : public ProgramFactory {
   public:
    [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
      return nullptr;
    }
    [[nodiscard]] std::string name() const override { return "null"; }
  };
  class ShortFactory final : public ProgramFactory {
   public:
    [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
      return std::make_unique<test::EchoProgram>(1);
    }
    void create_all(std::size_t n, ProgramArena& arena) const override {
      arena.emplace<test::EchoProgram>(n - 1, Round{1});
    }
    [[nodiscard]] std::string name() const override { return "short"; }
  };
  const auto g = path3();
  EXPECT_EQ(execution_error([&] { (void)run_synchronous(g, NullFactory()); }),
            "run_synchronous: factory returned null program");
  EXPECT_EQ(execution_error(
                [&] { (void)run_asynchronous(g, NullFactory(), {}, {}); }),
            "run_asynchronous: factory returned null program");
  EXPECT_EQ(execution_error([&] { (void)run_synchronous(g, ShortFactory()); }),
            "run_synchronous: factory built the wrong number of programs");
}

TEST(ProgramArena, CreateAllIsBitIdenticalToPerNodeCreate) {
  // Every algorithm factory overrides create_all; a wrapper that hides the
  // override must reproduce every run field, in both engines.
  Rng rng(0xA2E4A);
  const auto regular4 = test::random_ported_regular(24, 4, rng);
  const auto regular3 = test::random_ported_regular(24, 3, rng);
  const auto bounded = test::random_ported_bounded(30, 4, 45, rng);
  struct Case {
    Algorithm algorithm;
    Port param;
    const port::PortedGraph* graph;
  };
  const Case cases[] = {
      {Algorithm::kAllEdges, 0, &bounded},
      {Algorithm::kPortOne, 0, &regular4},
      {Algorithm::kOddRegular, 3, &regular3},
      {Algorithm::kBoundedDegree, 4, &bounded},
      {Algorithm::kDoubleCover, 4, &bounded},
  };
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  AsyncOptions free_running;
  free_running.synchronizer = false;
  free_running.delay = {DelayKind::kUniform, 1, 4};
  free_running.seed = 9;
  for (const Case& c : cases) {
    const auto arena_factory = algo::make_factory(c.algorithm, c.param);
    const CreateOnlyFactory heap_factory(*arena_factory);
    const auto& g = c.graph->ports();
    const std::string name = algo::algorithm_name(c.algorithm);
    for (const unsigned threads : test::policy_thread_counts()) {
      RunOptions threaded = options;
      threaded.exec.threads = threads;
      EXPECT_EQ(run_synchronous(g, *arena_factory, threaded),
                run_synchronous(g, heap_factory, threaded))
          << name << " threads=" << threads;
    }
    for (const AsyncOptions& async : {AsyncOptions{}, free_running}) {
      EXPECT_EQ(run_asynchronous(g, *arena_factory, options, async),
                run_asynchronous(g, heap_factory, options, async))
          << name << " synchronizer=" << async.synchronizer;
    }
  }
}

}  // namespace
}  // namespace eds::runtime
