#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "runtime/message.hpp"
#include "runtime/outputs.hpp"
#include "runtime/program.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using port::Port;
using port::PortGraphBuilder;

using test::EchoFactory;
using test::EchoProgram;
using test::RelayFactory;

/// Outputs every port, for consistency testing.
class ClaimAllFactory final : public ProgramFactory {
  class P final : public NodeProgram {
   public:
    void start(Port degree) override { degree_ = degree; }
    void send(Round, std::span<Message>) override {}
    void receive(Round, std::span<const Message>) override { halted_ = true; }
    [[nodiscard]] bool halted() const override { return halted_; }
    void output(OutputSink& out) const override {
      for (Port i = 1; i <= degree_; ++i) out.select(i);
    }

   private:
    Port degree_ = 0;
    bool halted_ = false;
  };

 public:
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<P>();
  }
  [[nodiscard]] std::string name() const override { return "claim-all"; }
};

/// Outputs port 1 only (inconsistent unless the numbering is symmetric).
class ClaimPortOneOnlyFactory final : public ProgramFactory {
  class P final : public NodeProgram {
   public:
    void start(Port degree) override { degree_ = degree; }
    void send(Round, std::span<Message>) override {}
    void receive(Round, std::span<const Message>) override { halted_ = true; }
    [[nodiscard]] bool halted() const override { return halted_; }
    void output(OutputSink& out) const override {
      if (degree_ >= 1) out.select(1);
    }

   private:
    Port degree_ = 0;
    bool halted_ = false;
  };

 public:
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<P>();
  }
  [[nodiscard]] std::string name() const override { return "claim-port-one"; }
};

/// Never halts — exercises the round-limit guard.
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

/// Announces an out-of-range port.
class BadOutputFactory final : public ProgramFactory {
  class P final : public NodeProgram {
   public:
    void start(Port) override {}
    void send(Round, std::span<Message>) override {}
    void receive(Round, std::span<const Message>) override { halted_ = true; }
    [[nodiscard]] bool halted() const override { return halted_; }
    void output(OutputSink& out) const override { out.select(99); }

   private:
    bool halted_ = false;
  };

 public:
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<P>();
  }
  [[nodiscard]] std::string name() const override { return "bad-output"; }
};

TEST(Runner, RoundsCounted) {
  const auto pg = port::with_canonical_ports(graph::cycle(5));
  const auto result = run_synchronous(pg.ports(), EchoFactory(7));
  EXPECT_EQ(result.stats.rounds, 7u);
  EXPECT_EQ(result.stats.messages_sent, 7u * 10u);
  // ports_served counts the ports of non-halted nodes only; every node here
  // runs all 7 rounds, so it equals rounds x total ports.
  EXPECT_EQ(result.stats.ports_served, 7u * 10u);
}

TEST(Runner, PortsServedExcludesHaltedNodes) {
  // Nodes halt at different rounds: ports_served must charge each node only
  // for the rounds it actually ran (degree 2, halt rounds 1/2/4/4).
  const auto pg = port::with_canonical_ports(graph::cycle(4));
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (const Round rounds : {1u, 2u, 4u, 4u}) {
    programs.push_back(std::make_unique<EchoProgram>(rounds));
  }
  const auto result =
      run_synchronous_programs(pg.ports(), std::move(programs));
  EXPECT_EQ(result.stats.rounds, 4u);
  EXPECT_EQ(result.stats.ports_served, 2u * (1u + 2u + 4u + 4u));
}

TEST(Runner, ZeroMaxRoundsRejectedUpFront) {
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  RunOptions options;
  options.max_rounds = 0;
  EXPECT_THROW((void)run_synchronous(pg.ports(), EchoFactory(1), options),
               InvalidArgument);
}

TEST(Runner, TraceRecordsEveryRound) {
  const auto pg = port::with_canonical_ports(graph::cycle(4));
  RunOptions options;
  options.collect_trace = true;
  const auto result = run_synchronous(pg.ports(), EchoFactory(3), options);
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_EQ(result.trace.back().halted_nodes, 4u);
  EXPECT_EQ(result.trace.front().messages, 8u);
}

TEST(Runner, RoundLimitThrows) {
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  RunOptions options;
  options.max_rounds = 10;
  EXPECT_THROW((void)run_synchronous(pg.ports(), NeverHaltFactory(), options),
               ExecutionError);
}

TEST(Runner, ImmediateHaltTakesZeroRounds) {
  // A program that halts in start() finishes before any round happens.
  class HaltAtStart final : public NodeProgram {
   public:
    void start(Port) override {}
    void send(Round, std::span<Message>) override {}
    void receive(Round, std::span<const Message>) override {}
    [[nodiscard]] bool halted() const override { return true; }
    void output(OutputSink&) const override {}
  };
  class HaltAtStartFactory final : public ProgramFactory {
   public:
    [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
      return std::make_unique<HaltAtStart>();
    }
    [[nodiscard]] std::string name() const override { return "halt-at-start"; }
  };
  PortGraphBuilder b(std::vector<Port>{0, 0, 0});
  const auto g = b.build();
  const auto result = run_synchronous(g, HaltAtStartFactory());
  EXPECT_EQ(result.stats.rounds, 0u);

  // Degree-0 nodes under a program that never halts on its own still spin
  // send/receive rounds — the guard fires (nothing ever halts them).
  RunOptions options;
  options.max_rounds = 5;
  EXPECT_THROW((void)run_synchronous(g, NeverHaltFactory(), options),
               ExecutionError);
}

TEST(Runner, InvalidOutputPortRejected) {
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  EXPECT_THROW((void)run_synchronous(pg.ports(), BadOutputFactory()),
               ExecutionError);
}

TEST(Runner, DirectedLoopDeliversToSelf) {
  // A single node with a fixed-point port: the node hears itself.
  class LoopProbe final : public NodeProgram {
   public:
    void start(Port) override {}
    void send(Round, std::span<Message> out) override { out[0] = msg(42); }
    void receive(Round, std::span<const Message> in) override {
      heard_self_ = in[0].tag == 42;
      halted_ = true;
    }
    [[nodiscard]] bool halted() const override { return halted_; }
    void output(OutputSink& out) const override {
      if (heard_self_) out.select(1);
    }

   private:
    bool halted_ = false;
    bool heard_self_ = false;
  };
  class LoopFactory final : public ProgramFactory {
   public:
    [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
      return std::make_unique<LoopProbe>();
    }
    [[nodiscard]] std::string name() const override { return "loop-probe"; }
  };

  PortGraphBuilder b({1});
  b.fix({0, 1});
  const auto g = b.build();
  const auto result = run_synchronous(g, LoopFactory());
  EXPECT_EQ(selected_ports(g, result, 0), std::vector<Port>{1});
}

TEST(Runner, UndirectedLoopRoutesBetweenOwnPorts) {
  // p(v,1) = (v,2): what v sends on port 1 arrives on its own port 2.
  class CrossProbe final : public NodeProgram {
   public:
    void start(Port) override {}
    void send(Round, std::span<Message> out) override {
      out[0] = msg(7);
      out[1] = msg(8);
    }
    void receive(Round, std::span<const Message> in) override {
      ok_ = in[0].tag == 8 && in[1].tag == 7;
      halted_ = true;
    }
    [[nodiscard]] bool halted() const override { return halted_; }
    void output(OutputSink& out) const override {
      if (ok_) {
        out.select(1);
        out.select(2);
      }
    }

   private:
    bool halted_ = false;
    bool ok_ = false;
  };
  class CrossFactory final : public ProgramFactory {
   public:
    [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
      return std::make_unique<CrossProbe>();
    }
    [[nodiscard]] std::string name() const override { return "cross-probe"; }
  };

  PortGraphBuilder b({2});
  b.connect({0, 1}, {0, 2});
  const auto g = b.build();
  const auto result = run_synchronous(g, CrossFactory());
  EXPECT_EQ(selected_ports(g, result, 0), (std::vector<Port>{1, 2}));
}

TEST(Outputs, ValidatedEdgeSetAcceptsConsistent) {
  const auto pg = port::with_canonical_ports(graph::cycle(4));
  const auto result = run_synchronous(pg.ports(), ClaimAllFactory());
  const auto edges = validated_edge_set(pg, result);
  EXPECT_EQ(edges.size(), 4u);
}

TEST(Outputs, ValidatedEdgeSetRejectsOneSidedClaims) {
  // On a path, claiming "port 1" is not symmetric at internal nodes.
  const auto pg = port::with_canonical_ports(graph::path(3));
  const auto result = run_synchronous(pg.ports(), ClaimPortOneOnlyFactory());
  EXPECT_THROW((void)validated_edge_set(pg, result), ExecutionError);
}

TEST(Outputs, AllOutputsIdenticalDetectsSymmetry) {
  const auto pg = port::with_canonical_ports(graph::cycle(4));
  const auto all = run_synchronous(pg.ports(), ClaimAllFactory());
  EXPECT_TRUE(all_outputs_identical(pg.ports(), all));
}

TEST(Runner, UnwrittenPortsSendSilenceEachRound) {
  // Regression: ports a program does not write in a round must carry
  // silence — the previous round's message must not "ghost" onward.
  class WriteOnceProbe final : public NodeProgram {
   public:
    void start(Port) override {}
    void send(Round round, std::span<Message> out) override {
      if (round == 1) {
        for (auto& m : out) m = msg(99);
      }
      // round 2: write nothing — the runner must deliver silence.
    }
    void receive(Round round, std::span<const Message> in) override {
      if (round == 1) {
        saw_message_ = !in.empty() && in[0].tag == 99;
      } else {
        for (const auto& m : in) saw_ghost_ = saw_ghost_ || !m.is_silence();
        halted_ = true;
      }
    }
    [[nodiscard]] bool halted() const override { return halted_; }
    void output(OutputSink& out) const override {
      if (saw_message_) out.select(1);
      if (saw_ghost_) out.select(2);
    }

   private:
    bool halted_ = false;
    bool saw_message_ = false;
    bool saw_ghost_ = false;
  };
  class WriteOnceFactory final : public ProgramFactory {
   public:
    [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
      return std::make_unique<WriteOnceProbe>();
    }
    [[nodiscard]] std::string name() const override { return "write-once"; }
  };

  const auto pg = port::with_canonical_ports(graph::cycle(4));
  const auto result = run_synchronous(pg.ports(), WriteOnceFactory());
  for (port::NodeId v = 0; v < pg.ports().num_nodes(); ++v) {
    EXPECT_EQ(selected_ports(pg.ports(), result, v), std::vector<Port>{1})
        << "round-1 message missing or a ghost message leaked into round 2";
  }
}

TEST(Runner, RunWithExplicitProgramsValidatesInput) {
  const auto pg = port::with_canonical_ports(graph::cycle(3));
  std::vector<std::unique_ptr<NodeProgram>> too_few;
  too_few.push_back(std::make_unique<EchoProgram>(1));
  EXPECT_THROW(
      (void)run_synchronous_programs(pg.ports(), std::move(too_few)),
      InvalidArgument);

  std::vector<std::unique_ptr<NodeProgram>> with_null;
  with_null.push_back(std::make_unique<EchoProgram>(1));
  with_null.push_back(nullptr);
  with_null.push_back(std::make_unique<EchoProgram>(1));
  EXPECT_THROW(
      (void)run_synchronous_programs(pg.ports(), std::move(with_null)),
      InvalidArgument);
}

TEST(Message, SilenceConvention) {
  EXPECT_TRUE(kSilence.is_silence());
  EXPECT_FALSE(msg(1).is_silence());
  EXPECT_EQ(msg(3, 1, 2, 3).arg[2], 3);
}

TEST(Transcript, RecordsDeliveredMessages) {
  const auto pg = port::with_canonical_ports(graph::path(2));
  RunOptions options;
  options.collect_messages = true;
  const auto result = run_synchronous(pg.ports(), EchoFactory(2), options);
  // 2 nodes x 1 port x 2 rounds = 4 delivered messages.
  ASSERT_EQ(result.message_log.size(), 4u);
  EXPECT_EQ(result.message_log.front().round, 1u);
  EXPECT_EQ(result.message_log.back().round, 2u);

  const auto text = format_transcript(result);
  EXPECT_NE(text.find("--- round 1 ---"), std::string::npos);
  EXPECT_NE(text.find("--- round 2 ---"), std::string::npos);
  EXPECT_NE(text.find("(0,1) -> (1,1)"), std::string::npos);
  EXPECT_NE(text.find("rounds: 2"), std::string::npos);
}

TEST(Transcript, OffByDefault) {
  const auto pg = port::with_canonical_ports(graph::path(2));
  const auto result = run_synchronous(pg.ports(), EchoFactory(2));
  EXPECT_TRUE(result.message_log.empty());
  EXPECT_FALSE(result.messages_collected);
}

TEST(Transcript, SaysSoWhenCollectionWasOff) {
  // An empty transcript must be distinguishable from "recording was off".
  const auto pg = port::with_canonical_ports(graph::path(2));
  const auto off = run_synchronous(pg.ports(), EchoFactory(2));
  const auto off_text = format_transcript(off);
  EXPECT_NE(off_text.find("without RunOptions::collect_messages"),
            std::string::npos);
  EXPECT_NE(off_text.find("rounds: 2"), std::string::npos);

  RunOptions options;
  options.collect_messages = true;
  const auto on = run_synchronous(pg.ports(), EchoFactory(2), options);
  EXPECT_EQ(format_transcript(on).find("without RunOptions::collect_messages"),
            std::string::npos);
}

TEST(Runner, OverlappingMultiLaneRunsGetPoolsOfTheirOwn) {
  // run_synchronous keeps the pool a multi-lane call released for the next
  // call of that width; callers that overlap must never share it, through
  // either entry point.  ThreadPool::run takes one batch at a time: a
  // shared pool throws InternalError in the second caller.
  auto rng = test::make_rng(0x9001);
  const auto pg = test::random_ported_regular(256, 4, rng);
  const RelayFactory factory(64);  // 64 + 4 rounds, a pool run each
  const auto expected = run_synchronous(pg.ports(), factory);
  RunOptions options;
  options.exec.threads = 2;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int k = 0; k < 10; ++k) {
        std::vector<std::unique_ptr<NodeProgram>> programs;
        for (port::NodeId v = 0; v < pg.ports().num_nodes(); ++v) {
          programs.push_back(factory.create());
        }
        const auto own = run_synchronous_programs(
            pg.ports(), std::move(programs), options, factory.name());
        const auto built = run_synchronous(pg.ports(), factory, options);
        if (!(own == expected) || !(built == expected)) ++mismatches;
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace eds::runtime
