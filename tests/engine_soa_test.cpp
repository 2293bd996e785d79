// The message transport (sender-indexed double-buffered outbox that is
// never reset between runs, degree-balanced shard boundaries) against the
// policy-free seed oracle: bit-identity across lane counts on the degree
// distributions that stress lane balancing hardest, stale outbox bytes
// from an earlier run, byte-level accounting for the pooled buffers, and
// nested runs, which must not share their caller's pooled workspace.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/engine.hpp"
#include "runtime/message.hpp"
#include "runtime/runner.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using test::EchoFactory;
using test::reference_run;

/// Runs `g` under every lane count in `lane_counts` (plus the oracle) and
/// demands bit-identical RunResults.  The worst-case inputs here are
/// degree-skewed: balanced_shard_bounds hands lanes very different node
/// counts, and empty shards are possible — none of which may leak into
/// results.
void expect_lane_counts_match(const port::PortGraph& g,
                              const ProgramFactory& factory,
                              const char* label) {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const auto expected = reference_run(g, factory, options);
  for (const unsigned threads : {1u, 2u, 8u, 16u}) {
    options.exec.threads = threads;
    const auto got = run_synchronous(g, factory, options);
    EXPECT_TRUE(got == expected)
        << label << ": threads=" << threads
        << " diverged from the seed oracle (rounds " << got.stats.rounds
        << " vs " << expected.stats.rounds << ", messages "
        << got.stats.messages_sent << " vs " << expected.stats.messages_sent
        << ", log " << got.message_log.size() << " vs "
        << expected.message_log.size() << ")";
  }
}

TEST(EngineSoa, PowerLawDifferentialAcrossLaneCounts) {
  // Power-law degrees: a few heavy nodes absorb several port-balanced
  // boundary targets, so some shards come out empty and the rest carry
  // wildly uneven node counts.
  auto rng = test::make_rng(0x50A1);
  const auto pg =
      port::with_random_ports(graph::random_power_law(300, 2.1, rng), rng);
  expect_lane_counts_match(pg.ports(), EchoFactory(5), "power-law");
}

TEST(EngineSoa, StarDifferentialAcrossLaneCounts) {
  // The star is the extreme imbalance: the hub holds half of all ports, so
  // every port-balanced split puts it alone in one shard.
  auto rng = test::make_rng(0x57A2);
  const auto pg = port::with_random_ports(graph::star(64), rng);
  expect_lane_counts_match(pg.ports(), EchoFactory(4), "star");
}

TEST(EngineSoa, StarMultigraphDifferentialAcrossLaneCounts) {
  // A star-shaped multigraph built straight from a degree sequence: one
  // hub of degree 96 against 32 leaves of degree 3, wired by a random
  // involution — parallel edges, self-loops and fixed points included, so
  // the sender-segment transport is exercised on every port species.
  auto rng = test::make_rng(0x57A3);
  std::vector<port::Port> degrees(33, 3);
  degrees[0] = 96;
  const auto g = port::random_port_graph(degrees, rng);
  expect_lane_counts_match(g, EchoFactory(6), "star-multigraph");
}

/// Halts in start() on an odd degree; otherwise, for `rounds` rounds,
/// sends on every port how many non-silence messages it has heard so far,
/// and outputs the ports it ever heard from.  One non-silence message read
/// from a node that halted in start() changes both its sends and its
/// output.
class HaltOddProgram final : public NodeProgram {
 public:
  explicit HaltOddProgram(Round rounds) : rounds_(rounds) {}
  void start(port::Port degree) override {
    heard_.assign(degree, false);
    halted_ = degree % 2 == 1;
  }
  void send(Round round, std::span<Message> out) override {
    for (auto& m : out) {
      m = msg(1, static_cast<std::int32_t>(round),
              static_cast<std::int32_t>(heard_count_));
    }
  }
  void receive(Round round, std::span<const Message> in) override {
    for (std::size_t i = 0; i < in.size(); ++i) {
      if (in[i].is_silence()) continue;
      heard_[i] = true;
      ++heard_count_;
    }
    if (round >= rounds_) halted_ = true;
  }
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(OutputSink& out) const override {
    for (std::size_t i = 0; i < heard_.size(); ++i) {
      if (heard_[i]) out.select(static_cast<port::Port>(i + 1));
    }
  }

 private:
  Round rounds_;
  std::vector<bool> heard_;
  std::uint64_t heard_count_ = 0;
  bool halted_ = false;
};

class HaltOddFactory final : public ProgramFactory {
 public:
  explicit HaltOddFactory(Round rounds) : rounds_(rounds) {}
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<HaltOddProgram>(rounds_);
  }
  [[nodiscard]] std::string name() const override { return "halt-odd"; }

 private:
  Round rounds_;
};

TEST(EngineSoa, LazyOutboxResetSilencesNodesThatHaltInStart) {
  // The outboxes are not reset between runs on a lane.  The first run
  // leaves a non-silence message in every slot of both buffers; in the
  // second, the nodes that halt in start() never write their segments, so
  // their partners read silence only because the run silenced those
  // segments up front.  Every run here uses the calling thread's
  // workspace, whatever the lane count.
  auto rng = test::make_rng(0x50A8);
  std::vector<port::Port> degrees;
  for (std::size_t v = 0; v < 60; ++v) {
    degrees.push_back(static_cast<port::Port>(v % 5 + 1));
  }
  const auto g = port::random_port_graph(degrees, rng);
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const HaltOddFactory halt_odd(3);
  const auto expected = reference_run(g, halt_odd, options);
  ASSERT_GT(expected.stats.messages_sent, 0u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    options.exec.threads = threads;
    const auto flood = run_synchronous(g, EchoFactory(3), options);
    ASSERT_EQ(flood.stats.messages_sent, 3 * g.num_ports())
        << "every slot of both buffers must carry a message";
    const auto got = run_synchronous(g, halt_odd, options);
    EXPECT_TRUE(got == expected)
        << "threads=" << threads << ": a node read a stale message from a "
        << "partner that halted in start()";
  }
}

TEST(EngineSoa, LazyOutboxResetSilencesSleepingNodes) {
  // The extended lazy-reset invariant: a node that sleeps through a round
  // must read as silence in both buffers.  The flood leaves a message in
  // every slot; the pulse fixture then sends only every d + 2 rounds and
  // sleeps in between, so a sender's consumed segment that is not
  // silenced reaches a receiver that wakes for another reason, and its
  // checksum (carried in every later message) diverges from the oracle.
  auto rng = test::make_rng(0x50A9);
  std::vector<port::Port> degrees;
  for (std::size_t v = 0; v < 48; ++v) {
    degrees.push_back(static_cast<port::Port>(v % 6));
  }
  const auto g = port::random_port_graph(degrees, rng);
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const test::PulseFactory pulse(45);
  const auto expected = reference_run(g, pulse, options);
  ASSERT_GT(expected.stats.messages_sent, 0u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    options.exec.threads = threads;
    (void)run_synchronous(g, EchoFactory(3), options);
    const auto got = run_synchronous(g, pulse, options);
    EXPECT_TRUE(got == expected)
        << "threads=" << threads << ": a sleeping node's stale segment "
        << "reached a receiver";
  }
}

/// Calendar churn: a node of degree 3 or more sends a counter on every
/// port in every round of the first half of the run; a degree-1 node
/// folds what it hears into a checksum that decides its output and names
/// the halt round as its hint — alternating with the round before it, an
/// early and so correct hint that moves its calendar entry on every
/// dispatch; a degree-2 node never sends and sleeps until the halt round.
class ChurnProgram final : public NodeProgram {
 public:
  explicit ChurnProgram(Round rounds) : rounds_(rounds) {}
  void start(port::Port degree) override { degree_ = degree; }
  void send(Round round, std::span<Message> out) override {
    if (degree_ < 3 || 2 * round > rounds_) return;
    for (auto& m : out) m = msg(3, static_cast<std::int32_t>(round));
  }
  void receive(Round round, std::span<const Message> in) override {
    for (const auto& m : in) {
      if (!m.is_silence()) checksum_ = checksum_ * 31 + m.arg[0];
    }
    if (round >= rounds_) halted_ = true;
  }
  [[nodiscard]] bool halted() const override { return halted_; }
  [[nodiscard]] Round wake_hint(Round round) const override {
    if (degree_ >= 3) return round + 1;
    if (degree_ == 1) return rounds_ - round % 2;
    return rounds_;
  }
  void output(OutputSink& out) const override {
    if (degree_ == 1 && checksum_ % 2 == 1) out.select(1);
  }

 private:
  Round rounds_;
  port::Port degree_ = 0;
  std::uint32_t checksum_ = 0;
  bool halted_ = false;
};

class ChurnFactory final : public ProgramFactory {
 public:
  explicit ChurnFactory(Round rounds) : rounds_(rounds) {}
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<ChurnProgram>(rounds_);
  }
  [[nodiscard]] std::string name() const override { return "churn"; }

 private:
  Round rounds_;
};

TEST(EngineSoa, CalendarDropsStaleEntriesWithoutChangingRuns) {
  // A star's hub mails its 40 leaves every round for half the run, and
  // every leaf moves its calendar entry each time, so the calendar
  // collects far more stale entries than there are nodes and must drop
  // them — but not the live entries of the cycle's nodes, filed once in
  // round 2: only those wake the cycle for its halt.  (The leaves'
  // one-sided output claims keep this off the shared invariant harness.)
  auto rng = test::make_rng(0x50AA);
  const auto pg = port::with_random_ports(
      graph::disjoint_union(graph::star(40), graph::cycle(10)), rng);
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  const ChurnFactory churn(200);
  const auto expected = reference_run(pg.ports(), churn, options);
  for (const unsigned threads : {1u, 2u, 8u}) {
    options.exec.threads = threads;
    const auto got = run_synchronous(pg.ports(), churn, options);
    EXPECT_TRUE(got == expected) << "threads=" << threads;
  }

  // The sparse state stays O(n): on a fresh lane, the churn run's pooled
  // bytes exceed a dense run's on the same graph by at most a calendar of
  // 4 (2n + 65) entries (twice the compaction bound, for growth).  Without
  // the compaction the calendar holds about 4,000 entries here.
  const auto pooled_by = [&](const ProgramFactory& factory) {
    std::uint64_t delta = 0;
    std::thread lane([&] {
      const auto before = engine_alloc_stats().workspace_bytes;
      (void)run_synchronous(pg.ports(), factory);
      delta = engine_alloc_stats().workspace_bytes - before;
    });
    lane.join();
    return delta;
  };
  const std::uint64_t n = pg.ports().num_nodes();
  EXPECT_LE(pooled_by(churn), pooled_by(EchoFactory(200)) +
                                  4 * (2 * n + 65) * sizeof(std::uint64_t));
}

TEST(EngineSoa, BalancedShardBoundsEqualizePortCounts) {
  // Star worklist: hub (64 ports) first, then 64 leaves (1 port each).
  // Port-balanced bounds must give the hub its own shard and split the
  // leaves over the rest; equal-count bounds would put 16 leaves next to
  // the hub and starve the last shard.
  std::vector<std::uint64_t> weights{64};
  weights.insert(weights.end(), 64, 1);
  std::vector<std::size_t> bounds;
  balanced_shard_bounds(
      weights.size(), 4, [&](std::size_t i) { return weights[i]; }, bounds);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[1], 1u) << "the hub alone already fills shard 0's target";
  EXPECT_EQ(bounds[4], weights.size());
  // Every remaining shard's port total stays near 128 / 4 = 32.
  for (std::size_t s = 1; s < 4; ++s) {
    std::uint64_t total = 0;
    for (std::size_t i = bounds[s]; i < bounds[s + 1]; ++i) {
      total += weights[i];
    }
    EXPECT_LE(total, 33u) << "shard " << s;
  }

  // All-zero weights fall back to an equal-count split.
  balanced_shard_bounds(
      8, 4, [](std::size_t) { return std::uint64_t{0}; }, bounds);
  EXPECT_EQ(bounds, (std::vector<std::size_t>{0, 2, 4, 6, 8}));
}

TEST(EngineSoa, WorkspaceReturnsEveryPooledByteOnTeardown) {
  // A lane that ran the double-buffered engine gives back every byte the
  // gauge charged it — outbox pairs and shard scratch included — when the
  // thread exits.
  const auto baseline = engine_alloc_stats().workspace_bytes;
  std::uint64_t charged = 0;
  std::thread lane([&] {
    auto rng = test::make_rng(0x50A6);
    const auto pg = test::random_ported_regular(256, 6, rng);
    RunOptions options;
    for (const unsigned threads : {1u, 8u}) {
      options.exec.threads = threads;
      (void)run_synchronous(pg.ports(), EchoFactory(4), options);
    }
    charged = engine_alloc_stats().workspace_bytes - baseline;
  });
  lane.join();
  EXPECT_GT(charged, 0u) << "the lane's workspace was never accounted";
  EXPECT_EQ(engine_alloc_stats().workspace_bytes, baseline)
      << "a dead lane left pooled transport bytes in the gauge";
}

/// The run every NestingRelay starts from inside receive(), and what it
/// must produce: the same run made at top level.
struct NestedRun {
  const port::PortGraph* graph = nullptr;
  RunResult expected;
  std::atomic<int> runs{0};
  std::atomic<int> mismatches{0};
};

RunOptions traced() {
  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;
  return options;
}

/// A relay whose receive() first runs a whole nested synchronous run on
/// the same thread, then relays the round's inputs.  Had the nested run
/// reused the lane's pooled workspace that the outer run is using, it
/// would have rewritten the outer run's dispatch list, halt flags and
/// outboxes, and its larger graph would have moved them.
class NestingRelay final : public NodeProgram {
 public:
  NestingRelay(Round base, NestedRun& nested)
      : relay_(base), nested_(nested) {}
  void start(port::Port degree) override { relay_.start(degree); }
  void send(Round round, std::span<Message> out) override {
    relay_.send(round, out);
  }
  void receive(Round round, std::span<const Message> in) override {
    const RunResult got =
        run_synchronous(*nested_.graph, test::RelayFactory(2), traced());
    ++nested_.runs;
    if (!(got == nested_.expected)) ++nested_.mismatches;
    relay_.receive(round, in);
  }
  [[nodiscard]] bool halted() const override { return relay_.halted(); }
  void output(OutputSink& out) const override { relay_.output(out); }

 private:
  test::RelayProgram relay_;
  NestedRun& nested_;
};

class NestingRelayFactory final : public ProgramFactory {
 public:
  NestingRelayFactory(Round base, NestedRun& nested)
      : base_(base), nested_(nested) {}
  [[nodiscard]] std::unique_ptr<NodeProgram> create() const override {
    return std::make_unique<NestingRelay>(base_, nested_);
  }
  [[nodiscard]] std::string name() const override { return "nesting-relay"; }

 private:
  Round base_;
  NestedRun& nested_;
};

TEST(EngineWorkspace, NestedRunsGetAPrivateWorkspace) {
  // The nested graph is larger than the outer one in nodes, ports and
  // degree, so a nested run on the outer run's workspace would grow (and
  // reallocate) every buffer the outer run holds pointers into.
  auto rng = test::make_rng(0x1EA5F);
  const auto outer = port::random_port_graph({3, 2, 4, 1, 0, 2}, rng, 0.3);
  const auto inner = test::random_ported_regular(64, 6, rng);
  NestedRun nested;
  nested.graph = &inner.ports();
  nested.expected =
      run_synchronous(inner.ports(), test::RelayFactory(2), traced());
  const NestingRelayFactory nesting(3, nested);
  for (const unsigned threads : test::policy_thread_counts()) {
    RunOptions options = traced();
    options.exec.threads = threads;
    const RunResult plain =
        run_synchronous(outer, test::RelayFactory(3), options);
    EXPECT_TRUE(run_synchronous(outer, nesting, options) == plain)
        << "threads=" << threads;
  }
  EXPECT_GT(nested.runs.load(), 0);
  EXPECT_EQ(nested.mismatches.load(), 0);
}

}  // namespace
}  // namespace eds::runtime
