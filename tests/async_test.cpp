// The asynchronous engine's differential oracle and fault-model suite.
//
// Core guarantee under test: with the α-synchronizer, AsyncPolicy produces
// bit-identical results to the synchronous engine — outputs, stats, trace,
// and (delivery-order-normalized) message log — for *every* delay matrix,
// on the paper fixtures, the relay adversarial multigraph, and ≥1000
// randomized multigraph × delay-matrix seeds across every algorithm behind
// algo::algorithm_token.  Secondary guarantees: same seed ⇒ byte-identical
// transcript and fault log regardless of batch thread count; duplicated
// delivery is idempotent; crashed-node runs still verify on the surviving
// subgraph; inconsistent option combinations are rejected up front.
//
// Deterministic by default (test_util.hpp master seed); EDS_FUZZ_SEED
// explores new streams, EDS_ASYNC_FUZZ_RUNS scales the fuzz count (nightly
// CI runs 10k), and EDS_FUZZ_ARTIFACT_DIR collects failing seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "algo/driver.hpp"
#include "analysis/verify.hpp"
#include "graph/edge_set.hpp"
#include "graph/simple_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/batch.hpp"
#include "runtime/outputs.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/runner.hpp"
#include "runtime/sched.hpp"
#include "util/rng.hpp"
#include "invariants.hpp"
#include "test_util.hpp"

namespace eds::runtime {
namespace {

using algo::Algorithm;
using port::Port;
using port::PortGraph;
using port::PortGraphBuilder;
using test::EchoFactory;
using test::RelayFactory;

/// Delay matrices the fixture oracles sweep: degenerate (collapses to the
/// synchronous schedule), skewed-fixed, high-variance uniform, heavy-tailed
/// geometric.
std::vector<DelayModel> oracle_delays() {
  return {
      {DelayKind::kFixed, 1, 1},
      {DelayKind::kFixed, 5, 5},
      {DelayKind::kUniform, 1, 9},
      {DelayKind::kGeometric, 3, 24},
  };
}

/// The handcrafted involution-zoo multigraph of the engine suite: an
/// undirected self-loop, directed self-loops (fixed points), parallel
/// edges, a degree-0 node, and edges between nodes of different degrees.
PortGraph loops_and_stagger_graph() {
  PortGraphBuilder b(std::vector<Port>{3, 2, 4, 1, 0, 2});
  b.connect({0, 1}, {0, 2});
  b.fix({0, 3});
  b.connect({1, 1}, {2, 1});
  b.connect({1, 2}, {2, 2});
  b.connect({2, 3}, {3, 1});
  b.fix({2, 4});
  b.connect({5, 1}, {5, 2});
  return b.build();
}

void sort_by_sender(std::vector<DeliveredMessage>& log) {
  std::sort(log.begin(), log.end(),
            [](const DeliveredMessage& x, const DeliveredMessage& y) {
              return std::tie(x.round, x.from.node, x.from.port) <
                     std::tie(y.round, y.from.node, y.from.port);
            });
}

/// The differential oracle: one synchronous run against one α-synchronized
/// asynchronous run under `async`.  The synchronous message log arrives in
/// (round, sender) order already; the async one arrives in delivery order
/// and is normalized to the same key (unique per message, so the
/// comparison is still exact).  Returns success for use in fuzz loops;
/// emits EXPECT failures either way.
[[nodiscard]] bool expect_async_matches_sync(const PortGraph& g,
                                             const ProgramFactory& factory,
                                             const AsyncOptions& async,
                                             const std::string& context,
                                             Round max_rounds = 100000) {
  RunOptions options;
  options.max_rounds = max_rounds;
  options.collect_trace = true;
  options.collect_messages = true;

  bool sync_threw = false;
  RunResult sync;
  try {
    sync = run_synchronous(g, factory, options);
  } catch (const ExecutionError&) {
    sync_threw = true;
  }
  if (sync_threw) {
    // Parity on the failure path too: an algorithm the round engine
    // rejects (round-limit, bad output) must be rejected asynchronously.
    bool async_threw = false;
    try {
      (void)run_asynchronous(g, factory, options, async);
    } catch (const ExecutionError&) {
      async_threw = true;
    }
    EXPECT_TRUE(async_threw)
        << context << ": the synchronous engine threw but the async one ran";
    return async_threw;
  }

  const AsyncResult a = run_asynchronous(g, factory, options, async);
  auto log = a.run.message_log;
  sort_by_sender(log);

  const bool ok = a.run.selected == sync.selected && a.run.stats == sync.stats &&
                  a.run.trace == sync.trace && log == sync.message_log &&
                  a.fault_log.empty();
  EXPECT_TRUE(ok) << context << ": async run diverged from the synchronous "
                  << "engine (rounds " << a.run.stats.rounds << " vs "
                  << sync.stats.rounds << ", messages "
                  << a.run.stats.messages_sent << " vs "
                  << sync.stats.messages_sent << ")";
  // Fault-free synchronized runs must also satisfy endpoint consistency
  // (the shared harness; vacuous for outputs-free programs like echo).
  test::check_eds_invariants(g, a.run, context);
  return ok;
}

TEST(AsyncOracle, PaperFixturesAllAlgorithms) {
  const auto h = test::figure2_graph_h();
  const auto m = test::figure2_multigraph_m();
  struct Case {
    const PortGraph* g;
    Algorithm alg;
    Port param;
    const char* label;
  };
  const PortGraph hp = h.ports();
  const std::vector<Case> cases = {
      {&hp, Algorithm::kAllEdges, 0, "H/all-edges"},
      {&hp, Algorithm::kPortOne, 0, "H/port-one"},
      {&hp, Algorithm::kBoundedDegree, 3, "H/bounded-degree"},
      {&hp, Algorithm::kDoubleCover, 3, "H/double-cover"},
      {&m, Algorithm::kAllEdges, 0, "M/all-edges"},
      {&m, Algorithm::kPortOne, 0, "M/port-one"},
      {&m, Algorithm::kBoundedDegree, 4, "M/bounded-degree"},
      {&m, Algorithm::kDoubleCover, 4, "M/double-cover"},
  };
  for (const auto& c : cases) {
    const auto factory = algo::make_factory(c.alg, c.param);
    for (const auto& delay : oracle_delays()) {
      for (const std::uint64_t seed : {1ULL, 99ULL}) {
        AsyncOptions async;
        async.delay = delay;
        async.seed = seed;
        (void)expect_async_matches_sync(
            *c.g, *factory, async,
            std::string(c.label) + " delay=" + format_delay_model(delay));
      }
    }
  }
}

TEST(AsyncOracle, RelayAdversarialMultigraph) {
  const auto g = loops_and_stagger_graph();
  for (const Round base : {1u, 2u, 5u}) {
    for (const auto& delay : oracle_delays()) {
      AsyncOptions async;
      async.delay = delay;
      async.seed = 7 * base;
      (void)expect_async_matches_sync(
          g, RelayFactory(base), async,
          "relay base=" + std::to_string(base) +
              " delay=" + format_delay_model(delay));
    }
  }
  // Echo with staggered durations: nodes outlive each other under delays.
  for (const Round rounds : {1u, 3u, 9u}) {
    AsyncOptions async;
    async.delay = {DelayKind::kUniform, 1, 7};
    async.seed = rounds;
    (void)expect_async_matches_sync(g, EchoFactory(rounds), async,
                                    "echo rounds=" + std::to_string(rounds));
  }
}

std::vector<Port> random_degrees(Rng& rng, std::size_t n, Port max_degree) {
  std::vector<Port> degrees(n);
  for (auto& d : degrees) {
    d = static_cast<Port>(rng.below(max_degree + 1));
  }
  return degrees;
}

DelayModel random_delay_model(Rng& rng) {
  switch (rng.below(3)) {
    case 0: {
      const std::uint64_t t = 1 + rng.below(5);
      return {DelayKind::kFixed, t, t};
    }
    case 1: {
      const std::uint64_t lo = 1 + rng.below(3);
      return {DelayKind::kUniform, lo, lo + rng.below(9)};
    }
    default: {
      const std::uint64_t mean = 2 + rng.below(4);
      return {DelayKind::kGeometric, mean, 8 * mean};
    }
  }
}

/// One fuzz case, a pure function of its run seed: instance, algorithm,
/// parameter, and async options all derive from Rng(run_seed), so a seed
/// recorded in a failure artifact reconstructs the *exact* case later —
/// the property the round-trip test below locks down.
struct FuzzCase {
  PortGraph graph;
  Algorithm alg;
  Port param;
  AsyncOptions async;
};

FuzzCase make_fuzz_case(std::uint64_t run_seed) {
  static const std::vector<Algorithm> algorithms = {
      Algorithm::kAllEdges, Algorithm::kPortOne, Algorithm::kOddRegular,
      Algorithm::kBoundedDegree, Algorithm::kDoubleCover};
  Rng local(run_seed);
  const Algorithm alg =
      algorithms[local.below(static_cast<std::uint64_t>(algorithms.size()))];

  std::vector<Port> degrees;
  Port param = 0;
  if (alg == Algorithm::kOddRegular) {
    const Port d = local.below(2) == 0 ? 1 : 3;
    degrees.assign(2 + local.below(10), d);
    param = d;
  } else {
    degrees = random_degrees(local, 2 + local.below(12), 4);
    if (alg == Algorithm::kBoundedDegree || alg == Algorithm::kDoubleCover) {
      param =
          std::max<Port>(1, *std::max_element(degrees.begin(), degrees.end()));
    }
  }
  auto g = port::random_port_graph(degrees, local, 0.15);

  AsyncOptions async;
  async.seed = local.next_u64();
  async.delay = random_delay_model(local);
  return {std::move(g), alg, param, async};
}

/// $EDS_FUZZ_ARTIFACT_DIR/async_failing_seeds.txt, one decimal seed per
/// line — the fuzz loop's failure artifact, uploaded by CI.
std::string artifact_file(const std::string& dir) {
  return dir + "/async_failing_seeds.txt";
}

void append_failing_seeds(const std::vector<std::uint64_t>& failing) {
  if (failing.empty()) return;
  if (const char* dir = std::getenv("EDS_FUZZ_ARTIFACT_DIR")) {
    std::ofstream out(artifact_file(dir), std::ios::app);
    for (const auto seed : failing) out << seed << '\n';
  }
}

std::vector<std::uint64_t> load_failing_seeds(const std::string& path) {
  std::vector<std::uint64_t> seeds;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    seeds.push_back(std::strtoull(line.c_str(), nullptr, 0));
  }
  return seeds;
}

/// ≥1000 seeded runs (EDS_ASYNC_FUZZ_RUNS overrides; the nightly CI job
/// raises it to 10000) of random multigraphs × random delay matrices,
/// drawing uniformly from every algorithm behind algo::algorithm_token.
/// Odd-regular draws a d-regular instance (d odd), the rest arbitrary
/// multigraphs with loops and parallel edges.  Failing run seeds are
/// appended to $EDS_FUZZ_ARTIFACT_DIR/async_failing_seeds.txt so CI can
/// upload them.
TEST(AsyncOracle, FuzzRandomMultigraphsRandomDelays) {
  std::size_t runs = 1000;
  if (const char* env = std::getenv("EDS_ASYNC_FUZZ_RUNS")) {
    runs = static_cast<std::size_t>(std::strtoull(env, nullptr, 0));
  }
  auto rng = test::make_rng(0xA51FC);
  std::vector<std::uint64_t> failing;
  for (std::size_t it = 0; it < runs; ++it) {
    const std::uint64_t run_seed = rng.next_u64();
    const auto c = make_fuzz_case(run_seed);
    const auto factory = algo::make_factory(c.alg, c.param);
    const bool ok = expect_async_matches_sync(
        c.graph, *factory, c.async,
        "fuzz it=" + std::to_string(it) +
            " alg=" + algo::algorithm_token(c.alg) +
            " seed=" + std::to_string(run_seed),
        /*max_rounds=*/1000);
    if (!ok) failing.push_back(run_seed);
  }
  append_failing_seeds(failing);
}

TEST(AsyncArtifacts, FailingSeedRoundTripReproducesTranscript) {
  // The artifact contract end to end: record a seed the way the fuzz loop
  // would, reload it from the file, rebuild the case, and verify the rerun
  // reproduces the originally recorded transcript and fault log
  // byte-for-byte.  A seed is only a faithful artifact because make_fuzz_case
  // derives *everything* (graph, algorithm, delays) from it.
  RunOptions options;
  options.max_rounds = 1000;
  options.collect_trace = true;
  options.collect_messages = true;

  // Deterministically pick a seed whose case runs to completion (sync
  // parity means a throwing case throws on both engines; skip those).
  std::uint64_t seed = 0;
  AsyncResult recorded;
  bool have = false;
  for (std::uint64_t candidate = 0xA57EFAC7; !have; ++candidate) {
    const auto c = make_fuzz_case(candidate);
    const auto factory = algo::make_factory(c.alg, c.param);
    try {
      recorded = run_asynchronous(c.graph, *factory, options, c.async);
      seed = candidate;
      have = true;
    } catch (const Error&) {
    }
  }

  const std::string dir = ::testing::TempDir();
  const std::string path = artifact_file(dir);
  std::remove(path.c_str());
  const char* old_dir = std::getenv("EDS_FUZZ_ARTIFACT_DIR");
  const std::string saved = old_dir != nullptr ? old_dir : "";
  ::setenv("EDS_FUZZ_ARTIFACT_DIR", dir.c_str(), /*overwrite=*/1);
  append_failing_seeds({seed});
  if (old_dir != nullptr) {
    ::setenv("EDS_FUZZ_ARTIFACT_DIR", saved.c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("EDS_FUZZ_ARTIFACT_DIR");
  }

  const auto seeds = load_failing_seeds(path);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0], seed);

  const auto c = make_fuzz_case(seeds[0]);
  const auto factory = algo::make_factory(c.alg, c.param);
  const auto replayed = run_asynchronous(c.graph, *factory, options, c.async);
  EXPECT_EQ(format_transcript(replayed.run), format_transcript(recorded.run));
  EXPECT_EQ(format_fault_log(replayed.fault_log),
            format_fault_log(recorded.fault_log));
  EXPECT_EQ(replayed, recorded);
  std::remove(path.c_str());
}

TEST(AsyncDeterminism, SameSeedSameTranscriptAndFaultLog) {
  // A fixed Rng (not make_rng) so the crashed-node assertions below stay
  // valid under any EDS_FUZZ_SEED.
  Rng rng(0xDE7E121);
  const auto pg = test::random_ported_bounded(24, 4, 40, rng);

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kUniform, 1, 6};
  async.seed = 0xC0FFEE;
  async.round_timeout = 8;
  async.faults.loss = 0.1;
  async.faults.duplicate = 0.05;
  async.faults.crashes = {{3, 5}, {11, 9}};

  RunOptions options;
  options.collect_trace = true;
  options.collect_messages = true;

  // Relay tolerates arbitrary fault-induced silence (it just forwards);
  // the paper's protocol algorithms would detect the violation and throw.
  const test::RelayFactory factory(3);
  const AsyncResult a = run_asynchronous(pg.ports(), factory, options, async);
  const AsyncResult b = run_asynchronous(pg.ports(), factory, options, async);
  EXPECT_EQ(a, b);  // full value equality: outputs, stats, fault log, ...
  EXPECT_EQ(format_transcript(a.run), format_transcript(b.run));
  EXPECT_EQ(format_fault_log(a.fault_log), format_fault_log(b.fault_log));
  EXPECT_FALSE(a.fault_log.empty());
  EXPECT_EQ(a.crashed[3], 1);
  EXPECT_EQ(a.crashed[11], 1);
}

TEST(AsyncDeterminism, ByteIdenticalAcrossBatchThreadCounts) {
  // The event loop is sequential; ExecOptions::threads parallelizes only
  // across jobs.  A faulty async batch must therefore be byte-identical
  // between --threads 1 and --threads 8.
  auto rng = test::make_rng(0xBA7C);
  std::vector<port::PortGraph> graphs;
  for (int i = 0; i < 6; ++i) {
    graphs.push_back(
        port::random_port_graph(random_degrees(rng, 14, 4), rng, 0.1));
  }
  const EchoFactory factory(4);

  std::vector<BatchJob> jobs;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    BatchJob job;
    job.graph = &graphs[i];
    job.factory = &factory;
    job.options.collect_messages = true;
    AsyncOptions async;
    async.synchronizer = false;
    async.delay = {DelayKind::kUniform, 1, 5};
    async.seed = 1000 + i;
    async.faults.loss = 0.05;
    async.faults.duplicate = 0.02;
    job.options.exec.async = async;
    jobs.push_back(std::move(job));
  }

  const auto one = BatchRunner(1).run(jobs);
  const auto eight = BatchRunner(8).run(jobs);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i], eight[i]) << "job " << i;
    EXPECT_EQ(format_transcript(one[i]), format_transcript(eight[i]));
  }
}

// --- Pinned event order ------------------------------------------------------
//
// The α-synchronizer oracle cannot see same-tick event order (its outputs are
// schedule-independent by design), and the determinism tests above compare a
// run only with itself, so a timeline that popped ties in a different order
// would pass both.  The digests below pin that order: thousands of runs
// across graphs, programs, faults and schedules hash to one value each, and
// any reordering of a tie changes a transcript, a fault log or a counter.
// Seeds are constants, not make_rng, so EDS_FUZZ_SEED leaves them alone.  A
// deliberate change to the event semantics re-pins the values; a rewrite of
// the timeline's data structures must not move them.

/// Order-sensitive 64-bit digest (splitmix64 chaining: portable across
/// compilers and standard libraries, unlike std::hash).
class Digest {
 public:
  void add(std::uint64_t x) noexcept {
    std::uint64_t s = state_ ^ x;
    state_ = splitmix64(s);
  }
  void add(const std::string& text) noexcept {
    std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a over the bytes
    for (const char c : text) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
    }
    add(text.size());
    add(h);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0;
};

void add_message(Digest& d, const Message& m) {
  d.add(static_cast<std::uint32_t>(m.tag));
  for (const std::int32_t a : m.arg) d.add(static_cast<std::uint32_t>(a));
}

/// Everything an async run reports, in the order the engine produced it:
/// the message log is digested unsorted, so delivery order counts.
void add_result(Digest& d, const PortGraph& g, const AsyncResult& a) {
  const RunResult& r = a.run;
  d.add(r.message_log.size());
  for (const DeliveredMessage& m : r.message_log) {
    d.add(m.round);
    d.add(m.from.node);
    d.add(m.from.port);
    d.add(m.to.node);
    d.add(m.to.port);
    add_message(d, m.payload);
  }
  d.add(format_transcript(r));
  d.add(r.stats.rounds);
  d.add(r.stats.messages_sent);
  d.add(r.stats.ports_served);
  for (const RoundTrace& t : r.trace) {
    d.add(t.round);
    d.add(t.messages);
    d.add(t.halted_nodes);
  }
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto ports = selected_ports(g, r, v);
    d.add(ports.size());
    for (const Port p : ports) d.add(p);
  }
  d.add(a.fault_log.size());
  for (const FaultEvent& f : a.fault_log) {
    d.add(f.time);
    d.add(static_cast<std::uint64_t>(f.kind));
    d.add(f.node);
    d.add(f.port);
    d.add(f.round);
  }
  const AsyncStats& s = a.async;
  for (const std::uint64_t x : {s.virtual_time, s.delivered, s.acks, s.lost,
                                s.duplicated, s.stale, s.timeouts, s.events}) {
    d.add(x);
  }
  for (const std::uint8_t c : a.crashed) d.add(c);
}

/// The full configuration, through the replay codec's canonical text.
void add_options(Digest& d, const AsyncOptions& options) {
  ReplayFile file;
  file.algorithm = "digest";
  file.options = options;
  d.add(encode_replay(file));
}

/// One run's result, or the type of the error it threw.
void add_run(Digest& d, const PortGraph& g, const ProgramFactory& factory,
             const RunOptions& options, const AsyncOptions& async) {
  try {
    add_result(d, g, run_asynchronous(g, factory, options, async));
  } catch (const InvalidArgument&) {
    d.add(0xE1);
  } catch (const ExecutionError&) {
    d.add(0xE2);
  } catch (const Error&) {
    d.add(0xE3);
  }
}

/// A tick count in [1, hi], log-uniform-ish: small values (where ties are
/// dense) as often as values near `hi`.
std::uint64_t spread_ticks(Rng& rng, std::uint64_t hi) {
  const auto bits = static_cast<std::uint64_t>(std::bit_width(hi));
  const std::uint64_t cap = std::uint64_t{1} << rng.below(bits + 1);
  return 1 + rng.below(std::min(hi, cap));
}

struct GoldenCase {
  PortGraph graph;
  std::unique_ptr<ProgramFactory> factory;
  AsyncOptions async;
};

/// One golden case drawn from `rng`: a random multigraph (loops, parallel
/// edges, fixed points), a program (relay, echo or a paper algorithm), a
/// delay model, and — free-running only — faults and a timeout, plus an
/// optional schedule on either mode.
GoldenCase golden_case(Rng& rng, bool synchronizer) {
  static const std::vector<Algorithm> algorithms = {
      Algorithm::kAllEdges, Algorithm::kPortOne, Algorithm::kBoundedDegree,
      Algorithm::kDoubleCover, Algorithm::kOddRegular};
  const std::uint64_t program = rng.below(2 + algorithms.size());
  const std::size_t n = 2 + rng.below(11);
  std::vector<Port> degrees;
  std::unique_ptr<ProgramFactory> factory;
  if (program == 0) {
    degrees = random_degrees(rng, n, 4);
    factory = std::make_unique<RelayFactory>(1 + rng.below(4));
  } else if (program == 1) {
    degrees = random_degrees(rng, n, 4);
    factory = std::make_unique<EchoFactory>(1 + rng.below(6));
  } else {
    const Algorithm alg = algorithms[program - 2];
    Port param = 0;
    if (alg == Algorithm::kOddRegular) {
      param = rng.below(2) == 0 ? 1 : 3;
      degrees.assign(n, param);
    } else {
      degrees = random_degrees(rng, n, 4);
      if (alg == Algorithm::kBoundedDegree || alg == Algorithm::kDoubleCover) {
        param = std::max<Port>(
            1, *std::max_element(degrees.begin(), degrees.end()));
      }
    }
    factory = algo::make_factory(alg, param);
  }
  auto g = port::random_port_graph(degrees, rng, 0.15);

  AsyncOptions async;
  async.synchronizer = synchronizer;
  async.seed = rng.next_u64();
  switch (rng.below(4)) {
    case 0:
      async.delay = {DelayKind::kFixed, 1, 1};
      break;
    case 1: {
      const std::uint64_t t = 1 + rng.below(5);
      async.delay = {DelayKind::kFixed, t, t};
      break;
    }
    case 2: {
      const std::uint64_t lo = 1 + rng.below(3);
      async.delay = {DelayKind::kUniform, lo, lo + rng.below(9)};
      break;
    }
    default: {
      const std::uint64_t mean = 2 + rng.below(4);
      async.delay = {DelayKind::kGeometric, mean, 8 * mean};
      break;
    }
  }
  if (!synchronizer) {
    static const double kLoss[] = {0.0, 0.0, 0.05, 0.3};
    static const double kDup[] = {0.0, 0.0, 0.1, 1.0};
    async.faults.loss = kLoss[rng.below(4)];
    async.faults.duplicate = kDup[rng.below(4)];
    for (std::uint64_t k = rng.below(3); k > 0; --k) {
      const auto node = static_cast<port::NodeId>(rng.below(n));
      async.faults.crashes.push_back({node, spread_ticks(rng, 1000000)});
    }
    async.round_timeout = rng.below(3) == 0 ? 0 : spread_ticks(rng, 5000);
  }
  Schedule& s = async.schedule;
  if (rng.below(2) == 0) {
    s.prio_seed = rng.next_u64() | 1;
    s.demote_ticks = rng.below(4) == 0 ? 0 : spread_ticks(rng, 100000);
    for (std::uint64_t k = rng.below(5); k > 0; --k) {
      s.change_points.push_back(1 + rng.below(300));
    }
  }
  if (g.num_ports() > 0 && rng.below(3) == 0) {
    for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
      s.delay_overrides.push_back(
          {static_cast<std::uint32_t>(rng.below(g.num_ports())),
           spread_ticks(rng, 5000000)});
    }
  }
  return {std::move(g), std::move(factory), std::move(async)};
}

std::string hex(std::uint64_t x) {
  std::ostringstream os;
  os << "0x" << std::hex << std::uppercase << x;
  return os.str();
}

TEST(AsyncGolden, FreeRunningEventOrderIsPinned) {
  RunOptions options;
  options.max_rounds = 500;
  options.collect_trace = true;
  options.collect_messages = true;
  Rng rng(0x601DE4);
  Digest d;
  for (int i = 0; i < 3000; ++i) {
    const GoldenCase c = golden_case(rng, /*synchronizer=*/false);
    add_options(d, c.async);
    add_run(d, c.graph, *c.factory, options, c.async);
  }
  EXPECT_EQ(hex(d.value()), "0x2D0F68294C05C212");
}

TEST(AsyncGolden, SynchronizedEventOrderIsPinned) {
  // The oracle normalizes the message log and ignores AsyncStats; under a
  // schedule both still depend on the tie order, so they are pinned here.
  RunOptions options;
  options.max_rounds = 500;
  options.collect_trace = true;
  options.collect_messages = true;
  Rng rng(0x601DE5);
  Digest d;
  for (int i = 0; i < 500; ++i) {
    const GoldenCase c = golden_case(rng, /*synchronizer=*/true);
    add_options(d, c.async);
    add_run(d, c.graph, *c.factory, options, c.async);
  }
  EXPECT_EQ(hex(d.value()), "0x3A7B53A2C5A51240");
}

TEST(AsyncGolden, AdversarySearchesAndShrinksArePinned) {
  // One search per strategy plus the shrink of its headline witness, on the
  // BENCHMARKS.md attack fixture and on a lossy variant of it.
  Rng rng(0xADF1C7ULL);
  const auto g = port::random_port_graph(std::vector<Port>(8, 3), rng, 0.1);
  const auto factory = algo::make_factory(Algorithm::kPortOne);
  AsyncOptions base;
  base.synchronizer = false;
  base.delay = {DelayKind::kFixed, 1, 1};
  base.round_timeout = 2;
  base.seed = 99;
  AsyncOptions lossy = base;
  lossy.delay = {DelayKind::kUniform, 1, 4};
  lossy.faults.loss = 0.1;
  lossy.round_timeout = 0;
  Digest d;
  for (const AsyncOptions& env : {base, lossy}) {
    for (const auto strategy :
         {AdversaryStrategy::kRandom, AdversaryStrategy::kPct,
          AdversaryStrategy::kDelay, AdversaryStrategy::kClimb}) {
      const auto report =
          adversary_search(g, *factory, strategy, env, 128, 0xD1CE);
      d.add(report.evaluated);
      d.add(report.failures);
      for (const ScheduleWitness* w :
           {&report.worst_rounds, &report.worst_time, &report.worst_selected,
            &report.worst_inconsistent}) {
        add_options(d, w->options);
        add_result(d, g, w->result);
      }
      const auto shrunk = shrink_witness(g, *factory, report.primary(),
                                         report.primary_metric());
      add_options(d, shrunk.options);
      add_result(d, g, shrunk.result);
    }
  }
  EXPECT_EQ(hex(d.value()), "0x1DB0F0C3DD64D2C7");
}

// --- Workspace lease ---------------------------------------------------------

/// The run every NestingRelay starts from inside receive(), and what it
/// must produce: the same run made at top level.
struct NestedRun {
  const PortGraph* graph = nullptr;
  AsyncOptions async;
  AsyncResult expected;
  std::atomic<int> runs{0};
  std::atomic<int> mismatches{0};
};

/// A relay whose receive() first runs a whole nested async simulation on
/// the same thread, then relays the round's inputs.  Had the nested run
/// reused the outer run's pooled workspace, the input span receive() holds
/// would point into overwritten (or freed) slots by the time it is relayed.
class NestingRelay final : public NodeProgram {
 public:
  NestingRelay(Round base, NestedRun& nested)
      : relay_(base), nested_(nested) {}
  void start(Port degree) override { relay_.start(degree); }
  void send(Round round, std::span<Message> out) override {
    relay_.send(round, out);
  }
  void receive(Round round, std::span<const Message> in) override {
    RunOptions options;
    options.collect_messages = true;
    const AsyncResult got = run_asynchronous(*nested_.graph, RelayFactory(2),
                                             options, nested_.async);
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

TEST(AsyncWorkspace, NestedRunsGetAPrivateWorkspace) {
  Rng rng(0x1EA5E);
  const auto inner = port::random_port_graph(random_degrees(rng, 8, 4), rng);
  NestedRun nested;
  nested.graph = &inner;
  nested.async.synchronizer = false;
  nested.async.delay = {DelayKind::kUniform, 1, 5};
  nested.async.seed = 17;
  nested.async.faults.loss = 0.1;
  nested.async.faults.duplicate = 0.1;
  nested.async.faults.crashes = {{2, 6}};
  RunOptions options;
  options.collect_messages = true;
  nested.expected =
      run_asynchronous(inner, RelayFactory(2), options, nested.async);

  const auto outer = loops_and_stagger_graph();
  AsyncOptions outer_async;
  outer_async.delay = {DelayKind::kUniform, 1, 7};
  outer_async.seed = 5;
  const RunResult plain =
      run_asynchronous(outer, RelayFactory(3), options, outer_async).run;
  const NestingRelayFactory nesting(3, nested);
  EXPECT_EQ(run_asynchronous(outer, nesting, options, outer_async).run, plain);

  // One outer run per batch job, so every lane's pooled workspace is busy
  // with an outer run while that lane's nested runs execute.
  std::vector<BatchJob> jobs(16);
  for (auto& job : jobs) {
    job.graph = &outer;
    job.factory = &nesting;
    job.options = options;
    job.options.exec.async = outer_async;
  }
  for (const unsigned threads : test::policy_thread_counts()) {
    const auto results = BatchRunner(threads).run(jobs);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], plain) << "threads=" << threads << " job " << i;
    }
  }
  EXPECT_GT(nested.runs.load(), 0);
  EXPECT_EQ(nested.mismatches.load(), 0);
}

TEST(AsyncFaults, CrashedRunsVerifyOnSurvivingSubgraph) {
  // Fixed Rng: the per-node crash assertions are about this exact
  // deterministic scenario, so the instance must not follow EDS_FUZZ_SEED.
  Rng rng(0xC4A5F1E1);
  const auto pg = test::random_ported_bounded(20, 4, 30, rng);
  const auto& sg = pg.graph();
  const std::size_t n = sg.num_nodes();

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kFixed, 2, 2};
  async.seed = 0x5EED;
  // kPortOne runs exactly one communication round (its receive fires at
  // virtual time 2), so the victims crash at time 1 to be caught still
  // running.  Their round-1 messages are already in flight at that point
  // and still deliver; deliveries *to* them are dropped, so they never
  // halt and announce nothing.
  async.faults.crashes = {{0, 1}, {1, 1}, {7, 1}};

  const auto factory = algo::make_factory(Algorithm::kPortOne);
  const AsyncResult a = run_asynchronous(pg.ports(), *factory, {}, async);

  // Every time-1 victim died running (empty output), nobody else crashed.
  std::vector<char> alive(n, 1);
  for (const auto& c : async.faults.crashes) alive[c.node] = 0;
  for (std::size_t v = 0; v < n; ++v) {
    EXPECT_EQ(a.crashed[v] != 0, alive[v] == 0) << "node " << v;
    if (!alive[v]) {
      EXPECT_TRUE(selected_ports(pg.ports(), a.run, v).empty())
          << "node " << v;
    }
  }

  // Selected edges: claimed consistently from both (surviving) sides.
  const auto claims = [&](port::NodeId v, Port p) {
    return a.run.selected[pg.ports().offset(v) + p - 1] != 0;
  };
  graph::EdgeSet selected(sg.num_edges());
  for (port::NodeId v = 0; v < n; ++v) {
    if (!alive[v]) continue;
    for (const Port i : selected_ports(pg.ports(), a.run, v)) {
      const auto there = pg.ports().partner(v, i);
      if (alive[there.node] && claims(there.node, there.port)) {
        selected.insert(pg.edge_at(v, i));
      }
    }
  }

  // The surviving subgraph: same nodes, only edges between survivors.
  std::vector<graph::Edge> kept;
  std::vector<graph::EdgeId> kept_ids;
  for (graph::EdgeId e = 0; e < sg.num_edges(); ++e) {
    const auto& ed = sg.edge(e);
    if (alive[ed.u] && alive[ed.v]) {
      kept.push_back(ed);
      kept_ids.push_back(e);
    }
  }
  const auto sub = graph::SimpleGraph::from_edges(n, kept);
  graph::EdgeSet sub_selected(sub.num_edges());
  for (std::size_t idx = 0; idx < kept_ids.size(); ++idx) {
    if (selected.contains(kept_ids[idx])) {
      sub_selected.insert(static_cast<graph::EdgeId>(idx));
    }
  }
  // A fixed-seed regression, not a theorem: port-one's guarantee is for
  // fault-free runs, but on this deterministic scenario the survivors'
  // selection still dominates the surviving subgraph.
  EXPECT_TRUE(analysis::is_edge_dominating_set(sub, sub_selected));
}

TEST(AsyncFaults, ProtocolAlgorithmsDetectFaultInducedSilence) {
  // The paper's handshake protocols assume lock-step delivery; a crashed
  // neighbour feeds them silence where a structured message is expected.
  // They must fail loudly (their internal invariant checks fire) rather
  // than emit a garbage selection.
  Rng rng(0xC4A5F1E1);
  const auto pg = test::random_ported_bounded(20, 4, 30, rng);

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kFixed, 2, 2};
  async.seed = 0x5EED;
  async.round_timeout = 6;
  async.faults.crashes = {{1, 9}, {7, 17}, {13, 3}};

  const auto factory = algo::make_factory(Algorithm::kBoundedDegree, 4);
  EXPECT_THROW((void)run_asynchronous(pg.ports(), *factory, {}, async),
               Error);
}

TEST(AsyncFaults, DuplicatedDeliveryIsIdempotent) {
  // duplicate = 1.0 doubles every transmission; suppression must keep the
  // execution identical to the synchronous run (no loss, no crashes).
  // Fixed Rng: duplicated > 0 needs an instance with real traffic.
  Rng rng(0xD0B71E);
  std::vector<Port> degrees = random_degrees(rng, 12, 4);
  degrees[0] = std::max<Port>(degrees[0], 1);
  const auto g = port::random_port_graph(degrees, rng);

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kUniform, 1, 4};
  async.seed = 77;
  async.faults.duplicate = 1.0;

  const EchoFactory factory(5);
  const RunResult sync = run_synchronous(g, factory, {});
  const AsyncResult a = run_asynchronous(g, factory, {}, async);
  EXPECT_EQ(a.run.selected, sync.selected);
  EXPECT_EQ(a.run.stats, sync.stats);
  EXPECT_GT(a.async.duplicated, 0u);
  EXPECT_GT(a.async.stale, 0u);  // every duplicate was suppressed
}

TEST(AsyncFaults, LossIsInjectedAndLogged) {
  // Fixed Rng: lost > 0 is a property of this exact seeded scenario.
  Rng rng(0x1055E5);
  std::vector<Port> degrees = random_degrees(rng, 10, 3);
  degrees[0] = std::max<Port>(degrees[0], 1);
  const auto g = port::random_port_graph(degrees, rng);

  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kFixed, 1, 1};
  async.seed = 5;
  async.faults.loss = 0.5;
  async.round_timeout = 4;

  const AsyncResult a = run_asynchronous(g, EchoFactory(6), {}, async);
  EXPECT_GT(a.async.lost, 0u);
  EXPECT_GT(a.async.timeouts, 0u);
  std::size_t logged_losses = 0;
  for (const auto& e : a.fault_log) {
    logged_losses += e.kind == FaultKind::kLoss;
  }
  EXPECT_EQ(logged_losses, a.async.lost);
}

TEST(AsyncValidation, OptionCombinationsAreRejected) {
  const auto g = test::figure2_multigraph_m();
  const EchoFactory factory(2);

  AsyncOptions lossy;
  lossy.faults.loss = 0.1;  // synchronizer (default on) + loss
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, lossy),
               InvalidArgument);

  AsyncOptions crashy;
  crashy.faults.crashes = {{0, 5}};
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, crashy),
               InvalidArgument);

  AsyncOptions out_of_range;
  out_of_range.synchronizer = false;
  out_of_range.faults.crashes = {{9, 5}};  // M has two nodes
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, out_of_range),
               InvalidArgument);

  AsyncOptions bad_probability;
  bad_probability.synchronizer = false;
  bad_probability.faults.loss = 1.5;
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, bad_probability),
               InvalidArgument);
  // NaN fails every comparison, so a "< 0 || > 1" check would let it in.
  bad_probability.faults.loss = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, bad_probability),
               InvalidArgument);
  bad_probability.faults.loss = 0.0;
  bad_probability.faults.duplicate =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)run_asynchronous(g, factory, {}, bad_probability),
               InvalidArgument);

  RunOptions zero_rounds;
  zero_rounds.max_rounds = 0;
  EXPECT_THROW((void)run_asynchronous(g, factory, zero_rounds, {}),
               InvalidArgument);

  const AsyncOptions defaults;
  RunOptions tight;
  tight.max_rounds = 3;
  EXPECT_THROW((void)run_asynchronous(g, EchoFactory(10), tight, defaults),
               ExecutionError);  // round limit, mirroring the sync engine
}

TEST(AsyncValidation, DelaySpecsParseAndRoundTrip) {
  EXPECT_EQ(parse_delay_model("fixed:3"),
            (DelayModel{DelayKind::kFixed, 3, 3}));
  EXPECT_EQ(parse_delay_model("uniform:1:8"),
            (DelayModel{DelayKind::kUniform, 1, 8}));
  EXPECT_EQ(parse_delay_model("geometric:4"),
            (DelayModel{DelayKind::kGeometric, 4, 32}));
  EXPECT_EQ(parse_delay_model("geometric:4:10"),
            (DelayModel{DelayKind::kGeometric, 4, 10}));
  for (const auto& spec : oracle_delays()) {
    EXPECT_EQ(parse_delay_model(format_delay_model(spec)), spec);
  }
  for (const char* bad : {"", "fixed", "fixed:0", "uniform:5:2", "uniform:1",
                          "exponential:3", "fixed:abc", "fixed:1:2",
                          "fixed:2305843009213693952",
                          "uniform:1:4294967297"}) {
    EXPECT_THROW((void)parse_delay_model(bad), InvalidArgument) << bad;
  }
  // kMaxTicks itself is a valid delay, and the default geometric cap
  // stops there instead of failing.
  EXPECT_EQ(parse_delay_model("fixed:4294967296").a, kMaxTicks);
  EXPECT_EQ(parse_delay_model("geometric:1073741824").b, kMaxTicks);
}

// --- The tick cap ------------------------------------------------------------
//
// Each tick-valued input is added to the clock; above kMaxTicks the sums
// could wrap past 2^64 and schedule events in the past or at the current
// tick, silently losing messages of a fault-free run.  One test per input
// (parse_delay_model's share is in DelaySpecsParseAndRoundTrip).

/// A replay file carrying `options`, for the decode_replay half of a test.
std::string replay_text(const AsyncOptions& options) {
  ReplayFile file;
  file.algorithm = "port-one";
  file.options = options;
  file.graph_text = "ports 0\n";
  return encode_replay(file);
}

constexpr std::uint64_t kNearWrap = ~std::uint64_t{0} - 1;

TEST(AsyncValidation, DelayAboveTheTickCapIsRejected) {
  const auto g = test::figure2_multigraph_m();
  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kFixed, std::uint64_t{1} << 61,
                 std::uint64_t{1} << 61};
  EXPECT_THROW((void)run_asynchronous(g, EchoFactory(2), {}, async),
               InvalidArgument);
  EXPECT_THROW((void)decode_replay(replay_text(async)), InvalidArgument);
}

TEST(AsyncValidation, TimeoutAboveTheTickCapIsRejected) {
  const auto g = test::figure2_multigraph_m();
  AsyncOptions explicit_timeout;
  explicit_timeout.synchronizer = false;
  explicit_timeout.round_timeout = ~std::uint64_t{0};
  EXPECT_THROW((void)run_asynchronous(g, EchoFactory(2), {}, explicit_timeout),
               InvalidArgument);
  EXPECT_THROW((void)decode_replay(replay_text(explicit_timeout)),
               InvalidArgument);

  // The derived timeout, 8 x max delay, counts too — where it is used.
  AsyncOptions derived;
  derived.synchronizer = false;
  derived.delay = {DelayKind::kFixed, std::uint64_t{1} << 30,
                   std::uint64_t{1} << 30};
  EXPECT_THROW((void)run_asynchronous(g, EchoFactory(2), {}, derived),
               InvalidArgument);
  derived.synchronizer = true;  // no deadlines, so no derived timeout
  EXPECT_NO_THROW((void)run_asynchronous(g, EchoFactory(2), {}, derived));
}

TEST(AsyncValidation, DemoteTicksAboveTheTickCapAreRejected) {
  const auto g = test::figure2_multigraph_m();
  AsyncOptions async;
  async.synchronizer = false;
  async.schedule.prio_seed = 7;
  async.schedule.demote_ticks = kNearWrap;
  async.schedule.change_points = {1};
  EXPECT_THROW((void)run_asynchronous(g, EchoFactory(2), {}, async),
               InvalidArgument);
  EXPECT_THROW((void)decode_replay(replay_text(async)), InvalidArgument);
}

TEST(AsyncValidation, OverrideTicksAboveTheTickCapAreRejected) {
  const auto g = test::figure2_multigraph_m();
  AsyncOptions async;
  async.synchronizer = false;
  async.schedule.delay_overrides = {{0, kNearWrap}};
  EXPECT_THROW((void)run_asynchronous(g, EchoFactory(2), {}, async),
               InvalidArgument);
  EXPECT_THROW((void)decode_replay(replay_text(async)), InvalidArgument);
}

TEST(AsyncValidation, TicksAtTheCapRunLikeTheRoundEngine) {
  // Ticks this large never fit the ring, so every event of this run goes
  // through the overflow heap; a fault-free free-running run whose timeout
  // outlasts its delays must still match the synchronous engine.
  const auto g = loops_and_stagger_graph();
  AsyncOptions async;
  async.synchronizer = false;
  async.delay = {DelayKind::kUniform, std::uint64_t{1} << 29,
                 std::uint64_t{1} << 30};
  async.round_timeout = kMaxTicks;  // > every delay + demote_ticks
  async.schedule.prio_seed = 3;
  async.schedule.demote_ticks = std::uint64_t{1} << 30;
  async.schedule.change_points = {2, 9};
  async.schedule.delay_overrides = {{1, std::uint64_t{1} << 30}};
  const RelayFactory factory(3);
  RunOptions options;
  options.collect_messages = true;
  const RunResult sync = run_synchronous(g, factory, options);
  const AsyncResult a = run_asynchronous(g, factory, options, async);
  auto log = a.run.message_log;
  sort_by_sender(log);
  EXPECT_EQ(a.async.timeouts, 0u);
  EXPECT_EQ(a.run.stats, sync.stats);
  EXPECT_EQ(log, sync.message_log);
  EXPECT_GT(a.async.virtual_time, kMaxTicks);
}

TEST(AsyncValidation, MakeFaultPlanIsSeededAndClamped) {
  const auto a = make_fault_plan(0.1, 0.2, 3, 10, 50, 42);
  const auto b = make_fault_plan(0.1, 0.2, 3, 10, 50, 42);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.crashes.size(), 3u);
  for (const auto& c : a.crashes) {
    EXPECT_LT(c.node, 10u);
    EXPECT_GE(c.time, 1u);
    EXPECT_LE(c.time, 50u);
  }
  const auto c = make_fault_plan(0.1, 0.2, 3, 10, 50, 43);
  EXPECT_NE(a, c);  // a different seed draws a different schedule
  EXPECT_EQ(make_fault_plan(0, 0, 99, 4, 10, 1).crashes.size(), 4u);
  EXPECT_TRUE(make_fault_plan(0, 0, 0, 10, 50, 1).empty());
}

TEST(AsyncDispatch, ExecOptionsRouteThroughRunSynchronous) {
  const auto pg = test::figure2_graph_h();
  const auto factory = algo::make_factory(Algorithm::kBoundedDegree, 3);

  RunOptions options;
  options.collect_trace = true;
  const RunResult plain = run_synchronous(pg.ports(), *factory, options);

  AsyncOptions async;
  async.delay = {DelayKind::kUniform, 1, 6};
  async.seed = 11;
  options.exec.async = async;
  const RunResult routed = run_synchronous(pg.ports(), *factory, options);
  EXPECT_EQ(routed, plain);

  // The driver layer inherits the dispatch via ExecOptions.
  ExecOptions exec;
  exec.async = async;
  const auto outcome =
      algo::run_algorithm(pg, Algorithm::kBoundedDegree, 3, exec);
  const auto baseline = algo::run_algorithm(pg, Algorithm::kBoundedDegree, 3);
  EXPECT_EQ(outcome.solution.to_vector(), baseline.solution.to_vector());
  EXPECT_EQ(outcome.stats, baseline.stats);
}

TEST(AsyncDispatch, ExecOptionsRouteThroughRunSynchronousPrograms) {
  // The caller-built-programs entry dispatches the same way, on the plan
  // it resolves from the configured cache.
  const auto pg = test::figure2_graph_h();
  const auto factory = algo::make_factory(Algorithm::kBoundedDegree, 3);
  const auto programs = [&] {
    std::vector<std::unique_ptr<NodeProgram>> out;
    for (std::size_t v = 0; v < pg.ports().num_nodes(); ++v) {
      out.push_back(factory->create());
    }
    return out;
  };
  RunOptions options;
  options.collect_trace = true;
  const RunResult plain =
      run_synchronous_programs(pg.ports(), programs(), options);

  PlanCache cache;
  AsyncOptions async;
  async.delay = {DelayKind::kUniform, 1, 6};
  async.seed = 11;
  options.exec.async = async;
  options.exec.plan_cache = &cache;
  const RunResult routed =
      run_synchronous_programs(pg.ports(), programs(), options);
  EXPECT_EQ(routed, plain);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(AsyncStatsCounters, SynchronizerAccountsAcksAndVirtualTime) {
  const auto g = loops_and_stagger_graph();
  AsyncOptions async;
  async.delay = {DelayKind::kFixed, 2, 2};
  const AsyncResult a = run_asynchronous(g, EchoFactory(3), {}, async);
  EXPECT_GT(a.async.virtual_time, 0u);
  EXPECT_GT(a.async.delivered, 0u);
  EXPECT_GT(a.async.acks, 0u);
  EXPECT_EQ(a.async.lost, 0u);
  EXPECT_EQ(a.async.timeouts, 0u);
  EXPECT_TRUE(a.fault_log.empty());

  // Free-running mode with no faults uses no acks at all.
  async.synchronizer = false;
  const AsyncResult b = run_asynchronous(g, EchoFactory(3), {}, async);
  EXPECT_EQ(b.async.acks, 0u);
  EXPECT_EQ(b.run.selected, a.run.selected);
}

}  // namespace
}  // namespace eds::runtime
