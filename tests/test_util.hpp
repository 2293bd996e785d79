// Shared test utilities: seeded RNG helpers and the graph fixtures that
// recur across suites (paper figures, small paths, random regular
// instances with random port numberings).
//
// Seeding: every randomised suite derives its streams from base_seed(),
// which defaults to a fixed constant so ctest runs are deterministic, and
// can be overridden with the EDS_FUZZ_SEED environment variable to explore
// new streams without a code change (used by the `fuzz` ctest label).
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <utility>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/simple_graph.hpp"
#include "port/port_graph.hpp"
#include "port/ported_graph.hpp"
#include "runtime/message.hpp"
#include "runtime/program.hpp"
#include "runtime/runner.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace eds::test {

/// Echo program: sends its degree on every port for `rounds` rounds,
/// records the sum it heard, then halts outputting nothing.  The standard
/// controlled-duration program of the runtime and engine suites.
class EchoProgram final : public runtime::NodeProgram {
 public:
  explicit EchoProgram(runtime::Round rounds) : rounds_(rounds) {}
  void start(port::Port degree) override { degree_ = degree; }
  void send(runtime::Round, std::span<runtime::Message> out) override {
    for (auto& m : out) {
      m = runtime::msg(1, static_cast<std::int32_t>(degree_));
    }
  }
  void receive(runtime::Round round,
               std::span<const runtime::Message> in) override {
    sum_ = 0;
    for (const auto& m : in) sum_ += m.arg[0];
    if (round >= rounds_) halted_ = true;
  }
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(runtime::OutputSink&) const override {}

  std::int64_t sum_ = 0;

 private:
  runtime::Round rounds_;
  port::Port degree_ = 0;
  bool halted_ = false;
};

class EchoFactory final : public runtime::ProgramFactory {
 public:
  explicit EchoFactory(runtime::Round rounds) : rounds_(rounds) {}
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create()
      const override {
    return std::make_unique<EchoProgram>(rounds_);
  }
  [[nodiscard]] std::string name() const override { return "echo"; }

 private:
  runtime::Round rounds_;
};

/// Relay program: starts out sending a distinct tag-7 message per port,
/// then forwards whatever it received last round, halting after
/// base + degree rounds.  Every received bit feeds the next send, so any
/// delivery mix-up (wrong slot, stale message, wrong round) cascades into
/// the remaining rounds — the adversarial fixture of the engine and async
/// differential suites.
class RelayProgram final : public runtime::NodeProgram {
 public:
  explicit RelayProgram(runtime::Round base) : base_(base) {}
  void start(port::Port degree) override {
    degree_ = degree;
    last_.assign(degree, runtime::kSilence);
    for (port::Port i = 1; i <= degree; ++i) {
      last_[i - 1] = runtime::msg(7, static_cast<std::int32_t>(i));
    }
  }
  void send(runtime::Round, std::span<runtime::Message> out) override {
    std::copy(last_.begin(), last_.end(), out.begin());
  }
  void receive(runtime::Round round,
               std::span<const runtime::Message> in) override {
    last_.assign(in.begin(), in.end());
    if (round >= base_ + degree_) halted_ = true;
  }
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(runtime::OutputSink&) const override {}

 private:
  runtime::Round base_;
  port::Port degree_ = 0;
  std::vector<runtime::Message> last_;
  bool halted_ = false;
};

class RelayFactory final : public runtime::ProgramFactory {
 public:
  explicit RelayFactory(runtime::Round base) : base_(base) {}
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create()
      const override {
    return std::make_unique<RelayProgram>(base_);
  }
  [[nodiscard]] std::string name() const override { return "relay"; }

 private:
  runtime::Round base_;
};

/// Pulse program: a node of degree d sends on every port in round 3 and
/// every d + 2 rounds after it, each message carrying a checksum of
/// everything the node heard so far, and halts after `rounds` rounds
/// outputting nothing.  (Round 3's sends come from the dispatch of round
/// 2, where the first hints past next round appear, so the engine's
/// switch to marking rounds must silence them too.)
/// Its wake hint names exactly the rounds whose
/// dispatch sends and the halt, so the round engine runs it only then and
/// when mail arrives, while one stale, lost or extra message changes every
/// later checksum.  With `late` set, the hint names each sending dispatch
/// one round too late — the broken-hint fixture that must make the engine
/// diverge from reference_run.
class PulseProgram final : public runtime::NodeProgram {
 public:
  PulseProgram(runtime::Round rounds, bool late)
      : rounds_(rounds), late_(late) {}
  void start(port::Port degree) override {
    degree_ = degree;
    period_ = degree + 2;
  }
  void send(runtime::Round round, std::span<runtime::Message> out) override {
    if (round % period_ != 3 % period_) return;
    for (port::Port i = 0; i < degree_; ++i) {
      out[i] = runtime::msg(8, static_cast<std::int32_t>(checksum_ >> 1),
                            static_cast<std::int32_t>(i));
    }
  }
  void receive(runtime::Round round,
               std::span<const runtime::Message> in) override {
    for (const auto& m : in) {
      if (m.is_silence()) continue;
      checksum_ = checksum_ * 31 + static_cast<std::uint32_t>(m.arg[0]) +
                  static_cast<std::uint32_t>(m.arg[1]) + 1;
    }
    if (round >= rounds_) halted_ = true;
  }
  [[nodiscard]] bool halted() const override { return halted_; }
  [[nodiscard]] runtime::Round wake_hint(
      runtime::Round round) const override {
    // The dispatch of round s sends into round s + 1: the first sending
    // round after round + 1 is round + 2 + gap.
    const runtime::Round gap =
        (3 % period_ + period_ - (round + 2) % period_) % period_;
    return std::min(rounds_, round + 1 + gap + (late_ ? 1 : 0));
  }
  void output(runtime::OutputSink&) const override {}

 private:
  runtime::Round rounds_;
  bool late_;
  port::Port degree_ = 0;
  runtime::Round period_ = 2;
  std::uint32_t checksum_ = 0;
  bool halted_ = false;
};

class PulseFactory final : public runtime::ProgramFactory {
 public:
  explicit PulseFactory(runtime::Round rounds, bool late = false)
      : rounds_(rounds), late_(late) {}
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create()
      const override {
    return std::make_unique<PulseProgram>(rounds_, late_);
  }
  [[nodiscard]] std::string name() const override {
    return late_ ? "late-pulse" : "pulse";
  }

 private:
  runtime::Round rounds_;
  bool late_;
};

/// Late-flip program, the second broken-hint fixture: in round 5 every
/// node sets a flag whatever it receives (a state change on silent
/// input), sends the flag on every port in round 8, and from then on
/// outputs port 1 when it heard a set flag.  Its hint after round 2 is
/// early, but after round 3 it names round 6, one round past the flip,
/// so it misses it: the engine's run must differ from reference_run.
/// (The round after the first hint past next round runs every live
/// node, so a late hint in round 2 would go unseen.)
class LateFlipProgram final : public runtime::NodeProgram {
 public:
  void start(port::Port degree) override { degree_ = degree; }
  void send(runtime::Round round, std::span<runtime::Message> out) override {
    if (round != 8) return;
    for (auto& m : out) m = runtime::msg(9, flipped_ ? 1 : 0);
  }
  void receive(runtime::Round round,
               std::span<const runtime::Message> in) override {
    if (round == 5) flipped_ = true;
    for (const auto& m : in) heard_ |= m.tag == 9 && m.arg[0] != 0;
    if (round >= 8) halted_ = true;
  }
  [[nodiscard]] bool halted() const override { return halted_; }
  [[nodiscard]] runtime::Round wake_hint(
      runtime::Round round) const override {
    // Correct would be round 5 after rounds 3 and 4: late for the flip.
    if (round < 3) return 4;
    return round < 6 ? 6 : round + 1;
  }
  void output(runtime::OutputSink& out) const override {
    if (degree_ > 0 && heard_) out.select(1);
  }

 private:
  port::Port degree_ = 0;
  bool flipped_ = false;
  bool heard_ = false;
  bool halted_ = false;
};

class LateFlipFactory final : public runtime::ProgramFactory {
 public:
  [[nodiscard]] std::unique_ptr<runtime::NodeProgram> create()
      const override {
    return std::make_unique<LateFlipProgram>();
  }
  [[nodiscard]] std::string name() const override { return "late-flip"; }
};

/// Fixed default master seed for randomised tests.
inline constexpr std::uint64_t kDefaultSeed = 0xED5D0517ULL;

/// Master seed: kDefaultSeed unless EDS_FUZZ_SEED is set in the
/// environment (parsed with strtoull, so decimal and 0x-hex both work).
inline std::uint64_t base_seed() {
  static const std::uint64_t seed = [] {
    if (const char* env = std::getenv("EDS_FUZZ_SEED")) {
      return static_cast<std::uint64_t>(std::strtoull(env, nullptr, 0));
    }
    return kDefaultSeed;
  }();
  return seed;
}

/// Deterministic per-test RNG: mixes the master seed with a caller-chosen
/// salt so each test gets an independent stream.
inline Rng make_rng(std::uint64_t salt) {
  std::uint64_t state = base_seed() + salt;
  return Rng(splitmix64(state));
}

/// A random d-regular graph with an independent random port numbering at
/// every node — the standard randomised instance used across suites.
/// The underlying simple graph is available as `.graph()`.
inline port::PortedGraph random_ported_regular(std::size_t n, port::Port d,
                                               Rng& rng) {
  return port::with_random_ports(graph::random_regular(n, d, rng), rng);
}

/// A random graph with n nodes, max degree delta and (at most) m edges,
/// with an independent random port numbering at every node.
inline port::PortedGraph random_ported_bounded(std::size_t n, port::Port delta,
                                               std::size_t m, Rng& rng) {
  return port::with_random_ports(graph::random_bounded_degree(n, delta, m, rng),
                                 rng);
}

/// Path a-b-c-d: edges 0={0,1}, 1={1,2}, 2={2,3}.
inline graph::SimpleGraph p4() {
  return graph::SimpleGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
}

/// The simple graph H of Figure 2 (reconstructed to satisfy every fact the
/// paper states about it): nodes a=0, b=1, c=2, d=3 with
///   a: port1->c, port2->b        b: port1->a, port2->c, port3->d
///   c: port1->d, port2->a, port3->b   d: port1->c, port2->b
inline port::PortedGraph figure2_graph_h() {
  auto g = graph::SimpleGraph::from_edges(
      4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}});
  // edge ids: 0 = ab, 1 = ac, 2 = bc, 3 = bd, 4 = cd
  const std::vector<std::vector<graph::EdgeId>> order{
      {1, 0}, {0, 2, 3}, {4, 1, 2}, {4, 3}};
  return port::PortedGraph(std::move(g), order);
}

/// The multigraph M of Figure 2: V = {s, t}, d(s) = 3, d(t) = 4,
/// p: (s,1)<->(t,2), (s,2)<->(t,1), (s,3) fixed, (t,3)<->(t,4).
inline port::PortGraph figure2_multigraph_m() {
  port::PortGraphBuilder b({3, 4});
  b.connect({0, 1}, {1, 2});
  b.connect({0, 2}, {1, 1});
  b.fix({0, 3});
  b.connect({1, 3}, {1, 4});
  return b.build();
}

/// Seed-semantics oracle: the pre-engine run loop — every node scanned
/// every round, no worklist, no sharding, a naive outbox -> inbox copy
/// per round — with ports_served counted for non-halted nodes per the
/// documented definition.  Every engine transport rewrite is held to
/// bit-identity against this function by the differential suites.
inline runtime::RunResult reference_run(const port::PortGraph& g,
                                        const runtime::ProgramFactory& factory,
                                        const runtime::RunOptions& options) {
  using runtime::kSilence;
  using runtime::Message;
  using runtime::Round;
  const std::size_t n = g.num_nodes();
  std::vector<std::unique_ptr<runtime::NodeProgram>> programs;
  for (std::size_t v = 0; v < n; ++v) programs.push_back(factory.create());

  std::vector<std::size_t> offset(n, 0);
  std::size_t total_ports = 0;
  for (std::size_t v = 0; v < n; ++v) {
    offset[v] = total_ports;
    total_ports += g.degree(static_cast<port::NodeId>(v));
  }
  std::vector<Message> outbox(total_ports, kSilence);
  std::vector<Message> inbox(total_ports, kSilence);

  std::vector<bool> halted(n, false);
  std::size_t halted_count = 0;
  for (std::size_t v = 0; v < n; ++v) {
    programs[v]->start(g.degree(static_cast<port::NodeId>(v)));
    if (programs[v]->halted()) {
      halted[v] = true;
      ++halted_count;
    }
  }

  runtime::RunResult result;
  result.messages_collected = options.collect_messages;
  Round round = 0;
  while (halted_count < n) {
    ++round;
    if (round > options.max_rounds) {
      throw ExecutionError("reference_run: round limit exceeded");
    }
    std::fill(outbox.begin(), outbox.end(), kSilence);
    for (std::size_t v = 0; v < n; ++v) {
      const auto deg = g.degree(static_cast<port::NodeId>(v));
      const std::span<Message> out(outbox.data() + offset[v], deg);
      if (halted[v]) continue;
      programs[v]->send(round, out);
      result.stats.ports_served += deg;
      for (const auto& m : out) {
        if (!m.is_silence()) ++result.stats.messages_sent;
      }
    }
    std::uint64_t round_messages = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const auto deg = g.degree(static_cast<port::NodeId>(v));
      for (port::Port i = 1; i <= deg; ++i) {
        const auto dst = g.partner(static_cast<port::NodeId>(v), i);
        const Message& m = outbox[offset[v] + i - 1];
        inbox[offset[dst.node] + dst.port - 1] = m;
        if (!m.is_silence()) {
          ++round_messages;
          if (options.collect_messages) {
            result.message_log.push_back(
                {round, {static_cast<port::NodeId>(v), i}, dst, m});
          }
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (halted[v]) continue;
      const auto deg = g.degree(static_cast<port::NodeId>(v));
      const std::span<const Message> in(inbox.data() + offset[v], deg);
      programs[v]->receive(round, in);
      if (programs[v]->halted()) {
        halted[v] = true;
        ++halted_count;
      }
    }
    if (options.collect_trace) {
      result.trace.push_back({round, round_messages, halted_count});
    }
  }
  result.stats.rounds = round;
  result.selected.assign(total_ports, 0);
  for (std::size_t v = 0; v < n; ++v) {
    runtime::OutputSink sink(
        {result.selected.data() + offset[v],
         g.degree(static_cast<port::NodeId>(v))},
        "reference_run");
    programs[v]->output(sink);
  }
  return result;
}

/// Per-node reference for the output sweep of runtime/outputs.hpp: the
/// validators as they were before outputs became a flat mask, walking each
/// X(v) list and binary-searching the partner's list for every claim.
/// `claimed[v]` is X(v), ascending.
struct ReferenceSelection {
  std::size_t selected = 0;      ///< two-sided edges once, directed loops
  std::size_t inconsistent = 0;  ///< claims the partner does not return
  bool has_one_sided = false;
  port::PortRef first_claim;     ///< first one-sided claim, (node, port) order
  port::PortRef first_partner;   ///< the port that failed to claim it back
};

inline ReferenceSelection reference_selection(
    const port::PortGraph& g,
    const std::vector<std::vector<port::Port>>& claimed) {
  ReferenceSelection ref;
  const auto claims = [&claimed](port::NodeId v, port::Port p) {
    return std::binary_search(claimed[v].begin(), claimed[v].end(), p);
  };
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const port::Port i : claimed[v]) {
      const auto there = g.partner(v, i);
      if (!claims(there.node, there.port)) {
        ++ref.inconsistent;
        if (!ref.has_one_sided) {
          ref.has_one_sided = true;
          ref.first_claim = {v, i};
          ref.first_partner = there;
        }
      } else if (std::pair(v, i) <= std::pair(there.node, there.port)) {
        ++ref.selected;
      }
    }
  }
  return ref;
}

/// The flat selection mask of per-node port lists, with port offsets
/// recomputed from the degree sequence.
inline std::vector<std::uint8_t> mask_of(
    const port::PortGraph& g,
    const std::vector<std::vector<port::Port>>& claimed) {
  std::vector<std::uint8_t> mask(g.num_ports(), 0);
  std::size_t offset = 0;
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const port::Port i : claimed[v]) mask[offset + i - 1] = 1;
    offset += g.degree(v);
  }
  return mask;
}

/// Thread counts every differential test sweeps: sequential, a small and a
/// large parallel pool, plus an optional extra count from EDS_TEST_THREADS
/// (the sanitizer CI job uses this to stress the sharded loop harder).
inline std::vector<unsigned> policy_thread_counts() {
  std::vector<unsigned> counts{1, 2, 8};
  if (const char* env = std::getenv("EDS_TEST_THREADS")) {
    const auto extra = static_cast<unsigned>(std::strtoul(env, nullptr, 0));
    if (extra > 0 &&
        std::find(counts.begin(), counts.end(), extra) == counts.end()) {
      counts.push_back(extra);
    }
  }
  return counts;
}

}  // namespace eds::test
