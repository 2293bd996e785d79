// Pinned outputs of the multi-round programs: A(∆), odd-regular under every
// pair order, and double-cover.
//
// The differential suites run the same program code on both sides
// (reference_run against the engine, create_all against create()), so a
// rewrite of a program's own state that changed which ports it selects
// would pass them.  Each case below digests RunResult::selected and
// RunStats of one run; the values were taken from the build before the
// programs' per-port state became a flat block.  Seeds are constants, not
// make_rng, so EDS_FUZZ_SEED leaves them alone.  A red digest means a
// program now selects different ports, sends different messages or halts
// at another round; a deliberate change to an algorithm re-pins the value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/bounded_degree.hpp"
#include "algo/double_cover.hpp"
#include "algo/odd_regular.hpp"
#include "graph/generators.hpp"
#include "lb/lower_bounds.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "runtime/engine.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"
#include "test_util.hpp"

namespace eds::algo {
namespace {

/// Order-sensitive 64-bit digest (splitmix64 chaining).
std::uint64_t digest_of(const runtime::RunResult& r) {
  std::uint64_t state = 0;
  const auto add = [&state](std::uint64_t x) {
    std::uint64_t s = state ^ x;
    state = splitmix64(s);
  };
  add(r.selected.size());
  for (const std::uint8_t bit : r.selected) add(bit);
  add(r.stats.rounds);
  add(r.stats.messages_sent);
  add(r.stats.ports_served);
  return state;
}

/// Runs `factory` on `g` at one thread and compares the digest with
/// `pinned`; `what` names the case in a failure.
void expect_digest(const port::PortGraph& g,
                   const runtime::ProgramFactory& factory,
                   std::uint64_t pinned, const std::string& what) {
  const auto got = digest_of(runtime::run_synchronous(g, factory));
  EXPECT_EQ(got, pinned) << what << ": got 0x" << std::hex << std::uppercase
                         << got;
}

port::Port max_degree_param(const port::PortedGraph& pg) {
  return static_cast<port::Port>(
      std::max<std::size_t>(pg.graph().max_degree(), 2));
}

TEST(AlgoGolden, BoundedDegreeOnBoundedAndPowerLawGraphs) {
  const std::uint64_t bounded[] = {0xAB7FBB73341AB5C5, 0x57299C17BA22BA0F,
                                   0x1BFD6F76A852A662};
  const std::uint64_t powerlaw[] = {0x564C0CF50F681F74, 0x75F69E8D8B023A4D};
  Rng rng(0x601D);
  for (int trial = 0; trial < 3; ++trial) {
    const auto pg = test::random_ported_bounded(300, 3 + 2 * trial, 600, rng);
    expect_digest(pg.ports(), BoundedDegreeFactory(max_degree_param(pg)),
                  bounded[trial], "bounded trial " + std::to_string(trial));
  }
  for (int trial = 0; trial < 2; ++trial) {
    const auto pg = port::with_random_ports(
        graph::random_power_law(1500, 2.3, rng), rng);
    expect_digest(pg.ports(), BoundedDegreeFactory(max_degree_param(pg)),
                  powerlaw[trial], "power-law trial " + std::to_string(trial));
  }
}

TEST(AlgoGolden, OddRegularUnderEveryPairOrder) {
  // Rows d = 3, 5, 7; columns lexicographic, diagonal, reverse.
  const std::uint64_t pinned[3][3] = {
      {0x0212DA60178CDE6C, 0x797EC6D1661C82BB, 0x4DB51112755ED71A},
      {0xC289992FAA2094BC, 0x78350A4992CF1B28, 0x687F7BDCF186140D},
      {0x052BB65CA8E8CDFA, 0xF517EB90C0C814F0, 0x13C358298BEC94EF},
  };
  const PairOrder orders[] = {PairOrder::kLexicographic, PairOrder::kDiagonal,
                              PairOrder::kReverse};
  const port::Port degrees[] = {3, 5, 7};
  Rng rng(0x601E);
  for (int row = 0; row < 3; ++row) {
    const auto pg = test::random_ported_regular(200, degrees[row], rng);
    for (int column = 0; column < 3; ++column) {
      expect_digest(pg.ports(), OddRegularFactory(degrees[row], orders[column]),
                    pinned[row][column],
                    "d = " + std::to_string(degrees[row]) + ", order " +
                        std::to_string(column));
    }
  }
}

TEST(AlgoGolden, DoubleCoverOnBoundedPowerLawAndMultigraphs) {
  Rng rng(0x601F);
  const auto bounded = test::random_ported_bounded(300, 6, 700, rng);
  expect_digest(bounded.ports(), DoubleCoverFactory(max_degree_param(bounded)),
                0x88264BD3286F7759, "bounded");
  const auto powerlaw = port::with_random_ports(
      graph::random_power_law(1500, 2.3, rng), rng);
  expect_digest(powerlaw.ports(),
                DoubleCoverFactory(max_degree_param(powerlaw)),
                0xB6936AA966572C19, "power-law");
  // Uniform random involutions: loops, directed loops and parallel edges.
  std::vector<port::Port> degrees(200);
  for (auto& d : degrees) d = static_cast<port::Port>(rng.below(7));
  const auto multigraph = port::random_port_graph(degrees, rng);
  expect_digest(multigraph, DoubleCoverFactory(6), 0x5CF0F6641A0179FC,
                "multigraph");
}

TEST(AlgoGolden, CoveringBasesOfTheLowerBounds) {
  // The covering multigraphs M of Theorems 1 and 2 carry loops and
  // directed loops, so label pairs such as {i, i} and ports fixed to
  // themselves reach the distinguishable-neighbour rule and every phase.
  const auto even = lb::even_lower_bound(4).covering_base;
  expect_digest(even, BoundedDegreeFactory(4), 0x0A6058F61EED4633,
                "even(4) A(4)");
  expect_digest(even, DoubleCoverFactory(4), 0x27863392B980CB7D,
                "even(4) double-cover");
  const auto odd = lb::odd_lower_bound(3).covering_base;
  expect_digest(odd, BoundedDegreeFactory(3), 0x83D3BEE0554D1429,
                "odd(3) A(3)");
  expect_digest(odd, DoubleCoverFactory(3), 0x020A7C80434002F2,
                "odd(3) double-cover");
  // Every pair order selects the same ports on this base.
  for (const auto order : {PairOrder::kLexicographic, PairOrder::kDiagonal,
                           PairOrder::kReverse}) {
    expect_digest(odd, OddRegularFactory(3, order), 0xEBBEF03D995D32C9,
                  "odd(3) odd-regular, order " +
                      std::to_string(static_cast<int>(order)));
  }
}

// Pinned dispatch counts of the hinted programs.  A hint that comes early
// costs extra dispatches and passes every differential suite, so only a
// count catches it (a late hint changes results and fails those suites).
// Each value is the engine_stage_stats().dispatched delta of one run at one
// lane, taken from the build before A(∆) and odd-regular cached their next
// wake-up.

/// Runs `factory` on `g` at one lane; returns the run's dispatches and,
/// when `log` is set, the run's message log in it.
std::uint64_t dispatches(const port::PortGraph& g,
                         const runtime::ProgramFactory& factory,
                         std::vector<runtime::DeliveredMessage>* log = nullptr) {
  runtime::RunOptions options;
  options.collect_messages = log != nullptr;
  const auto before = runtime::engine_stage_stats().dispatched;
  auto result = runtime::run_synchronous(g, factory, options);
  const auto after = runtime::engine_stage_stats().dispatched;
  if (log != nullptr) *log = std::move(result.message_log);
  return after - before;
}

TEST(AlgoGolden, WakeHintsPinEveryDispatch) {
  // A(4) on random 4-regular graphs, n = 64 ... 4096.
  const std::uint64_t regular[] = {511, 1097, 2183, 4455, 8732, 17594, 35017};
  Rng rng(0x6020);
  std::size_t n = 64;
  for (const std::uint64_t pinned : regular) {
    const auto pg = test::random_ported_regular(n, 4, rng);
    EXPECT_EQ(dispatches(pg.ports(), BoundedDegreeFactory(4)), pinned)
        << "A(4), n = " << n;
    n *= 2;
  }

  // A(∆) on a power-law graph whose phase II accepts proposals, so the
  // phase-II block starts are among the hints.
  const auto powerlaw = port::with_random_ports(
      graph::random_power_law(2048, 2.3, rng), rng);
  std::vector<runtime::DeliveredMessage> log;
  EXPECT_EQ(dispatches(powerlaw.ports(),
                       BoundedDegreeFactory(max_degree_param(powerlaw)), &log),
            15401u);
  EXPECT_TRUE(std::any_of(log.begin(), log.end(), [](const auto& m) {
    return m.payload.tag == kTagAccept;
  })) << "phase II accepted no proposal";

  // Odd-regular at d = 3 and 5 under every pair order.  Its remove phase
  // must drop D edges: an exchange of two "covered without e" bits there.
  const std::uint64_t odd[2][3] = {{4321, 4344, 4734}, {4681, 4816, 5060}};
  const port::Port degrees[] = {3, 5};
  const PairOrder orders[] = {PairOrder::kLexicographic, PairOrder::kDiagonal,
                              PairOrder::kReverse};
  for (int row = 0; row < 2; ++row) {
    const port::Port d = degrees[row];
    const auto pg = test::random_ported_regular(512, d, rng);
    for (int column = 0; column < 3; ++column) {
      EXPECT_EQ(dispatches(pg.ports(), OddRegularFactory(d, orders[column]),
                           &log),
                odd[row][column])
          << "odd-regular d = " << d << ", order " << column;
      std::vector<runtime::DeliveredMessage> covered;
      for (const auto& m : log) {
        if (m.round > 2 + d * d && m.payload.tag == kTagStatus &&
            m.payload.arg[0] != 0) {
          covered.push_back(m);
        }
      }
      const auto drops = std::count_if(
          covered.begin(), covered.end(), [&covered](const auto& m) {
            return m.from.node < m.to.node &&
                   std::any_of(covered.begin(), covered.end(),
                               [&m](const auto& back) {
                                 return back.round == m.round &&
                                        back.from == m.to;
                               });
          });
      EXPECT_GT(drops, 0) << "d = " << d << ": the remove phase dropped "
                           << "no D edge";
    }
  }

  // The covering bases, with loops and directed loops.
  EXPECT_EQ(dispatches(lb::even_lower_bound(4).covering_base,
                       BoundedDegreeFactory(4)),
            8u);
  EXPECT_EQ(dispatches(lb::odd_lower_bound(3).covering_base,
                       OddRegularFactory(3)),
            42u);
}

}  // namespace
}  // namespace eds::algo
