// Randomised structural fuzzing: arbitrary port-numbered multigraphs
// (random involutions with loops and parallel edges) pushed through the
// runtime and the standalone algorithms.  Checks are structural — validity
// of involutions, internal consistency of outputs, graceful failure — since
// no centralised edge-set semantics exist on multigraphs.  The
// DecoderFuzz suite mutates the text formats instead: every input must be
// rejected with an eds::Error or decode to a value that round-trips.
//
// Deterministic by default: streams derive from test_util.hpp's fixed
// master seed.  Set EDS_FUZZ_SEED=<n> in the environment to explore new
// streams (e.g. `EDS_FUZZ_SEED=42 ctest -L fuzz`).
#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "algo/double_cover.hpp"
#include "algo/driver.hpp"
#include "algo/port_one.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "lb/lower_bounds.hpp"
#include "port/io.hpp"
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

// --- Text decoders ------------------------------------------------------
//
// Mutations of one fixture per decoder: the Petersen edge list, the
// Theorem 2 (d = 3) port graph and its covering base, and a replay file
// that uses every record kind.

/// A replay file that writes every record kind.
std::string full_replay_text() {
  runtime::ReplayFile file;
  file.strategy = "climb";
  file.algorithm = "bounded";
  file.param = 3;
  file.options.synchronizer = false;
  file.options.delay = {runtime::DelayKind::kUniform, 1, 7};
  file.options.faults.loss = 0.125;
  file.options.faults.duplicate = 0.0625;
  file.options.faults.crashes = {{2, 9}, {5, 17}};
  file.options.round_timeout = 11;
  file.options.seed = 0xFEEDC0DEULL;
  file.options.schedule.prio_seed = 0x123456789ULL;
  file.options.schedule.demote_ticks = 4;
  file.options.schedule.change_points = {7, 31};
  file.options.schedule.delay_overrides = {{3, 5}, {12, 2}};
  file.metrics = {{"rounds", 12}, {"inconsistent", 3}};
  file.graph_text =
      port::to_port_graph_string(lb::odd_lower_bound(3).covering_base);
  return runtime::encode_replay(file);
}

/// The four fixtures, in the order the tests below use them.
const std::vector<std::string>& decoder_fixtures() {
  static const std::vector<std::string> fixtures = [] {
    const auto theorem2 = lb::odd_lower_bound(3);
    return std::vector<std::string>{
        graph::to_edge_list_string(graph::petersen()),
        port::to_port_graph_string(theorem2.ported.ports()),
        port::to_port_graph_string(theorem2.covering_base),
        full_replay_text()};
  }();
  return fixtures;
}

/// One to three random edits of `text`: a bit flip, a truncation, a short
/// deletion, a splice from any fixture, or a hostile token.
std::string mutate(std::string text, Rng& rng) {
  static constexpr std::array<std::string_view, 8> kHostile = {
      "-1", "+3", "0x10", "nan", "4294967296", "18446744073709551616", "#",
      "\n"};
  const auto& fixtures = decoder_fixtures();
  for (auto edits = 1 + rng.below(3); edits > 0; --edits) {
    const auto at = static_cast<std::size_t>(rng.below(text.size() + 1));
    switch (rng.below(5)) {
      case 0:
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ (1 << rng.below(8)));
        }
        break;
      case 1:
        text.resize(at);
        break;
      case 2:
        text.erase(at, 1 + rng.below(8));
        break;
      case 3: {
        const auto& donor = fixtures[rng.below(fixtures.size())];
        text.insert(at, donor, rng.below(donor.size()), 1 + rng.below(40));
        break;
      }
      default:
        text.insert(at, kHostile[rng.below(kHostile.size())]);
    }
  }
  return text;
}

/// Feeds mutations of `fixture` to `decode`.  Each must throw an eds::Error
/// or decode to a value whose encoding decodes and re-encodes unchanged;
/// any other exception fails the test with the input that raised it.
template <typename Decode, typename Encode>
void fuzz_decoder(std::uint64_t salt, const std::string& fixture,
                  Decode decode, Encode encode) {
  auto rng = test::make_rng(salt);
  std::size_t accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string input = mutate(fixture, rng);
    std::optional<std::string> text;
    try {
      text = encode(decode(input));
    } catch (const Error&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << "not an eds::Error: " << e.what() << "\ninput:\n" << input;
    }
    ++accepted;
    ASSERT_EQ(encode(decode(*text)), *text) << "input:\n" << input;
  }
  EXPECT_GT(accepted, 0u) << "no mutation decoded; the round trip is unchecked";
}

TEST(DecoderFuzz, EdgeListMutationsFailTypedOrRoundTrip) {
  fuzz_decoder(20, decoder_fixtures()[0], graph::from_edge_list_string,
               graph::to_edge_list_string);
}

TEST(DecoderFuzz, PortGraphMutationsFailTypedOrRoundTrip) {
  fuzz_decoder(21, decoder_fixtures()[1], port::from_port_graph_string,
               port::to_port_graph_string);
}

TEST(DecoderFuzz, CoveringBaseMutationsFailTypedOrRoundTrip) {
  fuzz_decoder(22, decoder_fixtures()[2], port::from_port_graph_string,
               port::to_port_graph_string);
}

TEST(DecoderFuzz, ReplayMutationsFailTypedOrRoundTrip) {
  fuzz_decoder(23, decoder_fixtures()[3], runtime::decode_replay,
               runtime::encode_replay);
}

/// `text` with CRLF line endings, a tab for every other space, a trailing
/// comment on every line, and a comment and blank lines around records.
std::string noisy(const std::string& text) {
  std::string out = "# leading comment\r\n";
  bool tab = false;
  for (const char c : text) {
    if (c == '\n') {
      out += "\t# trailing comment\r\n\r\n \t\r\n";
    } else if (c == ' ') {
      out += (tab = !tab) ? '\t' : ' ';
    } else {
      out += c;
    }
  }
  return out;
}

TEST(DecoderFuzz, CommentsTabsBlankLinesAndCrlfDecodeUnchanged) {
  const auto& fixtures = decoder_fixtures();
  EXPECT_EQ(graph::to_edge_list_string(
                graph::from_edge_list_string(noisy(fixtures[0]))),
            fixtures[0]);
  for (const std::size_t k : {1, 2}) {
    EXPECT_EQ(port::to_port_graph_string(
                  port::from_port_graph_string(noisy(fixtures[k]))),
              fixtures[k]);
  }
  // The graph section of a replay is kept verbatim and read on its own.
  auto replay = runtime::decode_replay(noisy(fixtures[3]));
  const auto original = runtime::decode_replay(fixtures[3]);
  EXPECT_EQ(port::to_port_graph_string(
                port::from_port_graph_string(replay.graph_text)),
            original.graph_text);
  replay.graph_text = original.graph_text;
  EXPECT_EQ(replay, original);
}

// --- Decoder regressions ------------------------------------------------
//
// One test per hostile input that crashed, leaked a std:: exception or
// was silently accepted before the decoders shared util/text.hpp.  Each
// must fail with the decoder's typed error, naming the field.

/// The message of the E that `decode(text)` throws ("" if it throws none).
template <typename E, typename Decode>
std::string typed_error(Decode decode, const std::string& text) {
  try {
    (void)decode(text);
  } catch (const E& e) {
    return e.what();
  }
  return "";
}

std::string edge_list_error(const std::string& text) {
  return typed_error<InvalidStructure>(graph::from_edge_list_string, text);
}

std::string port_graph_error(const std::string& text) {
  return typed_error<InvalidStructure>(port::from_port_graph_string, text);
}

/// The error decode_replay throws once `line` replaces the fixture line
/// that starts with the same key.
std::string replay_error(const std::string& line) {
  std::string text = full_replay_text();
  const auto key = line.substr(0, line.find(' ') + 1);
  const auto at = text.find("\n" + key) + 1;
  text.replace(at, text.find('\n', at) - at, line);
  return typed_error<InvalidArgument>(runtime::decode_replay, text);
}

/// Success when `message` (a typed error's, or "" for none) names `field`.
::testing::AssertionResult names(const std::string& message,
                                 const std::string& field) {
  if (message.find(field) != std::string::npos) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "'" << message << "' does not name '" << field << "'";
}

TEST(DecoderRegression, EdgeListNegativeNodeCount) {
  EXPECT_TRUE(names(edge_list_error("-1 0\n"), "node count n"));
}

TEST(DecoderRegression, EdgeListNodeCountAboveTheCap) {
  EXPECT_TRUE(names(edge_list_error("4000000000 1\n0 1\n"), "node count n"));
}

TEST(DecoderRegression, EdgeListNegativeEdgeCount) {
  EXPECT_TRUE(names(edge_list_error("3 -1\n"), "edge count m"));
}

TEST(DecoderRegression, EdgeListTrailingToken) {
  EXPECT_TRUE(names(edge_list_error("3 2\n0 1 extra\n1 2\n"), "edge 'u v'"));
  EXPECT_TRUE(names(edge_list_error("3 1\n0 1\n1 2\n"), "more edges"));
}

TEST(DecoderRegression, PortGraphNegativeNodeCount) {
  EXPECT_TRUE(names(port_graph_error("ports -1\ndeg 1\n"), "node count"));
}

TEST(DecoderRegression, PortGraphDegreesAboveThePortCap) {
  EXPECT_TRUE(
      names(port_graph_error("ports 2\ndeg 4000000000 1\n"), "degrees sum"));
}

TEST(DecoderRegression, PortGraphNodeCountAboveTheCap) {
  EXPECT_TRUE(names(port_graph_error("ports 4000000000\n"), "node count"));
}

TEST(DecoderRegression, PortGraphTrailingDegree) {
  EXPECT_TRUE(names(port_graph_error("ports 2\ndeg 1 1 7\n"), "'deg'"));
}

TEST(DecoderRegression, PortGraphTrailingConnToken) {
  EXPECT_TRUE(names(
      port_graph_error("ports 2\ndeg 1 1\nconn 0 1 1 1 junk\n"), "'conn'"));
}

TEST(DecoderRegression, ReplayTrailingSeedToken) {
  EXPECT_TRUE(names(replay_error("seed 7 junk"), "'seed'"));
}

TEST(DecoderRegression, ReplayNegativeSeed) {
  EXPECT_TRUE(names(replay_error("seed -1"), "seed"));
}

TEST(DecoderRegression, ReplayParamAboveUint32) {
  EXPECT_TRUE(names(replay_error("param 4294967298"), "param"));
}

}  // namespace
}  // namespace eds
