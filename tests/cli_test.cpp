#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.hpp"
#include "graph/io.hpp"
#include "port/io.hpp"

namespace eds::cli {
namespace {

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun invoke(const std::vector<std::string>& args,
              const std::string& stdin_text = "") {
  std::istringstream in(stdin_text);
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, in, out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, HelpAndUnknown) {
  EXPECT_EQ(invoke({"help"}).code, 0);
  EXPECT_NE(invoke({"help"}).out.find("usage"), std::string::npos);
  EXPECT_EQ(invoke({}).code, 2);
  EXPECT_EQ(invoke({"frobnicate"}).code, 2);
}

TEST(Cli, GenerateCycleParses) {
  const auto run = invoke({"generate", "cycle", "6"});
  ASSERT_EQ(run.code, 0) << run.err;
  const auto g = graph::from_edge_list_string(run.out);
  EXPECT_EQ(g.num_nodes(), 6u);
  EXPECT_TRUE(g.is_regular(2));
}

TEST(Cli, GenerateRegularRespectsSeed) {
  const auto a = invoke({"generate", "regular", "12", "3", "--seed", "5"});
  const auto b = invoke({"generate", "regular", "12", "3", "--seed", "5"});
  const auto c = invoke({"generate", "regular", "12", "3", "--seed", "6"});
  EXPECT_EQ(a.out, b.out);
  EXPECT_NE(a.out, c.out);
}

TEST(Cli, GenerateErrors) {
  EXPECT_EQ(invoke({"generate"}).code, 2);
  EXPECT_EQ(invoke({"generate", "nosuch", "4"}).code, 2);
  EXPECT_EQ(invoke({"generate", "cycle", "2"}).code, 1);  // n < 3
  EXPECT_EQ(invoke({"generate", "cycle"}).code, 2);       // missing n
  // Positional numbers follow the option rules: all digits, fitting the
  // type, or exit 2 naming the argument.
  for (const std::vector<std::string>& args :
       {std::vector<std::string>{"generate", "cycle", "6x"},
        {"generate", "cycle", "abc"},
        {"generate", "cycle", "-6"},
        {"generate", "cycle", ""},
        {"generate", "cycle", "99999999999999999999999"},
        {"generate", "regular", "12", "3.5"},
        {"generate", "bounded", "12", "3", "+4"}}) {
    const auto run = invoke(args);
    EXPECT_EQ(run.code, 2) << args.back();
    EXPECT_TRUE(run.out.empty()) << args.back();
    EXPECT_NE(run.err.find("generate: " + args[1] + " "), std::string::npos)
        << run.err;
  }
  EXPECT_NE(invoke({"generate", "cycle", "6x"}).err.find("cycle N"),
            std::string::npos);
  // A node count that fits size_t but not NodeId is a typed error naming
  // n, raised before the generator records an edge (it once ended in
  // "generate: std::bad_alloc").
  for (const char* family : {"path", "cycle"}) {
    const auto run = invoke({"generate", family, "18446744073709551615"});
    EXPECT_EQ(run.code, 1) << family;
    EXPECT_TRUE(run.out.empty()) << family;
    EXPECT_NE(run.err.find("18446744073709551615 nodes exceed the NodeId "
                           "range"),
              std::string::npos)
        << family << ": " << run.err;
  }
  EXPECT_NE(invoke({"generate", "bounded", "12", "3", "+4"}).err.find(
                "bounded M"),
            std::string::npos);
  // K_92683 has 4,295,022,903 edges, past the EdgeId range; its edge list
  // once grew until the allocator failed.
  const auto complete = invoke({"generate", "complete", "92683"});
  EXPECT_EQ(complete.code, 1);
  EXPECT_TRUE(complete.out.empty());
  EXPECT_NE(complete.err.find("4295022903 edges"), std::string::npos)
      << complete.err;
}

TEST(Cli, SolvePipelineEndToEnd) {
  const auto gen = invoke({"generate", "petersen"});
  ASSERT_EQ(gen.code, 0);
  const auto solve =
      invoke({"solve", "--seed", "3", "--exact"}, gen.out);
  ASSERT_EQ(solve.code, 0) << solve.err;
  EXPECT_NE(solve.out.find("odd-regular"), std::string::npos);
  EXPECT_NE(solve.out.find("edge-dominating: yes"), std::string::npos);
  EXPECT_NE(solve.out.find("optimum: 3"), std::string::npos);
  EXPECT_NE(solve.out.find("ratio:"), std::string::npos);
}

TEST(Cli, SolveExplicitAlgorithmAndDot) {
  const auto gen = invoke({"generate", "torus", "3", "4"});
  const auto solve = invoke(
      {"solve", "--algorithm", "port-one", "--ports", "factor", "--dot"},
      gen.out);
  ASSERT_EQ(solve.code, 0) << solve.err;
  // Factor ports force a whole 2-factor: |D| = |V| = 12.
  EXPECT_NE(solve.out.find("solution: 12 edges"), std::string::npos);
  EXPECT_NE(solve.out.find("graph solution {"), std::string::npos);
}

TEST(Cli, SolveRejectsBadInput) {
  EXPECT_EQ(invoke({"solve"}, "garbage").code, 1);
  const auto gen = invoke({"generate", "cycle", "5"});
  EXPECT_EQ(invoke({"solve", "--algorithm", "nosuch"}, gen.out).code, 2);
  EXPECT_EQ(invoke({"solve", "--ports", "nosuch"}, gen.out).code, 2);
}

TEST(Cli, LowerBoundEmitsValidPortGraph) {
  const auto run = invoke({"lower-bound", "4"});
  ASSERT_EQ(run.code, 0) << run.err;
  const auto g = port::from_port_graph_string(run.out);
  EXPECT_EQ(g.num_nodes(), 7u);  // 2d - 1
  EXPECT_NE(run.out.find("forced ratio 7/2"), std::string::npos);
}

TEST(Cli, LowerBoundOddAndErrors) {
  const auto run = invoke({"lower-bound", "3"});
  ASSERT_EQ(run.code, 0);
  const auto g = port::from_port_graph_string(run.out);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_EQ(invoke({"lower-bound"}).code, 2);
  EXPECT_EQ(invoke({"lower-bound", "1"}).code, 1);
  // The degree is strict too: 2^32 + 2 must not narrow to d = 2, nor
  // "4x" parse as d = 4.
  for (const std::string degree : {"4294967298", "4x", "abc", "-3", " 4"}) {
    const auto bad = invoke({"lower-bound", degree});
    EXPECT_EQ(bad.code, 2) << degree;
    EXPECT_TRUE(bad.out.empty()) << degree;
    EXPECT_NE(bad.err.find("lower-bound: degree"), std::string::npos)
        << bad.err;
  }
  EXPECT_NE(invoke({"lower-bound", "4294967298"}).err.find("out of range"),
            std::string::npos);
}

TEST(Cli, LowerBoundRejectsInstancesTooLargeForText) {
  // Checked from the size formula before anything is built: 5794 and 323
  // are the smallest degrees of each parity past 2^26 ports.
  const std::vector<std::pair<std::string, std::string>> cases{
      {"5794", "67135078 ports"},
      {"323", "67500540 ports"},
      {"4294967295", "2^64 or more ports"}};
  for (const auto& [degree, ports] : cases) {
    const auto run = invoke({"lower-bound", degree});
    EXPECT_EQ(run.code, 1) << degree;
    EXPECT_TRUE(run.out.empty()) << degree;
    EXPECT_NE(run.err.find("lower-bound: d = " + degree), std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find(ports), std::string::npos) << run.err;
  }
}

TEST(Cli, RunPortgraphOnLowerBoundInstance) {
  const auto lb = invoke({"lower-bound", "6"});
  ASSERT_EQ(lb.code, 0);
  const auto run = invoke(
      {"run-portgraph", "--algorithm", "port-one"}, lb.out);
  ASSERT_EQ(run.code, 0) << run.err;
  // Forced to a full 2-factor: |V| = 11 selected edges.
  EXPECT_NE(run.out.find("selected edges: 11"), std::string::npos);
}

TEST(Cli, RunPortgraphRequiresAlgorithm) {
  const auto lb = invoke({"lower-bound", "4"});
  EXPECT_EQ(invoke({"run-portgraph"}, lb.out).code, 2);
}

TEST(Cli, RunPortgraphTraceShowsTranscript) {
  const auto lb = invoke({"lower-bound", "2"});
  const auto run = invoke(
      {"run-portgraph", "--algorithm", "port-one", "--trace"}, lb.out);
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("--- round 1 ---"), std::string::npos);
  EXPECT_NE(run.out.find("tag="), std::string::npos);
}

TEST(Cli, ViewsOnLowerBoundInstance) {
  const auto lb = invoke({"lower-bound", "4"});
  const auto run = invoke({"views"}, lb.out);
  ASSERT_EQ(run.code, 0) << run.err;
  // Theorem 1 instance: all nodes are view-equivalent.
  EXPECT_NE(run.out.find("classes: 1"), std::string::npos);
}

TEST(Cli, ViewsStopRefiningAtTheFixpoint) {
  const auto lb = invoke({"lower-bound", "2"});
  ASSERT_EQ(lb.code, 0);
  const auto run = invoke({"views", "--radius", "4000000000"}, lb.out);
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_EQ(run.out, invoke({"views"}, lb.out).out);
}

TEST(Cli, Table1IsTight) {
  const auto run = invoke({"table1"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_EQ(run.out.find("NO"), std::string::npos);
  EXPECT_NE(run.out.find("yes"), std::string::npos);
}

TEST(Cli, SolveThreadsDoesNotChangeTheResult) {
  const auto gen = invoke({"generate", "regular", "16", "4", "--seed", "3"});
  ASSERT_EQ(gen.code, 0);
  const auto seq = invoke(
      {"solve", "--algorithm", "port-one", "--seed", "9"}, gen.out);
  const auto par = invoke(
      {"solve", "--algorithm", "port-one", "--seed", "9", "--threads", "4"},
      gen.out);
  ASSERT_EQ(seq.code, 0) << seq.err;
  ASSERT_EQ(par.code, 0) << par.err;
  EXPECT_EQ(seq.out, par.out);
}

TEST(Cli, RunPortgraphThreadsDoesNotChangeTheResult) {
  const auto lb = invoke({"lower-bound", "6"});
  ASSERT_EQ(lb.code, 0);
  const auto seq = invoke(
      {"run-portgraph", "--algorithm", "port-one"}, lb.out);
  const auto par = invoke(
      {"run-portgraph", "--algorithm", "port-one", "--threads", "8"}, lb.out);
  ASSERT_EQ(seq.code, 0) << seq.err;
  ASSERT_EQ(par.code, 0) << par.err;
  EXPECT_EQ(seq.out, par.out);
}

TEST(Cli, SweepRunsEveryFamily) {
  const auto cycles =
      invoke({"sweep", "cycle", "--min", "8", "--max", "32"});
  ASSERT_EQ(cycles.code, 0) << cycles.err;
  EXPECT_NE(cycles.out.find("jobs=3"), std::string::npos);
  EXPECT_EQ(cycles.out.find("NO"), std::string::npos);

  const auto paths = invoke({"sweep", "path", "--min", "4", "--max", "16",
                             "--step", "4"});
  ASSERT_EQ(paths.code, 0) << paths.err;
  EXPECT_NE(paths.out.find("jobs=4"), std::string::npos);

  const auto regular = invoke({"sweep", "regular", "--min", "8", "--max",
                               "16", "--d", "3", "--seed", "11"});
  ASSERT_EQ(regular.code, 0) << regular.err;
  EXPECT_NE(regular.out.find("odd-regular"), std::string::npos);

  const auto multi = invoke({"sweep", "portgraph", "--min", "4", "--max",
                             "16", "--d", "4", "--seed", "11"});
  ASSERT_EQ(multi.code, 0) << multi.err;
  EXPECT_NE(multi.out.find("selected"), std::string::npos);
}

TEST(Cli, SweepIsDeterministicAcrossThreadCounts) {
  const std::vector<std::string> base{"sweep",  "regular", "--min", "8",
                                      "--max",  "64",      "--d",   "3",
                                      "--seed", "42"};
  auto one = base;
  one.insert(one.end(), {"--threads", "1"});
  auto many = base;
  many.insert(many.end(), {"--threads", "8"});
  const auto a = invoke(one);
  const auto b = invoke(many);
  ASSERT_EQ(a.code, 0) << a.err;
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_EQ(a.out, b.out);
}

TEST(Cli, SweepNewFamiliesRun) {
  const auto torus = invoke({"sweep", "torus", "--min", "9", "--max", "36"});
  ASSERT_EQ(torus.code, 0) << torus.err;
  EXPECT_NE(torus.out.find("port-one"), std::string::npos)
      << "tori are 4-regular: auto picks port-one";

  const auto grid = invoke({"sweep", "grid", "--min", "9", "--max", "16"});
  ASSERT_EQ(grid.code, 0) << grid.err;
  EXPECT_EQ(grid.out.find("NO"), std::string::npos);

  const auto cat =
      invoke({"sweep", "caterpillar", "--min", "12", "--max", "24"});
  ASSERT_EQ(cat.code, 0) << cat.err;

  const auto pl = invoke({"sweep", "powerlaw", "--min", "16", "--max", "64",
                          "--seed", "5"});
  ASSERT_EQ(pl.code, 0) << pl.err;
  EXPECT_EQ(pl.out.find("NO"), std::string::npos);
}

TEST(Cli, SweepRepeatCompilesOnePlanPerInstance) {
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                           "--repeat", "5"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("jobs=5"), std::string::npos);
  EXPECT_NE(run.out.find("plan-cache: compiled=1 hits=4"), std::string::npos)
      << run.out;

  // Two sizes x 3 repeats: 2 plans, 4 hits.
  const auto two = invoke({"sweep", "cycle", "--min", "8", "--max", "16",
                           "--repeat", "3"});
  ASSERT_EQ(two.code, 0) << two.err;
  EXPECT_NE(two.out.find("plan-cache: compiled=2 hits=4"), std::string::npos)
      << two.out;

  EXPECT_EQ(invoke({"sweep", "cycle", "--repeat", "0"}).code, 2);
}

TEST(Cli, SweepNdjsonStreamsOneObjectPerJob) {
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "32",
                           "--ndjson", "--repeat", "2"});
  ASSERT_EQ(run.code, 0) << run.err;
  std::istringstream lines(run.out);
  std::string line;
  std::size_t rows = 0;
  bool saw_summary = false;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    // Every object — jobs and summary — is versioned with the protocol.
    EXPECT_NE(line.find("\"schema\":2"), std::string::npos) << line;
    if (line.find("\"summary\"") != std::string::npos) {
      saw_summary = true;
      EXPECT_NE(line.find("\"plans_compiled\":3"), std::string::npos) << line;
      EXPECT_NE(line.find("\"plan_hits\":3"), std::string::npos) << line;
      EXPECT_NE(line.find("\"all_feasible\":true"), std::string::npos);
    } else {
      ++rows;
      EXPECT_NE(line.find("\"rounds\":"), std::string::npos);
      EXPECT_NE(line.find("\"feasible\":true"), std::string::npos);
    }
  }
  EXPECT_EQ(rows, 6u);  // 3 sizes x 2 repeats
  EXPECT_TRUE(saw_summary);

  // The portgraph family emits NDJSON too, with port-level fields.
  const auto multi = invoke({"sweep", "portgraph", "--min", "4", "--max", "8",
                             "--d", "3", "--ndjson"});
  ASSERT_EQ(multi.code, 0) << multi.err;
  EXPECT_EQ(multi.out.front(), '{');
  EXPECT_NE(multi.out.find("\"selected\":"), std::string::npos);
  EXPECT_NE(multi.out.find("\"summary\""), std::string::npos);
}

TEST(Cli, SweepNdjsonIsDeterministicAcrossThreadCounts) {
  const std::vector<std::string> base{"sweep", "regular", "--min", "8",
                                      "--max", "32",      "--d",   "3",
                                      "--seed", "13",     "--ndjson"};
  auto one = base;
  one.insert(one.end(), {"--threads", "1"});
  auto many = base;
  many.insert(many.end(), {"--threads", "8"});
  const auto a = invoke(one);
  const auto b = invoke(many);
  ASSERT_EQ(a.code, 0) << a.err;
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_EQ(a.out, b.out);
}

TEST(Cli, SweepFamiliesAreByteIdenticalAcrossThreadCounts) {
  // For each family, sequential (--threads 1) and pooled (--threads 8)
  // sweeps must produce byte-identical NDJSON — rows, summary, plan-cache
  // counters and all.
  const std::vector<std::vector<std::string>> sweeps{
      {"sweep", "grid", "--min", "9", "--max", "36", "--repeat", "2",
       "--seed", "3", "--ndjson"},
      {"sweep", "powerlaw", "--min", "16", "--max", "64", "--seed", "5",
       "--ndjson"},
      {"sweep", "portgraph", "--min", "4", "--max", "16", "--d", "3",
       "--seed", "11", "--repeat", "2", "--ndjson"},
  };
  for (const auto& base : sweeps) {
    auto sequential = base;
    sequential.insert(sequential.end(), {"--threads", "1"});
    auto pooled = base;
    pooled.insert(pooled.end(), {"--threads", "8"});

    const auto a = invoke(sequential);
    const auto b = invoke(pooled);
    ASSERT_EQ(a.code, 0) << base[1] << ": " << a.err;
    ASSERT_EQ(b.code, 0) << base[1] << ": " << b.err;
    EXPECT_EQ(a.out, b.out) << base[1];
  }
}

/// FNV-1a-64 of `text`, as 0x-prefixed upper-case hex.
std::string fnv1a64(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
  }
  std::ostringstream hex;
  hex << "0x" << std::hex << std::uppercase << std::setw(16)
      << std::setfill('0') << h;
  return hex.str();
}

TEST(Cli, SweepOutputsMatchPinnedDigests) {
  // Every sweep row shape (table and NDJSON, sync and async, batch and
  // adversary) pinned as (exit code, digest of stdout), the same way
  // AsyncGolden pins event order.  The bytes are independent of
  // --threads, so each case runs at three counts.  A red digest means a
  // sweep's output moved, not that the test needs re-pinning.
  const std::vector<std::pair<std::vector<std::string>, std::string>> pinned{
      {{"cycle", "--min", "8", "--max", "32", "--repeat", "2"},
       "0x49A125CE204E41EA"},
      {{"regular", "--min", "8", "--max", "64", "--d", "3", "--seed", "42",
        "--ndjson"},
       "0x146329CCA4483727"},
      {{"grid", "--min", "9", "--max", "36", "--repeat", "2", "--seed", "3",
        "--ndjson"},
       "0x85A92B3A21484484"},
      {{"powerlaw", "--min", "16", "--max", "64", "--seed", "5"},
       "0x2F84158706D04AA3"},
      // A(∆) on high-∆ power-law graphs, with a non-trivial phase II.
      {{"powerlaw", "--min", "2048", "--max", "2048", "--seed", "7"},
       "0x4B7B956863B059BA"},
      {{"powerlaw", "--min", "1024", "--max", "2048", "--seed", "7",
        "--ndjson"},
       "0x40043B16B51031C2"},
      {{"caterpillar", "--min", "12", "--max", "24", "--ndjson"},
       "0xF4E957A8B43046E6"},
      {{"portgraph", "--min", "4", "--max", "16", "--d", "3", "--seed", "11",
        "--repeat", "2"},
       "0xC0D8F45F85588E81"},
      {{"portgraph", "--min", "4", "--max", "16", "--d", "3", "--seed", "11",
        "--repeat", "2", "--ndjson"},
       "0x532030D999347BA7"},
      {{"regular", "--min", "16", "--max", "32", "--d", "4", "--model",
        "async", "--ndjson"},
       "0x3A9119E57C7C1414"},
      {{"cycle", "--min", "8", "--max", "16", "--model", "async", "--loss",
        "0.1", "--crash", "1", "--seed", "9"},
       "0xA86EB8EB06C05371"},
      {{"cycle", "--min", "8", "--max", "8", "--model", "async", "--timeout",
        "3", "--adversary", "climb", "--budget", "8", "--ndjson"},
       "0x3F11821C15099E2A"},
      {{"portgraph", "--min", "8", "--max", "8", "--d", "3", "--model",
        "async", "--timeout", "3", "--adversary", "pct", "--budget", "4"},
       "0x1F90B0C9F37FFA91"},
      // Synchronous families and fixed algorithms the rows above miss.
      {{"path", "--min", "2", "--max", "64"}, "0xC25DF43A317123AB"},
      {{"torus", "--min", "9", "--max", "100", "--ndjson", "--repeat", "3"},
       "0xF6DC8F7BA788922C"},
      {{"cycle", "--min", "8", "--max", "64", "--algorithm", "double-cover"},
       "0x59AB1CD380CA6280"},
      {{"cycle", "--min", "8", "--max", "64", "--algorithm", "all-edges",
        "--ndjson"},
       "0xC757D157EC2AD4F7"},
      {{"path", "--min", "8", "--max", "64", "--algorithm", "port-one"},
       "0x3C93C6A5DBFAF10F"},
      {{"regular", "--min", "10", "--max", "40", "--d", "3", "--algorithm",
        "odd-regular", "--param", "3"},
       "0xFB52807E799B0B3B"},
  };
  for (const auto& [flags, digest] : pinned) {
    for (const char* threads : {"1", "2", "8"}) {
      std::vector<std::string> args{"sweep"};
      args.insert(args.end(), flags.begin(), flags.end());
      args.insert(args.end(), {"--threads", threads});
      const auto run = invoke(args);
      std::string line;
      for (const auto& a : args) line += ' ' + a;
      EXPECT_EQ(run.code, 0) << line << ": " << run.err;
      EXPECT_EQ(fnv1a64(run.out), digest) << line;
    }
  }
}

TEST(Cli, SweepErrors) {
  EXPECT_EQ(invoke({"sweep"}).code, 2);
  EXPECT_EQ(invoke({"sweep", "nosuch"}).code, 2);
  EXPECT_EQ(invoke({"sweep", "cycle", "--min", "0"}).code, 2);
  EXPECT_EQ(invoke({"sweep", "cycle", "--min", "9", "--max", "4"}).code, 2);
  EXPECT_EQ(
      invoke({"sweep", "cycle", "--algorithm", "nosuch"}).code, 2);
  // cycle(2) is invalid: the generator error surfaces as exit code 1.
  EXPECT_EQ(invoke({"sweep", "cycle", "--min", "2", "--max", "2"}).code, 1);
  // Undeclared options, typos included, are rejected by name.
  const auto typo = invoke({"sweep", "cycle", "--thread", "4"});
  EXPECT_EQ(typo.code, 2);
  EXPECT_NE(typo.err.find("sweep: unknown option --thread"),
            std::string::npos)
      << typo.err;
  EXPECT_EQ(invoke({"sweep", "cycle", "--bogus"}).code, 2);
  // Numeric values are all digits and fit their type, or exit 2 naming
  // the flag.
  const auto trailing = invoke({"sweep", "cycle", "--repeat", "2x"});
  EXPECT_EQ(trailing.code, 2);
  EXPECT_NE(trailing.err.find("--repeat"), std::string::npos) << trailing.err;
  EXPECT_EQ(invoke({"sweep", "cycle", "--repeat", "abc"}).code, 2);
  EXPECT_EQ(invoke({"sweep", "cycle", "--threads", "99999999999"}).code, 2);
  EXPECT_EQ(invoke({"sweep", "cycle", "--seed"}).code, 2);
  // A boolean flag never swallows the family.
  EXPECT_EQ(invoke({"sweep", "--ndjson", "cycle", "--min", "8", "--max",
                    "8"})
                .code,
            0);
  // The retired process-shard flag points at its replacement.
  const auto shards = invoke({"sweep", "cycle", "--shards", "2"});
  EXPECT_EQ(shards.code, 2);
  EXPECT_NE(shards.err.find("--threads"), std::string::npos) << shards.err;
}

TEST(Cli, SweepRejectsSchedulesThatOverflowARound) {
  // 3 + 3∆'² and 2∆ once wrapped in 32 bits: A(4294967295) ran a 6-round
  // schedule to a non-dominating row, double-cover(2^31) a 1-round one.
  for (const auto& [algorithm, param] :
       {std::pair<std::string, std::string>{"bounded-degree", "4294967295"},
        {"double-cover", "2147483648"}}) {
    const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                             "--algorithm", algorithm, "--param", param});
    EXPECT_NE(run.code, 0) << algorithm;
    EXPECT_EQ(run.out.find('|'), std::string::npos) << run.out;
    EXPECT_EQ(run.out.find("feasible"), std::string::npos) << run.out;
    EXPECT_NE(run.err.find(algorithm + ": max degree " + param),
              std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find("schedule"), std::string::npos) << run.err;
  }
  // The largest accepted parameter runs its whole schedule, the round cap
  // being the schedule's length; on an 8-cycle every node sleeps through
  // almost all of its 4,294,915,710 rounds.
  const auto largest =
      invoke({"sweep", "cycle", "--min", "8", "--max", "8", "--algorithm",
              "bounded-degree", "--param", "37837"});
  EXPECT_EQ(largest.code, 0) << largest.err;
  EXPECT_NE(largest.out.find("4294915710"), std::string::npos) << largest.out;
}

TEST(Cli, SweepRunsSchedulesPastTheDefaultRoundCap) {
  // At n = 65536 the power-law graph has max degree 226, so A(∆) runs
  // 3 + 3 · 227² = 154,590 rounds, past the 100,000 default that once
  // ended this sweep with exit 1.
  const auto run = invoke({"sweep", "powerlaw", "--min", "65536", "--max",
                           "65536", "--threads", "1"});
  ASSERT_EQ(run.code, 0) << run.err;
  std::istringstream lines(run.out);
  std::size_t rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("65536 ", 0) == 0) {
      ++rows;
      EXPECT_NE(line.find("154590"), std::string::npos) << line;
      EXPECT_NE(line.find(" yes"), std::string::npos) << line;
    }
  }
  EXPECT_EQ(rows, 1u) << run.out;
}

TEST(Cli, SweepPrintsNothingWhenAFactoryRejectsItsParameter) {
  // The validated sweep once printed its `sweep: family=...` header before
  // the batch built the factories, leaving a header for jobs that never
  // ran ahead of the error.
  for (const bool ndjson : {false, true}) {
    std::vector<std::string> args{"sweep",       "cycle",          "--min",
                                  "8",           "--max",          "8",
                                  "--algorithm", "bounded-degree", "--param",
                                  "37838"};
    if (ndjson) args.emplace_back("--ndjson");
    const auto run = invoke(args);
    EXPECT_EQ(run.code, 1) << "ndjson=" << ndjson;
    EXPECT_EQ(run.out, "") << "ndjson=" << ndjson;
    EXPECT_NE(run.err.find("max degree 37838"), std::string::npos)
        << run.err;
  }
}

TEST(Cli, SweepRejectsAParamThatDoesNotFitAnInstance) {
  // A parameter that the factory accepts but an instance does not fit
  // (odd-regular on another degree, a max degree past A(∆)'s or
  // double-cover's) once failed inside the first job on that instance,
  // after the header and, in NDJSON, after the rows before it.
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"sweep", "regular", "--min", "8", "--max", "16", "--d", "3",
            "--algorithm", "odd-regular", "--param", "5"},
           {"sweep", "powerlaw", "--min", "8", "--max", "64", "--algorithm",
            "bounded-degree", "--param", "3", "--ndjson"},
           {"sweep", "cycle", "--min", "8", "--max", "16", "--algorithm",
            "double-cover", "--param", "1"}}) {
    const auto run = invoke(args);
    EXPECT_EQ(run.code, 1) << args[1];
    EXPECT_EQ(run.out, "") << args[1];
    EXPECT_NE(run.err.find("--param"), std::string::npos) << run.err;
  }
}

TEST(Cli, SweepRejectsARepeatCountThatOverflowsTheJobList) {
  // sizes × repeat once reached vector::reserve unchecked, which leaked
  // std::length_error as "sweep: vector::reserve".
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                           "--repeat", "18446744073709551615"});
  EXPECT_EQ(run.code, 2);
  EXPECT_TRUE(run.out.empty()) << run.out;
  EXPECT_NE(run.err.find("--repeat"), std::string::npos) << run.err;
  EXPECT_EQ(run.err.find("vector"), std::string::npos) << run.err;
}

TEST(Cli, SweepRejectsADegreeBeyondAPort) {
  // --d 2^32 + 1 once narrowed to 1: degree-1 multigraphs under a header
  // that said d=4294967297.
  const auto run = invoke(
      {"sweep", "portgraph", "--min", "8", "--max", "8", "--d", "4294967297"});
  EXPECT_EQ(run.code, 2);
  EXPECT_TRUE(run.out.empty()) << run.out;
  EXPECT_NE(run.err.find("--d"), std::string::npos) << run.err;
  // The widest degree parses, and the builder rejects the 8 · (2^32 − 1)
  // ports it would need before allocating any table.
  const auto widest = invoke({"sweep", "portgraph", "--min", "8", "--max",
                              "8", "--d", "4294967295"});
  EXPECT_EQ(widest.code, 1);
  EXPECT_NE(widest.err.find("34359738360 ports"), std::string::npos)
      << widest.err;
}

TEST(Cli, FixedDegreeFamiliesAreSizedBeforeGeneration) {
  // Each of these once asked for tens of GB and ended in std::bad_alloc.
  // random_regular checks its n·d/2 edges before building its circulant,
  // and a sweep its largest instance's ports before generating: n·d for
  // regular and portgraph, twice the edges of the other families but
  // powerlaw (never run these at a tree without the check).
  const struct {
    std::vector<std::string> args;
    std::string count;
  } cases[] = {
      {{"generate", "regular", "3000000000", "4"}, "6000000000 edges"},
      {{"sweep", "regular", "--min", "3000000000", "--max", "3000000000",
        "--d", "4"},
       "12000000000 ports"},
      {{"sweep", "regular", "--min", "2000000000", "--max", "2000000000",
        "--d", "4"},
       "8000000000 ports"},
      {{"sweep", "portgraph", "--min", "2000000000", "--max", "2000000000",
        "--d", "3"},
       "6000000000 ports"},
      {{"sweep", "path", "--min", "3000000000", "--max", "3000000000"},
       "5999999998 ports"},
      {{"sweep", "cycle", "--min", "2200000000", "--max", "2200000000"},
       "4400000000 ports"},
      {{"sweep", "grid", "--min", "2200000000", "--max", "2200000000"},
       "8799753248 ports"},
      {{"sweep", "torus", "--min", "1100000000", "--max", "1100000000"},
       "4399934224 ports"},
      {{"sweep", "caterpillar", "--min", "3000000000", "--max",
        "3000000000"},
       "5999999998 ports"},
  };
  for (const auto& c : cases) {
    const auto run = invoke(c.args);
    EXPECT_EQ(run.code, 1) << c.count;
    EXPECT_TRUE(run.out.empty()) << run.out;
    EXPECT_NE(run.err.find(c.count), std::string::npos) << run.err;
  }
  // The largest size of a range is the one checked.
  const auto range = invoke({"sweep", "regular", "--min", "8", "--max",
                             "2147483648", "--d", "2"});
  EXPECT_EQ(range.code, 1);
  EXPECT_TRUE(range.out.empty()) << range.out;
  EXPECT_NE(range.err.find("n = 2147483648"), std::string::npos) << range.err;
}

TEST(Cli, SweepRejectsASizeRangeBeyondTheJobCap) {
  // --step 1 up to 2^64 − 1 once added sizes until memory ran out.
  const auto run = invoke({"sweep", "cycle", "--min", "1", "--max",
                           "18446744073709551615", "--step", "1"});
  EXPECT_EQ(run.code, 2);
  EXPECT_TRUE(run.out.empty()) << run.out;
  EXPECT_NE(run.err.find("--step"), std::string::npos) << run.err;
}

TEST(Cli, SweepRejectsMoreJobsThanTheCap) {
  const auto run = invoke(
      {"sweep", "cycle", "--min", "8", "--max", "8", "--repeat", "65537"});
  EXPECT_EQ(run.code, 2);
  EXPECT_TRUE(run.out.empty()) << run.out;
  EXPECT_NE(run.err.find("--repeat 65537"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("65536"), std::string::npos) << run.err;
  // Two sizes halve the repeats that fit.
  EXPECT_EQ(invoke({"sweep", "cycle", "--min", "8", "--max", "16",
                    "--repeat", "32769"})
                .code,
            2);
}

/// The value of `"key":` in a one-line JSON object ("" when absent).
/// Good enough for the flat objects the sweep emits — no nesting, no
/// escaped strings in the fields under test.
std::string json_field(const std::string& line, const std::string& key) {
  const auto pos = line.find('"' + key + "\":");
  if (pos == std::string::npos) return "";
  const auto start = pos + key.size() + 3;
  const auto end = line.find_first_of(",}", start);
  return line.substr(start, end - start);
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

TEST(Cli, SweepModelSyncDefaultIsByteIdentical) {
  // `--model sync` must be a no-op: same bytes as omitting the flag, in
  // both table and NDJSON mode.
  const std::vector<std::string> base{"sweep",  "cycle", "--min", "8",
                                      "--max",  "32",    "--seed", "3"};
  for (const bool ndjson : {false, true}) {
    auto plain = base;
    auto spelled = base;
    spelled.insert(spelled.end(), {"--model", "sync"});
    if (ndjson) {
      plain.push_back("--ndjson");
      spelled.push_back("--ndjson");
    }
    const auto a = invoke(plain);
    const auto b = invoke(spelled);
    ASSERT_EQ(a.code, 0) << a.err;
    EXPECT_EQ(b.code, a.code);
    EXPECT_EQ(b.out, a.out);
    EXPECT_EQ(b.err, a.err);
    // The sync rows never carry the async-only fields.
    EXPECT_EQ(a.out.find("\"model\""), std::string::npos);
    EXPECT_EQ(a.out.find("\"consistent\""), std::string::npos);
  }
}

TEST(Cli, SweepModelAsyncOracleRowsMatchSyncRows) {
  // The α-synchronizer differential oracle at the CLI layer: a fault-free
  // async sweep must report the same rounds/messages/solution/feasible as
  // the sync sweep, row by row, under an adversarial delay model.
  const std::vector<std::string> base{
      "sweep", "regular", "--min", "8",    "--max",  "32", "--d",
      "3",     "--seed",  "11",    "--ndjson"};
  auto async_args = base;
  async_args.insert(async_args.end(),
                    {"--model", "async", "--delay", "uniform:1:9"});
  const auto sync = invoke(base);
  const auto async = invoke(async_args);
  ASSERT_EQ(sync.code, 0) << sync.err;
  ASSERT_EQ(async.code, 0) << async.err;

  const auto sync_lines = lines_of(sync.out);
  const auto async_lines = lines_of(async.out);
  ASSERT_EQ(sync_lines.size(), async_lines.size());
  for (std::size_t i = 0; i + 1 < sync_lines.size(); ++i) {  // skip summary
    EXPECT_EQ(json_field(async_lines[i], "model"), "\"async\"");
    EXPECT_EQ(json_field(async_lines[i], "consistent"), "true");
    for (const char* key :
         {"n", "nodes", "edges", "rounds", "messages", "solution",
          "feasible", "algorithm"}) {
      EXPECT_EQ(json_field(async_lines[i], key), json_field(sync_lines[i], key))
          << "row " << i << " field " << key;
    }
  }
}

TEST(Cli, SweepModelAsyncEchoesConfigInSummary) {
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                           "--ndjson", "--model", "async", "--delay",
                           "geometric:3", "--loss", "0.1", "--crash", "1",
                           "--seed", "4"});
  ASSERT_EQ(run.code, 0) << run.err;
  const auto lines = lines_of(run.out);
  ASSERT_FALSE(lines.empty());
  const auto& summary = lines.back();
  ASSERT_NE(summary.find("\"summary\""), std::string::npos);
  EXPECT_NE(summary.find("\"model\":\"async\""), std::string::npos);
  EXPECT_NE(summary.find("\"delay\":\"geometric:3:24\""), std::string::npos);
  EXPECT_NE(summary.find("\"loss\":0.1"), std::string::npos);
  EXPECT_NE(summary.find("\"crash\":1"), std::string::npos);
  // Faults were requested, so the synchronizer defaulted off.
  EXPECT_NE(summary.find("\"synchronizer\":false"), std::string::npos);

  // The portgraph family carries the async fields too.
  const auto multi = invoke({"sweep", "portgraph", "--min", "4", "--max", "8",
                             "--d", "3", "--ndjson", "--model", "async"});
  ASSERT_EQ(multi.code, 0) << multi.err;
  EXPECT_NE(multi.out.find("\"model\":\"async\""), std::string::npos);
  EXPECT_NE(multi.out.find("\"consistent\":true"), std::string::npos);
}

TEST(Cli, SweepModelAsyncFaultyIsDeterministicAcrossThreadCounts) {
  // Fault injection draws from per-job seeds fixed at construction, so a
  // faulty sweep is byte-identical between --threads 1 and --threads 8.
  // port-one: the one protocol that tolerates fault-induced silence (the
  // handshake algorithms detect it and abort the job, by design).
  const std::vector<std::string> base{
      "sweep",   "regular", "--min",  "8",     "--max", "32",
      "--d",     "3",       "--seed", "7",     "--ndjson",
      "--algorithm", "port-one",
      "--model", "async",   "--delay", "uniform:1:6",
      "--loss",  "0.1",     "--dup",  "0.05",  "--crash", "2"};
  auto one = base;
  one.insert(one.end(), {"--threads", "1"});
  auto many = base;
  many.insert(many.end(), {"--threads", "8"});
  const auto a = invoke(one);
  const auto b = invoke(many);
  ASSERT_EQ(a.code, 0) << a.err;
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_EQ(a.out, b.out);
}

TEST(Cli, SweepFaultSilenceIsNotAnInternalError) {
  // A crashed neighbour never says hello: the handshake program names the
  // missing message (an ExecutionError), where it once reported
  // "internal invariant violated".
  for (const auto& family :
       std::vector<std::vector<std::string>>{{"caterpillar"},
                                             {"portgraph", "--d", "3"}}) {
    std::vector<std::string> args{"sweep"};
    args.insert(args.end(), family.begin(), family.end());
    args.insert(args.end(), {"--min", "12", "--max", "48", "--model", "async",
                             "--crash", "2", "--dup", "0.1", "--loss", "0.05",
                             "--seed", "4"});
    const auto run = invoke(args);
    EXPECT_EQ(run.err.find("internal invariant violated"), std::string::npos)
        << run.err;
    EXPECT_NE((run.out + run.err).find("no hello message on port"),
              std::string::npos)
        << family[0] << ": " << run.err;
  }
}

TEST(Cli, SweepModelAsyncRejections) {
  const auto fails = [](std::vector<std::string> extra) {
    std::vector<std::string> args{"sweep", "cycle", "--min", "8", "--max",
                                  "8"};
    args.insert(args.end(), extra.begin(), extra.end());
    return invoke(args).code;
  };
  EXPECT_EQ(fails({"--model", "turbo"}), 2);
  // The retired process-shard flags are command-line errors, with or
  // without the async model.
  EXPECT_EQ(fails({"--model", "async", "--adversary", "random", "--shards",
                   "2"}),
            2);
  EXPECT_EQ(fails({"--no-pool"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--delay", "bogus:1"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--delay", "uniform:9:1"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--loss", "1.5"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--loss", "nope"}), 2);
  // Probabilities parse strictly: the whole value, finite, in [0, 1].
  for (const std::string flag : {"--loss", "--dup"}) {
    for (const std::string value :
         {"nan", "NaN", "-nan", "inf", "0.5x", "0.5 ", "-0.1", "1.0000001",
          "", "0x1p-1"}) {
      std::vector<std::string> args{"sweep",  "cycle", "--min",
                                    "8",      "--max", "8",
                                    "--model", "async", "--synchronizer",
                                    "off",    flag,    value};
      const auto run = invoke(args);
      EXPECT_EQ(run.code, 2) << flag << " '" << value << "'";
      EXPECT_NE(run.err.find("sweep: " + flag), std::string::npos)
          << run.err;
    }
  }
  EXPECT_EQ(fails({"--model", "async", "--synchronizer", "off", "--loss",
                   "0.25", "--dup", "1e-1"}),
            0);
  EXPECT_EQ(
      fails({"--model", "async", "--loss", "0.5", "--synchronizer", "on"}),
      2);
  EXPECT_EQ(fails({"--model", "async", "--synchronizer", "sideways"}), 2);
}

/// A free-running async port-one sweep on one 16-node 3-regular instance,
/// the fault-free setting where any lost message shows as inconsistency.
std::vector<std::string> free_running_port_one(
    std::vector<std::string> extra) {
  std::vector<std::string> args{"sweep",       "regular",  "--min",
                                "16",          "--max",    "16",
                                "--d",         "3",        "--repeat",
                                "1",           "--algorithm", "port-one",
                                "--model",     "async",    "--synchronizer",
                                "off",         "--ndjson"};
  args.insert(args.end(), extra.begin(), extra.end());
  return args;
}

TEST(Cli, SweepAsyncDelayAboveTheTickCapExits2) {
  // fixed:2^61 made the derived timeout 8 x 2^61 wrap to 0: every deadline
  // fired at its own send tick and the fault-free run came out
  // inconsistent.  A delay the clock can hold stays consistent.
  const auto ok = invoke(free_running_port_one({"--delay", "fixed:1000000"}));
  ASSERT_EQ(ok.code, 0) << ok.err;
  EXPECT_EQ(json_field(lines_of(ok.out).front(), "consistent"), "true");
  const auto wrapped =
      invoke(free_running_port_one({"--delay", "fixed:2305843009213693952"}));
  EXPECT_EQ(wrapped.code, 2);
  EXPECT_NE(wrapped.err.find("2^32"), std::string::npos) << wrapped.err;
}

TEST(Cli, SweepAsyncTimeoutAboveTheTickCapExits2) {
  const auto wrapped =
      invoke(free_running_port_one({"--timeout", "18446744073709551615"}));
  EXPECT_EQ(wrapped.code, 2);
  EXPECT_NE(wrapped.err.find("2^32"), std::string::npos) << wrapped.err;
  const auto at_cap =
      invoke(free_running_port_one({"--timeout", "4294967296"}));
  EXPECT_EQ(at_cap.code, 0) << at_cap.err;
}

TEST(Cli, SweepAdversaryEchoesConfigAndEmitsWorstCaseRows) {
  // One instance, one search: a row with the full worst-case metric set and
  // a summary echoing the adversary configuration.
  const auto run = invoke({"sweep", "cycle", "--min", "8", "--max", "8",
                           "--model", "async", "--adversary", "delay",
                           "--budget", "8", "--timeout", "3", "--seed", "4",
                           "--ndjson"});
  ASSERT_EQ(run.code, 0) << run.err;
  const auto lines = lines_of(run.out);
  ASSERT_EQ(lines.size(), 2u) << run.out;

  const auto& row = lines.front();
  EXPECT_EQ(json_field(row, "family"), "\"cycle\"");
  EXPECT_EQ(json_field(row, "adversary"), "\"delay\"");
  EXPECT_EQ(json_field(row, "budget"), "8");
  EXPECT_EQ(json_field(row, "evaluated"), "8");
  for (const char* key :
       {"failures", "worst_rounds", "worst_time", "worst_selected",
        "worst_inconsistent", "primary", "shrunk_changes",
        "shrunk_overrides"}) {
    EXPECT_NE(json_field(row, key), "") << "row missing " << key;
  }
  // cycle(8) has 8 <= 24 edges: the exact optimum and the worst-case
  // approximation ratio are part of the row.
  EXPECT_EQ(json_field(row, "optimum"), "3");
  EXPECT_NE(json_field(row, "worst_ratio"), "");

  const auto& summary = lines.back();
  ASSERT_NE(summary.find("\"summary\""), std::string::npos);
  EXPECT_EQ(json_field(summary, "adversary"), "\"delay\"");
  EXPECT_EQ(json_field(summary, "budget"), "8");
  // Adversaries imply free-running mode unless overridden.
  EXPECT_NE(summary.find("\"synchronizer\":false"), std::string::npos);
}

TEST(Cli, SweepAdversaryReplayRoundTripIsByteIdentical) {
  // The differential replay acceptance path end to end: search under
  // --threads 1 and --threads 8 (byte-identical reports and replay files),
  // then re-execute the serialized worst schedule — every recorded metric
  // must reproduce, again independent of the thread count.
  const auto dir = ::testing::TempDir() + "cli_adversary_replay";
  std::filesystem::create_directories(dir);
  const std::vector<std::string> base{
      "sweep", "cycle", "--min", "8", "--max", "8", "--model", "async",
      "--adversary", "delay", "--budget", "8", "--timeout", "3",
      "--seed", "4", "--ndjson", "--replay-out", dir};
  auto one = base;
  one.insert(one.end(), {"--threads", "1"});
  auto many = base;
  many.insert(many.end(), {"--threads", "8"});
  const auto a = invoke(one);
  const auto b = invoke(many);
  ASSERT_EQ(a.code, 0) << a.err;
  ASSERT_EQ(b.code, 0) << b.err;
  EXPECT_EQ(a.out, b.out);

  auto path = json_field(lines_of(a.out).front(), "replay");
  ASSERT_GE(path.size(), 2u);
  path = path.substr(1, path.size() - 2);  // strip the JSON quotes
  EXPECT_EQ(path, dir + "/worst-cycle-0.edsched");

  const auto replay_one = invoke({"sweep", "--replay", path, "--threads", "1"});
  const auto replay_many =
      invoke({"sweep", "--replay", path, "--threads", "8"});
  ASSERT_EQ(replay_one.code, 0) << replay_one.err;
  ASSERT_EQ(replay_many.code, 0) << replay_many.err;
  EXPECT_EQ(replay_one.out, replay_many.out);
  EXPECT_NE(replay_one.out.find("replay: schema=1 strategy=delay"),
            std::string::npos)
      << replay_one.out;
  EXPECT_NE(replay_one.out.find("--- transcript ---"), std::string::npos);
  EXPECT_NE(replay_one.out.find("--- fault log ---"), std::string::npos);
  EXPECT_NE(replay_one.out.find("reproduced"), std::string::npos);
  EXPECT_EQ(replay_one.out.find("DRIFT"), std::string::npos) << replay_one.out;
}

TEST(Cli, SweepAdversaryRejections) {
  const auto fails = [](std::vector<std::string> extra) {
    std::vector<std::string> args{"sweep", "cycle", "--min", "8", "--max",
                                  "8"};
    args.insert(args.end(), extra.begin(), extra.end());
    return invoke(args).code;
  };
  // The synchronous model has no schedules to attack.
  EXPECT_EQ(fails({"--adversary", "delay", "--budget", "4"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--adversary", "chaos",
                   "--budget", "4"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--adversary", "delay",
                   "--budget", "0"}), 2);
  // --budget / --replay-out are adversary-only knobs.
  EXPECT_EQ(fails({"--model", "async", "--budget", "4"}), 2);
  EXPECT_EQ(fails({"--budget", "4"}), 2);
  EXPECT_EQ(fails({"--model", "async", "--replay-out", "/tmp"}), 2);
  // The α-synchronizer absorbs every schedule: refuse the no-op search.
  EXPECT_EQ(fails({"--model", "async", "--adversary", "pct", "--budget", "4",
                   "--synchronizer", "on"}), 2);
  // Replay rejections: missing file, not a replay file.
  EXPECT_EQ(invoke({"sweep", "--replay", "/no/such/file.edsched"}).code, 2);
  const auto garbage = ::testing::TempDir() + "cli_garbage.edsched";
  {
    std::ofstream sink(garbage);
    sink << "not a replay\n";
  }
  EXPECT_EQ(invoke({"sweep", "--replay", garbage}).code, 2);
}

TEST(Cli, HostileTextInputsExitWithTypedErrors) {
  // Each hostile input ends in the decoder's error naming the field —
  // exit 1 from solve and run-portgraph, exit 2 from sweep --replay —
  // never in a signal or a leaked std::bad_alloc.
  using Case = std::pair<std::string, std::string>;
  for (const auto& [text, field] : std::vector<Case>{
           {"-1 0\n", "node count n"},
           {"4000000000 1\n0 1\n", "node count n"},
           {"3 -1\n", "edge count m"},
           {"3 2\n0 1 extra\n1 2\n", "edge 'u v'"}}) {
    const auto run = invoke({"solve"}, text);
    EXPECT_EQ(run.code, 1) << text;
    EXPECT_NE(run.err.find("read_edge_list: line "), std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find(field), std::string::npos) << run.err;
  }
  for (const auto& [text, field] : std::vector<Case>{
           {"ports -1\ndeg 1\n", "node count"},
           {"ports 4000000000\n", "node count"},
           {"ports 2\ndeg 4000000000 1\n", "degrees sum"},
           {"ports 2\ndeg 1 1 7\n", "'deg'"},
           {"ports 2\ndeg 1 1\nconn 0 1 1 1 junk\n", "'conn'"}}) {
    const auto run = invoke({"run-portgraph", "--algorithm", "port-one"}, text);
    EXPECT_EQ(run.code, 1) << text;
    EXPECT_NE(run.err.find("read_port_graph: line "), std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find(field), std::string::npos) << run.err;
  }
  const auto path = ::testing::TempDir() + "cli_hostile.edsched";
  for (const auto& [record, field] : std::vector<Case>{
           {"seed -1", "seed"},
           {"seed 7 junk", "'seed'"},
           {"param 4294967298", "param"}}) {
    {
      std::ofstream sink(path);
      sink << "edsched 1\nalgorithm port-one\n" << record
           << "\ngraph\nports 2\ndeg 1 1\nconn 0 1 1 1\n";
    }
    const auto run = invoke({"sweep", "--replay", path});
    EXPECT_EQ(run.code, 2) << record;
    EXPECT_NE(run.err.find("decode_replay: line 3: "), std::string::npos)
        << run.err;
    EXPECT_NE(run.err.find(field), std::string::npos) << run.err;
  }
}

}  // namespace
}  // namespace eds::cli
