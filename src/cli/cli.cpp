#include "cli/cli.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "algo/driver.hpp"
#include "analysis/ratio.hpp"
#include "analysis/verify.hpp"
#include "exact/exact_eds.hpp"
#include "factor/two_factor.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "lb/lower_bounds.hpp"
#include "port/io.hpp"
#include "port/ported_graph.hpp"
#include "port/random_port_graph.hpp"
#include "port/views.hpp"
#include "runtime/batch.hpp"
#include "runtime/fault.hpp"
#include "runtime/outputs.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/sched.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/text.hpp"

namespace eds::cli {

namespace {

/// A malformed command line (undeclared option, missing or non-numeric
/// value); run_cli prints it after the command name and exits 2.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One option a command declares: `--name VALUE`, or the bare flag
/// `--name` when `takes_value` is false.
struct OptionSpec {
  std::string_view name;
  bool takes_value = true;
};

/// Argument cracker: positional args plus the options the command
/// declares.  An undeclared option is a UsageError, a flag never consumes
/// the next token, and a value option always does (it must not start
/// with "--").  Positional 0 is the command itself.
class Args {
 public:
  Args(const std::vector<std::string>& raw, std::span<const OptionSpec> spec) {
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i].rfind("--", 0) != 0) {
        positional_.push_back(raw[i]);
        continue;
      }
      const auto key = raw[i].substr(2);
      const OptionSpec* option = nullptr;
      for (const auto& candidate : spec) {
        if (candidate.name == key) option = &candidate;
      }
      if (option == nullptr) throw UsageError("unknown option --" + key);
      if (!option->takes_value) {
        options_[key] = "";
      } else if (i + 1 < raw.size() && raw[i + 1].rfind("--", 0) != 0) {
        options_[key] = raw[++i];
      } else {
        throw UsageError("--" + key + " needs a value");
      }
    }
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return options_.count(key) > 0;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = options_.find(key);
    return it == options_.end() ? fallback : it->second;
  }

  /// The value of `--key` as an unsigned integer of type T, or `fallback`
  /// when absent.  The value must be all digits and fit T; anything else
  /// is a UsageError naming the flag.
  template <typename T>
  [[nodiscard]] T get_uint(const std::string& key, T fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    return parse_uint<T, UsageError>(it->second, "--" + key);
  }

  /// The value of `--key` as a probability, or `fallback` when absent.  The
  /// whole value must be one decimal number in [0, 1] (NaN and infinities
  /// are not); anything else is a UsageError naming the flag.
  [[nodiscard]] double get_probability(const std::string& key,
                                       double fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    return parse_probability<UsageError>(it->second, "--" + key);
  }

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
};

constexpr OptionSpec kGenerateOptions[] = {{"seed"}};
constexpr OptionSpec kSolveOptions[] = {
    {"algorithm"}, {"param"},          {"ports"},       {"seed"},
    {"threads"},   {"exact", false},   {"dot", false},
};
constexpr OptionSpec kRunPortgraphOptions[] = {
    {"algorithm"}, {"param"}, {"threads"}, {"trace", false}};
constexpr OptionSpec kViewsOptions[] = {{"radius"}};
constexpr OptionSpec kSweepOptions[] = {
    {"min"},         {"max"},        {"step"},
    {"d"},           {"algorithm"},  {"param"},
    {"seed"},        {"threads"},    {"repeat"},
    {"ndjson", false},
    {"model"},       {"delay"},      {"loss"},
    {"dup"},         {"crash"},      {"timeout"},
    {"synchronizer"},
    {"adversary"},   {"budget"},     {"replay-out"},
    {"replay"},
    {"shards"},  // retired: parse_sweep rejects it, pointing at --threads
};

void usage(std::ostream& out) {
  out << "edsim — distributed edge dominating sets (Suomela, PODC 2010)\n"
         "\n"
         "usage: edsim <command> [options]\n"
         "\n"
         "commands:\n"
         "  generate <family> [args] [--seed S]\n"
         "      families: cycle N | path N | complete N | regular N D |\n"
         "                grid R C | torus R C | hypercube DIM | petersen |\n"
         "                tree N | bounded N DELTA M\n"
         "      emits an edge list ('N M' header, one edge per line)\n"
         "  solve [--algorithm auto|all-edges|port-one|odd-regular|\n"
         "         bounded-degree|double-cover] [--param P]\n"
         "        [--ports random|canonical|factor] [--seed S]\n"
         "        [--threads N] [--exact] [--dot]\n"
         "      reads an edge list from stdin, runs the algorithm, prints\n"
         "      the solution, round/message counts, and (with --exact) the\n"
         "      approximation ratio; --dot appends Graphviz output;\n"
         "      --threads N runs the engine's parallel policy (same result)\n"
         "  sweep <family> [--min N] [--max N] [--step S] [--d D]\n"
         "        [--algorithm A] [--param P] [--seed S] [--threads N]\n"
         "        [--repeat R] [--ndjson]\n"
         "        [--model sync|async] [--delay SPEC] [--loss P] [--dup P]\n"
         "        [--crash K] [--timeout T] [--synchronizer on|off]\n"
         "        [--adversary random|pct|delay|climb] [--budget N]\n"
         "        [--replay-out DIR] | [--replay FILE]\n"
         "      families: path | cycle | regular | grid | torus |\n"
         "                caterpillar | powerlaw | portgraph\n"
         "      fans one instance per size across the batch engine's thread\n"
         "      pool (--threads N workers, 0 = all hardware threads) and\n"
         "      prints one row per instance, in order, independent of N;\n"
         "      sizes run --min..--max doubling, or by +S with --step S;\n"
         "      regular/portgraph use degree --d (portgraph instances are\n"
         "      random port-numbered multigraphs: loops, parallel edges);\n"
         "      grid/torus round n to a square side, caterpillar grows a\n"
         "      2-leg spine, powerlaw samples P(deg) ~ deg^-2.5;\n"
         "      --repeat R runs each instance R times (the plan cache\n"
         "      counts each instance's structure once); a sweep runs at\n"
         "      most 65536 jobs (sizes x R);\n"
         "      --ndjson streams one JSON object per job as results arrive\n"
         "      (in job order, no full-batch barrier) plus a summary line\n"
         "      with the plan-cache counters; every object carries\n"
         "      \"schema\":2;\n"
         "      --model async runs the event-driven asynchronous engine:\n"
         "      --delay fixed:T|uniform:LO:HI|geometric:MEAN[:CAP] is the\n"
         "      per-link delay model, the α-synchronizer (--synchronizer,\n"
         "      default on) makes results bit-identical to --model sync,\n"
         "      and with --synchronizer off (the default once any fault is\n"
         "      requested) --loss P / --dup P / --crash K inject message\n"
         "      loss, duplication and K crashed nodes per instance while\n"
         "      --timeout T bounds how long a round waits (0 = auto);\n"
         "      rows gain \"model\"/\"consistent\" fields, degradation is\n"
         "      reported, not fatal;\n"
         "      --adversary STRATEGY searches --budget N schedules per\n"
         "      instance for worst-case behaviour (random = seed-random\n"
         "      baseline, pct = random-priority change points, delay =\n"
         "      bounded delay-matrix perturbation, climb = greedy\n"
         "      hill-climb), requires --model async with the synchronizer\n"
         "      off, shrinks each instance's worst schedule to a minimal\n"
         "      reproducer, and with --replay-out DIR serializes it as a\n"
         "      versioned replay file; `sweep --replay FILE` re-executes a\n"
         "      replay file bit-identically (transcript, fault log and\n"
         "      outputs) and verifies its recorded metrics\n"
         "  lower-bound <d>\n"
         "      emits the Theorem 1 (even d) / Theorem 2 (odd d) adversarial\n"
         "      instance in port-graph format, with its optimum\n"
         "  run-portgraph --algorithm A [--param P] [--threads N]\n"
         "      reads a port graph (multigraphs allowed) from stdin and\n"
         "      prints each node's output port set\n"
         "  views [--radius T]\n"
         "      reads a port graph and prints view equivalence classes\n"
         "  table1\n"
         "      prints the measured Table 1 (worst-case tightness)\n"
         "  help\n";
}

int cmd_generate(const Args& args, std::ostream& out, std::ostream& err) {
  const auto& pos = args.positional();
  if (pos.size() < 2) {
    err << "generate: missing family\n";
    return 2;
  }
  Rng rng(args.get_uint<std::uint64_t>("seed", 1));
  const auto& family = pos[1];
  // The positional number at `index`, named in errors after the usage
  // line ("cycle N").
  auto num = [&pos, &err, &family](std::size_t index, const char* name)
      -> std::optional<std::size_t> {
    if (index >= pos.size()) {
      err << "generate: missing numeric argument\n";
      return std::nullopt;
    }
    return parse_uint<std::size_t, UsageError>(pos[index],
                                               family + " " + name);
  };

  graph::SimpleGraph g;
  try {
    if (family == "cycle") {
      const auto n = num(2, "N");
      if (!n) return 2;
      g = graph::cycle(*n);
    } else if (family == "path") {
      const auto n = num(2, "N");
      if (!n) return 2;
      g = graph::path(*n);
    } else if (family == "complete") {
      const auto n = num(2, "N");
      if (!n) return 2;
      g = graph::complete(*n);
    } else if (family == "regular") {
      const auto n = num(2, "N");
      const auto d = num(3, "D");
      if (!n || !d) return 2;
      g = graph::random_regular(*n, *d, rng);
    } else if (family == "grid") {
      const auto r = num(2, "R");
      const auto c = num(3, "C");
      if (!r || !c) return 2;
      g = graph::grid(*r, *c);
    } else if (family == "torus") {
      const auto r = num(2, "R");
      const auto c = num(3, "C");
      if (!r || !c) return 2;
      g = graph::torus(*r, *c);
    } else if (family == "hypercube") {
      const auto dim = num(2, "DIM");
      if (!dim) return 2;
      g = graph::hypercube(*dim);
    } else if (family == "petersen") {
      g = graph::petersen();
    } else if (family == "tree") {
      const auto n = num(2, "N");
      if (!n) return 2;
      g = graph::random_tree(*n, rng);
    } else if (family == "bounded") {
      const auto n = num(2, "N");
      const auto delta = num(3, "DELTA");
      const auto m = num(4, "M");
      if (!n || !delta || !m) return 2;
      g = graph::random_bounded_degree(*n, *delta, *m, rng);
    } else {
      err << "generate: unknown family '" << family << "'\n";
      return 2;
    }
  } catch (const Error& e) {
    err << "generate: " << e.what() << '\n';
    return 1;
  }
  graph::write_edge_list(out, g);
  return 0;
}

int cmd_solve(const Args& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  graph::SimpleGraph g;
  try {
    g = graph::read_edge_list(in);
  } catch (const Error& e) {
    err << "solve: cannot read graph: " << e.what() << '\n';
    return 1;
  }

  Rng rng(args.get_uint<std::uint64_t>("seed", 1));
  const auto ports_kind = args.get("ports", "random");
  std::optional<port::PortedGraph> pg;
  try {
    if (ports_kind == "random") {
      pg.emplace(port::with_random_ports(g, rng));
    } else if (ports_kind == "canonical") {
      pg.emplace(port::with_canonical_ports(g));
    } else if (ports_kind == "factor") {
      pg.emplace(factor::with_factor_ports(g));
    } else {
      err << "solve: unknown port strategy '" << ports_kind << "'\n";
      return 2;
    }
  } catch (const Error& e) {
    err << "solve: cannot number ports: " << e.what() << '\n';
    return 1;
  }

  algo::Algorithm algorithm;
  port::Port param = 0;
  const auto algo_name = args.get("algorithm", "auto");
  if (algo_name == "auto") {
    const auto rec = algo::recommended_for(g);
    algorithm = rec.algorithm;
    param = rec.param;
  } else {
    const auto parsed = algo::algorithm_from_token(algo_name);
    if (!parsed) {
      err << "solve: unknown algorithm '" << algo_name << "'\n";
      return 2;
    }
    algorithm = *parsed;
    param = args.get_uint<port::Port>("param", 0);
  }

  runtime::ExecOptions exec;
  exec.threads = args.get_uint<unsigned>("threads", 1);

  try {
    const auto outcome = algo::run_algorithm(*pg, algorithm, param, exec);
    out << "graph: " << g.summary() << '\n';
    out << "algorithm: " << algo::algorithm_name(algorithm) << '\n';
    out << "rounds: " << outcome.stats.rounds
        << "  messages: " << outcome.stats.messages_sent << '\n';
    out << "solution: " << outcome.solution.size() << " edges\n";
    for (const auto e : outcome.solution.to_vector()) {
      out << "  " << g.edge(e).u << ' ' << g.edge(e).v << '\n';
    }
    const bool feasible = analysis::is_edge_dominating_set(g, outcome.solution);
    out << "edge-dominating: " << (feasible ? "yes" : "NO") << '\n';
    if (args.has("exact")) {
      const auto optimum = exact::minimum_eds_size(g);
      out << "optimum: " << optimum << '\n';
      if (optimum > 0) {
        out << "ratio: "
            << analysis::approximation_ratio(outcome.solution.size(), optimum)
            << '\n';
      }
    }
    if (args.has("dot")) {
      graph::write_dot(out, g, &outcome.solution, "solution");
    }
    return feasible ? 0 : 1;
  } catch (const Error& e) {
    err << "solve: " << e.what() << '\n';
    return 1;
  }
}

int cmd_lower_bound(const Args& args, std::ostream& out, std::ostream& err) {
  const auto& pos = args.positional();
  if (pos.size() < 2) {
    err << "lower-bound: missing degree\n";
    return 2;
  }
  const auto d = parse_uint<port::Port, UsageError>(pos[1], "degree");
  try {
    // The instance is printed as a port graph, so it must fit what
    // read_port_graph accepts; check before building anything.
    const std::uint64_t ports = d % 2 == 0 ? lb::even_lower_bound_ports(d)
                                           : lb::odd_lower_bound_ports(d);
    if (ports > kMaxTextPorts) {
      throw InvalidArgument(
          "d = " + std::to_string(d) + " builds a graph of " +
          (ports == std::numeric_limits<std::uint64_t>::max()
               ? std::string("2^64 or more")
               : std::to_string(ports)) +
          " ports; a port graph in text holds at most " +
          std::to_string(kMaxTextPorts));
    }
    const auto inst =
        d % 2 == 0 ? lb::even_lower_bound(d) : lb::odd_lower_bound(d);
    out << "# Theorem " << (d % 2 == 0 ? 1 : 2) << " construction, d = " << d
        << '\n';
    out << "# optimum " << inst.optimal.size() << ", forced ratio "
        << inst.forced_ratio << '\n';
    port::write_port_graph(out, inst.ported.ports());
    return 0;
  } catch (const Error& e) {
    err << "lower-bound: " << e.what() << '\n';
    return 1;
  }
}

/// Every node's output X(v), one `v: p1 p2 ...` line each.
void print_outputs(std::ostream& out, const port::PortGraph& g,
                   const runtime::RunResult& result) {
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    out << v << ':';
    for (const auto p : runtime::selected_ports(g, result, v)) out << ' ' << p;
    out << '\n';
  }
}

int cmd_run_portgraph(const Args& args, std::istream& in, std::ostream& out,
                      std::ostream& err) {
  const auto parsed = algo::algorithm_from_token(args.get("algorithm", ""));
  if (!parsed) {
    err << "run-portgraph: --algorithm required (see 'edsim help')\n";
    return 2;
  }
  try {
    const auto g = port::read_port_graph(in);
    auto param = args.get_uint<port::Port>("param", 0);
    if (param == 0) {
      for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
        param = std::max(param, g.degree(v));
      }
      param = std::max<port::Port>(param, 1);
    }
    const auto factory = algo::make_factory(*parsed, param);
    runtime::RunOptions options;
    options.max_rounds = algo::round_cap(*parsed, param);
    options.collect_messages = args.has("trace");
    options.exec.threads = args.get_uint<unsigned>("threads", 1);
    const auto result = runtime::run_synchronous(g, *factory, options);
    const auto selected = runtime::validated_selection_size(g, result);
    if (args.has("trace")) out << runtime::format_transcript(result);
    out << "nodes: " << g.num_nodes() << "  rounds: " << result.stats.rounds
        << "  selected edges: " << selected << '\n';
    print_outputs(out, g, result);
    return 0;
  } catch (const Error& e) {
    err << "run-portgraph: " << e.what() << '\n';
    return 1;
  }
}

/// `sweep --replay FILE`: re-executes a serialized adversarial schedule
/// bit-identically and verifies the recorded metrics.  Everything printed
/// is a pure function of the file contents — independent of --threads and
/// of the sweep flags, which are ignored on purpose (the file *is* the
/// configuration).  Exit 2 on a bad file (unreadable, schema mismatch,
/// malformed records, unknown algorithm), exit 1 when the rerun drifts
/// from the recorded metrics — the determinism alarm.
int cmd_sweep_replay(const Args& args, std::ostream& out, std::ostream& err) {
  const auto path = args.get("replay");
  if (path.empty()) {
    err << "sweep: --replay needs a file path\n";
    return 2;
  }
  std::ifstream file(path);
  if (!file) {
    err << "sweep: cannot open replay file '" << path << "'\n";
    return 2;
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  runtime::ReplayFile replay;
  try {
    replay = runtime::decode_replay(buffer.str());
  } catch (const Error& e) {
    err << "sweep: " << e.what() << '\n';
    return 2;
  }
  const auto algorithm = algo::algorithm_from_token(replay.algorithm);
  if (!algorithm) {
    err << "sweep: replay file names unknown algorithm '" << replay.algorithm
        << "'\n";
    return 2;
  }
  port::PortGraph g;
  try {
    g = port::from_port_graph_string(replay.graph_text);
  } catch (const Error& e) {
    err << "sweep: replay graph: " << e.what() << '\n';
    return 2;
  }
  const auto param = static_cast<port::Port>(replay.param);
  const auto factory = algo::make_factory(*algorithm, param);
  runtime::RunOptions options;
  options.max_rounds = algo::round_cap(*algorithm, param);
  options.collect_messages = true;
  runtime::AsyncResult result;
  try {
    result = runtime::run_asynchronous(g, *factory, options, replay.options);
  } catch (const Error& e) {
    err << "sweep: replay run failed: " << e.what() << '\n';
    return 1;
  }
  const auto metrics = runtime::measure_schedule(g, result);
  out << "replay: schema=" << runtime::kReplaySchemaVersion
      << " strategy=" << replay.strategy << " algorithm=" << replay.algorithm
      << " param=" << replay.param << " nodes=" << g.num_nodes()
      << " synchronizer=" << (replay.options.synchronizer ? "on" : "off")
      << '\n';
  out << "metrics: rounds=" << metrics.rounds
      << " time=" << metrics.virtual_time << " selected=" << metrics.selected
      << " inconsistent=" << metrics.inconsistent << '\n';
  bool drift = false;
  for (const auto& [name, value] : replay.metrics) {
    const auto metric = runtime::metric_from_token(name);
    if (!metric) {
      err << "sweep: replay file records unknown metric '" << name << "'\n";
      return 2;
    }
    const auto measured = runtime::metric_value(metrics, *metric);
    const bool match = measured == value;
    drift = drift || !match;
    out << "recorded: " << name << '=' << value
        << (match ? " reproduced" : " DRIFT") << '\n';
  }
  out << "--- transcript ---\n" << runtime::format_transcript(result.run);
  out << "--- fault log ---\n"
      << runtime::format_fault_log(result.fault_log);
  out << "outputs:\n";
  print_outputs(out, g, result.run);
  if (drift) {
    err << "sweep: replay drifted from its recorded metrics (determinism "
           "regression or a hand-edited file)\n";
    return 1;
  }
  return 0;
}

// --- sweep ---------------------------------------------------------------
//
// cmd_sweep runs in three steps: parse_sweep validates the command line
// into a SweepConfig (every exit-2 check), generate_instances draws the
// instances from one Rng, and one of two runners — the batch of raw jobs
// or the sequential adversary search — feeds the row emitter of its shape
// and then the summary.

/// The `"schema"` field every `--ndjson` object carries.
constexpr int kNdjsonSchema = 2;

/// Most jobs (sizes × repeats) one sweep runs.  A job's bookkeeping is
/// about 350 B (its BatchJob, its result slot, its item and factory), so
/// this bounds a sweep's job list near 23 MB before anything is generated
/// or reserved.
constexpr std::size_t kMaxSweepJobs = std::size_t{1} << 16;

constexpr std::string_view kSweepFamilies[] = {
    "path", "cycle", "regular", "grid", "torus", "caterpillar", "powerlaw",
    "portgraph"};

/// Everything `edsim sweep` reads from its command line, validated.
struct SweepConfig {
  std::string family;
  std::vector<std::size_t> sizes;  ///< --min..--max, doubling or by --step
  port::Port d = 3;
  unsigned threads = 0;
  std::size_t repeat = 1;
  bool ndjson = false;
  std::string algo_name = "auto";        ///< --algorithm as given
  std::optional<algo::Algorithm> fixed;  ///< unset for "auto"
  port::Port param = 0;
  std::uint64_t seed = 1;
  bool async_model = false;           ///< --model async
  runtime::AsyncOptions async_base;   ///< delay, timeout, synchronizer
  double loss = 0.0;
  double dup = 0.0;
  std::size_t crash = 0;
  std::optional<runtime::AdversaryStrategy> adversary;
  std::size_t budget = 0;
  std::string replay_out;
};

/// The --model half of parse_sweep: fills cfg's async fields.  Returns
/// false after printing the error.
bool parse_sweep_model(const Args& args, SweepConfig& cfg, std::ostream& err) {
  const auto model = args.get("model", "sync");
  if (model != "sync" && model != "async") {
    err << "sweep: unknown --model '" << model << "' (sync|async)\n";
    return false;
  }
  cfg.async_model = model == "async";
  if (!cfg.async_model && args.has("adversary")) {
    err << "sweep: --adversary needs --model async (the synchronous "
           "engine has no schedule to perturb)\n";
    return false;
  }
  cfg.replay_out = args.get("replay-out", "");
  if (!args.has("adversary") &&
      (args.has("budget") || !cfg.replay_out.empty())) {
    err << "sweep: --budget/--replay-out only make sense with "
           "--adversary\n";
    return false;
  }
  if (!cfg.async_model) return true;
  try {
    cfg.async_base.delay =
        runtime::parse_delay_model(args.get("delay", "fixed:1"));
  } catch (const Error& e) {
    err << "sweep: " << e.what() << '\n';
    return false;
  }
  cfg.loss = args.get_probability("loss", 0.0);
  cfg.dup = args.get_probability("dup", 0.0);
  cfg.crash = args.get_uint<std::size_t>("crash", 0);
  cfg.async_base.round_timeout = args.get_uint<std::uint64_t>("timeout", 0);
  if (args.has("adversary")) {
    cfg.adversary = runtime::adversary_from_token(args.get("adversary"));
    if (!cfg.adversary) {
      err << "sweep: unknown --adversary '" << args.get("adversary")
          << "' (random|pct|delay|climb)\n";
      return false;
    }
    cfg.budget = args.get_uint<std::size_t>("budget", 32);
    if (cfg.budget == 0) {
      err << "sweep: need --budget >= 1\n";
      return false;
    }
  }
  const bool have_faults = cfg.loss > 0.0 || cfg.dup > 0.0 || cfg.crash > 0;
  // An adversary search implies free-running mode: the α-synchronizer is
  // schedule-oblivious by construction, so defaulting it off is the only
  // sensible reading, and asking for it explicitly is a user error.
  const auto sync_flag = args.get(
      "synchronizer", (have_faults || cfg.adversary) ? "off" : "on");
  if (sync_flag != "on" && sync_flag != "off") {
    err << "sweep: --synchronizer takes on|off\n";
    return false;
  }
  cfg.async_base.synchronizer = sync_flag == "on";
  if (cfg.async_base.synchronizer && cfg.adversary) {
    err << "sweep: --adversary cannot attack the α-synchronizer (its "
           "outputs are schedule-independent by construction); drop "
           "--synchronizer on\n";
    return false;
  }
  if (cfg.async_base.synchronizer && have_faults) {
    err << "sweep: the α-synchronizer requires a fault-free network; "
           "drop --loss/--dup/--crash or pass --synchronizer off\n";
    return false;
  }
  try {
    runtime::check_tick_bounds(cfg.async_base);
  } catch (const Error& e) {
    err << "sweep: " << e.what() << '\n';
    return false;
  }
  return true;
}

/// Validates the sweep's command line; nullopt after printing the error.
std::optional<SweepConfig> parse_sweep(const Args& args, std::ostream& err) {
  if (args.has("shards")) {
    err << "sweep: --shards was removed: batches run in process; use "
           "--threads N for N concurrent jobs\n";
    return std::nullopt;
  }
  const auto& pos = args.positional();
  if (pos.size() < 2) {
    err << "sweep: missing family (path|cycle|regular|grid|torus|"
           "caterpillar|powerlaw|portgraph)\n";
    return std::nullopt;
  }
  SweepConfig cfg;
  cfg.family = pos[1];
  const auto min_n = args.get_uint<std::size_t>("min", 8);
  const auto max_n = args.get_uint<std::size_t>("max", 128);
  const auto step = args.get_uint<std::size_t>("step", 0);
  cfg.d = args.get_uint<port::Port>("d", 3);
  cfg.threads = args.get_uint<unsigned>("threads", 0);
  cfg.repeat = args.get_uint<std::size_t>("repeat", 1);
  cfg.ndjson = args.has("ndjson");
  if (min_n == 0 || max_n < min_n) {
    err << "sweep: need 0 < --min <= --max\n";
    return std::nullopt;
  }
  if (cfg.repeat == 0) {
    err << "sweep: need --repeat >= 1\n";
    return std::nullopt;
  }
  if (!parse_sweep_model(args, cfg, err)) return std::nullopt;
  // Sizes: doubling from --min by default, arithmetic with --step S.  The
  // job count sizes × repeats stays within kMaxSweepJobs.
  for (std::size_t n = min_n;;) {
    if (cfg.sizes.size() == kMaxSweepJobs) {
      err << "sweep: --min/--max/--step give more than " << kMaxSweepJobs
          << " sizes (at most " << kMaxSweepJobs << " jobs per sweep)\n";
      return std::nullopt;
    }
    cfg.sizes.push_back(n);
    const std::size_t next = step == 0 ? n * 2 : n + step;
    if (next <= n || next > max_n) break;
    n = next;
  }
  if (cfg.repeat > kMaxSweepJobs / cfg.sizes.size()) {
    err << "sweep: --repeat " << cfg.repeat << " over " << cfg.sizes.size()
        << " size(s) exceeds " << kMaxSweepJobs << " jobs per sweep\n";
    return std::nullopt;
  }
  cfg.algo_name = args.get("algorithm", "auto");
  if (cfg.algo_name != "auto") {
    cfg.fixed = algo::algorithm_from_token(cfg.algo_name);
    if (!cfg.fixed) {
      err << "sweep: unknown algorithm '" << cfg.algo_name << "'\n";
      return std::nullopt;
    }
  }
  cfg.param = args.get_uint<port::Port>("param", 0);
  cfg.seed = args.get_uint<std::uint64_t>("seed", 1);
  if (std::find(std::begin(kSweepFamilies), std::end(kSweepFamilies),
                cfg.family) == std::end(kSweepFamilies)) {
    err << "sweep: unknown family '" << cfg.family << "'\n";
    return std::nullopt;
  }
  return cfg;
}

/// The instances of one sweep, one per size, drawn from one Rng seeded
/// with --seed; the draw order is the determinism contract.  The
/// portgraph family fills `multigraphs` (random port-numbered
/// multigraphs: loops, parallel edges), every other family `graphs`.
struct SweepInstances {
  std::vector<port::PortGraph> multigraphs;
  std::vector<port::PortedGraph> graphs;
};

/// The side a grid (at least 2) or torus (at least 3) of requested size n
/// is rounded to; n stays the *requested* size.
std::size_t square_side(bool torus, std::size_t n) {
  return std::max<std::size_t>(
      torus ? 3 : 2,
      static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(n)))));
}

graph::SimpleGraph family_graph(const SweepConfig& cfg, std::size_t n,
                                Rng& rng) {
  const auto& family = cfg.family;
  if (family == "path") return graph::path(n);
  if (family == "cycle") return graph::cycle(n);
  if (family == "regular") return graph::random_regular(n, cfg.d, rng);
  if (family == "grid" || family == "torus") {
    const bool torus = family == "torus";
    const auto side = square_side(torus, n);
    return torus ? graph::torus(side, side) : graph::grid(side, side);
  }
  if (family == "caterpillar") {
    // A 2-leg caterpillar: spine of n/3 nodes, ~n nodes total — the
    // worklist's favourite long-tail shape (leaves halt early).
    return graph::caterpillar(std::max<std::size_t>(1, n / 3), 2);
  }
  return graph::random_power_law(n, 2.5, rng);  // "powerlaw"
}

/// a · b, or UINT64_MAX when the product does not fit.
std::uint64_t saturating_product(std::uint64_t a, std::uint64_t b) {
  std::uint64_t product = 0;
  return __builtin_mul_overflow(a, b, &product) ? UINT64_MAX : product;
}

/// The ports of the family's instance of requested size n (twice the
/// edges of a simple graph), saturating at UINT64_MAX; nullopt for
/// powerlaw, whose count is known only once its degrees are drawn.
std::optional<std::uint64_t> family_ports(const SweepConfig& cfg,
                                          std::uint64_t n) {
  const auto& family = cfg.family;
  if (family == "path") return saturating_product(2, n - 1);
  if (family == "cycle") return saturating_product(2, n);
  if (family == "regular" || family == "portgraph") {
    return saturating_product(n, cfg.d);
  }
  if (family == "grid" || family == "torus") {
    const bool torus = family == "torus";
    const std::uint64_t side = square_side(torus, n);
    return saturating_product(
        4, saturating_product(side, torus ? side : side - 1));
  }
  if (family == "caterpillar") {
    const std::uint64_t spine = std::max<std::uint64_t>(1, n / 3);
    return saturating_product(2, 3 * spine - 1);
  }
  return std::nullopt;
}

SweepInstances generate_instances(const SweepConfig& cfg) {
  // The largest instance must fit a port graph (every family's port count
  // grows with n), checked before anything is generated.
  const std::uint64_t largest = cfg.sizes.back();
  const auto ports = family_ports(cfg, largest);
  if (ports.has_value() && *ports > port::kMaxPorts) {
    const bool fixed_degree =
        cfg.family == "regular" || cfg.family == "portgraph";
    throw InvalidArgument(
        cfg.family + " at n = " + std::to_string(largest) +
        (fixed_degree ? " with --d " + std::to_string(cfg.d) : "") + " has " +
        (*ports == UINT64_MAX ? "at least " : "") + std::to_string(*ports) +
        " ports; a port graph holds at most " +
        std::to_string(port::kMaxPorts));
  }
  Rng rng(cfg.seed);
  SweepInstances set;
  for (const auto n : cfg.sizes) {
    if (cfg.family == "portgraph") {
      set.multigraphs.push_back(port::random_port_graph(
          std::vector<port::Port>(n, cfg.d), rng));
    } else {
      set.graphs.push_back(
          port::with_random_ports(family_graph(cfg, n, rng), rng));
    }
    const auto& g = cfg.family == "portgraph" ? set.multigraphs.back()
                                              : set.graphs.back().ports();
    const auto predicted = family_ports(cfg, n);
    EDS_ENSURE(!predicted.has_value() || *predicted == g.num_ports(),
               "family_ports mispredicts " + cfg.family);
  }
  return set;
}

/// The portgraph family's one algorithm: `auto` means the bounded-degree
/// family A(d).
algo::Algorithm portgraph_algorithm(const SweepConfig& cfg) {
  return cfg.fixed.value_or(algo::Algorithm::kBoundedDegree);
}

/// One instance as the runners see it: the graph the engine runs on and
/// the factory built exactly as run_algorithm would (same resolved
/// parameter).
struct SweepTarget {
  std::size_t n = 0;                        ///< requested size: rows' "n"
  const port::PortGraph* ports = nullptr;
  const port::PortedGraph* graph = nullptr;  ///< null for portgraph
  algo::Algorithm algorithm = algo::Algorithm::kBoundedDegree;
  port::Port param = 0;                      ///< resolved
  std::unique_ptr<const runtime::ProgramFactory> factory;
};

/// Every instance's target.  The factories are built before any header,
/// so a parameter one rejects fails the sweep with nothing on stdout.
std::vector<SweepTarget> resolve_targets(const SweepConfig& cfg,
                                         const SweepInstances& set) {
  std::vector<SweepTarget> targets(cfg.sizes.size());
  if (cfg.family == "portgraph") {
    const auto algorithm = portgraph_algorithm(cfg);
    const auto param =
        cfg.param != 0 ? cfg.param : std::max<port::Port>(cfg.d, 1);
    for (std::size_t k = 0; k < targets.size(); ++k) {
      targets[k] = {cfg.sizes[k], &set.multigraphs[k], nullptr, algorithm,
                    param, algo::make_factory(algorithm, param)};
    }
    return targets;
  }
  for (std::size_t k = 0; k < targets.size(); ++k) {
    const auto& pg = set.graphs[k];
    const auto choice = cfg.fixed ? algo::Recommendation{*cfg.fixed, cfg.param}
                                  : algo::recommended_for(pg.graph());
    const auto param = algo::resolved_param(pg, choice.algorithm, choice.param);
    targets[k] = {cfg.sizes[k], &pg.ports(), &pg, choice.algorithm, param,
                  algo::make_factory(choice.algorithm, param)};
  }
  return targets;
}

/// Per-job async configuration, derived at job-construction time so the
/// result is independent of scheduling: every (instance, repeat) pair gets
/// its own delay-matrix/fault seed, and the crash schedule is drawn for
/// the instance's node count over a horizon scaled to the delay bound.
runtime::AsyncOptions async_for_job(const SweepConfig& cfg,
                                    std::size_t job_index,
                                    std::size_t num_nodes) {
  runtime::AsyncOptions a = cfg.async_base;
  std::uint64_t state = cfg.seed ^ (0xA51DC0DEULL + job_index);
  a.seed = splitmix64(state);
  a.faults.loss = cfg.loss;
  a.faults.duplicate = cfg.dup;
  if (cfg.crash > 0) {
    const std::uint64_t horizon = 32 * a.delay.max_delay();
    a.faults.crashes = runtime::make_fault_plan(0, 0, cfg.crash, num_nodes,
                                                horizon, splitmix64(state))
                           .crashes;
  }
  return a;
}

/// Where a sweep's rows go: NDJSON lines straight to `out`, flushed per
/// row so results stream, or rows of `table`, printed by finish_sweep.
struct SweepSink {
  const SweepConfig& cfg;
  std::ostream& out;
  TextTable table;
};

/// The non-NDJSON first line: the family and algorithm (the portgraph
/// family names its one algorithm, the others echo --algorithm as given),
/// then the job count, or the adversary and budget for a search.
void sweep_header(SweepSink& sink, std::size_t jobs) {
  const auto& cfg = sink.cfg;
  if (cfg.ndjson) return;
  sink.out << "sweep: family=" << cfg.family;
  if (cfg.family == "portgraph") {
    sink.out << " d=" << cfg.d << " algorithm="
             << algo::algorithm_name(portgraph_algorithm(cfg));
  } else {
    sink.out << " algorithm=" << cfg.algo_name;
  }
  if (cfg.adversary) {
    sink.out << " adversary=" << runtime::adversary_token(*cfg.adversary)
             << " budget=" << cfg.budget << '\n';
  } else {
    sink.out << " jobs=" << jobs << '\n';
  }
}

/// A portgraph-family row.  Under the async model a one-sided selection
/// is a measured outcome, reported instead of thrown.
void portgraph_row(SweepSink& sink, std::size_t i, const SweepTarget& t,
                   const runtime::RunResult& result) {
  const auto& g = *t.ports;
  const auto selected =
      sink.cfg.async_model
          ? runtime::consistent_selection_size(g, result)
          : std::optional<std::size_t>(
                runtime::validated_selection_size(g, result));
  if (!sink.cfg.ndjson) {
    sink.table.row({std::to_string(t.n), std::to_string(g.num_ports()),
                    std::to_string(result.stats.rounds),
                    std::to_string(result.stats.messages_sent),
                    selected.has_value() ? std::to_string(*selected)
                                         : "inconsistent"});
    return;
  }
  auto& out = sink.out;
  out << "{\"schema\":" << kNdjsonSchema << ",\"index\":" << i
      << ",\"family\":\"portgraph\"" << ",\"n\":" << t.n
      << ",\"ports\":" << g.num_ports();
  if (sink.cfg.async_model) {
    out << ",\"model\":\"async\",\"consistent\":"
        << (selected.has_value() ? "true" : "false");
  }
  out << ",\"rounds\":" << result.stats.rounds
      << ",\"messages\":" << result.stats.messages_sent;
  if (selected.has_value()) out << ",\"selected\":" << *selected;
  out << "}\n";
  out.flush();
}

/// A simple-graph row; returns whether the solution is an edge dominating
/// set.  Under the synchronous model a one-sided claim throws (from
/// validated_edge_set) and fails the sweep; under --model async it is a
/// measured outcome, printed as inconsistent.
bool graph_row(SweepSink& sink, std::size_t i, const SweepTarget& t,
               const runtime::RunResult& result) {
  const auto& g = t.graph->graph();
  const bool async = sink.cfg.async_model;
  std::optional<graph::EdgeSet> solution;
  if (!async ||
      runtime::consistent_selection_size(t.graph->ports(), result)
          .has_value()) {
    solution = runtime::validated_edge_set(*t.graph, result);
  }
  const bool feasible =
      solution.has_value() && analysis::is_edge_dominating_set(g, *solution);
  if (!sink.cfg.ndjson) {
    sink.table.row({std::to_string(t.n), std::to_string(g.num_edges()),
                    algo::algorithm_name(t.algorithm),
                    std::to_string(result.stats.rounds),
                    std::to_string(result.stats.messages_sent),
                    solution.has_value() ? std::to_string(solution->size())
                                         : "-",
                    !solution.has_value() ? "inconsistent"
                    : feasible            ? "yes"
                                          : "NO"});
    return feasible;
  }
  auto& out = sink.out;
  out << "{\"schema\":" << kNdjsonSchema << ",\"index\":" << i
      << ",\"family\":\"" << sink.cfg.family << '"' << ",\"n\":" << t.n
      << ",\"nodes\":" << g.num_nodes() << ",\"edges\":" << g.num_edges()
      << ",\"algorithm\":\"" << algo::algorithm_name(t.algorithm) << '"';
  if (async) {
    out << ",\"model\":\"async\",\"consistent\":"
        << (solution.has_value() ? "true" : "false");
  }
  out << ",\"rounds\":" << result.stats.rounds
      << ",\"messages\":" << result.stats.messages_sent;
  if (solution.has_value()) {
    out << ",\"solution\":" << solution->size()
        << ",\"feasible\":" << (feasible ? "true" : "false");
  }
  out << "}\n";
  out.flush();
  return feasible;
}

/// One finished adversary search: the report, its shrunk headline
/// witness, and where the witness was saved (empty without --replay-out).
struct AdversaryOutcome {
  runtime::AdversaryReport report;
  runtime::ScheduleWitness shrunk;
  std::string replay_path;
};

/// An adversary row, with the optimum/ratio columns when it is known.
void adversary_row(SweepSink& sink, std::size_t job, const SweepTarget& t,
                   const AdversaryOutcome& a,
                   std::optional<std::size_t> optimum) {
  const auto& report = a.report;
  std::optional<Fraction> ratio;
  if (optimum.has_value() && *optimum > 0) {
    ratio = analysis::approximation_ratio(
        static_cast<std::size_t>(report.worst_selected.metrics.selected),
        *optimum);
  }
  if (!sink.cfg.ndjson) {
    std::ostringstream ratio_text;
    if (ratio.has_value()) ratio_text << *ratio;
    sink.table.row(
        {std::to_string(t.n), std::to_string(report.evaluated),
         std::to_string(report.failures),
         std::to_string(report.worst_rounds.metrics.rounds),
         std::to_string(report.worst_time.metrics.virtual_time),
         std::to_string(report.worst_selected.metrics.selected),
         std::to_string(report.worst_inconsistent.metrics.inconsistent),
         ratio.has_value() ? ratio_text.str() : "-"});
    return;
  }
  auto& out = sink.out;
  out << "{\"schema\":" << kNdjsonSchema << ",\"index\":" << job
      << ",\"family\":\"" << sink.cfg.family << '"' << ",\"n\":" << t.n
      << ",\"algorithm\":\"" << algo::algorithm_token(t.algorithm) << '"'
      << ",\"adversary\":\"" << runtime::adversary_token(*sink.cfg.adversary)
      << "\",\"budget\":" << sink.cfg.budget
      << ",\"evaluated\":" << report.evaluated
      << ",\"failures\":" << report.failures
      << ",\"worst_rounds\":" << report.worst_rounds.metrics.rounds
      << ",\"worst_time\":" << report.worst_time.metrics.virtual_time
      << ",\"worst_selected\":" << report.worst_selected.metrics.selected
      << ",\"worst_inconsistent\":"
      << report.worst_inconsistent.metrics.inconsistent
      << ",\"primary\":\"" << runtime::metric_token(report.primary_metric())
      << "\",\"shrunk_changes\":"
      << a.shrunk.options.schedule.change_points.size()
      << ",\"shrunk_overrides\":"
      << a.shrunk.options.schedule.delay_overrides.size();
  if (optimum.has_value()) out << ",\"optimum\":" << *optimum;
  if (ratio.has_value()) out << ",\"worst_ratio\":\"" << *ratio << '"';
  if (!a.replay_path.empty()) out << ",\"replay\":\"" << a.replay_path << '"';
  out << "}\n";
  out.flush();
}

/// Prints the table (non-NDJSON) and the summary: job count, plan-cache
/// counters, `all_feasible` when the rows verified edge domination, and
/// the async configuration.
void finish_sweep(SweepSink& sink, const runtime::PlanCache& plan_cache,
                  std::size_t jobs, std::optional<bool> all_feasible) {
  const auto& cfg = sink.cfg;
  auto& out = sink.out;
  const auto stats = plan_cache.stats();
  const auto& async = cfg.async_base;
  if (!cfg.ndjson) {
    sink.table.print(out);
    if (cfg.async_model) {
      out << "model: async delay=" << runtime::format_delay_model(async.delay)
          << " loss=" << cfg.loss << " dup=" << cfg.dup
          << " crash=" << cfg.crash
          << " synchronizer=" << (async.synchronizer ? "on" : "off")
          << " timeout=" << async.round_timeout << '\n';
      if (cfg.adversary) {
        out << "adversary: strategy="
            << runtime::adversary_token(*cfg.adversary)
            << " budget=" << cfg.budget << '\n';
      }
    }
    out << "plan-cache: compiled=" << stats.misses << " hits=" << stats.hits
        << '\n';
    return;
  }
  out << "{\"schema\":" << kNdjsonSchema << ",\"summary\":{\"jobs\":" << jobs
      << ",\"plans_compiled\":" << stats.misses
      << ",\"plan_hits\":" << stats.hits;
  if (all_feasible.has_value()) {
    out << ",\"all_feasible\":" << (*all_feasible ? "true" : "false");
  }
  if (cfg.async_model) {
    out << ",\"model\":\"async\",\"delay\":\""
        << runtime::format_delay_model(async.delay) << "\",\"loss\":"
        << cfg.loss << ",\"dup\":" << cfg.dup << ",\"crash\":" << cfg.crash
        << ",\"synchronizer\":" << (async.synchronizer ? "true" : "false")
        << ",\"timeout\":" << async.round_timeout;
    if (cfg.adversary) {
      out << ",\"adversary\":\"" << runtime::adversary_token(*cfg.adversary)
          << "\",\"budget\":" << cfg.budget;
    }
  }
  out << "}}\n";
}

/// --adversary: one search per (instance, repeat), run sequentially — the
/// report is a pure function of (instance, seed, budget), so --threads
/// cannot change a byte.  Each search's headline witness is shrunk to a
/// minimal reproducer and, under --replay-out, saved as a replay file.
int sweep_adversary(const SweepConfig& cfg,
                    const std::vector<SweepTarget>& targets,
                    std::ostream& out, std::ostream& err) {
  runtime::PlanCache plan_cache;
  SweepSink sink{cfg, out, TextTable("")};
  sink.table.header({"n", "evaluated", "failures", "rounds", "time",
                     "selected", "inconsistent", "ratio"});
  sweep_header(sink, 0);
  runtime::RunOptions run_opts;
  run_opts.exec.plan_cache = &plan_cache;
  std::size_t job = 0;
  for (const auto& t : targets) {
    run_opts.max_rounds = algo::round_cap(t.algorithm, t.param);
    // The exact solver is exponential in m; only small simple graphs get
    // the optimum/ratio columns (multigraphs have no exact solver).
    std::optional<std::size_t> optimum;
    if (t.graph != nullptr && t.graph->graph().num_edges() <= 24) {
      optimum = exact::minimum_eds_size(t.graph->graph());
    }
    for (std::size_t r = 0; r < cfg.repeat; ++r, ++job) {
      const auto base = async_for_job(cfg, job, t.ports->num_nodes());
      std::uint64_t state = cfg.seed ^ (0xBADC0FFEULL + job);
      AdversaryOutcome a;
      a.report = runtime::adversary_search(*t.ports, *t.factory,
                                           *cfg.adversary, base, cfg.budget,
                                           splitmix64(state), run_opts);
      a.shrunk = runtime::shrink_witness(*t.ports, *t.factory,
                                         a.report.primary(),
                                         a.report.primary_metric(), run_opts);
      if (!cfg.replay_out.empty()) {
        runtime::ReplayFile file;
        file.strategy = runtime::adversary_token(*cfg.adversary);
        file.algorithm = algo::algorithm_token(t.algorithm);
        file.param = t.param;
        file.options = a.shrunk.options;
        file.metrics = {
            {"rounds", a.shrunk.metrics.rounds},
            {"time", a.shrunk.metrics.virtual_time},
            {"selected", a.shrunk.metrics.selected},
            {"inconsistent", a.shrunk.metrics.inconsistent},
        };
        file.graph_text = port::to_port_graph_string(*t.ports);
        a.replay_path = cfg.replay_out + "/worst-" + cfg.family + "-" +
                        std::to_string(job) + ".edsched";
        std::ofstream replay_sink(a.replay_path);
        replay_sink << runtime::encode_replay(file);
        if (!replay_sink) {
          err << "sweep: cannot write replay file '" << a.replay_path
              << "'\n";
          return 2;
        }
      }
      adversary_row(sink, job, t, a, optimum);
    }
  }
  finish_sweep(sink, plan_cache, job, std::nullopt);
  return 0;
}

/// Every sweep but --adversary: one raw runtime job per (instance,
/// repeat), streamed through one BatchRunner.  The rows report the
/// engine's result as measured; a synchronous simple-graph sweep checks
/// edge domination and exits 1 when a row is infeasible.
int sweep_jobs(const SweepConfig& cfg, const std::vector<SweepTarget>& targets,
               std::ostream& out) {
  runtime::PlanCache plan_cache;
  std::vector<runtime::BatchJob> jobs;
  jobs.reserve(targets.size() * cfg.repeat);
  for (const auto& t : targets) {
    for (std::size_t r = 0; r < cfg.repeat; ++r) {
      runtime::RunOptions options;
      options.max_rounds = algo::round_cap(t.algorithm, t.param);
      options.exec.plan_cache = &plan_cache;
      if (cfg.async_model) {
        options.exec.async =
            async_for_job(cfg, jobs.size(), t.ports->num_nodes());
      }
      jobs.push_back({t.ports, t.factory.get(), options});
    }
  }
  const bool multigraphs = cfg.family == "portgraph";
  const bool verified = !multigraphs && !cfg.async_model;
  SweepSink sink{cfg, out, TextTable("")};
  if (multigraphs) {
    sink.table.header({"n", "ports", "rounds", "messages", "selected"});
  } else {
    sink.table.header({"n", "edges", "algorithm", "rounds", "messages", "|D|",
                       verified ? "feasible" : "ok"});
  }
  sweep_header(sink, jobs.size());
  bool all_feasible = true;
  // Streaming delivery: rows arrive in job order as their prefix
  // completes; NDJSON mode prints (and flushes) each immediately.
  runtime::BatchRunner(cfg.threads)
      .run_streaming(jobs, [&](std::size_t i, runtime::RunResult&& result) {
        const auto& t = targets[i / cfg.repeat];
        if (multigraphs) {
          portgraph_row(sink, i, t, result);
        } else {
          all_feasible = graph_row(sink, i, t, result) && all_feasible;
        }
      });
  finish_sweep(sink, plan_cache, jobs.size(),
               verified ? std::optional(all_feasible) : std::nullopt);
  return verified && !all_feasible ? 1 : 0;
}

int cmd_sweep(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.has("replay")) return cmd_sweep_replay(args, out, err);
  const auto cfg = parse_sweep(args, err);
  if (!cfg) return 2;
  try {
    const auto set = generate_instances(*cfg);
    const auto targets = resolve_targets(*cfg, set);
    return cfg->adversary ? sweep_adversary(*cfg, targets, out, err)
                          : sweep_jobs(*cfg, targets, out);
  } catch (const Error& e) {
    err << "sweep: " << e.what() << '\n';
    return 1;
  }
}

int cmd_views(const Args& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  try {
    const auto g = port::read_port_graph(in);
    const auto classes =
        args.has("radius")
            ? port::view_classes(g, args.get_uint<std::size_t>("radius", 0))
            : port::stable_view_classes(g);
    out << "classes: " << port::num_classes(classes) << '\n';
    for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
      out << v << ": " << classes[v] << '\n';
    }
    return 0;
  } catch (const Error& e) {
    err << "views: " << e.what() << '\n';
    return 1;
  }
}

int cmd_table1(std::ostream& out) {
  out << "d  bound  measured(worst-case)  tight\n";
  for (port::Port d = 2; d <= 10; ++d) {
    const auto inst =
        d % 2 == 0 ? lb::even_lower_bound(d) : lb::odd_lower_bound(d);
    const auto algorithm = d % 2 == 0 ? algo::Algorithm::kPortOne
                                      : algo::Algorithm::kOddRegular;
    const auto outcome = algo::run_algorithm(inst.ported, algorithm,
                                             d % 2 == 0 ? 0 : d);
    const auto ratio = analysis::approximation_ratio(outcome.solution.size(),
                                                     inst.optimal.size());
    out << d << "  " << inst.forced_ratio << "  " << ratio << "  "
        << (ratio == inst.forced_ratio ? "yes" : "NO") << '\n';
  }
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::istream& in,
            std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    usage(out);
    return args.empty() ? 2 : 0;
  }
  const auto& command = args[0];
  try {
    if (command == "generate") {
      return cmd_generate(Args(args, kGenerateOptions), out, err);
    }
    if (command == "solve") {
      return cmd_solve(Args(args, kSolveOptions), in, out, err);
    }
    if (command == "lower-bound") {
      return cmd_lower_bound(Args(args, {}), out, err);
    }
    if (command == "run-portgraph") {
      return cmd_run_portgraph(Args(args, kRunPortgraphOptions), in, out, err);
    }
    if (command == "sweep") {
      return cmd_sweep(Args(args, kSweepOptions), out, err);
    }
    if (command == "views") {
      return cmd_views(Args(args, kViewsOptions), in, out, err);
    }
    if (command == "table1") {
      (void)Args(args, {});  // takes no options; rejects any given
      return cmd_table1(out);
    }
  } catch (const UsageError& e) {
    err << command << ": " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    err << command << ": " << e.what() << '\n';
    return 1;
  }
  err << "unknown command '" << command << "' (try 'edsim help')\n";
  return 2;
}

}  // namespace eds::cli
