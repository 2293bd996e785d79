#include "cli/cli.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <unistd.h>
#endif

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
#include "runtime/shard.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace eds::cli {

namespace {

/// Minimal argument cracker: positional args plus --key [value] options.
class Args {
 public:
  explicit Args(const std::vector<std::string>& raw) {
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i].rfind("--", 0) == 0) {
        const auto key = raw[i].substr(2);
        if (i + 1 < raw.size() && raw[i + 1].rfind("--", 0) != 0) {
          options_[key] = raw[i + 1];
          ++i;
        } else {
          options_[key] = "";
        }
      } else {
        positional_.push_back(raw[i]);
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
  [[nodiscard]] std::uint64_t get_u64(const std::string& key,
                                      std::uint64_t fallback) const {
    const auto it = options_.find(key);
    if (it == options_.end()) return fallback;
    return std::stoull(it->second);
  }

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> options_;
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
         "        [--shards N] [--no-pool] [--repeat R] [--ndjson]\n"
         "        [--retries K] [--retry-backoff-ms B] [--job-timeout-ms T]\n"
         "        [--batch-timeout-ms T] [--breaker-deaths D]\n"
         "        [--fallback-inprocess] [--chaos SPEC]\n"
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
         "      --repeat R runs each instance R times (the shared plan is\n"
         "      compiled once per instance and reused via the plan cache);\n"
         "      --ndjson streams one JSON object per job as results arrive\n"
         "      (in job order, no full-batch barrier) plus a summary line\n"
         "      with the plan-cache counters; every object carries\n"
         "      \"schema\":2;\n"
         "      --shards N fans the jobs across N `edsim worker`\n"
         "      subprocesses instead of threads (0 = one per hardware\n"
         "      thread; output is byte-identical either way; workers are\n"
         "      pooled — they stay warm between batches with per-shard\n"
         "      plan caches, summed in the summary — and --no-pool\n"
         "      restores the fork-per-batch behaviour); sharded sweeps are\n"
         "      resilient: a job orphaned by a worker death is retried up\n"
         "      to --retries K times (default 2, 0 = strict fail-fast) with\n"
         "      exponential backoff from --retry-backoff-ms B (default 10),\n"
         "      --job-timeout-ms T kills a worker stuck on one job and\n"
         "      --batch-timeout-ms T bounds the whole batch (0 = off),\n"
         "      --breaker-deaths D quarantines the pool after D worker\n"
         "      deaths in one batch (default 8, 0 = off) and\n"
         "      --fallback-inprocess degrades a quarantined pool to\n"
         "      in-process execution instead of failing; retry/deadline/\n"
         "      quarantine counters appear in the summary when non-zero;\n"
         "      --chaos crash:N|hang:N:MS|garbage:N|slow:N:MS|exit-mid:N|\n"
         "      poison:I|rand:SEED:PERMILLE injects deterministic worker\n"
         "      misbehaviour (test hook; also via EDS_WORKER_CHAOS);\n"
         "      --model async runs the event-driven asynchronous engine:\n"
         "      --delay fixed:T|uniform:LO:HI|geometric:MEAN[:CAP] is the\n"
         "      per-link delay model, the α-synchronizer (--synchronizer,\n"
         "      default on) makes results bit-identical to --model sync,\n"
         "      and with --synchronizer off (the default once any fault is\n"
         "      requested) --loss P / --dup P / --crash K inject message\n"
         "      loss, duplication and K crashed nodes per instance while\n"
         "      --timeout T bounds how long a round waits (0 = auto);\n"
         "      rows gain \"model\"/\"consistent\" fields, degradation is\n"
         "      reported, not fatal; async runs cross the --shards wire\n"
         "      (schema 2 carries the async options) but --adversary does\n"
         "      not — schedules are an in-process search artifact;\n"
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

std::optional<algo::Algorithm> parse_algorithm(const std::string& name) {
  // One vocabulary everywhere: the CLI flags and the worker wire protocol
  // both speak algo::algorithm_token's tokens.
  return algo::algorithm_from_token(name);
}

/// The binary to fork as `<bin> worker` for --shards: an explicit
/// --worker-bin wins, then the EDSIM_BIN environment variable (how tests
/// point an in-process run_cli at the real edsim), then this executable
/// itself.  Empty when nothing resolves — the caller must fail loudly
/// rather than guess from PATH, because a different-version `edsim`
/// would silently break the byte-identical contract between backends.
std::string worker_binary(const Args& args) {
  if (args.has("worker-bin")) return args.get("worker-bin");
  if (const char* env = std::getenv("EDSIM_BIN")) {
    if (*env != '\0') return env;
  }
#if defined(__linux__)
  char self[4096];
  const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
  if (n > 0) return std::string(self, static_cast<std::size_t>(n));
#endif
  return "";
}

int cmd_generate(const Args& args, std::ostream& out, std::ostream& err) {
  const auto& pos = args.positional();
  if (pos.size() < 2) {
    err << "generate: missing family\n";
    return 2;
  }
  Rng rng(args.get_u64("seed", 1));
  const auto& family = pos[1];
  auto num = [&pos, &err](std::size_t index) -> std::optional<std::size_t> {
    if (index >= pos.size()) {
      err << "generate: missing numeric argument\n";
      return std::nullopt;
    }
    return std::stoull(pos[index]);
  };

  graph::SimpleGraph g;
  try {
    if (family == "cycle") {
      const auto n = num(2);
      if (!n) return 2;
      g = graph::cycle(*n);
    } else if (family == "path") {
      const auto n = num(2);
      if (!n) return 2;
      g = graph::path(*n);
    } else if (family == "complete") {
      const auto n = num(2);
      if (!n) return 2;
      g = graph::complete(*n);
    } else if (family == "regular") {
      const auto n = num(2);
      const auto d = num(3);
      if (!n || !d) return 2;
      g = graph::random_regular(*n, *d, rng);
    } else if (family == "grid") {
      const auto r = num(2);
      const auto c = num(3);
      if (!r || !c) return 2;
      g = graph::grid(*r, *c);
    } else if (family == "torus") {
      const auto r = num(2);
      const auto c = num(3);
      if (!r || !c) return 2;
      g = graph::torus(*r, *c);
    } else if (family == "hypercube") {
      const auto dim = num(2);
      if (!dim) return 2;
      g = graph::hypercube(*dim);
    } else if (family == "petersen") {
      g = graph::petersen();
    } else if (family == "tree") {
      const auto n = num(2);
      if (!n) return 2;
      g = graph::random_tree(*n, rng);
    } else if (family == "bounded") {
      const auto n = num(2);
      const auto delta = num(3);
      const auto m = num(4);
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

  Rng rng(args.get_u64("seed", 1));
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
    const auto parsed = parse_algorithm(algo_name);
    if (!parsed) {
      err << "solve: unknown algorithm '" << algo_name << "'\n";
      return 2;
    }
    algorithm = *parsed;
    param = static_cast<port::Port>(args.get_u64("param", 0));
  }

  runtime::ExecOptions exec;
  exec.threads = static_cast<unsigned>(args.get_u64("threads", 1));

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
  const auto d = static_cast<port::Port>(std::stoul(pos[1]));
  try {
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

int cmd_run_portgraph(const Args& args, std::istream& in, std::ostream& out,
                      std::ostream& err) {
  const auto parsed = parse_algorithm(args.get("algorithm", ""));
  if (!parsed) {
    err << "run-portgraph: --algorithm required (see 'edsim help')\n";
    return 2;
  }
  try {
    const auto g = port::read_port_graph(in);
    auto param = static_cast<port::Port>(args.get_u64("param", 0));
    if (param == 0) {
      for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
        param = std::max(param, g.degree(v));
      }
      param = std::max<port::Port>(param, 1);
    }
    const auto factory = algo::make_factory(*parsed, param);
    runtime::RunOptions options;
    options.collect_messages = args.has("trace");
    options.exec.threads = static_cast<unsigned>(args.get_u64("threads", 1));
    const auto result = runtime::run_synchronous(g, *factory, options);
    const auto selected = runtime::validated_selection_size(g, result);
    if (args.has("trace")) out << runtime::format_transcript(result);
    out << "nodes: " << g.num_nodes() << "  rounds: " << result.stats.rounds
        << "  selected edges: " << selected << '\n';
    for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
      out << v << ':';
      for (const auto p : runtime::selected_ports(g, result, v)) {
        out << ' ' << p;
      }
      out << '\n';
    }
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
  const auto factory =
      algo::make_factory(*algorithm, static_cast<port::Port>(replay.param));
  runtime::RunOptions options;
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
  for (port::NodeId v = 0; v < g.num_nodes(); ++v) {
    out << v << ':';
    for (const auto p : runtime::selected_ports(g, result.run, v)) {
      out << ' ' << p;
    }
    out << '\n';
  }
  if (drift) {
    err << "sweep: replay drifted from its recorded metrics (determinism "
           "regression or a hand-edited file)\n";
    return 1;
  }
  return 0;
}

int cmd_sweep(const Args& args, std::ostream& out, std::ostream& err) {
  if (args.has("replay")) return cmd_sweep_replay(args, out, err);
  const auto& pos = args.positional();
  if (pos.size() < 2) {
    err << "sweep: missing family (path|cycle|regular|grid|torus|"
           "caterpillar|powerlaw|portgraph)\n";
    return 2;
  }
  const auto& family = pos[1];
  const auto min_n = static_cast<std::size_t>(args.get_u64("min", 8));
  const auto max_n = static_cast<std::size_t>(args.get_u64("max", 128));
  const auto step = static_cast<std::size_t>(args.get_u64("step", 0));
  const auto d = static_cast<std::size_t>(args.get_u64("d", 3));
  const auto threads = static_cast<unsigned>(args.get_u64("threads", 0));
  const auto repeat = static_cast<std::size_t>(args.get_u64("repeat", 1));
  const bool ndjson = args.has("ndjson");
  if (min_n == 0 || max_n < min_n) {
    err << "sweep: need 0 < --min <= --max\n";
    return 2;
  }
  if (repeat == 0) {
    err << "sweep: need --repeat >= 1\n";
    return 2;
  }

  // --model async swaps the round engine for the event-driven asynchronous
  // engine (runtime/async.hpp).  All validation happens here so misuse is
  // a clean exit 2, not a mid-sweep throw.  The default --model sync path
  // below is untouched — byte-identical to a build without this flag.
  const auto model = args.get("model", "sync");
  if (model != "sync" && model != "async") {
    err << "sweep: unknown --model '" << model << "' (sync|async)\n";
    return 2;
  }
  const bool async_model = model == "async";
  runtime::AsyncOptions async_base;
  double loss = 0.0;
  double dup = 0.0;
  std::size_t crash_k = 0;
  std::optional<runtime::AdversaryStrategy> adversary;
  std::size_t budget = 0;
  const auto replay_out = args.get("replay-out", "");
  if (!async_model) {
    if (args.has("adversary")) {
      err << "sweep: --adversary needs --model async (the synchronous "
             "engine has no schedule to perturb)\n";
      return 2;
    }
    if (args.has("budget") || !replay_out.empty()) {
      err << "sweep: --budget/--replay-out only make sense with "
             "--adversary\n";
      return 2;
    }
  }
  if (async_model) {
    try {
      async_base.delay =
          runtime::parse_delay_model(args.get("delay", "fixed:1"));
    } catch (const Error& e) {
      err << "sweep: " << e.what() << '\n';
      return 2;
    }
    try {
      loss = std::stod(args.get("loss", "0"));
      dup = std::stod(args.get("dup", "0"));
    } catch (const std::exception&) {
      err << "sweep: --loss/--dup must be numbers in [0, 1]\n";
      return 2;
    }
    if (loss < 0.0 || loss > 1.0 || dup < 0.0 || dup > 1.0) {
      err << "sweep: --loss/--dup must be numbers in [0, 1]\n";
      return 2;
    }
    crash_k = static_cast<std::size_t>(args.get_u64("crash", 0));
    async_base.round_timeout = args.get_u64("timeout", 0);
    if (args.has("adversary")) {
      adversary = runtime::adversary_from_token(args.get("adversary"));
      if (!adversary) {
        err << "sweep: unknown --adversary '" << args.get("adversary")
            << "' (random|pct|delay|climb)\n";
        return 2;
      }
      budget = static_cast<std::size_t>(args.get_u64("budget", 32));
      if (budget == 0) {
        err << "sweep: need --budget >= 1\n";
        return 2;
      }
    } else if (args.has("budget") || !replay_out.empty()) {
      err << "sweep: --budget/--replay-out only make sense with "
             "--adversary\n";
      return 2;
    }
    const bool have_faults = loss > 0.0 || dup > 0.0 || crash_k > 0;
    // An adversary search implies free-running mode: the α-synchronizer is
    // schedule-oblivious by construction, so defaulting it off is the only
    // sensible reading, and asking for it explicitly is a user error.
    const auto sync_flag = args.get(
        "synchronizer", (have_faults || adversary) ? "off" : "on");
    if (sync_flag != "on" && sync_flag != "off") {
      err << "sweep: --synchronizer takes on|off\n";
      return 2;
    }
    async_base.synchronizer = sync_flag == "on";
    if (async_base.synchronizer && adversary) {
      err << "sweep: --adversary cannot attack the α-synchronizer (its "
             "outputs are schedule-independent by construction); drop "
             "--synchronizer on\n";
      return 2;
    }
    if (async_base.synchronizer && have_faults) {
      err << "sweep: the α-synchronizer requires a fault-free network; "
             "drop --loss/--dup/--crash or pass --synchronizer off\n";
      return 2;
    }
    try {
      runtime::check_tick_bounds(async_base);
    } catch (const Error& e) {
      err << "sweep: " << e.what() << '\n';
      return 2;
    }
  }

  // --shards N swaps the in-process pool for `edsim worker` subprocesses;
  // everything downstream (row printing, summary, exit code) is backend
  // agnostic, which is what makes the outputs byte-identical.  Since
  // schema 2 async jobs cross the wire too; adversarial searches stay
  // in-process (their schedules are a search artifact, not wire payload).
  std::unique_ptr<runtime::ProcessShardExecutor> shard_exec;
  if (args.has("no-pool") && !args.has("shards")) {
    err << "sweep: --no-pool only makes sense with --shards\n";
    return 2;
  }
  for (const char* flag :
       {"retries", "retry-backoff-ms", "job-timeout-ms", "batch-timeout-ms",
        "breaker-deaths", "fallback-inprocess", "chaos"}) {
    if (args.has(flag) && !args.has("shards")) {
      err << "sweep: --" << flag << " only makes sense with --shards\n";
      return 2;
    }
  }
  if (args.has("shards")) {
    if (adversary) {
      err << "sweep: --adversary cannot run under --shards (adversarial "
             "schedules do not cross the wire); drop one of the two\n";
      return 2;
    }
    const auto bin = worker_binary(args);
    if (bin.empty()) {
      err << "sweep: cannot resolve the edsim binary for --shards "
             "(pass --worker-bin PATH or set EDSIM_BIN)\n";
      return 2;
    }
    runtime::ProcessShardExecutor::Options pool_options;
    pool_options.pooled = !args.has("no-pool");
    pool_options.max_retries =
        static_cast<unsigned>(args.get_u64("retries", 2));
    pool_options.retry_backoff_ms = args.get_u64("retry-backoff-ms", 10);
    pool_options.job_timeout_ms = args.get_u64("job-timeout-ms", 0);
    pool_options.batch_timeout_ms = args.get_u64("batch-timeout-ms", 0);
    pool_options.breaker_deaths = args.get_u64("breaker-deaths", 8);
    pool_options.fallback_inprocess = args.has("fallback-inprocess");
    std::vector<std::string> worker_command{bin, "worker"};
    if (args.has("chaos")) {
      const auto spec = args.get("chaos");
      try {
        (void)runtime::parse_chaos_spec(spec);  // reject bad specs up front
      } catch (const Error& e) {
        err << "sweep: " << e.what() << '\n';
        return 2;
      }
      worker_command.push_back("--chaos");
      worker_command.push_back(spec);
    }
    try {
      shard_exec = std::make_unique<runtime::ProcessShardExecutor>(
          std::move(worker_command),
          static_cast<unsigned>(args.get_u64("shards", 0)), pool_options);
    } catch (const Error& e) {
      err << "sweep: " << e.what() << '\n';
      return 2;
    }
  }

  // Sizes: doubling from --min by default, arithmetic with --step S.
  std::vector<std::size_t> sizes;
  for (std::size_t n = min_n;;) {
    sizes.push_back(n);
    const std::size_t next = step == 0 ? n * 2 : n + step;
    if (next <= n || next > max_n) break;
    n = next;
  }

  const auto algo_name = args.get("algorithm", "auto");
  std::optional<algo::Algorithm> fixed;
  if (algo_name != "auto") {
    fixed = parse_algorithm(algo_name);
    if (!fixed) {
      err << "sweep: unknown algorithm '" << algo_name << "'\n";
      return 2;
    }
  }
  const auto param = static_cast<port::Port>(args.get_u64("param", 0));
  Rng rng(args.get_u64("seed", 1));

  // Every job in the sweep shares one plan cache, so --repeat compiles one
  // ExecutionPlan per instance regardless of R; the summary counters below
  // make the reuse visible (and assertable from tests).
  // `all_feasible` is only emitted when the family actually verifies edge
  // domination (the simple-graph branch); the portgraph branch checks
  // output well-formedness, not feasibility, so it omits the field rather
  // than hardcoding a claim nobody computed.
  // Under --shards the parent-side cache is idle; the workers' per-shard
  // caches report their counters through the wire summaries instead, and
  // group-affinity routing keeps the aggregated numbers identical to the
  // single-cache run.
  runtime::PlanCache plan_cache;
  const auto summarize = [&](std::size_t jobs,
                             std::optional<bool> all_feasible) {
    std::uint64_t compiled = 0;
    std::uint64_t hits = 0;
    runtime::ProcessShardExecutor::Stats shard_stats;
    if (shard_exec != nullptr) {
      shard_stats = shard_exec->stats();
      // Jobs the resilience layer rerouted in-process compiled against the
      // parent-side cache; add its counters so degraded runs still account
      // for every plan.  A clean sharded run adds zeros.
      const auto parent = plan_cache.stats();
      compiled = shard_stats.plans_compiled + parent.misses;
      hits = shard_stats.plan_hits + parent.hits;
    } else {
      const auto stats = plan_cache.stats();
      compiled = stats.misses;
      hits = stats.hits;
    }
    // Emitted only when something degraded, so a clean run's summary stays
    // byte-identical across backends and to the pre-resilience format.
    const bool degraded =
        shard_stats.jobs_retried != 0 || shard_stats.jobs_poisoned != 0 ||
        shard_stats.deadline_kills != 0 || shard_stats.batch_timeouts != 0 ||
        shard_stats.workers_respawned != 0 ||
        shard_stats.pool_quarantines != 0 ||
        shard_stats.fallback_jobs != 0 || shard_stats.summaries_lost != 0;
    if (ndjson) {
      out << "{\"schema\":" << runtime::kWireSchemaVersion
          << ",\"summary\":{\"jobs\":" << jobs
          << ",\"plans_compiled\":" << compiled
          << ",\"plan_hits\":" << hits;
      if (degraded) {
        out << ",\"jobs_retried\":" << shard_stats.jobs_retried
            << ",\"jobs_poisoned\":" << shard_stats.jobs_poisoned
            << ",\"deadline_kills\":" << shard_stats.deadline_kills
            << ",\"batch_timeouts\":" << shard_stats.batch_timeouts
            << ",\"workers_respawned\":" << shard_stats.workers_respawned
            << ",\"pool_quarantines\":" << shard_stats.pool_quarantines
            << ",\"fallback_jobs\":" << shard_stats.fallback_jobs
            << ",\"summaries_lost\":" << shard_stats.summaries_lost;
      }
      if (all_feasible.has_value()) {
        out << ",\"all_feasible\":" << (*all_feasible ? "true" : "false");
      }
      if (async_model) {
        out << ",\"model\":\"async\",\"delay\":\""
            << runtime::format_delay_model(async_base.delay)
            << "\",\"loss\":" << loss << ",\"dup\":" << dup
            << ",\"crash\":" << crash_k << ",\"synchronizer\":"
            << (async_base.synchronizer ? "true" : "false")
            << ",\"timeout\":" << async_base.round_timeout;
        if (adversary) {
          out << ",\"adversary\":\"" << runtime::adversary_token(*adversary)
              << "\",\"budget\":" << budget;
        }
      }
      out << "}}\n";
    } else {
      if (async_model) {
        out << "model: async delay="
            << runtime::format_delay_model(async_base.delay)
            << " loss=" << loss << " dup=" << dup << " crash=" << crash_k
            << " synchronizer=" << (async_base.synchronizer ? "on" : "off")
            << " timeout=" << async_base.round_timeout << '\n';
        if (adversary) {
          out << "adversary: strategy="
              << runtime::adversary_token(*adversary) << " budget=" << budget
              << '\n';
        }
      }
      out << "plan-cache: compiled=" << compiled
          << " hits=" << hits << '\n';
      if (degraded) {
        out << "resilience: retried=" << shard_stats.jobs_retried
            << " poisoned=" << shard_stats.jobs_poisoned
            << " deadline-kills=" << shard_stats.deadline_kills
            << " batch-timeouts=" << shard_stats.batch_timeouts
            << " respawned=" << shard_stats.workers_respawned
            << " quarantines=" << shard_stats.pool_quarantines
            << " fallback-jobs=" << shard_stats.fallback_jobs
            << " summaries-lost=" << shard_stats.summaries_lost << '\n';
        // A lost summary is a worker that died before reporting its batch
        // delta: the plan-cache line above under-counts that worker's
        // compiles/hits (the wire only carries counters in the batch-end
        // summary), which this counter makes attributable.
      }
    }
  };

  // Per-job async configuration, derived at job-construction time so the
  // result is independent of scheduling: every (instance, repeat) pair gets
  // its own delay-matrix/fault seed, and the crash schedule is drawn for
  // the instance's node count over a horizon scaled to the delay bound.
  const auto async_for_job = [&](std::size_t job_index,
                                 std::size_t num_nodes) {
    runtime::AsyncOptions a = async_base;
    std::uint64_t state =
        args.get_u64("seed", 1) ^ (0xA51DC0DEULL + job_index);
    a.seed = splitmix64(state);
    a.faults.loss = loss;
    a.faults.duplicate = dup;
    if (crash_k > 0) {
      const std::uint64_t horizon = 32 * a.delay.max_delay();
      a.faults.crashes = runtime::make_fault_plan(0, 0, crash_k, num_nodes,
                                                  horizon, splitmix64(state))
                             .crashes;
    }
    return a;
  };

  // One adversary search per (instance, repeat): run the strategy for
  // --budget probes, shrink the headline witness to a minimal reproducer,
  // optionally serialize it under --replay-out, and print one row.  The
  // loop is sequential on purpose — the report is a pure function of
  // (instance, seed, budget), so --threads cannot change a single byte.
  std::size_t adversary_jobs = 0;
  const auto adversary_row =
      [&](const std::string& fam, std::size_t n_label,
          const port::PortGraph& ports, const runtime::ProgramFactory& factory,
          const std::string& algo_token, port::Port resolved,
          std::optional<std::size_t> optimum, TextTable& table) -> int {
    const std::size_t job_index = adversary_jobs++;
    const auto base = async_for_job(job_index, ports.num_nodes());
    std::uint64_t state =
        args.get_u64("seed", 1) ^ (0xBADC0FFEULL + job_index);
    const auto search_seed = splitmix64(state);
    runtime::RunOptions run_opts;
    run_opts.exec.plan_cache = &plan_cache;
    const auto report = runtime::adversary_search(
        ports, factory, *adversary, base, budget, search_seed, run_opts);
    const auto metric = report.primary_metric();
    const auto shrunk = runtime::shrink_witness(ports, factory,
                                                report.primary(), metric,
                                                run_opts);
    std::optional<Fraction> ratio;
    if (optimum.has_value() && *optimum > 0) {
      ratio = analysis::approximation_ratio(
          static_cast<std::size_t>(report.worst_selected.metrics.selected),
          *optimum);
    }
    std::string replay_path;
    if (!replay_out.empty()) {
      runtime::ReplayFile file;
      file.strategy = runtime::adversary_token(*adversary);
      file.algorithm = algo_token;
      file.param = resolved;
      file.options = shrunk.options;
      file.metrics = {
          {"rounds", shrunk.metrics.rounds},
          {"time", shrunk.metrics.virtual_time},
          {"selected", shrunk.metrics.selected},
          {"inconsistent", shrunk.metrics.inconsistent},
      };
      file.graph_text = port::to_port_graph_string(ports);
      replay_path = replay_out + "/worst-" + fam + "-" +
                    std::to_string(job_index) + ".edsched";
      std::ofstream sink(replay_path);
      sink << runtime::encode_replay(file);
      if (!sink) {
        err << "sweep: cannot write replay file '" << replay_path << "'\n";
        return 2;
      }
    }
    if (ndjson) {
      out << "{\"schema\":" << runtime::kWireSchemaVersion
          << ",\"index\":" << job_index << ",\"family\":\"" << fam << '"'
          << ",\"n\":" << n_label << ",\"algorithm\":\"" << algo_token << '"'
          << ",\"adversary\":\"" << runtime::adversary_token(*adversary)
          << "\",\"budget\":" << budget
          << ",\"evaluated\":" << report.evaluated
          << ",\"failures\":" << report.failures
          << ",\"worst_rounds\":" << report.worst_rounds.metrics.rounds
          << ",\"worst_time\":" << report.worst_time.metrics.virtual_time
          << ",\"worst_selected\":" << report.worst_selected.metrics.selected
          << ",\"worst_inconsistent\":"
          << report.worst_inconsistent.metrics.inconsistent
          << ",\"primary\":\"" << runtime::metric_token(metric)
          << "\",\"shrunk_changes\":"
          << shrunk.options.schedule.change_points.size()
          << ",\"shrunk_overrides\":"
          << shrunk.options.schedule.delay_overrides.size();
      if (optimum.has_value()) out << ",\"optimum\":" << *optimum;
      if (ratio.has_value()) out << ",\"worst_ratio\":\"" << *ratio << '"';
      if (!replay_path.empty()) out << ",\"replay\":\"" << replay_path << '"';
      out << "}\n";
      out.flush();
    } else {
      std::ostringstream ratio_text;
      if (ratio.has_value()) ratio_text << *ratio;
      table.row({std::to_string(n_label), std::to_string(report.evaluated),
                 std::to_string(report.failures),
                 std::to_string(report.worst_rounds.metrics.rounds),
                 std::to_string(report.worst_time.metrics.virtual_time),
                 std::to_string(report.worst_selected.metrics.selected),
                 std::to_string(report.worst_inconsistent.metrics.inconsistent),
                 ratio.has_value() ? ratio_text.str() : "-"});
    }
    return 0;
  };
  const auto adversary_header = [] {
    TextTable table("");
    table.header({"n", "evaluated", "failures", "rounds", "time", "selected",
                  "inconsistent", "ratio"});
    return table;
  };

  try {
    if (family == "portgraph") {
      // Random port-numbered multigraphs (loops and parallel edges): the
      // fixed-algorithm path; `auto` means the bounded-degree family A(d).
      std::vector<port::PortGraph> instances;
      instances.reserve(sizes.size());
      for (const auto n : sizes) {
        instances.push_back(port::random_port_graph(
            std::vector<port::Port>(n, static_cast<port::Port>(d)), rng));
      }
      const auto algorithm = fixed.value_or(algo::Algorithm::kBoundedDegree);
      const auto resolved_param =
          param != 0 ? param
                     : static_cast<port::Port>(std::max<std::size_t>(d, 1));
      const auto factory = algo::make_factory(algorithm, resolved_param);
      if (adversary) {
        if (!ndjson) {
          out << "sweep: family=portgraph d=" << d
              << " algorithm=" << algo::algorithm_name(algorithm)
              << " adversary=" << runtime::adversary_token(*adversary)
              << " budget=" << budget << '\n';
        }
        auto table = adversary_header();
        for (std::size_t k = 0; k < instances.size(); ++k) {
          for (std::size_t r = 0; r < repeat; ++r) {
            // Multigraphs (loops, parallel edges) have no exact solver, so
            // the optimum/ratio columns stay empty for this family.
            const int rc = adversary_row(
                "portgraph", sizes[k], instances[k], *factory,
                algo::algorithm_token(algorithm), resolved_param,
                std::nullopt, table);
            if (rc != 0) return rc;
          }
        }
        if (!ndjson) table.print(out);
        summarize(adversary_jobs, std::nullopt);
        return 0;
      }
      std::vector<runtime::BatchJob> jobs;
      jobs.reserve(instances.size() * repeat);
      for (const auto& g : instances) {
        runtime::RunOptions options;
        options.exec.plan_cache = &plan_cache;
        runtime::JobSpec spec;
        spec.algorithm = algo::algorithm_token(algorithm);
        spec.param = resolved_param;
        spec.group = runtime::structural_hash(g);
        for (std::size_t r = 0; r < repeat; ++r) {
          runtime::RunOptions job_options = options;
          if (async_model) {
            job_options.exec.async =
                async_for_job(jobs.size(), g.num_nodes());
          }
          jobs.push_back({&g, factory.get(), job_options, spec});
        }
      }
      const runtime::BatchRunner runner =
          shard_exec != nullptr ? runtime::BatchRunner(shard_exec.get())
                                : runtime::BatchRunner(threads);

      if (!ndjson) {
        out << "sweep: family=portgraph d=" << d
            << " algorithm=" << algo::algorithm_name(algorithm)
            << " jobs=" << jobs.size() << '\n';
      }
      TextTable table("");
      table.header({"n", "ports", "rounds", "messages", "selected"});
      // Streaming delivery: rows arrive in job order as their prefix
      // completes; NDJSON mode prints (and flushes) each immediately.
      runner.run_streaming(
          jobs, [&](std::size_t i, runtime::RunResult&& result) {
            const auto& g = instances[i / repeat];
            // Under faults a one-sided selection is a measured outcome, so
            // the async model tolerates inconsistency instead of throwing.
            const auto selected =
                async_model
                    ? runtime::consistent_selection_size(g, result)
                    : std::optional<std::size_t>(
                          runtime::validated_selection_size(g, result));
            if (ndjson) {
              out << "{\"schema\":" << runtime::kWireSchemaVersion
                  << ",\"index\":" << i << ",\"family\":\"portgraph\""
                  << ",\"n\":" << sizes[i / repeat]
                  << ",\"ports\":" << g.num_ports();
              if (async_model) {
                out << ",\"model\":\"async\",\"consistent\":"
                    << (selected.has_value() ? "true" : "false");
              }
              out << ",\"rounds\":" << result.stats.rounds
                  << ",\"messages\":" << result.stats.messages_sent;
              if (selected.has_value()) {
                out << ",\"selected\":" << *selected;
              }
              out << "}\n";
              out.flush();
            } else {
              table.row({std::to_string(sizes[i / repeat]),
                         std::to_string(g.num_ports()),
                         std::to_string(result.stats.rounds),
                         std::to_string(result.stats.messages_sent),
                         selected.has_value() ? std::to_string(*selected)
                                              : "inconsistent"});
            }
          });
      if (!ndjson) table.print(out);
      summarize(jobs.size(), std::nullopt);
      return 0;
    }

    // Simple-graph families: generate sequentially (the RNG stream is the
    // determinism contract), then fan the runs across the pool.
    std::vector<port::PortedGraph> instances;
    instances.reserve(sizes.size());
    for (const auto n : sizes) {
      graph::SimpleGraph g;
      if (family == "path") {
        g = graph::path(n);
      } else if (family == "cycle") {
        g = graph::cycle(n);
      } else if (family == "regular") {
        g = graph::random_regular(n, d, rng);
      } else if (family == "grid") {
        // Round the size to a square side; n stays the *requested* size.
        const auto side = std::max<std::size_t>(
            2, static_cast<std::size_t>(std::lround(
                   std::sqrt(static_cast<double>(n)))));
        g = graph::grid(side, side);
      } else if (family == "torus") {
        const auto side = std::max<std::size_t>(
            3, static_cast<std::size_t>(std::lround(
                   std::sqrt(static_cast<double>(n)))));
        g = graph::torus(side, side);
      } else if (family == "caterpillar") {
        // A 2-leg caterpillar: spine of n/3 nodes, ~n nodes total — the
        // worklist's favourite long-tail shape (leaves halt early).
        g = graph::caterpillar(std::max<std::size_t>(1, n / 3), 2);
      } else if (family == "powerlaw") {
        g = graph::random_power_law(n, 2.5, rng);
      } else {
        err << "sweep: unknown family '" << family << "'\n";
        return 2;
      }
      instances.push_back(port::with_random_ports(std::move(g), rng));
    }

    if (async_model) {
      // Raw runtime jobs instead of algo::BatchItems: the async model
      // bypasses run_batch's validated-EdsOutcome path on purpose, because
      // under faults a one-sided selection is a measured outcome the sweep
      // must report, not an exception.  Factories are built exactly as
      // run_algorithm would (same resolved parameter), so the fault-free
      // synchronized rows are field-identical to the sync model's.
      std::vector<algo::Algorithm> algorithms(instances.size());
      std::vector<port::Port> params(instances.size());
      std::vector<std::unique_ptr<runtime::ProgramFactory>> factories;
      factories.reserve(instances.size());
      std::vector<runtime::BatchJob> jobs;
      jobs.reserve(instances.size() * repeat);
      for (std::size_t k = 0; k < instances.size(); ++k) {
        const auto& pg = instances[k];
        port::Port item_param = param;
        if (fixed) {
          algorithms[k] = *fixed;
        } else {
          const auto rec = algo::recommended_for(pg.graph());
          algorithms[k] = rec.algorithm;
          item_param = rec.param;
        }
        params[k] = algo::resolved_param(pg, algorithms[k], item_param);
        factories.push_back(algo::make_factory(algorithms[k], params[k]));
        if (adversary) continue;
        runtime::JobSpec spec;
        spec.algorithm = algo::algorithm_token(algorithms[k]);
        spec.param = params[k];
        // One hash walk per instance, as in the portgraph branch: group
        // routing is what keeps the per-shard caches equivalent to the
        // single in-process cache.
        spec.group = runtime::structural_hash(pg.ports());
        for (std::size_t r = 0; r < repeat; ++r) {
          runtime::RunOptions options;
          options.exec.plan_cache = &plan_cache;
          options.exec.async =
              async_for_job(jobs.size(), pg.graph().num_nodes());
          jobs.push_back(
              {&pg.ports(), factories.back().get(), options, spec});
        }
      }

      if (adversary) {
        if (!ndjson) {
          out << "sweep: family=" << family << " algorithm=" << algo_name
              << " adversary=" << runtime::adversary_token(*adversary)
              << " budget=" << budget << '\n';
        }
        auto table = adversary_header();
        for (std::size_t k = 0; k < instances.size(); ++k) {
          const auto& pg = instances[k];
          // The exact solver is exponential in m; only small instances get
          // the optimum/ratio columns (the degradation tables use those).
          std::optional<std::size_t> optimum;
          if (pg.graph().num_edges() <= 24) {
            optimum = exact::minimum_eds_size(pg.graph());
          }
          for (std::size_t r = 0; r < repeat; ++r) {
            const int rc = adversary_row(
                family, sizes[k], pg.ports(), *factories[k],
                algo::algorithm_token(algorithms[k]), params[k], optimum,
                table);
            if (rc != 0) return rc;
          }
        }
        if (!ndjson) table.print(out);
        summarize(adversary_jobs, std::nullopt);
        return 0;
      }

      if (!ndjson) {
        out << "sweep: family=" << family << " algorithm=" << algo_name
            << " jobs=" << jobs.size() << '\n';
      }
      TextTable table("");
      table.header(
          {"n", "edges", "algorithm", "rounds", "messages", "|D|", "ok"});
      const runtime::BatchRunner async_runner =
          shard_exec != nullptr ? runtime::BatchRunner(shard_exec.get())
                                : runtime::BatchRunner(threads);
      async_runner.run_streaming(
          jobs, [&](std::size_t i, runtime::RunResult&& result) {
            const auto& pg = instances[i / repeat];
            const auto& g = pg.graph();
            const auto selected =
                runtime::consistent_selection_size(pg.ports(), result);
            std::optional<bool> feasible;
            if (selected.has_value()) {
              feasible = analysis::is_edge_dominating_set(
                  g, runtime::validated_edge_set(pg, result));
            }
            if (ndjson) {
              out << "{\"schema\":" << runtime::kWireSchemaVersion
                  << ",\"index\":" << i << ",\"family\":\"" << family << '"'
                  << ",\"n\":" << sizes[i / repeat]
                  << ",\"nodes\":" << g.num_nodes()
                  << ",\"edges\":" << g.num_edges() << ",\"algorithm\":\""
                  << algo::algorithm_name(algorithms[i / repeat]) << '"'
                  << ",\"model\":\"async\",\"consistent\":"
                  << (selected.has_value() ? "true" : "false")
                  << ",\"rounds\":" << result.stats.rounds
                  << ",\"messages\":" << result.stats.messages_sent;
              if (selected.has_value()) {
                out << ",\"solution\":" << *selected << ",\"feasible\":"
                    << (*feasible ? "true" : "false");
              }
              out << "}\n";
              out.flush();
            } else {
              table.row({std::to_string(sizes[i / repeat]),
                         std::to_string(g.num_edges()),
                         algo::algorithm_name(algorithms[i / repeat]),
                         std::to_string(result.stats.rounds),
                         std::to_string(result.stats.messages_sent),
                         selected.has_value() ? std::to_string(*selected)
                                              : "-",
                         !selected.has_value() ? "inconsistent"
                         : *feasible          ? "yes"
                                              : "NO"});
            }
          });
      if (!ndjson) table.print(out);
      // Degradation is the measurement here: inconsistent or infeasible
      // rows are data, not a failed sweep.
      summarize(jobs.size(), std::nullopt);
      return 0;
    }

    std::vector<algo::BatchItem> items;
    items.reserve(instances.size() * repeat);
    for (const auto& pg : instances) {
      algo::BatchItem item;
      item.graph = &pg;
      if (fixed) {
        item.algorithm = *fixed;
        item.param = param;
      } else {
        const auto rec = algo::recommended_for(pg.graph());
        item.algorithm = rec.algorithm;
        item.param = rec.param;
      }
      for (std::size_t r = 0; r < repeat; ++r) items.push_back(item);
    }

    if (!ndjson) {
      out << "sweep: family=" << family << " algorithm=" << algo_name
          << " jobs=" << items.size() << '\n';
    }
    TextTable table("");
    table.header({"n", "edges", "algorithm", "rounds", "messages", "|D|",
                  "feasible"});
    bool all_feasible = true;
    runtime::ExecOptions batch_exec;
    batch_exec.threads = threads;
    batch_exec.executor = shard_exec.get();
    algo::run_batch_streaming(
        items, batch_exec,
        [&](std::size_t i, algo::EdsOutcome&& outcome) {
          const auto& g = items[i].graph->graph();
          const bool feasible =
              analysis::is_edge_dominating_set(g, outcome.solution);
          all_feasible = all_feasible && feasible;
          if (ndjson) {
            out << "{\"schema\":" << runtime::kWireSchemaVersion
                << ",\"index\":" << i << ",\"family\":\"" << family << '"'
                << ",\"n\":" << sizes[i / repeat]
                << ",\"nodes\":" << g.num_nodes()
                << ",\"edges\":" << g.num_edges() << ",\"algorithm\":\""
                << algo::algorithm_name(items[i].algorithm) << '"'
                << ",\"rounds\":" << outcome.stats.rounds
                << ",\"messages\":" << outcome.stats.messages_sent
                << ",\"solution\":" << outcome.solution.size()
                << ",\"feasible\":" << (feasible ? "true" : "false") << "}\n";
            out.flush();
          } else {
            table.row({std::to_string(sizes[i / repeat]),
                       std::to_string(g.num_edges()),
                       algo::algorithm_name(items[i].algorithm),
                       std::to_string(outcome.stats.rounds),
                       std::to_string(outcome.stats.messages_sent),
                       std::to_string(outcome.solution.size()),
                       feasible ? "yes" : "NO"});
          }
        },
        &plan_cache);
    if (!ndjson) table.print(out);
    summarize(items.size(), all_feasible);
    return all_feasible ? 0 : 1;
  } catch (const Error& e) {
    err << "sweep: " << e.what() << '\n';
    return 1;
  }
}

/// Hidden subcommand behind `edsim sweep --shards`: one shard of a
/// ProcessShardExecutor pool.  Speaks the framed schema-2 NDJSON protocol
/// of runtime/shard.hpp on stdin/stdout: batches arrive as batch_begin /
/// job lines / batch_end, each job answers with one result (or error)
/// line, flushed per job so the parent can stream, and each batch_end
/// answers with one worker_summary carrying the batch's cache-counter
/// deltas plus the process-lifetime totals.  The PlanCache (the per-shard
/// cache of the design) and the engine workspaces behind it live for the
/// *process*, not the batch — that persistence is the whole point of the
/// warm pool.  Stdin EOF between batches ends the worker cleanly.
///
/// Back-compat: when the *first* stdin line is a job line (schema 1 or an
/// unframed schema-2 line) the worker runs the legacy single-batch
/// protocol instead — jobs until EOF, then one summary in the first
/// line's schema.  A job that fails its run produces an error line and
/// the worker carries on: draining the batch is the parent's prefix-rule
/// contract.  Malformed or out-of-frame lines are protocol failures:
/// exit 2, loudly.
///
/// Chaos hooks (the deterministic misbehaviour injectors behind the
/// resilience layer's tests): `--chaos SPEC` wins, then the historical
/// `--fail-after K` (an alias for `crash:K`: exit 7 without a summary
/// after K cumulative result lines), then the EDS_WORKER_CHAOS
/// environment variable — the route a test or the chaos-soak CI job uses
/// to garble a whole fleet without touching the parent's command line.
int cmd_worker(const Args& args, std::istream& in, std::ostream& out,
               std::ostream& err) {
  runtime::ChaosSpec chaos;
  try {
    if (args.has("chaos")) {
      chaos = runtime::parse_chaos_spec(args.get("chaos"));
    } else if (args.has("fail-after")) {
      chaos.mode = runtime::ChaosSpec::Mode::kCrash;
      chaos.n = args.get_u64("fail-after", 0);
      if (chaos.n == 0) chaos.mode = runtime::ChaosSpec::Mode::kNone;
    } else if (const char* env = std::getenv("EDS_WORKER_CHAOS")) {
      chaos = runtime::parse_chaos_spec(env);
    }
  } catch (const Error& e) {
    err << "worker: " << e.what() << '\n';
    return 2;
  }

  runtime::PlanCache cache;
  std::uint64_t total_jobs = 0;

  // Runs one job under the persistent cache, answering at `schema`.
  // Returns 0 to keep serving, or the exit code a chaos action demands.
  // Chaos actions *return* instead of _exit so the in-process run_cli
  // tests observe them exactly like a forked worker's exit status.
  const auto run_job = [&](const runtime::WireJob& job, int schema) -> int {
    const auto action = runtime::chaos_action(chaos, total_jobs + 1, job.index);
    if (action.mode == runtime::ChaosSpec::Mode::kPoison) {
      return 13;  // die on sight: no answer, no summary, every time
    }
    if (action.mode == runtime::ChaosSpec::Mode::kHang) {
      std::this_thread::sleep_for(std::chrono::milliseconds(action.ms));
    }
    std::string answer;
    try {
      const auto g = port::from_port_graph_string(job.graph_text);
      const auto algorithm = algo::algorithm_from_token(job.algorithm);
      if (!algorithm) {
        throw InvalidArgument("worker: unknown algorithm token '" +
                              job.algorithm + "'");
      }
      const auto factory = algo::make_factory(*algorithm, job.param);
      runtime::RunOptions options;
      options.max_rounds = job.max_rounds;
      options.exec.threads = job.threads;
      options.exec.plan_cache = &cache;
      options.exec.async = job.async;
      const auto result = runtime::run_synchronous(g, *factory, options);
      answer = runtime::encode_wire_result(job.index, result, schema);
    } catch (const std::exception& e) {
      // Any job failure — eds::Error or std::bad_alloc alike — becomes an
      // error line for exactly that job, matching the in-process backend's
      // catch-everything per-job semantics.
      answer = runtime::encode_wire_error(job.index, e.what(), schema);
    }
    ++total_jobs;
    switch (action.mode) {
      case runtime::ChaosSpec::Mode::kGarbage:
        // The real answer is swallowed; the parent reads a non-protocol
        // line, kills this worker, and retries the job elsewhere.
        out << "!! chaos garbage in place of job " << job.index << '\n';
        out.flush();
        break;
      case runtime::ChaosSpec::Mode::kSlow: {
        // One answer, two flushes: exercises the parent's partial-line
        // buffering without breaking protocol.
        const std::size_t half = answer.size() / 2;
        out << answer.substr(0, half);
        out.flush();
        std::this_thread::sleep_for(std::chrono::milliseconds(action.ms));
        out << answer.substr(half) << '\n';
        out.flush();
        break;
      }
      case runtime::ChaosSpec::Mode::kExitMid:
        // Half a frame, then death: the parent sees a truncated trailing
        // line at EOF and reports it in the retry diagnostics.
        out << answer.substr(0, answer.size() / 2);
        out.flush();
        return 11;
      default:
        out << answer << '\n';
        out.flush();
        break;
    }
    if (action.mode == runtime::ChaosSpec::Mode::kCrash) {
      return 7;  // historical --fail-after status: die without a summary
    }
    return 0;
  };

  std::string line;
  std::size_t line_no = 0;
  int mode_schema = 0;  ///< locked by the first line (0 = nothing seen yet)
  bool framed = false;
  bool batch_open = false;
  std::uint64_t batch_id = 0;
  std::uint64_t batch_jobs = 0;
  runtime::PlanCache::Stats batch_base;  // cache counters at batch_begin
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    runtime::ParentLine parsed;
    try {
      parsed = runtime::decode_parent_line(line);
    } catch (const Error& e) {
      // A malformed line is a protocol failure, not a job failure: die
      // loudly — naming the line and a snippet of what arrived — and let
      // the parent handle this shard's unfinished jobs.
      err << "worker: malformed parent "
          << runtime::detail::describe_wire_line(line_no, line) << ": "
          << e.what() << '\n';
      return 2;
    }
    if (mode_schema == 0) {
      mode_schema = parsed.schema;
      framed = parsed.kind == runtime::ParentLine::Kind::kBatchBegin;
    }
    switch (parsed.kind) {
      case runtime::ParentLine::Kind::kBatchBegin:
        if (!framed || batch_open) {
          err << "worker: unexpected batch_begin\n";
          return 2;
        }
        batch_open = true;
        batch_id = parsed.batch_id;
        batch_jobs = 0;
        batch_base = cache.stats();
        break;
      case runtime::ParentLine::Kind::kJob:
        if (framed && !batch_open) {
          err << "worker: job line outside a batch\n";
          return 2;
        }
        if (const int rc = run_job(parsed.job, framed
                                                   ? runtime::kWireSchemaVersion
                                                   : mode_schema);
            rc != 0) {
          return rc;  // a chaos action fired: die as instructed
        }
        ++batch_jobs;
        break;
      case runtime::ParentLine::Kind::kBatchEnd: {
        if (!framed || !batch_open || parsed.batch_id != batch_id) {
          err << "worker: unexpected batch_end\n";
          return 2;
        }
        const auto now = cache.stats();
        runtime::WorkerSummary summary;
        summary.batch_id = batch_id;
        summary.jobs = batch_jobs;
        summary.plans_compiled = now.misses - batch_base.misses;
        summary.plan_hits = now.hits - batch_base.hits;
        summary.total_jobs = total_jobs;
        summary.total_compiled = now.misses;
        summary.total_hits = now.hits;
        out << runtime::encode_worker_summary(summary) << '\n';
        out.flush();
        batch_open = false;
        break;
      }
    }
  }
  // Framed workers end on EOF with no trailing line (every batch already
  // got its summary); legacy single-batch workers summarize at EOF, in
  // the schema the parent spoke.
  if (framed) return 0;
  const auto stats = cache.stats();
  runtime::WorkerSummary summary;
  summary.jobs = total_jobs;
  summary.plans_compiled = stats.misses;
  summary.plan_hits = stats.hits;
  summary.total_jobs = total_jobs;
  summary.total_compiled = stats.misses;
  summary.total_hits = stats.hits;
  out << runtime::encode_worker_summary(
             summary,
             mode_schema == 0 ? runtime::kWireSchemaVersion : mode_schema)
      << '\n';
  out.flush();
  return 0;
}

int cmd_views(const Args& args, std::istream& in, std::ostream& out,
              std::ostream& err) {
  try {
    const auto g = port::read_port_graph(in);
    const auto classes =
        args.has("radius")
            ? port::view_classes(g, args.get_u64("radius", 0))
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
  const Args parsed(args);
  const auto& command = args[0];
  try {
    if (command == "generate") return cmd_generate(parsed, out, err);
    if (command == "solve") return cmd_solve(parsed, in, out, err);
    if (command == "lower-bound") return cmd_lower_bound(parsed, out, err);
    if (command == "run-portgraph") {
      return cmd_run_portgraph(parsed, in, out, err);
    }
    if (command == "sweep") return cmd_sweep(parsed, out, err);
    if (command == "worker") return cmd_worker(parsed, in, out, err);
    if (command == "views") return cmd_views(parsed, in, out, err);
    if (command == "table1") return cmd_table1(out);
  } catch (const std::exception& e) {
    err << command << ": " << e.what() << '\n';
    return 1;
  }
  err << "unknown command '" << command << "' (try 'edsim help')\n";
  return 2;
}

}  // namespace eds::cli
