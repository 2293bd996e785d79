// edsbench: the end-to-end benchmark of the edsim library.
//
//   edsbench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out FILE]
//   edsbench --selftest
//
// A run sets the workload up 5 times (inputs from the seed plus one
// untimed warm-up pass; the median is setup_s), then runs closed-loop
// passes for S seconds and at least until the tail percentile has ten
// samples beyond it.  End-to-end times are scaled to a reference core by a
// calibration kernel run around every set-up and pass (calibrate.hpp).
// With --trace 1 it alternates untraced passes with
// traced replays and reports the per-layer metrics instead.  Human-readable
// lines come first; the last stdout line is one JSON object.  README.md
// defines every metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace edsbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool selftest = false;
};

/// Set-ups per run; setup_s is their median.
constexpr unsigned kSetups = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile of unsorted samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// This process's peak resident set (VmHWM).  getrusage's ru_maxrss is not
/// used: it keeps the high-water mark of the process that exec'd us.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The set-up phase: kSetups fresh set-ups, each checked to reproduce the
/// first one's fingerprint.  Keeps the last workload for measuring.
struct SetupPhase {
  std::unique_ptr<Workload> workload;
  PassResult warm;
  std::vector<double> setup_s, graph_ns, ports_ns;  ///< unscaled
  std::vector<double> cal_ns;  ///< kernel runs before, between and after
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  bool stable = true;
};

SetupPhase set_up(const Options& opt, Tracer& tracer, Calibrator& cal) {
  SetupPhase s;
  std::string first;
  s.cal_ns.push_back(cal.measure());
  for (unsigned rep = 0; rep < kSetups; ++rep) {
    s.workload.reset();  // free the last set-up's inputs first
    const std::size_t from = tracer.size();
    const auto t0 = Clock::now();
    s.workload = make_workload(opt.workload);
    s.workload->generate(opt.seed, tracer);
    s.warm = s.workload->warm_up();
    s.setup_s.push_back(seconds_since(t0));
    s.cal_ns.push_back(cal.measure());
    s.graph_ns.push_back(
        static_cast<double>(tracer.named("random_regular", from).first));
    s.ports_ns.push_back(
        static_cast<double>(tracer.named("with_random_ports", from).first));
    s.ops += s.warm.ops;
    s.failed += s.warm.failed;
    const std::string fp = s.warm.fingerprint();
    if (rep == 0) first = fp;
    s.stable = s.stable && fp == first;
  }
  return s;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
       << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::cout << "  " << std::left << std::setw(28) << m.name << ' '
              << std::setprecision(10) << m.value << ' ' << m.unit << '\n';
  }
}

int run(const Options& opt) {
  const auto program_start = Clock::now();
  // Leaves room for the last pass, the report and the trace file inside
  // the 180 s a run may take.
  constexpr double kHardStopSeconds = 140;
  Tracer tracer;
  Calibrator cal(make_workload(opt.workload)->lanes());
  SetupPhase setup = set_up(opt, tracer, cal);
  Workload& w = *setup.workload;
  std::uint64_t attempted = setup.ops;
  std::uint64_t failed = setup.failed;
  std::cout << "workload " << opt.workload << " seed " << opt.seed
            << " trace " << opt.trace << '\n'
            << "fingerprint " << setup.warm.fingerprint() << '\n';
  if (!setup.stable) {
    std::cout << "FAIL: the fingerprint differs between set-ups\n";
    ++failed;
  }

  const std::size_t measure_from = tracer.size();
  const auto start = Clock::now();
  std::vector<double> latencies;
  std::uint64_t ops = 0;
  std::int64_t wall_ns = 0;
  Work work;
  // Traced mode: untraced passes interleaved with traced ones.
  std::uint64_t traced_ops = 0;
  std::int64_t traced_ns = 0;
  std::size_t traced_passes = 0;
  Work traced_work;
  Work engine_work;
  std::uint64_t programs_created = 0;
  std::vector<double> lane_util;
  const auto done = [&] {
    if (seconds_since(program_start) > kHardStopSeconds) return true;
    if (seconds_since(start) < opt.seconds) return false;
    return opt.trace ? traced_passes > 0
                     : latencies.size() >= w.min_samples();
  };
  // Untraced passes alternate with groups of calibration kernel runs that
  // take about 1/kCalShare of the pass before them, at least one run;
  // cal_ns[p] and cal_ns[p + 1] bracket pass p.
  constexpr double kCalShare = 16;
  struct Pass {
    double raw_s;
    std::uint64_t ops, ports_served, messages;
    std::size_t latencies_end;
  };
  std::vector<Pass> timed;
  std::vector<std::vector<double>> cal_ns;
  const auto calibrate = [&](double pass_ns) {
    std::vector<double> group;
    double spent = 0;
    do {
      group.push_back(cal.measure());
      spent += group.back();
    } while (spent < pass_ns / kCalShare);
    cal_ns.push_back(std::move(group));
  };
  if (!opt.trace) calibrate(0);
  while (!done()) {
    PassResult r = w.run_pass();
    if (!opt.trace) calibrate(static_cast<double>(r.e2e_ns));
    attempted += r.ops;
    failed += r.failed;
    ops += r.ops;
    wall_ns += r.e2e_ns;
    work += r.work;
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
    timed.push_back({static_cast<double>(r.e2e_ns) / 1e9, r.ops,
                     r.work.ports_served, r.work.messages, latencies.size()});
    if (!opt.trace) continue;
    PassResult t = w.traced_pass(tracer);
    attempted += t.ops;
    failed += t.failed;
    traced_ops += t.ops;
    traced_ns += t.e2e_ns;
    ++traced_passes;
    traced_work += t.work;
    engine_work += t.engine_work;
    programs_created += t.programs_created;
    lane_util.push_back(t.lane_util);
  }

  std::vector<Metric> metrics;
  const double wall_s = static_cast<double>(wall_ns) / 1e9;
  if (!opt.trace) {
    // A pass's times are scaled to the reference core by the median of the
    // kernel runs within kCalWindow passes of it: a slowdown that lasts a
    // few passes stretches both, while one interrupted kernel run moves
    // neither.  Rates are medians over passes, so a pass slowed by a
    // neighbour on the machine moves them less than a run-wide mean.
    constexpr std::size_t kCalWindow = 4;
    std::vector<double> scaled_us, pass_ms, raw_pass_ms, scales;
    std::vector<double> ops_rate, ports_rate, messages_rate;
    std::size_t latencies_begin = 0;
    for (std::size_t p = 0; p < timed.size(); ++p) {
      const Pass& pass = timed[p];
      std::vector<double> window;
      const std::size_t hi = std::min(cal_ns.size(), p + 2 + kCalWindow);
      for (std::size_t g = p > kCalWindow ? p - kCalWindow : 0; g < hi; ++g) {
        window.insert(window.end(), cal_ns[g].begin(), cal_ns[g].end());
      }
      const double scale = kReferenceNs / median(window);
      for (std::size_t i = latencies_begin; i < pass.latencies_end; ++i) {
        scaled_us.push_back(latencies[i] * scale);
      }
      latencies_begin = pass.latencies_end;
      const double s = pass.raw_s * scale;
      raw_pass_ms.push_back(pass.raw_s * 1e3);
      pass_ms.push_back(s * 1e3);
      scales.push_back(scale);
      ops_rate.push_back(static_cast<double>(pass.ops) / s);
      ports_rate.push_back(static_cast<double>(pass.ports_served) / s);
      messages_rate.push_back(static_cast<double>(pass.messages) / s);
    }
    const double q = w.tail_quantile();
    std::cout << "latency: p50 and p" << q * 100 << " over " << latencies.size()
              << " samples; " << ops << " ops in " << wall_s << " s\n"
              << "pass ms: " << pass_ms.size() << " passes, min "
              << percentile(pass_ms, 0) << " p25 " << percentile(pass_ms, 0.25)
              << " median " << median(pass_ms)
              << " max " << percentile(pass_ms, 1) << '\n'
              << "unscaled pass ms: min " << percentile(raw_pass_ms, 0)
              << " median " << median(raw_pass_ms) << " max "
              << percentile(raw_pass_ms, 1) << "; core speed vs reference: "
              << "min " << percentile(scales, 0) << " median "
              << median(scales) << " max " << percentile(scales, 1) << '\n';
    if (work.events != 0) {
      std::cout << "events_per_s "
                << static_cast<double>(work.events) / wall_s << '\n';
    }
    metrics = {
        {"setup_s",
         median(setup.setup_s) * kReferenceNs / median(setup.cal_ns), "s"},
        {"latency_p50_us", percentile(scaled_us, 0.5), "us"},
        {"latency_tail_us", percentile(scaled_us, q), "us"},
        {"ops_per_s", median(ops_rate), "1/s"},
        {"port_rounds_per_s", median(ports_rate), "1/s"},
        {"messages_per_s", median(messages_rate), "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const double passes = static_cast<double>(std::max<std::size_t>(
        traced_passes, 1));
    const auto per_pass = [&](std::uint64_t v) {
      return static_cast<double>(v) / passes;
    };
    const auto mean_ns = [&](const char* name) {
      const auto [total, count] = tracer.named(name, measure_from);
      return count ? static_cast<double>(total) / static_cast<double>(count)
                   : 0.0;
    };
    const auto ratio = [](double num, double den) {
      return den > 0 ? num / den : 0.0;
    };
    const double run_plan_ns =
        static_cast<double>(tracer.named("run_plan", measure_from).first);
    const double async_ns = static_cast<double>(
        tracer.named("AsyncPolicy::run", measure_from).first);
    const double search_ns = static_cast<double>(
        tracer.named("adversary_search", measure_from).first);
    const auto self = tracer.self_ns(measure_from);
    const double roots = static_cast<double>(tracer.root_ns(measure_from));
    const double glue = static_cast<double>(self[0]);
    const double untraced_per_op = ratio(static_cast<double>(wall_ns),
                                         static_cast<double>(ops));
    const double traced_per_op = ratio(static_cast<double>(traced_ns),
                                       static_cast<double>(traced_ops));
    std::cout << "layer self time per traced pass (ns):";
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      std::cout << ' ' << layer_name(static_cast<Layer>(l)) << '='
                << static_cast<double>(self[l]) / passes;
    }
    std::cout << '\n';
    metrics = {
        {"gen.graph_ns", median(setup.graph_ns), "ns"},
        {"gen.ports_ns", median(setup.ports_ns), "ns"},
        {"plan.get_ns", mean_ns("PlanCache::get"), "ns"},
        {"plan.hash_ns", mean_ns("structural_hash"), "ns"},
        {"plan.hits", per_pass(traced_work.plan_hits), "count"},
        {"plan.misses", per_pass(traced_work.plan_misses), "count"},
        {"plan.hit_ratio",
         ratio(static_cast<double>(traced_work.plan_hits),
               static_cast<double>(traced_work.plan_hits +
                                   traced_work.plan_misses)),
         "ratio"},
        {"program.create_ns", mean_ns("ProgramFactory::create"), "ns"},
        {"program.created", per_pass(programs_created), "count"},
        {"engine.run_ns", mean_ns("run_plan"), "ns"},
        {"engine.rounds", per_pass(engine_work.rounds), "count"},
        {"engine.ports_served", per_pass(engine_work.ports_served), "count"},
        {"engine.messages", per_pass(engine_work.messages), "count"},
        {"engine.ns_per_port_round",
         ratio(run_plan_ns, static_cast<double>(engine_work.ports_served)),
         "ns"},
        {"outputs.validate_ns", mean_ns("validated_edge_set"), "ns"},
        {"analysis.verify_ns", mean_ns("is_edge_dominating_set"), "ns"},
        {"batch.wall_ns", mean_ns("run_batch_streaming"), "ns"},
        {"batch.lane_util", lane_util.empty() ? 0.0 : median(lane_util),
         "ratio"},
        {"async.run_ns", mean_ns("AsyncPolicy::run"), "ns"},
        {"async.events", per_pass(traced_work.events), "count"},
        {"async.delivered", per_pass(traced_work.delivered), "count"},
        {"async.acks", per_pass(traced_work.acks), "count"},
        {"async.ns_per_event",
         ratio(async_ns, static_cast<double>(traced_work.events)), "ns"},
        {"sched.search_ns", mean_ns("adversary_search"), "ns"},
        {"sched.shrink_ns", mean_ns("shrink_witness"), "ns"},
        {"sched.evaluated", per_pass(traced_work.probes), "count"},
        {"sched.failures", per_pass(traced_work.probe_failures), "count"},
        {"sched.ns_per_probe",
         ratio(search_ns, static_cast<double>(traced_work.probes)), "ns"},
        {"trace.layer_coverage", ratio(roots - glue, roots), "ratio"},
        {"trace.overhead_pct",
         100.0 * ratio(traced_per_op - untraced_per_op, untraced_per_op),
         "%"},
    };
    if (!opt.trace_out.empty()) {
      // About 25 MB of JSON: the set-up spans and at least one whole
      // traced pass of every workload.
      constexpr std::size_t kMaxWrittenSpans = 200000;
      std::ofstream out(opt.trace_out);
      tracer.write_chrome_json(out, kMaxWrittenSpans);
      if (!out) {
        std::cerr << "edsbench: cannot write " << opt.trace_out << '\n';
      }
    }
  }
  print_metrics(metrics);
  if (failed != 0) {
    std::cout << "FAIL: " << failed << " of " << attempted
              << " ops failed their check\n";
  }
  std::cout << "error_rate "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << '\n';
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

/// The benchmark's own test: fingerprints repeat across set-ups at the
/// default and a held-out seed, sweep-bounded's fingerprint does not depend
/// on the lane count, and a hand-corrupted solution counts as a failed op.
int selftest() {
  bool ok = true;
  const auto check = [&](bool cond, const std::string& what) {
    std::cout << (cond ? "PASS " : "FAIL ") << what << '\n';
    ok = ok && cond;
  };
  const auto fingerprint = [](const std::string& name, std::uint64_t seed,
                              unsigned lanes) {
    Tracer gen;
    auto w = make_workload(name, lanes);
    w->generate(seed, gen);
    const PassResult r = w->warm_up();
    return std::make_pair(r.fingerprint(), r.failed);
  };
  for (const std::uint64_t seed : {1u, 2u}) {
    for (const auto& name : workload_names()) {
      const auto a = fingerprint(name, seed, 0);
      const auto b = fingerprint(name, seed, 0);
      const std::string tag = name + " seed " + std::to_string(seed);
      std::cout << "fingerprint " << tag << ' ' << a.first << '\n';
      check(a.second == 0 && b.second == 0, tag + ": warm-up ops pass");
      check(a.first == b.first, tag + ": fingerprint repeats");
      if (name == "sweep-bounded") {
        check(fingerprint(name, seed, 1).first == a.first,
              tag + ": fingerprint at 1 lane equals 2 lanes");
      }
    }
  }
  for (const std::string name :
       {"repeat-port-one", "sweep-bounded", "async-synchronizer"}) {
    Tracer gen;
    auto w = make_workload(name);
    w->generate(1, gen);
    static_cast<void>(w->warm_up());
    w->corrupt_next_op();
    const PassResult bad = w->run_pass();
    check(bad.failed == 1, name + ": a dropped edge fails exactly one op");
    check(w->run_pass().failed == 0, name + ": the next pass is clean");
  }
  std::cout << (ok ? "selftest passed\n" : "selftest FAILED\n");
  return ok ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--selftest") {
      opt.selftest = true;
      continue;
    }
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return false;
    kv[key.substr(2)] = argv[++i];
  }
  try {
    for (const auto& [key, value] : kv) {
      if (key == "workload") {
        opt.workload = value;
      } else if (key == "seed") {
        opt.seed = std::stoull(value);
      } else if (key == "seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (key == "trace-out") {
        opt.trace_out = value;
      } else {
        return false;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return opt.selftest || make_workload(opt.workload) != nullptr;
}

}  // namespace
}  // namespace edsbench

int main(int argc, char** argv) {
  edsbench::Options opt;
  if (!edsbench::parse(argc, argv, opt)) {
    std::cerr << "usage: edsbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n"
                 "       edsbench --selftest\n";
    return 2;
  }
  try {
    return opt.selftest ? edsbench::selftest() : edsbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "edsbench: " << e.what() << '\n';
    return 1;
  }
}
