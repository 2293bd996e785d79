// google-benchmark: simulator throughput — rounds/sec and full-algorithm
// wall time across n and d, plus the engine's multi-lane and batch
// scaling points, plan-cache counters and allocation pressure.
//
// Machine-readable output (the BENCH_runtime.json perf trajectory): every
// benchmark exports `n` and `rounds` counters (plus cache/allocation
// counters where relevant), so
//   bench_micro_runtime --benchmark_format=json
// piped through tools/bench_json.py yields records of
// {name, n, rounds, ns_per_op, counters}.  CI runs this on every push in
// Release with --benchmark_repetitions=5 (a record's ns_per_op is the
// median, with its min and max), uploads the JSON as an artifact, and
// posts the delta against the committed snapshot via
// `tools/bench_json.py --compare`.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "algo/driver.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/program.hpp"
#include "runtime/runner.hpp"
#include "util/rng.hpp"

namespace {

/// Exports the pooled-transport counter deltas accumulated across the
/// timed loop: healthy plateaus show reuses >> growths.
class AllocPressure {
 public:
  AllocPressure() : before_(eds::runtime::engine_alloc_stats()) {}

  void export_into(benchmark::State& state) const {
    const auto after = eds::runtime::engine_alloc_stats();
    state.counters["ws_reuses"] = static_cast<double>(
        after.workspace_reuses - before_.workspace_reuses);
    state.counters["ws_growths"] = static_cast<double>(
        after.workspace_growths - before_.workspace_growths);
    // Net pooled-byte growth across the timed loop, NOT the absolute
    // gauge: the gauge includes workspaces retained by *earlier*
    // benchmarks in the process (e.g. BM_Engine100k's 100k-node main
    // thread workspace), which would make the exported value depend on
    // benchmark order and --benchmark_filter.
    state.counters["ws_bytes"] =
        static_cast<double>(after.workspace_bytes) -
        static_cast<double>(before_.workspace_bytes);
  }

 private:
  eds::runtime::EngineAllocStats before_;
};

/// Exports the engine's round-loop time (`round_ns`, from the initial
/// exchange to the end of the last round) and its node dispatches
/// (`dispatched`) as per-iteration counters: deltas of the process-wide
/// counters every run adds to, across the timed loop.
class StageSplit {
 public:
  StageSplit() : before_(eds::runtime::engine_stage_stats()) {}

  void export_into(benchmark::State& state) const {
    const auto after = eds::runtime::engine_stage_stats();
    state.counters["round_ns"] = benchmark::Counter(
        static_cast<double>(after.round_ns - before_.round_ns),
        benchmark::Counter::kAvgIterations);
    state.counters["dispatched"] = benchmark::Counter(
        static_cast<double>(after.dispatched - before_.dispatched),
        benchmark::Counter::kAvgIterations);
  }

 private:
  eds::runtime::EngineStageStats before_;
};

void BM_PortOne(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(1);
  const auto g = eds::graph::random_regular(n, 4, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(pg, eds::algo::Algorithm::kPortOne);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.solution.size());
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["rounds"] = static_cast<double>(rounds);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_PortOne)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_OddRegular(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<eds::port::Port>(state.range(1));
  eds::Rng rng(2);
  const auto g = eds::graph::random_regular(n, d, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto outcome =
        eds::algo::run_algorithm(pg, eds::algo::Algorithm::kOddRegular, d);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.stats.rounds);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_OddRegular)
    ->Args({64, 3})
    ->Args({256, 3})
    ->Args({1024, 3})
    ->Args({64, 5})
    ->Args({64, 7});

void BM_BoundedDegree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(3);
  const auto g = eds::graph::random_bounded_degree(n, 5, 2 * n, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  const auto delta = static_cast<eds::port::Port>(
      std::max<std::size_t>(g.max_degree(), 2));
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(
        pg, eds::algo::Algorithm::kBoundedDegree, delta);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.stats.rounds);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["rounds"] = static_cast<double>(rounds);
}
BENCHMARK(BM_BoundedDegree)->Arg(64)->Arg(256)->Arg(1024);

void BM_RunnerRoundOverhead(benchmark::State& state) {
  // Pure routing cost: double-cover (2∆ rounds, light logic) on a big torus.
  const auto side = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(4);
  const auto g = eds::graph::torus(side, side);
  const auto pg = eds::port::with_random_ports(g, rng);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    auto outcome =
        eds::algo::run_algorithm(pg, eds::algo::Algorithm::kDoubleCover, 4);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.stats.messages_sent);
  }
  state.counters["n"] = static_cast<double>(g.num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()) * 8);
}
BENCHMARK(BM_RunnerRoundOverhead)->Arg(8)->Arg(16)->Arg(32);

void BM_Engine100k(benchmark::State& state) {
  // The acceptance point for the engine: one 100k-node instance, A(4)
  // (51 rounds of real per-node logic), sequential vs sharded rounds.
  // threads == 1 runs every round inline; > 1 shards it across a pool.
  const auto threads = static_cast<unsigned>(state.range(0));
  eds::Rng rng(5);
  const auto g = eds::graph::torus(320, 320);  // 102400 nodes, 4-regular
  const auto pg = eds::port::with_random_ports(g, rng);
  eds::runtime::ExecOptions exec;
  exec.threads = threads;
  std::uint64_t rounds = 0;
  const AllocPressure alloc;
  const StageSplit split;
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(
        pg, eds::algo::Algorithm::kBoundedDegree, 4, exec);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.solution.size());
  }
  split.export_into(state);
  alloc.export_into(state);
  state.counters["n"] = static_cast<double>(g.num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["lanes"] = static_cast<double>(threads);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_nodes()) *
                          static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_Engine100k)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

void BM_EngineDense(benchmark::State& state) {
  // High-degree regular graph under double-cover (2d rounds of
  // near-trivial per-node logic).  Its wake hint names only the halt
  // round after round 1, so after that the engine runs only the nodes
  // that receive a proposal or a reply: this row times the sparse path
  // at high degree, BM_EngineDenseEcho the dispatch-every-node path on
  // the same graph.  round_ns is the round-loop share.
  const auto d = static_cast<eds::port::Port>(state.range(0));
  eds::Rng rng(9);
  const auto g = eds::graph::random_regular(512, d, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  std::uint64_t rounds = 0;
  const AllocPressure alloc;
  const StageSplit split;
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(
        pg, eds::algo::Algorithm::kDoubleCover, d);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.stats.messages_sent);
  }
  split.export_into(state);
  alloc.export_into(state);
  state.counters["n"] = static_cast<double>(g.num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["degree"] = static_cast<double>(d);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges() * 2) *
                          static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_EngineDense)->Arg(16)->Arg(64);

/// Sends a message on every port in every round for `rounds` rounds and
/// sums what it hears.  No wake hint, so the engine dispatches every
/// node in every round: the default path, all transport.
class EchoProgram final : public eds::runtime::NodeProgram {
 public:
  explicit EchoProgram(eds::runtime::Round rounds) : rounds_(rounds) {}
  void start(eds::port::Port degree) override { degree_ = degree; }
  void send(eds::runtime::Round round,
            std::span<eds::runtime::Message> out) override {
    for (auto& m : out) {
      m = eds::runtime::msg(1, static_cast<std::int32_t>(round),
                            static_cast<std::int32_t>(degree_));
    }
  }
  void receive(eds::runtime::Round round,
               std::span<const eds::runtime::Message> in) override {
    for (const auto& m : in) sum_ += m.arg[0];
    if (round >= rounds_) halted_ = true;
  }
  [[nodiscard]] bool halted() const override { return halted_; }
  void output(eds::runtime::OutputSink&) const override {}

 private:
  eds::runtime::Round rounds_;
  eds::port::Port degree_ = 0;
  std::int64_t sum_ = 0;
  bool halted_ = false;
};

class EchoFactory final : public eds::runtime::ProgramFactory {
 public:
  explicit EchoFactory(eds::runtime::Round rounds) : rounds_(rounds) {}
  [[nodiscard]] std::unique_ptr<eds::runtime::NodeProgram> create()
      const override {
    return std::make_unique<EchoProgram>(rounds_);
  }
  void create_all(std::size_t n,
                  eds::runtime::ProgramArena& arena) const override {
    arena.emplace<EchoProgram>(n, rounds_);
  }
  [[nodiscard]] std::string name() const override { return "echo"; }

 private:
  eds::runtime::Round rounds_;
};

void BM_EngineDenseEcho(benchmark::State& state) {
  // BM_EngineDense's graph under a hint-less program that sends on every
  // port for 2d rounds: every node runs every round and every slot
  // carries a message, so this row times the dispatch-every-node path
  // that programs without a wake hint take.
  const auto d = static_cast<eds::port::Port>(state.range(0));
  eds::Rng rng(9);
  const auto g = eds::graph::random_regular(512, d, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  const EchoFactory echo(2 * d);
  std::uint64_t rounds = 0;
  const AllocPressure alloc;
  const StageSplit split;
  for (auto _ : state) {
    auto result = eds::runtime::run_synchronous(pg.ports(), echo);
    rounds = result.stats.rounds;
    benchmark::DoNotOptimize(result.stats.messages_sent);
  }
  split.export_into(state);
  alloc.export_into(state);
  state.counters["n"] = static_cast<double>(g.num_nodes());
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["degree"] = static_cast<double>(d);
}
BENCHMARK(BM_EngineDenseEcho)->Arg(16);

void BM_PowerLawBounded(benchmark::State& state) {
  // A(∆) on a power-law graph (exponent 2.5, as `edsim sweep powerlaw`):
  // the low-arboricity, high-∆ regime where the O(∆²) schedule is almost
  // all idle rounds — 3 + 3∆'² rounds, few of them with any traffic.
  const auto n = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(10);
  const auto g = eds::graph::random_power_law(n, 2.5, rng);
  const auto pg = eds::port::with_random_ports(g, rng);
  const auto delta = static_cast<eds::port::Port>(
      std::max<std::size_t>(g.max_degree(), 2));
  std::uint64_t rounds = 0;
  const StageSplit split;
  for (auto _ : state) {
    auto outcome = eds::algo::run_algorithm(
        pg, eds::algo::Algorithm::kBoundedDegree, delta);
    rounds = outcome.stats.rounds;
    benchmark::DoNotOptimize(outcome.solution.size());
  }
  split.export_into(state);
  state.counters["n"] = static_cast<double>(n);
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["degree"] = static_cast<double>(delta);
}
BENCHMARK(BM_PowerLawBounded)->Arg(4096);

void BM_BatchSweep(benchmark::State& state) {
  // Batch throughput: 32 independent jobs (random 4-regular, n = 512)
  // fanned across the BatchRunner pool.
  const auto threads = static_cast<unsigned>(state.range(0));
  eds::Rng rng(6);
  std::vector<eds::port::PortedGraph> instances;
  instances.reserve(32);
  for (int i = 0; i < 32; ++i) {
    instances.push_back(eds::port::with_random_ports(
        eds::graph::random_regular(512, 4, rng), rng));
  }
  std::vector<eds::algo::BatchItem> items;
  for (const auto& pg : instances) {
    items.push_back({&pg, eds::algo::Algorithm::kBoundedDegree, 4});
  }
  std::uint64_t rounds = 0;
  const AllocPressure alloc;
  for (auto _ : state) {
    auto outcomes = eds::algo::run_batch(items, threads);
    rounds = outcomes.back().stats.rounds;
    benchmark::DoNotOptimize(outcomes.size());
  }
  alloc.export_into(state);
  state.counters["n"] = 512.0 * 32.0;
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["lanes"] = static_cast<double>(threads);
}
BENCHMARK(BM_BatchSweep)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

void BM_PlanCacheSweep(benchmark::State& state) {
  // The --repeat workload: `jobs` batch runs on ONE 4-regular instance
  // (n = 1024) through a shared cache.  The runs read the graph itself,
  // so the cache saves no work; it counts the structure once, and every
  // later job is a hit — plan_misses stays at 1 however many iterations
  // the timer takes.
  const auto jobs = static_cast<std::size_t>(state.range(0));
  eds::Rng rng(7);
  const auto pg = eds::port::with_random_ports(
      eds::graph::random_regular(1024, 4, rng), rng);
  std::vector<eds::algo::BatchItem> items(
      jobs, {&pg, eds::algo::Algorithm::kBoundedDegree, 4});
  eds::runtime::PlanCache cache;
  std::uint64_t rounds = 0;
  const AllocPressure alloc;
  for (auto _ : state) {
    auto outcomes = eds::algo::run_batch(items, 1, &cache);
    rounds = outcomes.back().stats.rounds;
    benchmark::DoNotOptimize(outcomes.size());
  }
  alloc.export_into(state);
  const auto stats = cache.stats();
  state.counters["n"] = 1024.0;
  state.counters["rounds"] = static_cast<double>(rounds);
  // plan_misses is timer-independent (the one structure, however many
  // iterations ran); hits are normalized per iteration (~jobs) so the
  // exported counters are comparable across machines and --benchmark_min_time.
  state.counters["plan_hits"] = benchmark::Counter(
      static_cast<double>(stats.hits), benchmark::Counter::kAvgIterations);
  state.counters["plan_misses"] = static_cast<double>(stats.misses);
}
BENCHMARK(BM_PlanCacheSweep)->Arg(64)->Arg(256);

void BM_RunSynchronousPerCall(benchmark::State& state) {
  // A whole run_synchronous call of port-one (one round) on a 64-node
  // cycle at `threads` lanes: the run is tiny, so the call's fixed costs
  // dominate.  After the first call a multi-lane call takes the idle pool
  // the last one released instead of starting and joining its threads.
  const auto threads = static_cast<unsigned>(state.range(0));
  const auto pg = eds::port::with_canonical_ports(eds::graph::cycle(64));
  const auto factory = eds::algo::make_factory(eds::algo::Algorithm::kPortOne);
  eds::runtime::RunOptions options;
  options.exec.threads = threads;
  (void)eds::runtime::run_synchronous(pg.ports(), *factory, options);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    const auto result =
        eds::runtime::run_synchronous(pg.ports(), *factory, options);
    rounds = result.stats.rounds;
    benchmark::DoNotOptimize(rounds);
  }
  state.counters["n"] = 64.0;
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["lanes"] = static_cast<double>(threads);
}
BENCHMARK(BM_RunSynchronousPerCall)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

}  // namespace

// Custom main so the benchmark context records whether this binary was
// built portable or with -march=native (EDS_NATIVE): tools/bench_json.py
// carries the flag into artifacts and demotes any native-vs-portable
// comparison to informational.
int main(int argc, char** argv) {
#ifdef EDS_NATIVE_BUILD
  benchmark::AddCustomContext("eds_native", "ON");
#else
  benchmark::AddCustomContext("eds_native", "OFF");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
