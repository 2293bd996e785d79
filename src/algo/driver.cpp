#include "algo/driver.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "algo/all_edges.hpp"
#include "algo/bounded_degree.hpp"
#include "algo/double_cover.hpp"
#include "algo/odd_regular.hpp"
#include "algo/port_one.hpp"
#include "runtime/batch.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace eds::algo {

std::string algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kAllEdges:
      return "all-edges";
    case Algorithm::kPortOne:
      return "port-one (Thm 3)";
    case Algorithm::kOddRegular:
      return "odd-regular (Thm 4)";
    case Algorithm::kBoundedDegree:
      return "bounded-degree (Thm 5)";
    case Algorithm::kDoubleCover:
      return "double-cover 2-matching";
  }
  throw InvalidArgument("algorithm_name: unknown algorithm");
}

std::string algorithm_token(Algorithm a) {
  switch (a) {
    case Algorithm::kAllEdges:
      return "all-edges";
    case Algorithm::kPortOne:
      return "port-one";
    case Algorithm::kOddRegular:
      return "odd-regular";
    case Algorithm::kBoundedDegree:
      return "bounded-degree";
    case Algorithm::kDoubleCover:
      return "double-cover";
  }
  throw InvalidArgument("algorithm_token: unknown algorithm");
}

std::optional<Algorithm> algorithm_from_token(const std::string& token) {
  if (token == "all-edges") return Algorithm::kAllEdges;
  if (token == "port-one") return Algorithm::kPortOne;
  if (token == "odd-regular") return Algorithm::kOddRegular;
  if (token == "bounded-degree") return Algorithm::kBoundedDegree;
  if (token == "double-cover") return Algorithm::kDoubleCover;
  return std::nullopt;
}

std::unique_ptr<runtime::ProgramFactory> make_factory(Algorithm algorithm,
                                                      port::Port param) {
  switch (algorithm) {
    case Algorithm::kAllEdges:
      return std::make_unique<AllEdgesFactory>();
    case Algorithm::kPortOne:
      return std::make_unique<PortOneFactory>();
    case Algorithm::kOddRegular:
      if (param == 0) {
        throw InvalidArgument("make_factory: kOddRegular needs d");
      }
      return std::make_unique<OddRegularFactory>(param);
    case Algorithm::kBoundedDegree:
      if (param == 0) {
        throw InvalidArgument("make_factory: kBoundedDegree needs max degree");
      }
      if (param == 1) return std::make_unique<AllEdgesFactory>();
      return std::make_unique<BoundedDegreeFactory>(param);
    case Algorithm::kDoubleCover:
      if (param == 0) {
        throw InvalidArgument("make_factory: kDoubleCover needs max degree");
      }
      return std::make_unique<DoubleCoverFactory>(param);
  }
  throw InvalidArgument("make_factory: unknown algorithm");
}

runtime::Round round_cap(Algorithm algorithm, port::Port param) {
  // All-edges halts in start() and port-one after one round.
  const std::uint64_t schedule =
      algorithm == Algorithm::kOddRegular
          ? OddRegularProgram::schedule_length(param)
      : algorithm == Algorithm::kBoundedDegree
          ? BoundedDegreeProgram::schedule_length(param)
      : algorithm == Algorithm::kDoubleCover
          ? DoubleCoverProgram::schedule_length(param)
          : 0;
  // The factories reject a schedule past a Round; clamp, never wrap.
  return static_cast<runtime::Round>(std::clamp<std::uint64_t>(
      schedule, runtime::RunOptions{}.max_rounds,
      std::numeric_limits<runtime::Round>::max()));
}

namespace {

/// Resolves the `param == 0` default from the graph (d-regular degree for
/// kOddRegular, max degree for kBoundedDegree / kDoubleCover).
port::Port resolve_param(const port::PortedGraph& pg, Algorithm algorithm,
                         port::Port param) {
  if (param != 0) return param;
  const auto& g = pg.graph();
  switch (algorithm) {
    case Algorithm::kOddRegular: {
      const auto d = g.max_degree();
      if (!g.is_regular(d)) {
        throw InvalidArgument("run_algorithm: graph is not regular");
      }
      return static_cast<port::Port>(d);
    }
    case Algorithm::kBoundedDegree:
    case Algorithm::kDoubleCover:
      return static_cast<port::Port>(std::max<std::size_t>(
          g.max_degree(), 1));
    default:
      return param;
  }
}

}  // namespace

port::Port resolved_param(const port::PortedGraph& pg, Algorithm algorithm,
                          port::Port param) {
  return resolve_param(pg, algorithm, param);
}

EdsOutcome run_algorithm(const port::PortedGraph& pg, Algorithm algorithm,
                         port::Port param, const runtime::ExecOptions& exec) {
  param = resolve_param(pg, algorithm, param);
  const auto factory = make_factory(algorithm, param);
  runtime::RunOptions options;
  options.max_rounds = round_cap(algorithm, param);
  options.exec = exec;
  const auto result = runtime::run_synchronous(pg.ports(), *factory, options);
  EdsOutcome outcome;
  outcome.solution = runtime::validated_edge_set(pg, result);
  outcome.stats = result.stats;
  return outcome;
}

namespace {

/// The shared front half of run_batch / run_batch_streaming: factories are
/// built up front (and kept alive for the whole batch) and every job is
/// pointed at the plan cache, if any.
struct PreparedBatch {
  std::vector<std::unique_ptr<runtime::ProgramFactory>> factories;
  std::vector<runtime::BatchJob> jobs;
};

PreparedBatch prepare_batch(const std::vector<BatchItem>& items,
                            runtime::PlanCache* plan_cache) {
  PreparedBatch batch;
  batch.factories.reserve(items.size());
  batch.jobs.reserve(items.size());
  for (const auto& item : items) {
    if (item.graph == nullptr) {
      throw InvalidArgument("run_batch: item requires a graph");
    }
    const auto param = resolve_param(*item.graph, item.algorithm, item.param);
    batch.factories.push_back(make_factory(item.algorithm, param));
    runtime::RunOptions options;
    options.max_rounds = round_cap(item.algorithm, param);
    options.exec.plan_cache = plan_cache;
    batch.jobs.push_back(
        {&item.graph->ports(), batch.factories.back().get(), options});
  }
  return batch;
}

}  // namespace

std::vector<EdsOutcome> run_batch(const std::vector<BatchItem>& items,
                                  unsigned threads,
                                  runtime::PlanCache* plan_cache) {
  std::vector<EdsOutcome> outcomes(items.size());
  run_batch_streaming(
      items, threads,
      [&outcomes](std::size_t i, EdsOutcome&& outcome) {
        outcomes[i] = std::move(outcome);
      },
      plan_cache);
  return outcomes;
}

void run_batch_streaming(
    const std::vector<BatchItem>& items, unsigned threads,
    const std::function<void(std::size_t index, EdsOutcome&& outcome)>&
        on_outcome,
    runtime::PlanCache* plan_cache) {
  const auto batch = prepare_batch(items, plan_cache);
  // `threads` sizes the batch pool; the job-level options stay sequential,
  // so the two levels of parallelism never multiply.  The runner the last
  // batch released is kept for the next batch of the same width: its lanes
  // keep their threads and pooled workspaces, so back-to-back batches do
  // not free and regrow every workspace; with a new pool per batch, how
  // much of that churn the allocator kept resident changed from one
  // process to the next.
  const IdleLease<runtime::BatchRunner> runner(threads);
  runner->run_streaming(
      batch.jobs, [&](std::size_t i, runtime::RunResult&& result) {
        EdsOutcome outcome;
        outcome.solution = runtime::validated_edge_set(*items[i].graph, result);
        outcome.stats = result.stats;
        on_outcome(i, std::move(outcome));
      });
}

Recommendation recommended_for(const graph::SimpleGraph& g) {
  const auto delta = g.max_degree();
  if (delta <= 1) return {Algorithm::kAllEdges, 0};
  if (g.is_regular(delta)) {
    if (delta % 2 == 0) return {Algorithm::kPortOne, 0};
    return {Algorithm::kOddRegular, static_cast<port::Port>(delta)};
  }
  return {Algorithm::kBoundedDegree, static_cast<port::Port>(delta)};
}

}  // namespace eds::algo
