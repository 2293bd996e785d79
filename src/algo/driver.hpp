// High-level entry points: pick an algorithm, run it on a ported graph,
// validate the output, and return the solution with execution statistics.
//
// This is the public API a downstream user of the library is expected to
// call; everything else (programs, runner, verifiers) is available for
// finer-grained use.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/edge_set.hpp"
#include "port/ported_graph.hpp"
#include "runtime/outputs.hpp"
#include "runtime/runner.hpp"

namespace eds::algo {

/// The algorithms of the paper (plus the standalone phase III subroutine).
enum class Algorithm {
  kAllEdges,      ///< trivial ∆ = 1 algorithm (Table 1 row 3)
  kPortOne,       ///< Theorem 3: O(1), 4 − 2/d on d-regular graphs
  kOddRegular,    ///< Theorem 4: O(d²), 4 − 6/(d+1) on odd-d-regular graphs
  kBoundedDegree, ///< Theorem 5: O(∆²), 4 − 1/k on max-degree-∆ graphs
  kDoubleCover,   ///< Polishchuk–Suomela 2-matching (not an EDS by itself
                  ///< in general; dominates all edges and is a 2-matching)
};

[[nodiscard]] std::string algorithm_name(Algorithm a);

/// Stable machine-readable token for `a` ("port-one", "bounded-degree",
/// ...).  This is the CLI's --algorithm vocabulary and the `algorithm`
/// field of a replay file.
[[nodiscard]] std::string algorithm_token(Algorithm a);

/// Inverse of algorithm_token; nullopt for an unknown token.
[[nodiscard]] std::optional<Algorithm> algorithm_from_token(
    const std::string& token);

/// Result of one distributed execution.
struct EdsOutcome {
  graph::EdgeSet solution;   ///< validated, internally consistent edge set
  runtime::RunStats stats;   ///< rounds and message counts
};

/// Builds the factory for `algorithm`; `param` is d for kOddRegular and ∆
/// for kBoundedDegree / kDoubleCover (ignored for the others).
[[nodiscard]] std::unique_ptr<runtime::ProgramFactory> make_factory(
    Algorithm algorithm, port::Port param = 0);

/// The round cap of `algorithm` with the resolved `param`: the larger of
/// the RunOptions default and the exact schedule length, so A(∆) from max
/// degree 182 on still completes.  The library and edsim give it to every
/// built-in run whose RunOptions they build.
[[nodiscard]] runtime::Round round_cap(Algorithm algorithm, port::Port param);

/// Resolves the `param == 0` default from the graph, exactly as
/// run_algorithm does internally: the d-regular degree for kOddRegular
/// (throws InvalidArgument when the graph is not regular), the max degree
/// for kBoundedDegree / kDoubleCover, `param` unchanged otherwise.  Callers
/// that build raw runtime::BatchJobs (e.g. the CLI's sweeps) use this
/// to construct the same factory run_algorithm would.
[[nodiscard]] port::Port resolved_param(const port::PortedGraph& pg,
                                        Algorithm algorithm,
                                        port::Port param = 0);

/// Runs `algorithm` on `pg` and returns the validated solution.
/// `param` defaults (0) resolve from the graph: d-regular degree for
/// kOddRegular, max degree for kBoundedDegree / kDoubleCover.  `exec`
/// selects the engine policy (ExecOptions{.threads = N}); the solution is
/// identical for every policy.  `exec.plan_cache`, when set, counts the
/// run's structure (a hit or a miss); null counts nothing.  The run's round
/// cap is round_cap(algorithm, param).
[[nodiscard]] EdsOutcome run_algorithm(const port::PortedGraph& pg,
                                       Algorithm algorithm,
                                       port::Port param = 0,
                                       const runtime::ExecOptions& exec = {});

/// One job of a batch sweep; `graph` is non-owning and must outlive the
/// run_batch call.  `param` resolves exactly as in run_algorithm.
struct BatchItem {
  const port::PortedGraph* graph = nullptr;
  Algorithm algorithm = Algorithm::kBoundedDegree;
  port::Port param = 0;
};

/// Runs every item concurrently over a BatchRunner pool with `threads`
/// workers (0 = one per hardware thread) and returns the validated outcomes
/// in item order — deterministically identical for every thread count.
/// `plan_cache`, when set, counts the distinct structures the items ran on
/// (one miss per structure, a hit per repeat); null counts nothing.  The
/// pool outlives the call: the next batch of the same width reuses its lanes
/// (threads and pooled workspaces) unless another batch is holding them.
[[nodiscard]] std::vector<EdsOutcome> run_batch(
    const std::vector<BatchItem>& items, unsigned threads = 0,
    runtime::PlanCache* plan_cache = nullptr);

/// Streaming run_batch: `on_outcome` receives each item's validated
/// outcome as soon as its whole prefix has completed (serialized, strictly
/// increasing item order — see BatchRunner::run_streaming), so long sweeps
/// can emit output incrementally.  Blocks until the batch drains; rethrows
/// the lowest-indexed failure after withholding outcomes from it onward.
void run_batch_streaming(
    const std::vector<BatchItem>& items, unsigned threads,
    const std::function<void(std::size_t index, EdsOutcome&& outcome)>&
        on_outcome,
    runtime::PlanCache* plan_cache = nullptr);

/// The Table 1 row selector: the algorithm (and parameter) the paper
/// prescribes for `g` — kAllEdges for max degree <= 1, kPortOne for
/// even-regular, kOddRegular for odd-regular, kBoundedDegree otherwise.
struct Recommendation {
  Algorithm algorithm = Algorithm::kBoundedDegree;
  port::Port param = 0;
};
[[nodiscard]] Recommendation recommended_for(const graph::SimpleGraph& g);

}  // namespace eds::algo
