// The benchmark's workloads.  Each one generates its inputs from a seed,
// runs closed-loop passes through the library's public entry points, checks
// every op's output, and can replay a pass layer by layer inside spans.
// README.md records why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/edge_set.hpp"
#include "trace.hpp"

namespace edsbench {

/// Simulated work, in the model's own cost units.  A pure function of the
/// inputs: identical on every run, at every lane count, on every build
/// that leaves the simulation unchanged.
struct Work {
  std::uint64_t rounds = 0;        ///< Σ RunStats::rounds
  std::uint64_t ports_served = 0;  ///< Σ RunStats::ports_served
  std::uint64_t messages = 0;      ///< Σ RunStats::messages_sent
  std::uint64_t events = 0;        ///< Σ AsyncStats::events
  std::uint64_t delivered = 0;     ///< Σ AsyncStats::delivered
  std::uint64_t acks = 0;          ///< Σ AsyncStats::acks
  std::uint64_t plan_hits = 0;     ///< PlanCache::Stats deltas
  std::uint64_t plan_misses = 0;
  std::uint64_t probes = 0;          ///< adversary probes evaluated
  std::uint64_t probe_failures = 0;  ///< adversary probes that threw

  Work& operator+=(const Work& rhs);
  [[nodiscard]] bool operator==(const Work&) const = default;
};

/// What one pass over a workload's op list did.
struct PassResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;  ///< ops whose output check failed
  Work work;
  std::vector<double> latencies_us;  ///< one per latency sample
  std::int64_t e2e_ns = 0;  ///< wall time of the part an untraced pass times
  std::uint64_t digest = 0;  ///< over every op's result, in op order
  std::string worst;         ///< adversary worst metrics (else empty)

  // Filled by traced passes only.
  std::uint64_t programs_created = 0;
  Work engine_work;       ///< the part of `work` that went through run_plan
  double lane_util = 0;   ///< sweep-bounded: lane busy time ÷ (lanes × wall)

  /// The parts that must repeat exactly: work, digest, worst metrics.
  [[nodiscard]] std::string fingerprint() const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed`; generator calls are spanned in `gen`.
  virtual void generate(std::uint64_t seed, Tracer& gen) = 0;

  /// The untimed warm-up pass.  It fills the caches and records the
  /// reference every later op is checked against.
  virtual PassResult warm_up() = 0;

  /// One measured pass through the public entry points.
  virtual PassResult run_pass() = 0;

  /// One traced pass: the same ops replayed step by step through each
  /// layer's public function inside spans, checked against the reference.
  virtual PassResult traced_pass(Tracer& tracer) = 0;

  /// The latency percentile reported as the tail, and the samples a run
  /// must collect so that at least ten lie beyond it.
  [[nodiscard]] virtual double tail_quantile() const = 0;
  [[nodiscard]] std::size_t min_samples() const;

  /// The threads a pass keeps busy at once.
  [[nodiscard]] virtual unsigned lanes() const { return 1; }

  /// Drops one edge from the next checked solution (self-test hook: that
  /// op must count as failed).
  void corrupt_next_op() { corrupt_next_ = true; }

 protected:
  /// Applies a pending corruption to `solution`.
  void apply_corruption(eds::graph::EdgeSet& solution);

 private:
  bool corrupt_next_ = false;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Null for an unknown name.  `lanes` is the batch lane count (only
/// sweep-bounded runs a batch; 0 = the workload's default).
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      unsigned lanes = 0);

}  // namespace edsbench
