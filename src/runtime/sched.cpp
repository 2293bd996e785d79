#include "runtime/sched.hpp"

#include <algorithm>

#include "runtime/outputs.hpp"
#include "util/rng.hpp"

namespace eds::runtime {

namespace {

/// Lexicographic badness: inconsistency dominates (a consistency violation
/// is the strongest witness), then the selection size (the ratio
/// numerator), then latency, then rounds.  The hill-climb maximizes this;
/// AdversaryReport::primary follows the same precedence.
std::array<std::uint64_t, 4> score_of(const ScheduleMetrics& m) {
  return {m.inconsistent, m.selected, m.virtual_time, m.rounds};
}

void keep_worst(ScheduleWitness& slot, std::uint64_t& slot_value,
                const ScheduleWitness& candidate, std::uint64_t value) {
  if (value > slot_value) {
    slot = candidate;
    slot_value = value;
  }
}

}  // namespace

std::string adversary_token(AdversaryStrategy strategy) {
  switch (strategy) {
    case AdversaryStrategy::kRandom:
      return "random";
    case AdversaryStrategy::kPct:
      return "pct";
    case AdversaryStrategy::kDelay:
      return "delay";
    case AdversaryStrategy::kClimb:
      return "climb";
  }
  return "random";  // unreachable
}

std::optional<AdversaryStrategy> adversary_from_token(
    const std::string& token) {
  if (token == "random") return AdversaryStrategy::kRandom;
  if (token == "pct") return AdversaryStrategy::kPct;
  if (token == "delay") return AdversaryStrategy::kDelay;
  if (token == "climb") return AdversaryStrategy::kClimb;
  return std::nullopt;
}

std::string metric_token(AdversaryMetric metric) {
  switch (metric) {
    case AdversaryMetric::kRounds:
      return "rounds";
    case AdversaryMetric::kVirtualTime:
      return "time";
    case AdversaryMetric::kSelected:
      return "selected";
    case AdversaryMetric::kInconsistent:
      return "inconsistent";
  }
  return "rounds";  // unreachable
}

std::optional<AdversaryMetric> metric_from_token(const std::string& token) {
  if (token == "rounds") return AdversaryMetric::kRounds;
  if (token == "time") return AdversaryMetric::kVirtualTime;
  if (token == "selected") return AdversaryMetric::kSelected;
  if (token == "inconsistent") return AdversaryMetric::kInconsistent;
  return std::nullopt;
}

std::uint64_t metric_value(const ScheduleMetrics& metrics,
                           AdversaryMetric metric) {
  switch (metric) {
    case AdversaryMetric::kRounds:
      return metrics.rounds;
    case AdversaryMetric::kVirtualTime:
      return metrics.virtual_time;
    case AdversaryMetric::kSelected:
      return metrics.selected;
    case AdversaryMetric::kInconsistent:
      return metrics.inconsistent;
  }
  return 0;  // unreachable
}

ScheduleMetrics measure_schedule(const port::PortGraph& g,
                                 const AsyncResult& result) {
  if (result.run.selected.size() != g.num_ports()) {
    throw InvalidArgument(
        "measure_schedule: result does not match the graph's port count");
  }
  const SelectionCounts counts =
      count_selection(g, result.run, "measure_schedule");
  ScheduleMetrics m;
  m.rounds = result.run.stats.rounds;
  m.virtual_time = result.async.virtual_time;
  m.selected = counts.selected;
  m.inconsistent = counts.inconsistent;
  return m;
}

const ScheduleWitness& AdversaryReport::primary() const {
  switch (primary_metric()) {
    case AdversaryMetric::kInconsistent:
      return worst_inconsistent;
    case AdversaryMetric::kSelected:
      return worst_selected;
    default:
      return worst_time;
  }
}

AdversaryMetric AdversaryReport::primary_metric() const {
  if (worst_inconsistent.metrics.inconsistent > 0) {
    return AdversaryMetric::kInconsistent;
  }
  if (worst_selected.metrics.selected > 0) return AdversaryMetric::kSelected;
  return AdversaryMetric::kVirtualTime;
}

AdversarialScheduler::AdversarialScheduler(AdversaryStrategy strategy,
                                           AsyncOptions base,
                                           std::uint64_t seed,
                                           std::size_t total_ports,
                                           std::uint64_t horizon)
    : strategy_(strategy),
      base_(std::move(base)),
      seed_(seed),
      total_ports_(total_ports),
      horizon_(std::max<std::uint64_t>(horizon, 1)),
      best_(base_) {
  // The delay-bounded envelope: with an explicit round timeout a forced
  // delay may exceed it (that is the interesting region — a late message
  // becomes silence at the receiver), otherwise twice the model's maximum
  // (reordering and stretching without starving the auto timeout), never
  // past the engine's tick cap.
  const std::uint64_t max_delay = base_.delay.max_delay();
  delay_bound_ = base_.round_timeout != 0
                     ? base_.round_timeout + max_delay
                     : 2 * max_delay;
  delay_bound_ = std::clamp<std::uint64_t>(delay_bound_, 1, kMaxTicks);
}

AsyncOptions AdversarialScheduler::propose(std::size_t step) const {
  AsyncOptions o = base_;
  if (step == 0) return o;  // probe 0: the unperturbed base, every strategy
  switch (strategy_) {
    case AdversaryStrategy::kRandom: {
      // Fresh run seed per probe: new delay matrix, new fault draws.
      o.seed = draw_bits(seed_, step, 0, /*salt=*/16);
      break;
    }
    case AdversaryStrategy::kPct: {
      Schedule& s = o.schedule;
      s.prio_seed = draw_bits(seed_, step, 1, /*salt=*/17) | 1;  // non-zero
      s.demote_ticks = 1 + draw_bits(seed_, step, 2, /*salt=*/17) %
                               delay_bound_;
      const std::size_t d = 1 + step % 4;  // cycle the PCT depth 1..4
      s.change_points.reserve(d);
      for (std::size_t k = 0; k < d; ++k) {
        s.change_points.push_back(
            1 + draw_bits(seed_, step, 3 + k, /*salt=*/17) % horizon_);
      }
      break;
    }
    case AdversaryStrategy::kDelay: {
      Schedule& s = o.schedule;
      for (std::size_t q = 0; q < total_ports_; ++q) {
        const std::uint64_t bits = draw_bits(seed_, step, q, /*salt=*/18);
        if ((bits & 1) == 0) continue;  // perturb ~half the links
        s.delay_overrides.push_back(
            {static_cast<std::uint32_t>(q), 1 + (bits >> 1) % delay_bound_});
      }
      break;
    }
    case AdversaryStrategy::kClimb: {
      // Mutate the incumbent: 1–3 edits drawn from the same move set the
      // other strategies cover, so the climb can reach any of their
      // schedules one step at a time.
      o = best_;
      Schedule& s = o.schedule;
      const std::size_t edits = 1 + draw_bits(seed_, step, 0, /*salt=*/19) % 3;
      for (std::size_t e = 0; e < edits; ++e) {
        const std::uint64_t roll = draw_bits(seed_, step, 100 + e, /*salt=*/19);
        switch (roll % 5) {
          case 0: {  // force a random link
            const auto q = static_cast<std::uint32_t>(
                total_ports_ == 0 ? 0 : (roll >> 8) % total_ports_);
            const std::uint64_t ticks = 1 + (roll >> 40) % delay_bound_;
            auto it = std::find_if(
                s.delay_overrides.begin(), s.delay_overrides.end(),
                [q](const DelayOverride& d) { return d.port == q; });
            if (it != s.delay_overrides.end()) {
              it->ticks = ticks;
            } else {
              s.delay_overrides.push_back({q, ticks});
            }
            break;
          }
          case 1: {  // release a forced link
            if (!s.delay_overrides.empty()) {
              s.delay_overrides.erase(s.delay_overrides.begin() +
                                      (roll >> 8) % s.delay_overrides.size());
            }
            break;
          }
          case 2: {  // re-seed the priority lane
            s.prio_seed = (roll >> 8) | 1;
            if (s.demote_ticks == 0) {
              s.demote_ticks = 1 + (roll >> 40) % delay_bound_;
            }
            break;
          }
          case 3: {  // add a change point (needs a priority lane)
            if (s.prio_seed == 0) s.prio_seed = (roll >> 8) | 1;
            if (s.demote_ticks == 0) {
              s.demote_ticks = 1 + (roll >> 40) % delay_bound_;
            }
            s.change_points.push_back(1 + (roll >> 8) % horizon_);
            break;
          }
          case 4: {  // drop a change point
            if (!s.change_points.empty()) {
              s.change_points.erase(s.change_points.begin() +
                                    (roll >> 8) % s.change_points.size());
            }
            break;
          }
        }
      }
      break;
    }
  }
  return o;
}

void AdversarialScheduler::observe(std::size_t step,
                                   const AsyncOptions& options,
                                   const ScheduleMetrics& metrics) {
  (void)step;
  if (strategy_ != AdversaryStrategy::kClimb) return;
  const auto score = score_of(metrics);
  // >= lets the climb drift across plateaus instead of pinning to probe 0.
  if (!have_best_ || score >= best_score_) {
    best_ = options;
    best_score_ = score;
    have_best_ = true;
  }
}

AdversaryReport adversary_search(const port::PortGraph& g,
                                 const ProgramFactory& factory,
                                 AdversaryStrategy strategy,
                                 const AsyncOptions& base, std::size_t budget,
                                 std::uint64_t seed,
                                 const RunOptions& run_options) {
  if (base.synchronizer) {
    throw InvalidArgument(
        "adversary_search: the α-synchronizer is schedule-oblivious (its "
        "outputs are bit-identical to the synchronous engine for every "
        "delay matrix); search the free-running mode instead");
  }
  if (budget == 0) {
    throw InvalidArgument("adversary_search: budget must be >= 1");
  }

  // Probe 0 (the unperturbed base) also calibrates the change-point
  // horizon; until it lands, a structural estimate stands in.
  std::uint64_t horizon = 4 * std::max<std::size_t>(g.num_ports(), 1);
  AdversaryReport report;
  std::uint64_t worst_rounds = 0;
  std::uint64_t worst_time = 0;
  std::uint64_t worst_selected = 0;
  std::uint64_t worst_inconsistent = 0;
  bool first = true;

  AdversarialScheduler scheduler(strategy, base, seed, g.num_ports(),
                                 horizon);
  for (std::size_t step = 0; step < budget; ++step) {
    AsyncOptions options = scheduler.propose(step);
    ScheduleWitness witness;
    witness.options = options;
    try {
      witness.result = run_asynchronous(g, factory, run_options, options);
    } catch (const Error&) {
      ++report.failures;
      continue;
    }
    witness.metrics = measure_schedule(g, witness.result);
    scheduler.observe(step, options, witness.metrics);
    ++report.evaluated;
    if (step == 0) {
      horizon = std::max<std::uint64_t>(witness.result.async.events, 1);
      // Re-arm the generator with the calibrated horizon; probe 0 itself
      // is schedule-free, so this changes nothing already evaluated.
      scheduler = AdversarialScheduler(strategy, base, seed, g.num_ports(),
                                       horizon);
      scheduler.observe(0, options, witness.metrics);
    }
    if (first) {
      report.worst_rounds = witness;
      report.worst_time = witness;
      report.worst_selected = witness;
      report.worst_inconsistent = witness;
      worst_rounds = witness.metrics.rounds;
      worst_time = witness.metrics.virtual_time;
      worst_selected = witness.metrics.selected;
      worst_inconsistent = witness.metrics.inconsistent;
      first = false;
      continue;
    }
    keep_worst(report.worst_rounds, worst_rounds, witness,
               witness.metrics.rounds);
    keep_worst(report.worst_time, worst_time, witness,
               witness.metrics.virtual_time);
    keep_worst(report.worst_selected, worst_selected, witness,
               witness.metrics.selected);
    keep_worst(report.worst_inconsistent, worst_inconsistent, witness,
               witness.metrics.inconsistent);
  }
  if (first) {
    throw ExecutionError(
        "adversary_search: every probe failed — no witness to report");
  }
  return report;
}

namespace {

/// One shrink probe: does `schedule` still reach `target` on `metric`?
std::optional<ScheduleWitness> shrink_probe(
    const port::PortGraph& g, const ProgramFactory& factory,
    const AsyncOptions& base, const Schedule& schedule, AdversaryMetric metric,
    std::uint64_t target, const RunOptions& run_options) {
  AsyncOptions options = base;
  options.schedule = schedule;
  ScheduleWitness witness;
  witness.options = options;
  try {
    witness.result = run_asynchronous(g, factory, run_options, options);
  } catch (const Error&) {
    return std::nullopt;
  }
  witness.metrics = measure_schedule(g, witness.result);
  if (metric_value(witness.metrics, metric) < target) return std::nullopt;
  return witness;
}

/// ddmin-style list minimization: repeatedly try dropping chunks (halving
/// the chunk size down to single elements), keeping any drop that still
/// reproduces.  `apply` writes a candidate list into a Schedule; `check`
/// probes it.  Quadratic worst case on tiny lists — fine for schedules.
template <typename T, typename Apply, typename Check>
std::vector<T> minimize_list(std::vector<T> items, const Apply& apply,
                             const Check& check) {
  std::size_t chunk = items.size();
  while (chunk >= 1 && !items.empty()) {
    bool dropped = false;
    for (std::size_t start = 0; start < items.size();) {
      std::vector<T> candidate;
      candidate.reserve(items.size());
      const std::size_t stop = std::min(items.size(), start + chunk);
      candidate.insert(candidate.end(), items.begin(),
                       items.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       items.begin() + static_cast<std::ptrdiff_t>(stop),
                       items.end());
      if (check(apply(candidate))) {
        items = std::move(candidate);
        dropped = true;
        // `start` stays: the next chunk slid into this position.
      } else {
        start += chunk;
      }
    }
    if (!dropped || chunk == 1) chunk /= 2;
  }
  return items;
}

}  // namespace

ScheduleWitness shrink_witness(const port::PortGraph& g,
                               const ProgramFactory& factory,
                               const ScheduleWitness& witness,
                               AdversaryMetric metric,
                               const RunOptions& run_options) {
  const std::uint64_t target = metric_value(witness.metrics, metric);
  Schedule current = witness.options.schedule;
  const auto reproduces = [&](const Schedule& candidate) {
    return shrink_probe(g, factory, witness.options, candidate, metric,
                        target, run_options)
        .has_value();
  };

  // Lane drops first: each lane gone is a big bite out of the reproducer.
  {
    Schedule candidate = current;
    candidate.change_points.clear();
    if (reproduces(candidate)) current = std::move(candidate);
  }
  {
    Schedule candidate = current;
    candidate.delay_overrides.clear();
    if (reproduces(candidate)) current = std::move(candidate);
  }
  if (current.change_points.empty() && current.prio_seed != 0) {
    Schedule candidate = current;
    candidate.prio_seed = 0;
    candidate.demote_ticks = 0;
    if (reproduces(candidate)) current = std::move(candidate);
  }

  // ddmin over the surviving lists.
  current.change_points = minimize_list(
      current.change_points,
      [&](const std::vector<std::uint64_t>& cps) {
        Schedule candidate = current;
        candidate.change_points = cps;
        return candidate;
      },
      reproduces);
  current.delay_overrides = minimize_list(
      current.delay_overrides,
      [&](const std::vector<DelayOverride>& overrides) {
        Schedule candidate = current;
        candidate.delay_overrides = overrides;
        return candidate;
      },
      reproduces);
  if (current.change_points.empty() && current.prio_seed != 0) {
    Schedule candidate = current;
    candidate.prio_seed = 0;
    candidate.demote_ticks = 0;
    if (reproduces(candidate)) current = std::move(candidate);
  }

  // Re-measure the shrunk schedule so the returned witness records exactly
  // what a replay of it will observe.
  auto final_witness = shrink_probe(g, factory, witness.options, current,
                                    metric, target, run_options);
  if (!final_witness) {
    // Unreachable (the shrink only keeps reproducing candidates); fall back
    // to the original witness rather than crash a search that found a bug.
    return witness;
  }
  return std::move(*final_witness);
}

}  // namespace eds::runtime
