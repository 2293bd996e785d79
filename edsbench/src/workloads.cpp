#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <sstream>

#include "algo/driver.hpp"
#include "analysis/verify.hpp"
#include "graph/generators.hpp"
#include "port/ported_graph.hpp"
#include "runtime/async.hpp"
#include "runtime/engine.hpp"
#include "runtime/outputs.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/sched.hpp"
#include "util/rng.hpp"

namespace edsbench {

namespace {

namespace algo = eds::algo;
using algo::Algorithm;
using algo::EdsOutcome;
using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

/// Order-sensitive 64-bit digest of result fields.
class Digest {
 public:
  void add(std::uint64_t v) {
    std::uint64_t s = state_ ^ v;
    state_ = eds::splitmix64(s);
  }
  void add(const EdsOutcome& o) {
    add(o.stats.rounds);
    add(o.stats.messages_sent);
    add(o.stats.ports_served);
    add(o.solution.size());
    for (const auto e : o.solution.to_vector()) add(e);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0;
};

void add_stats(Work& w, const eds::runtime::RunStats& s) {
  w.rounds += s.rounds;
  w.ports_served += s.ports_served;
  w.messages += s.messages_sent;
}

void add_async(Work& w, const eds::runtime::AsyncStats& s) {
  w.events += s.events;
  w.delivered += s.delivered;
  w.acks += s.acks;
}

/// Plan-cache counters move by `after - before` over one pass.
void add_plan(Work& w, const eds::runtime::PlanCache::Stats& before,
              const eds::runtime::PlanCache::Stats& after) {
  w.plan_hits += after.hits - before.hits;
  w.plan_misses += after.misses - before.misses;
}

/// A random d-regular graph with random ports; both generator calls are
/// spanned so set-up time splits into gen.graph and gen.ports.
eds::port::PortedGraph make_instance(std::size_t n, std::size_t d,
                                     eds::Rng& rng, Tracer& gen) {
  std::optional<eds::graph::SimpleGraph> g;
  {
    const Scope s(&gen, "random_regular", Layer::kGen, 0);
    g = eds::graph::random_regular(n, d, rng);
  }
  const Scope s(&gen, "with_random_ports", Layer::kGen, 0);
  return eds::port::with_random_ports(std::move(*g), rng);
}

/// The per-op check of the sync-result workloads: the solution dominates
/// every edge and equals the reference outcome exactly.
bool outcome_ok(bool feasible, const EdsOutcome& got, const EdsOutcome& want) {
  return feasible && got.solution == want.solution && got.stats == want.stats;
}

/// What one replayed op produced.
struct Replayed {
  EdsOutcome outcome;
  bool feasible = false;
};

/// Replays run_algorithm step by step, one span per layer: structural_hash,
/// PlanCache::get, ProgramFactory::create × n, then make_policy + run_plan
/// (or AsyncPolicy::run when `async` is set), validated_edge_set and
/// is_edge_dominating_set.  Throws what the library throws.
Replayed replay_op(Tracer& t, std::uint64_t op,
                   const eds::port::PortedGraph& pg,
                   const eds::runtime::ProgramFactory& factory,
                   eds::runtime::PlanCache& cache,
                   const eds::runtime::AsyncOptions* async, PassResult& r) {
  namespace rt = eds::runtime;
  const Scope root(&t, "op", Layer::kOp, op);
  const auto& g = pg.ports();
  {
    const Scope s(&t, "structural_hash", Layer::kPlan, op, root.id());
    static_cast<void>(rt::structural_hash(g));
  }
  std::shared_ptr<const rt::ExecutionPlan> plan;
  {
    const Scope s(&t, "PlanCache::get", Layer::kPlan, op, root.id());
    plan = cache.get(g);
  }
  std::vector<std::unique_ptr<rt::NodeProgram>> programs;
  {
    const Scope s(&t, "ProgramFactory::create", Layer::kProgram, op,
                  root.id());
    programs.reserve(g.num_nodes());
    for (std::size_t v = 0; v < g.num_nodes(); ++v) {
      programs.push_back(factory.create());
    }
  }
  r.programs_created += g.num_nodes();
  rt::RunOptions options;
  options.exec.plan_cache = &cache;
  rt::RunResult result;
  if (async != nullptr) {
    const Scope s(&t, "AsyncPolicy::run", Layer::kAsync, op, root.id());
    auto ar =
        rt::AsyncPolicy(*async).run(*plan, programs, options, factory.name());
    add_async(r.work, ar.async);
    result = std::move(ar.run);
  } else {
    const Scope s(&t, "run_plan", Layer::kEngine, op, root.id());
    const auto policy = rt::make_policy(options.exec);
    result = rt::run_plan(*plan, programs, options, factory.name(), *policy);
    add_stats(r.engine_work, result.stats);
  }
  add_stats(r.work, result.stats);
  {
    // run_synchronous and run_asynchronous free the programs on return.
    const Scope s(&t, "~NodeProgram", Layer::kProgram, op, root.id());
    programs.clear();
  }
  Replayed out;
  {
    const Scope s(&t, "validated_edge_set", Layer::kOutputs, op, root.id());
    out.outcome.solution = rt::validated_edge_set(pg, result);
  }
  out.outcome.stats = result.stats;
  {
    // run_algorithm frees the RunResult's per-node output vectors.
    const Scope s(&t, "~RunResult", Layer::kEngine, op, root.id());
    result = rt::RunResult{};
  }
  {
    const Scope s(&t, "is_edge_dominating_set", Layer::kAnalysis, op,
                  root.id());
    out.feasible =
        eds::analysis::is_edge_dominating_set(pg.graph(), out.outcome.solution);
  }
  return out;
}

// --- repeat-port-one -------------------------------------------------------

/// One 4-regular graph, n = 4096; port-one via run_algorithm on a warm
/// explicit PlanCache at 1 lane.  One round, so fixed per-run costs rule.
class RepeatPortOne final : public Workload {
 public:
  void generate(std::uint64_t seed, Tracer& gen) override {
    eds::Rng rng(seed);
    pg_.emplace(make_instance(kNodes, kDegree, rng, gen));
    factory_ = algo::make_factory(
        Algorithm::kPortOne,
        algo::resolved_param(*pg_, Algorithm::kPortOne));
  }

  PassResult warm_up() override { return pass(true); }
  PassResult run_pass() override { return pass(false); }

  PassResult traced_pass(Tracer& t) override {
    PassResult r;
    const auto before = cache_.stats();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kPassOps; ++i) {
      ++r.ops;
      try {
        auto rep = replay_op(t, next_op_++, *pg_, *factory_, cache_, nullptr, r);
        if (!outcome_ok(rep.feasible, rep.outcome, reference_)) ++r.failed;
      } catch (const std::exception&) {
        ++r.failed;
      }
    }
    r.e2e_ns = ns_since(t0);
    add_plan(r.work, before, cache_.stats());
    return r;
  }

  [[nodiscard]] double tail_quantile() const override { return 0.90; }

 private:
  static constexpr std::size_t kNodes = 4096;
  static constexpr std::size_t kDegree = 4;
  static constexpr std::size_t kPassOps = 64;

  PassResult pass(bool record) {
    PassResult r;
    Digest digest;
    const auto before = cache_.stats();
    const eds::runtime::ExecOptions exec{.threads = 1, .plan_cache = &cache_};
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kPassOps; ++i) {
      ++r.ops;
      try {
        const auto start = Clock::now();
        auto outcome = algo::run_algorithm(*pg_, Algorithm::kPortOne, 0, exec);
        apply_corruption(outcome.solution);
        const bool feasible =
            eds::analysis::is_edge_dominating_set(pg_->graph(), outcome.solution);
        r.latencies_us.push_back(us_since(start));
        if (record && i == 0) reference_ = outcome;
        if (!outcome_ok(feasible, outcome, reference_)) ++r.failed;
        add_stats(r.work, outcome.stats);
        if (record) digest.add(outcome);
      } catch (const std::exception&) {
        ++r.failed;
      }
    }
    r.e2e_ns = ns_since(t0);
    add_plan(r.work, before, cache_.stats());
    r.digest = digest.value();
    return r;
  }

  std::optional<eds::port::PortedGraph> pg_;
  std::unique_ptr<eds::runtime::ProgramFactory> factory_;
  eds::runtime::PlanCache cache_;
  EdsOutcome reference_;
  std::uint64_t next_op_ = 0;
};

// --- sweep-bounded ---------------------------------------------------------

/// 8 random 4-regular instances, n = 64 … 8192, 10 repeats each: 80 jobs
/// of A(4) through run_batch_streaming on a fresh shared PlanCache per
/// batch (8 misses, 72 hits).  The round loop dominates; sizes run from
/// L1-resident to past the per-core L2.  A batch is short enough that a
/// run holds dozens of them.
class SweepBounded final : public Workload {
 public:
  explicit SweepBounded(unsigned lanes) : lanes_(lanes == 0 ? 2 : lanes) {}

  void generate(std::uint64_t seed, Tracer& gen) override {
    eds::Rng rng(seed);
    graphs_.clear();
    graphs_.reserve(kInstances);
    for (std::size_t k = 0; k < kInstances; ++k) {
      graphs_.push_back(make_instance(kMinNodes << k, kDegree, rng, gen));
    }
    items_.clear();
    for (const auto& pg : graphs_) {
      for (std::size_t rep = 0; rep < kRepeats; ++rep) {
        items_.push_back({&pg, Algorithm::kBoundedDegree, 0});
      }
    }
    factory_ = algo::make_factory(Algorithm::kBoundedDegree, kDegree);
  }

  PassResult warm_up() override { return batch(true, nullptr); }
  PassResult run_pass() override { return batch(false, nullptr); }

  PassResult traced_pass(Tracer& t) override {
    PassResult r = batch(false, &t);
    // The per-job layer split: the same jobs replayed at one lane on a
    // fresh cache, so plan hits and misses match the batch's.
    const std::size_t from = t.size();
    PassResult replay;
    eds::runtime::PlanCache cache;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      try {
        auto rep = replay_op(t, i, *items_[i].graph, *factory_, cache,
                             nullptr, replay);
        if (!outcome_ok(rep.feasible, rep.outcome, reference_[i])) {
          ++r.failed;
        }
      } catch (const std::exception&) {
        ++r.failed;
      }
    }
    r.programs_created = replay.programs_created;
    r.engine_work = replay.engine_work;
    const auto self = t.self_ns(from);
    std::int64_t busy = 0;
    for (const Layer l :
         {Layer::kPlan, Layer::kProgram, Layer::kEngine, Layer::kOutputs}) {
      busy += self[static_cast<std::size_t>(l)];
    }
    r.lane_util = static_cast<double>(busy) /
                  (static_cast<double>(lanes_) * static_cast<double>(r.e2e_ns));
    return r;
  }

  [[nodiscard]] double tail_quantile() const override { return 0.90; }
  [[nodiscard]] unsigned lanes() const override { return lanes_; }

 private:
  static constexpr std::size_t kInstances = 8;
  static constexpr std::size_t kMinNodes = 64;
  static constexpr std::size_t kDegree = 4;
  static constexpr std::size_t kRepeats = 10;

  /// One batch.  A row's latency is the time from the batch call until the
  /// row is delivered, as a streaming sweep's reader waits for it.
  PassResult batch(bool record, Tracer* t) {
    PassResult r;
    Digest digest;
    eds::runtime::PlanCache cache;
    if (record) reference_.assign(items_.size(), EdsOutcome{});
    std::size_t delivered = 0;
    const auto t0 = Clock::now();
    try {
      const Scope call(t, "run_batch_streaming", Layer::kBatch, 0);
      algo::run_batch_streaming(
          items_, lanes_,
          [&](std::size_t i, EdsOutcome&& outcome) {
            const Scope row(t, "row", Layer::kOp, i, call.id());
            ++delivered;
            apply_corruption(outcome.solution);
            bool feasible = false;
            {
              const Scope s(t, "is_edge_dominating_set", Layer::kAnalysis, i,
                            row.id());
              feasible = eds::analysis::is_edge_dominating_set(
                  items_[i].graph->graph(), outcome.solution);
            }
            r.latencies_us.push_back(us_since(t0));
            if (record) reference_[i] = outcome;
            if (!outcome_ok(feasible, outcome, reference_[i])) ++r.failed;
            add_stats(r.work, outcome.stats);
            if (record) digest.add(outcome);
          },
          &cache);
    } catch (const std::exception&) {
      r.failed += items_.size() - delivered;
    }
    r.e2e_ns = ns_since(t0);
    r.ops = items_.size();
    const auto stats = cache.stats();
    r.work.plan_hits += stats.hits;
    r.work.plan_misses += stats.misses;
    r.digest = digest.value();
    return r;
  }

  unsigned lanes_;
  std::vector<eds::port::PortedGraph> graphs_;
  std::vector<algo::BatchItem> items_;
  std::unique_ptr<eds::runtime::ProgramFactory> factory_;
  std::vector<EdsOutcome> reference_;
};

// --- async-synchronizer ----------------------------------------------------

/// A(4) on random 4-regular graphs, n = 256, under the α-synchronizer with
/// uniform:1:9 delays and a fresh delay seed per op, via run_asynchronous.
/// Timeline and ack traffic dominate.  Every op must equal the sync
/// engine's outcome on the same instance.
class AsyncSynchronizer final : public Workload {
 public:
  void generate(std::uint64_t seed, Tracer& gen) override {
    seed_ = seed;
    eds::Rng rng(seed);
    graphs_.clear();
    graphs_.reserve(kInstances);
    for (std::size_t k = 0; k < kInstances; ++k) {
      graphs_.push_back(make_instance(kNodes, kDegree, rng, gen));
    }
    factory_ = algo::make_factory(Algorithm::kBoundedDegree, kDegree);
  }

  PassResult warm_up() override {
    // The oracle: the sync engine's outcome on every instance, on its own
    // cache so the async pass's plan counters stay its own.
    eds::runtime::PlanCache sync_cache;
    reference_.clear();
    for (const auto& pg : graphs_) {
      reference_.push_back(algo::run_algorithm(
          pg, Algorithm::kBoundedDegree, kDegree,
          {.threads = 1, .plan_cache = &sync_cache}));
    }
    return pass(true, nullptr);
  }
  PassResult run_pass() override { return pass(false, nullptr); }
  PassResult traced_pass(Tracer& t) override { return pass(false, &t); }

  [[nodiscard]] double tail_quantile() const override { return 0.90; }

 private:
  static constexpr std::size_t kInstances = 4;
  static constexpr std::size_t kNodes = 256;
  static constexpr std::size_t kDegree = 4;
  static constexpr std::size_t kPassOps = 8;

  [[nodiscard]] eds::runtime::AsyncOptions options_for(std::uint64_t op) const {
    eds::runtime::AsyncOptions a;
    a.synchronizer = true;
    a.delay = eds::runtime::parse_delay_model("uniform:1:9");
    std::uint64_t state = seed_ ^ (0xA51DC0DEULL + op);
    a.seed = eds::splitmix64(state);
    return a;
  }

  PassResult pass(bool record, Tracer* t) {
    PassResult r;
    Digest digest;
    const auto before = cache_.stats();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kPassOps; ++i) {
      const std::uint64_t op = next_op_++;
      const std::size_t k = i % kInstances;
      const auto& pg = graphs_[k];
      const auto async = options_for(op);
      ++r.ops;
      try {
        if (t != nullptr) {
          auto rep = replay_op(*t, op, pg, *factory_, cache_, &async, r);
          if (!outcome_ok(rep.feasible, rep.outcome, reference_[k])) {
            ++r.failed;
          }
          continue;
        }
        const auto start = Clock::now();
        eds::runtime::RunOptions options;
        options.exec.plan_cache = &cache_;
        const auto ar = eds::runtime::run_asynchronous(pg.ports(), *factory_,
                                                       options, async);
        EdsOutcome outcome;
        outcome.solution = eds::runtime::validated_edge_set(pg, ar.run);
        outcome.stats = ar.run.stats;
        apply_corruption(outcome.solution);
        const bool feasible =
            eds::analysis::is_edge_dominating_set(pg.graph(), outcome.solution);
        r.latencies_us.push_back(us_since(start));
        if (!outcome_ok(feasible, outcome, reference_[k])) ++r.failed;
        add_stats(r.work, outcome.stats);
        add_async(r.work, ar.async);
        if (record) {
          digest.add(outcome);
          digest.add(ar.async.events);
          digest.add(ar.async.delivered);
          digest.add(ar.async.acks);
          digest.add(ar.async.virtual_time);
        }
      } catch (const std::exception&) {
        ++r.failed;
      }
    }
    r.e2e_ns = ns_since(t0);
    add_plan(r.work, before, cache_.stats());
    r.digest = digest.value();
    return r;
  }

  std::uint64_t seed_ = 0;
  std::vector<eds::port::PortedGraph> graphs_;
  std::unique_ptr<eds::runtime::ProgramFactory> factory_;
  eds::runtime::PlanCache cache_;
  std::vector<EdsOutcome> reference_;
  std::uint64_t next_op_ = 0;
};

// --- adversary-climb -------------------------------------------------------

/// 8 random 3-regular instances, n = 64; free-running port-one with fixed:1
/// delays and timeout 2.  Each instance gets a climb search at budget 2000
/// and a shrink of its headline witness: thousands of 1-round async runs,
/// so per-run async set-up and the sched layer dominate.
class AdversaryClimb final : public Workload {
 public:
  void generate(std::uint64_t seed, Tracer& gen) override {
    eds::Rng rng(seed);
    graphs_.clear();
    bases_.clear();
    search_seeds_.clear();
    for (std::size_t k = 0; k < kInstances; ++k) {
      graphs_.push_back(make_instance(kNodes, kDegree, rng, gen));
      eds::runtime::AsyncOptions base;
      base.synchronizer = false;
      base.delay = eds::runtime::parse_delay_model("fixed:1");
      base.round_timeout = 2;
      std::uint64_t state = seed ^ (0xA51DC0DEULL + k);
      base.seed = eds::splitmix64(state);
      bases_.push_back(base);
      state = seed ^ (0xBADC0FFEULL + k);
      search_seeds_.push_back(eds::splitmix64(state));
    }
    factory_ = algo::make_factory(Algorithm::kPortOne, 0);
    run_options_.exec.plan_cache = &cache_;
  }

  /// The warm-up replays every search through the scheduler's public
  /// propose/observe API; its reports are the reference later hunts must
  /// match, and its per-probe counts are the simulated work of a pass.
  PassResult warm_up() override {
    PassResult r;
    Digest digest;
    reference_.clear();
    const auto before = cache_.stats();
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kInstances; ++k) {
      Hunt h = replay_hunt(k, nullptr, r);
      for (const auto* m : {&h.report.worst_rounds.metrics,
                            &h.report.worst_time.metrics,
                            &h.report.worst_selected.metrics,
                            &h.report.worst_inconsistent.metrics,
                            &h.shrunk.metrics}) {
        digest.add(m->rounds);
        digest.add(m->virtual_time);
        digest.add(m->selected);
        digest.add(m->inconsistent);
      }
      digest.add(h.report.evaluated);
      reference_.push_back(std::move(h));
    }
    r.e2e_ns = ns_since(t0);
    add_plan(r.work, before, cache_.stats());
    r.digest = digest.value();
    std::ostringstream worst;
    for (const auto& h : reference_) {
      const auto& p = h.report.primary().metrics;
      worst << eds::runtime::metric_token(h.report.primary_metric()) << ':'
            << p.rounds << '/' << p.virtual_time << '/' << p.selected << '/'
            << p.inconsistent << ' ';
    }
    r.worst = worst.str();
    return r;
  }

  /// One hunt, on the instances in turn: a pass short enough that a run
  /// holds dozens of them.
  PassResult run_pass() override {
    PassResult r;
    const auto before = cache_.stats();
    const auto t0 = Clock::now();
    const std::size_t k = next_hunt_++ % kInstances;
    const auto& ref = reference_[k];
    r.ops += kBudget;
    r.work += ref.work;
    try {
      const auto start = Clock::now();
      const auto report = eds::runtime::adversary_search(
          graphs_[k].ports(), *factory_, eds::runtime::AdversaryStrategy::kClimb,
          bases_[k], kBudget, search_seeds_[k], run_options_);
      const auto metric = report.primary_metric();
      const auto shrunk = eds::runtime::shrink_witness(
          graphs_[k].ports(), *factory_, report.primary(), metric,
          run_options_);
      r.latencies_us.push_back(us_since(start));
      r.failed += report.failures;
      if (!same_report(report, ref.report) ||
          !(shrunk.options == ref.shrunk.options) ||
          !(shrunk.metrics == ref.shrunk.metrics) ||
          !reproduces(k, shrunk, metric, nullptr, 0)) {
        ++r.failed;
      }
    } catch (const std::exception&) {
      ++r.failed;
    }
    r.e2e_ns = ns_since(t0);
    add_plan(r.work, before, cache_.stats());
    return r;
  }

  PassResult traced_pass(Tracer& t) override {
    PassResult r;
    const auto before = cache_.stats();
    std::int64_t e2e = 0;
    for (std::size_t k = 0; k < kInstances; ++k) {
      const auto t0 = Clock::now();
      const Hunt h = replay_hunt(k, &t, r);
      e2e += ns_since(t0);
      if (!same_report(h.report, reference_[k].report) ||
          !(h.shrunk.options == reference_[k].shrunk.options)) {
        ++r.failed;
      }
    }
    r.e2e_ns = e2e;
    add_plan(r.work, before, cache_.stats());
    return r;
  }

  [[nodiscard]] double tail_quantile() const override { return 0.75; }

 private:
  static constexpr std::size_t kInstances = 8;
  static constexpr std::size_t kNodes = 64;
  static constexpr std::size_t kDegree = 3;
  static constexpr std::size_t kBudget = 2000;

  struct Hunt {
    eds::runtime::AdversaryReport report;
    eds::runtime::ScheduleWitness shrunk;
    Work work;  ///< the search probes' simulated work
  };

  static bool same_report(const eds::runtime::AdversaryReport& a,
                          const eds::runtime::AdversaryReport& b) {
    const auto same = [](const eds::runtime::ScheduleWitness& x,
                         const eds::runtime::ScheduleWitness& y) {
      return x.metrics == y.metrics && x.options == y.options;
    };
    return a.evaluated == b.evaluated && a.failures == b.failures &&
           same(a.worst_rounds, b.worst_rounds) &&
           same(a.worst_time, b.worst_time) &&
           same(a.worst_selected, b.worst_selected) &&
           same(a.worst_inconsistent, b.worst_inconsistent);
  }

  /// The shrunk witness, re-run via run_asynchronous, reproduces the
  /// metric it recorded.
  bool reproduces(std::size_t k, const eds::runtime::ScheduleWitness& w,
                  eds::runtime::AdversaryMetric metric, Tracer* t,
                  int parent) {
    const Scope s(t, "run_asynchronous", Layer::kAsync, 0, parent);
    const auto& g = graphs_[k].ports();
    const auto rerun =
        eds::runtime::run_asynchronous(g, *factory_, run_options_, w.options);
    return eds::runtime::metric_value(
               eds::runtime::measure_schedule(g, rerun), metric) ==
           eds::runtime::metric_value(w.metrics, metric);
  }

  /// adversary_search + shrink_witness for instance k, with the search loop
  /// replayed probe by probe (propose, PlanCache::get, create × n,
  /// AsyncPolicy::run, measure_schedule, observe) exactly as
  /// runtime/sched.cpp runs it.  Probe failures and check failures are
  /// counted into `r`.
  Hunt replay_hunt(std::size_t k, Tracer* t, PassResult& r) {
    namespace rt = eds::runtime;
    const auto& g = graphs_[k].ports();
    const Scope hunt(t, "hunt", Layer::kOp, k);
    Hunt h;
    {
      const Scope search(t, "adversary_search", Layer::kSched, k, hunt.id());
      std::uint64_t horizon = 4 * std::max<std::size_t>(g.num_ports(), 1);
      rt::AdversarialScheduler scheduler(rt::AdversaryStrategy::kClimb,
                                         bases_[k], search_seeds_[k],
                                         g.num_ports(), horizon);
      std::uint64_t worst[4] = {0, 0, 0, 0};
      bool first = true;
      for (std::size_t step = 0; step < kBudget; ++step) {
        const std::uint64_t op = (k * kBudget) + step;
        const Scope probe(t, "probe", Layer::kSched, op, search.id());
        ++r.ops;
        rt::ScheduleWitness witness;
        witness.options = scheduler.propose(step);
        try {
          std::shared_ptr<const rt::ExecutionPlan> plan;
          {
            const Scope s(t, "PlanCache::get", Layer::kPlan, op, probe.id());
            plan = cache_.get(g);
          }
          std::vector<std::unique_ptr<rt::NodeProgram>> programs;
          {
            const Scope s(t, "ProgramFactory::create", Layer::kProgram, op,
                          probe.id());
            programs.reserve(g.num_nodes());
            for (std::size_t v = 0; v < g.num_nodes(); ++v) {
              programs.push_back(factory_->create());
            }
          }
          r.programs_created += g.num_nodes();
          {
            const Scope s(t, "AsyncPolicy::run", Layer::kAsync, op,
                          probe.id());
            witness.result = rt::AsyncPolicy(witness.options)
                                 .run(*plan, programs, run_options_,
                                      factory_->name());
          }
          const Scope s(t, "~NodeProgram", Layer::kProgram, op, probe.id());
          programs.clear();
        } catch (const std::exception&) {
          ++h.report.failures;
          ++r.failed;
          continue;
        }
        witness.metrics = rt::measure_schedule(g, witness.result);
        scheduler.observe(step, witness.options, witness.metrics);
        ++h.report.evaluated;
        add_stats(h.work, witness.result.run.stats);
        add_async(h.work, witness.result.async);
        if (step == 0) {
          horizon = std::max<std::uint64_t>(witness.result.async.events, 1);
          scheduler = rt::AdversarialScheduler(rt::AdversaryStrategy::kClimb,
                                               bases_[k], search_seeds_[k],
                                               g.num_ports(), horizon);
          scheduler.observe(0, witness.options, witness.metrics);
        }
        rt::ScheduleWitness* slots[4] = {
            &h.report.worst_rounds, &h.report.worst_time,
            &h.report.worst_selected, &h.report.worst_inconsistent};
        const std::uint64_t values[4] = {
            witness.metrics.rounds, witness.metrics.virtual_time,
            witness.metrics.selected, witness.metrics.inconsistent};
        for (std::size_t m = 0; m < 4; ++m) {
          if (first || values[m] > worst[m]) {
            *slots[m] = witness;
            worst[m] = values[m];
          }
        }
        first = false;
      }
    }
    h.work.probes = h.report.evaluated;
    h.work.probe_failures = h.report.failures;
    r.work += h.work;
    const auto metric = h.report.primary_metric();
    {
      const Scope s(t, "shrink_witness", Layer::kSched, k, hunt.id());
      h.shrunk = rt::shrink_witness(g, *factory_, h.report.primary(), metric,
                                    run_options_);
    }
    if (!reproduces(k, h.shrunk, metric, t, hunt.id())) ++r.failed;
    return h;
  }

  std::vector<eds::port::PortedGraph> graphs_;
  std::vector<eds::runtime::AsyncOptions> bases_;
  std::vector<std::uint64_t> search_seeds_;
  std::unique_ptr<eds::runtime::ProgramFactory> factory_;
  eds::runtime::PlanCache cache_;
  eds::runtime::RunOptions run_options_;
  std::vector<Hunt> reference_;
  std::size_t next_hunt_ = 0;
};

}  // namespace

Work& Work::operator+=(const Work& rhs) {
  rounds += rhs.rounds;
  ports_served += rhs.ports_served;
  messages += rhs.messages;
  events += rhs.events;
  delivered += rhs.delivered;
  acks += rhs.acks;
  plan_hits += rhs.plan_hits;
  plan_misses += rhs.plan_misses;
  probes += rhs.probes;
  probe_failures += rhs.probe_failures;
  return *this;
}

std::string PassResult::fingerprint() const {
  std::ostringstream os;
  os << "rounds=" << work.rounds << " ports_served=" << work.ports_served
     << " messages=" << work.messages << " events=" << work.events
     << " delivered=" << work.delivered << " acks=" << work.acks
     << " plan_hits=" << work.plan_hits << " plan_misses=" << work.plan_misses
     << " probes=" << work.probes << " probe_failures=" << work.probe_failures
     << " digest=" << std::hex << digest << std::dec;
  if (!worst.empty()) os << " worst=" << worst;
  return os.str();
}

std::size_t Workload::min_samples() const {
  return static_cast<std::size_t>(
      std::ceil(10.0 / (1.0 - tail_quantile()) - 1e-9));
}

void Workload::apply_corruption(eds::graph::EdgeSet& solution) {
  if (!corrupt_next_) return;
  corrupt_next_ = false;
  const auto edges = solution.to_vector();
  if (!edges.empty()) solution.erase(edges.front());
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "repeat-port-one", "sweep-bounded", "async-synchronizer",
      "adversary-climb"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        unsigned lanes) {
  if (name == "repeat-port-one") return std::make_unique<RepeatPortOne>();
  if (name == "sweep-bounded") return std::make_unique<SweepBounded>(lanes);
  if (name == "async-synchronizer") {
    return std::make_unique<AsyncSynchronizer>();
  }
  if (name == "adversary-climb") return std::make_unique<AdversaryClimb>();
  return nullptr;
}

}  // namespace edsbench
