#include "runtime/engine.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "util/error.hpp"

namespace eds::runtime {

void check_plan_ports(std::uint64_t total_ports) {
  if (total_ports > kMaxPlanPorts) {
    throw InvalidArgument(
        "ExecutionPlan: the graph has " + std::to_string(total_ports) +
        " ports; flat port indices are 32-bit, so at most " +
        std::to_string(kMaxPlanPorts) + " are supported");
  }
}

ExecutionPlan::ExecutionPlan(const port::PortGraph& g) {
  check_plan_ports(g.num_ports());
  degrees_ = g.degree_sequence();
  partner_ref_ = g.partner_table();
  constructed_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t n = degrees_.size();
  offsets_.resize(n);
  std::size_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    offsets_[v] = total;
    total += degrees_[v];
  }
  partner_flat_.resize(total);
  for (std::size_t q = 0; q < total; ++q) {
    const auto dst = partner_ref_[q];
    partner_flat_[q] =
        static_cast<std::uint32_t>(offsets_[dst.node] + dst.port - 1);
  }
}

bool ExecutionPlan::matches(const port::PortGraph& g) const {
  // Two contiguous scans: the flat degree sequence and the flat involution
  // table are exactly what the constructor consumed, in the same order.
  return degrees_ == g.degree_sequence() &&
         partner_ref_ == g.partner_table();
}

std::unique_ptr<ExecutionPolicy> make_policy(const ExecOptions& exec) {
  if (exec.threads == 1) return std::make_unique<SequentialPolicy>();
  return std::make_unique<ParallelPolicy>(exec.threads);
}

namespace {

#if defined(EDS_ENGINE_GATHER_PREFETCH)
/// Software-prefetch distance for the receive gather's permuted loads, in
/// ports.  Measured on BM_EngineDense (deg 16/64) and BM_Engine100k
/// (deg 3) and REJECTED as the default: the in-loop branch and extra
/// partner_flat load cost more than the prefetch recovers at every
/// measured degree (docs/BENCHMARKS.md records the deltas), so the hint
/// compiles only under -DEDS_ENGINE_GATHER_PREFETCH for re-evaluation on
/// wider machines.
constexpr Port kGatherPrefetchDistance = 8;
#endif

/// Per-shard accumulators; merged strictly in shard order so parallel runs
/// reproduce the sequential order bit for bit.  Cache-line aligned so
/// neighboring shards' counters never share a line.
struct alignas(64) ShardScratch {
  std::uint64_t ports_served = 0;
  std::vector<DeliveredMessage> log;
  std::vector<std::size_t> newly_halted;
  /// One node's inbound messages, gathered through the involution from the
  /// current outbox back into the contiguous form receive() promises.
  /// Max-degree sized and reused across nodes, rounds and runs.
  std::vector<Message> recv;
  /// Profiled runs only: per-stage wall time accumulated shard-locally and
  /// merged by the driver after the barrier.
  std::uint64_t receive_ns = 0;
  std::uint64_t exchange_ns = 0;
  std::uint64_t scatter_ns = 0;
  std::exception_ptr error;

  void reset() noexcept {
    ports_served = 0;
    log.clear();
    newly_halted.clear();
    receive_ns = 0;
    exchange_ns = 0;
    scatter_ns = 0;
    error = nullptr;
  }
};

void rethrow_first(const std::vector<ShardScratch>& scratch,
                   std::size_t shards) {
  for (std::size_t s = 0; s < shards; ++s) {
    if (scratch[s].error) std::rethrow_exception(scratch[s].error);
  }
}

std::atomic<std::uint64_t> g_ws_reuses{0};
std::atomic<std::uint64_t> g_ws_growths{0};
std::atomic<std::uint64_t> g_ws_bytes{0};

std::atomic<bool> g_stage_profile{false};
/// Bumped whenever the profiling flag may have changed
/// (engine_stage_profiling and engine_stage_stats_reset both bump it), so
/// every lane's cached sample is invalidated and re-read on its next run.
std::atomic<std::uint64_t> g_profile_epoch{1};
std::atomic<std::uint64_t> g_exchange_ns{0};
std::atomic<std::uint64_t> g_receive_ns{0};
std::atomic<std::uint64_t> g_scatter_ns{0};
std::atomic<std::uint64_t> g_scan_ns{0};
std::atomic<std::uint64_t> g_profiled_rounds{0};

/// Per-run sample of the profiling flag, cached per lane behind the epoch
/// counter: one relaxed epoch load per run on the steady path, a flag
/// re-sample only after a toggle or a stats reset.
bool stage_profiling_sample() noexcept {
  thread_local std::uint64_t seen_epoch = 0;
  thread_local bool cached = false;
  const auto epoch = g_profile_epoch.load(std::memory_order_acquire);
  if (epoch != seen_epoch) {
    cached = g_stage_profile.load(std::memory_order_relaxed);
    seen_epoch = epoch;
  }
  return cached;
}

/// One buffer of the double-buffered message transport: the round's
/// messages indexed by *sender* flat port (node v's sends occupy the
/// contiguous segment [offset(v), offset(v) + degree(v))), plus the
/// struct-of-arrays tag lane shadowing slot tags for branch-free sweeps.
/// Senders write only their own segment (trivially single-writer);
/// receivers gather through the involution, so delivery itself is free.
struct OutboxBuffer {
  std::vector<Message> slots;
  std::vector<std::int32_t> tag;  // tag[q] == slots[q].tag, always

  void assign_silence(std::size_t count) {
    slots.assign(count, kSilence);
    tag.assign(count, 0);
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return slots.capacity() * sizeof(Message) +
           tag.capacity() * sizeof(std::int32_t);
  }
};

/// The pooled message transport: every buffer the round loop writes lives
/// here and is *assigned* (size + contents reset, capacity retained) at the
/// start of each run instead of being reallocated.  One workspace exists
/// per thread, so sequential runs, BatchRunner jobs (one job per pool lane)
/// and BatchStream drivers each reuse their lane's arena run after run.
struct EngineWorkspace {
  /// The double buffer: one set of slots + tag lane holds round r's
  /// messages while round r + 1's sends land in the other; they swap after
  /// every round's single barrier.
  OutboxBuffer outbox[2];
  std::vector<char> halted;
  std::vector<std::size_t> active;
  std::vector<std::size_t> bounds;  // shard boundaries, shards + 1 entries
  std::vector<ShardScratch> scratch;
  bool in_use = false;       // re-entrancy guard (see acquire below)
  std::size_t bytes = 0;     // last accounted footprint

  EngineWorkspace() = default;
  EngineWorkspace(const EngineWorkspace&) = delete;
  EngineWorkspace& operator=(const EngineWorkspace&) = delete;
  ~EngineWorkspace() {
    // The lane (thread) is going away: return its bytes to the gauge, or
    // short-lived pools (one BatchRunner per run_batch call) would leak
    // dead bytes into the "currently pooled" statistic.
    g_ws_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t footprint() const noexcept {
    std::size_t scratch_bytes = 0;
    for (const auto& sc : scratch) {
      scratch_bytes += sc.log.capacity() * sizeof(DeliveredMessage) +
                       sc.newly_halted.capacity() * sizeof(std::size_t) +
                       sc.recv.capacity() * sizeof(Message);
    }
    return outbox[0].memory_bytes() + outbox[1].memory_bytes() +
           halted.capacity() + active.capacity() * sizeof(std::size_t) +
           bounds.capacity() * sizeof(std::size_t) +
           scratch.capacity() * sizeof(ShardScratch) + scratch_bytes;
  }

  /// Resets the buffers for a run over `n` nodes / `total_ports` ports with
  /// `lanes` shards, growing capacity only when this lane has never seen a
  /// graph this large.  Both buffers reset to silence: the double buffer is
  /// the workspace's deliberate second total_ports-sized allocation, bought
  /// to run each round behind a single barrier.
  void prepare(std::size_t n, std::size_t total_ports, unsigned lanes) {
    const bool grows = total_ports > outbox[0].slots.capacity() ||
                       n > halted.capacity() || n > active.capacity() ||
                       lanes > scratch.size();
    outbox[0].assign_silence(total_ports);
    outbox[1].assign_silence(total_ports);
    halted.assign(n, 0);
    active.clear();
    active.reserve(n);
    if (scratch.size() < lanes) scratch.resize(lanes);
    (grows ? g_ws_growths : g_ws_reuses).fetch_add(1,
                                                   std::memory_order_relaxed);
  }

  void account() noexcept {
    const std::size_t now = footprint();
    if (now >= bytes) {
      g_ws_bytes.fetch_add(now - bytes, std::memory_order_relaxed);
    } else {
      g_ws_bytes.fetch_sub(bytes - now, std::memory_order_relaxed);
    }
    bytes = now;
  }
};

/// The per-thread workspace, or null when the thread is already inside a
/// run (a NodeProgram that recursively calls run_synchronous must not
/// clobber its own caller's buffers — the recursive run falls back to a
/// private workspace).
EngineWorkspace* acquire_workspace() {
  thread_local EngineWorkspace workspace;
  if (workspace.in_use) return nullptr;
  workspace.in_use = true;
  return &workspace;
}

/// RAII over acquire_workspace(): releases the lane workspace (updating the
/// byte accounting) or owns the recursive-fallback workspace outright.
class WorkspaceLease {
 public:
  WorkspaceLease()
      : pooled_(acquire_workspace()),
        fallback_(pooled_ ? nullptr : std::make_unique<EngineWorkspace>()) {}
  ~WorkspaceLease() {
    if (pooled_) {
      pooled_->account();
      pooled_->in_use = false;
    }
  }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  [[nodiscard]] EngineWorkspace& operator*() const noexcept {
    return pooled_ ? *pooled_ : *fallback_;
  }

 private:
  EngineWorkspace* pooled_;
  std::unique_ptr<EngineWorkspace> fallback_;
};

}  // namespace

EngineAllocStats engine_alloc_stats() noexcept {
  EngineAllocStats stats;
  stats.workspace_reuses = g_ws_reuses.load(std::memory_order_relaxed);
  stats.workspace_growths = g_ws_growths.load(std::memory_order_relaxed);
  stats.workspace_bytes = g_ws_bytes.load(std::memory_order_relaxed);
  return stats;
}

void engine_stage_profiling(bool enabled) noexcept {
  g_stage_profile.store(enabled, std::memory_order_relaxed);
  g_profile_epoch.fetch_add(1, std::memory_order_release);
}

EngineStageStats engine_stage_stats() noexcept {
  EngineStageStats stats;
  stats.exchange_ns = g_exchange_ns.load(std::memory_order_relaxed);
  stats.receive_ns = g_receive_ns.load(std::memory_order_relaxed);
  stats.scatter_ns = g_scatter_ns.load(std::memory_order_relaxed);
  stats.scan_ns = g_scan_ns.load(std::memory_order_relaxed);
  stats.profiled_rounds = g_profiled_rounds.load(std::memory_order_relaxed);
  return stats;
}

void engine_stage_stats_reset() noexcept {
  g_exchange_ns.store(0, std::memory_order_relaxed);
  g_receive_ns.store(0, std::memory_order_relaxed);
  g_scatter_ns.store(0, std::memory_order_relaxed);
  g_scan_ns.store(0, std::memory_order_relaxed);
  g_profiled_rounds.store(0, std::memory_order_relaxed);
  // Invalidate every lane's cached flag sample: a toggle that raced the
  // previous measurement window is picked up by the very next run.
  g_profile_epoch.fetch_add(1, std::memory_order_release);
}

RunResult run_plan(const ExecutionPlan& plan,
                   std::vector<std::unique_ptr<NodeProgram>>& programs,
                   const RunOptions& options, const std::string& name,
                   ExecutionPolicy& policy) {
  return run_plan(plan, borrow_programs(programs), options, name, policy);
}

RunResult run_plan(const ExecutionPlan& plan,
                   std::span<NodeProgram* const> programs,
                   const RunOptions& options, const std::string& name,
                   ExecutionPolicy& policy) {
  if (options.max_rounds == 0) {
    throw InvalidArgument(
        "run_synchronous: RunOptions::max_rounds must be positive");
  }
  const std::size_t n = plan.num_nodes();
  EDS_ENSURE(programs.size() == n, "run_plan: one program per node required");

  const unsigned lanes = std::max(1u, policy.lanes());
  const std::size_t total_ports = plan.total_ports();
  const WorkspaceLease lease;
  EngineWorkspace& ws = *lease;
  ws.prepare(n, total_ports, lanes);
  OutboxBuffer* cur = &ws.outbox[0];  // holds round r's messages
  OutboxBuffer* nxt = &ws.outbox[1];  // round r + 1's sends land here

  // The worklist: indices of non-halted nodes, always sorted ascending (it
  // only ever loses elements), so contiguous shard ranges visit nodes in
  // exactly the sequential order.
  std::vector<char>& halted = ws.halted;
  std::vector<std::size_t>& active = ws.active;
  for (std::size_t v = 0; v < n; ++v) {
    programs[v]->start(plan.degree(v));
    if (programs[v]->halted()) {
      // Degree-0 nodes (or trivial algorithms) may halt immediately.
      halted[v] = 1;
    } else {
      active.push_back(v);
    }
  }

  RunResult result;
  result.messages_collected = options.collect_messages;
  const bool collect = options.collect_messages;
  RunStats& stats = result.stats;

  std::vector<ShardScratch>& scratch = ws.scratch;
  std::vector<std::size_t>& bounds = ws.bounds;

  // Stage profiling: the flag is sampled once per run (epoch-cached per
  // lane), so a disabled run takes no timestamps at all.  Profiled runs
  // drive each shard as separate receive / send / tag-shadow sweeps so the
  // split can be timed at shard granularity — bit-identical results, since
  // programs only observe their own call sequence.
  const bool profile = stage_profiling_sample();
  using ProfileClock = std::chrono::steady_clock;
  const auto elapsed_ns = [](ProfileClock::time_point from,
                             ProfileClock::time_point to) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
  };
  std::uint64_t exchange_ns = 0;
  std::uint64_t receive_ns = 0;
  std::uint64_t scatter_ns = 0;
  std::uint64_t scan_ns = 0;

  // Stages node v's round-r sends: its contiguous outbox segment is reset
  // to silence (a program sends only by writing this round, so stale
  // messages never "ghost" into later ones) and the program writes message
  // structs straight into it — no intermediate staging buffer, all stores
  // sequential, and single-writer-per-slot holds trivially because every
  // slot belongs to exactly one sender.
  const auto send_node = [&](ShardScratch& sc, std::size_t v, Round r,
                             OutboxBuffer& to) {
    const Port deg = plan.degree(v);
    const std::size_t off = plan.offset(v);
    Message* const seg = to.slots.data() + off;
    std::fill_n(seg, deg, kSilence);
    programs[v]->send(r, std::span<Message>(seg, deg));
    sc.ports_served += deg;
    if (collect) {
      for (Port i = 0; i < deg; ++i) {
        if (!seg[i].is_silence()) {
          sc.log.push_back({r,
                            {static_cast<port::NodeId>(v),
                             static_cast<Port>(i + 1)},
                            plan.partner_ref(off + i),
                            seg[i]});
        }
      }
    }
  };

  // Mirrors v's freshly written segment tags into the buffer's flat
  // struct-of-arrays tag lane — a contiguous strided copy, so the
  // per-round traffic count and the silence accounting sweep a flat int32
  // lane branch-free instead of striding over 16-byte structs.
  const auto shadow_tags = [&](std::size_t v, OutboxBuffer& to) {
    const Port deg = plan.degree(v);
    const std::size_t off = plan.offset(v);
    const Message* const seg = to.slots.data() + off;
    std::int32_t* const tags = to.tag.data() + off;
    for (Port i = 0; i < deg; ++i) tags[i] = seg[i].tag;
  };

  // Gathers v's round-r inputs from the current buffer through the
  // involution — in[i] = cur[partner(offset(v) + i)] — and fires
  // receive().  Delivery IS this gather: messages are never copied between
  // send and receive, the permutation is applied on the read side where
  // loads pipeline (scattered stores pay a read-for-ownership per cache
  // line), and halted receivers never pay for it at all.
  const auto receive_node = [&](ShardScratch& sc, std::size_t v, Round r,
                                const OutboxBuffer& from) {
    const Port deg = plan.degree(v);
    const std::size_t off = plan.offset(v);
    if (sc.recv.size() < deg) sc.recv.resize(deg);
    Message* const in = sc.recv.data();
    const Message* const slots = from.slots.data();
    for (Port i = 0; i < deg; ++i) {
#if defined(EDS_ENGINE_GATHER_PREFETCH) && \
    (defined(__GNUC__) || defined(__clang__))
      // The partner permutation makes these loads data-dependent scatters
      // the hardware prefetcher cannot follow; starting the line a few
      // ports ahead overlaps the misses.  Measured a wash-to-regression
      // at every benchmarked degree (see kGatherPrefetchDistance), hence
      // opt-in only.
      if (i + kGatherPrefetchDistance < deg) {
        __builtin_prefetch(
            &slots[plan.partner_flat(off + i + kGatherPrefetchDistance)],
            /*rw=*/0, /*locality=*/0);
      }
#endif
      in[i] = slots[plan.partner_flat(off + i)];
    }
    programs[v]->receive(r, std::span<const Message>(in, deg));
  };

  // Computes this round's shard boundaries: port-count balanced, so a
  // power-law worklist cannot pile most of the traffic onto one lane.  Any
  // contiguous partition of the ascending worklist preserves the
  // shard-order merge, hence bit-identical results.
  const auto shard_bounds = [&](std::size_t shards) {
    balanced_shard_bounds(
        active.size(), shards,
        [&](std::size_t idx) {
          return static_cast<std::uint64_t>(plan.degree(active[idx]));
        },
        bounds);
  };

  // `pending` is the number of non-silence messages in the buffer the next
  // receive sweep will read: one branch-free sweep over its tag lane.
  // Exact because every slot either carries a fresh write from an active
  // sender or was zeroed when its owning node halted.
  std::uint64_t pending = 0;
  const auto scan_pending = [&](const OutboxBuffer& buf) {
    if (profile) {
      const auto t0 = ProfileClock::now();
      pending = count_nonsilence(buf.tag.data(), total_ports);
      scan_ns += elapsed_ns(t0, ProfileClock::now());
    } else {
      pending = count_nonsilence(buf.tag.data(), total_ports);
    }
    stats.messages_sent += pending;
  };

  // Initial exchange: round 1's sends land in `cur` before the loop, so
  // every later round can fuse "receive round r" and "send round r + 1"
  // behind one barrier.
  if (!active.empty()) {
    const std::size_t shards = std::min<std::size_t>(lanes, active.size());
    shard_bounds(shards);
    for (std::size_t s = 0; s < shards; ++s) scratch[s].reset();
    policy.for_each_shard(shards, [&](std::size_t s) {
      ShardScratch& sc = scratch[s];
      try {
        if (!profile) {
          for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
            send_node(sc, active[idx], 1, *cur);
            shadow_tags(active[idx], *cur);
          }
        } else {
          const auto t0 = ProfileClock::now();
          for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
            send_node(sc, active[idx], 1, *cur);
          }
          const auto t1 = ProfileClock::now();
          for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
            shadow_tags(active[idx], *cur);
          }
          const auto t2 = ProfileClock::now();
          sc.exchange_ns += elapsed_ns(t0, t2);
          sc.scatter_ns += elapsed_ns(t1, t2);
        }
      } catch (...) {
        sc.error = std::current_exception();
      }
    });
    rethrow_first(scratch, shards);
    for (std::size_t s = 0; s < shards; ++s) {
      const ShardScratch& sc = scratch[s];
      stats.ports_served += sc.ports_served;
      if (collect) {
        result.message_log.insert(result.message_log.end(), sc.log.begin(),
                                  sc.log.end());
      }
      exchange_ns += sc.exchange_ns;
      scatter_ns += sc.scatter_ns;
    }
    scan_pending(*cur);
  }

  Round round = 0;
  while (!active.empty()) {
    ++round;
    const Round next = round + 1;
    const bool send_next = next <= options.max_rounds;

    const std::size_t shards = std::min<std::size_t>(lanes, active.size());
    shard_bounds(shards);
    for (std::size_t s = 0; s < shards; ++s) scratch[s].reset();

    // The fused round stage, ONE barrier: every active node gathers and
    // receives its round-r input from `cur`, then — unless it halted, or
    // round r + 1 would exceed the cap — writes round r + 1 into its own
    // segment of `nxt`.  `cur` is read-only for the whole stage and every
    // `nxt` segment has exactly one writer (its owner), so shards never
    // contend; a directed self-loop reads its own `cur` segment and writes
    // `nxt`, never racing itself.  Halt flags are written only by the
    // shard that owns the node and read only by that shard until the
    // barrier.
    policy.for_each_shard(shards, [&](std::size_t s) {
      ShardScratch& sc = scratch[s];
      try {
        if (!profile) {
          for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
            const std::size_t v = active[idx];
            receive_node(sc, v, round, *cur);
            if (programs[v]->halted()) {
              halted[v] = 1;
              sc.newly_halted.push_back(v);
            } else if (send_next) {
              send_node(sc, v, next, *nxt);
              shadow_tags(v, *nxt);
            }
          }
        } else {
          // Profiled: the same work as separate receive / send / shadow
          // sweeps, timed at shard granularity.  Programs observe the same
          // per-node call sequence, logs are collected in the same
          // ascending node order — bit-identical to the fused path.
          const auto t0 = ProfileClock::now();
          for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
            const std::size_t v = active[idx];
            receive_node(sc, v, round, *cur);
            if (programs[v]->halted()) {
              halted[v] = 1;
              sc.newly_halted.push_back(v);
            }
          }
          const auto t1 = ProfileClock::now();
          if (send_next) {
            for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
              const std::size_t v = active[idx];
              if (!halted[v]) send_node(sc, v, next, *nxt);
            }
          }
          const auto t2 = ProfileClock::now();
          if (send_next) {
            for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
              const std::size_t v = active[idx];
              if (!halted[v]) shadow_tags(v, *nxt);
            }
          }
          const auto t3 = ProfileClock::now();
          sc.receive_ns += elapsed_ns(t0, t1);
          sc.exchange_ns += elapsed_ns(t1, t3);
          sc.scatter_ns += elapsed_ns(t2, t3);
        }
      } catch (...) {
        sc.error = std::current_exception();
      }
    });
    rethrow_first(scratch, shards);

    // Merge, strictly in shard order.  A halting node's *own* segment is
    // silenced in BOTH buffers — two contiguous fills, no scattered
    // writes: in `nxt` it holds stale round r - 1 sends (the node sent
    // nothing this stage), in `cur` its round-r sends — and `cur` becomes
    // the send target at round r + 1, so either copy would ghost into a
    // later round's gathers once the node stops overwriting it.  After
    // this, a halted node's partners read silence from it forever.
    // When every active node halted, nothing reads either buffer again
    // (the next run resets the workspace), so the fills are skipped.
    ProfileClock::time_point merge_start;
    if (profile) merge_start = ProfileClock::now();
    std::size_t halting = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      halting += scratch[s].newly_halted.size();
    }
    const bool all_halted = halting == active.size();
    for (std::size_t s = 0; s < shards; ++s) {
      const ShardScratch& sc = scratch[s];
      stats.ports_served += sc.ports_served;
      if (collect) {
        result.message_log.insert(result.message_log.end(), sc.log.begin(),
                                  sc.log.end());
      }
      receive_ns += sc.receive_ns;
      exchange_ns += sc.exchange_ns;
      scatter_ns += sc.scatter_ns;
      if (all_halted) continue;
      for (const std::size_t v : sc.newly_halted) {
        const Port deg = plan.degree(v);
        const std::size_t off = plan.offset(v);
        for (OutboxBuffer* buf : {cur, nxt}) {
          std::fill_n(buf->slots.data() + off, deg, kSilence);
          std::fill_n(buf->tag.data() + off, deg, std::int32_t{0});
        }
      }
    }
    if (all_halted) {
      active.clear();
    } else if (halting != 0) {
      std::erase_if(active, [&](std::size_t v) { return halted[v] != 0; });
    }

    if (options.collect_trace) {
      result.trace.push_back({round, pending, n - active.size()});
    }
    if (profile) {
      receive_ns += elapsed_ns(merge_start, ProfileClock::now());
    }

    if (active.empty()) break;
    if (!send_next) {
      std::ostringstream os;
      os << "run_synchronous: algorithm '" << name << "' did not halt within "
         << options.max_rounds << " rounds (" << active.size() << " of " << n
         << " nodes still running)";
      throw ExecutionError(os.str());
    }
    scan_pending(*nxt);
    std::swap(cur, nxt);
  }

  if (profile) {
    g_exchange_ns.fetch_add(exchange_ns, std::memory_order_relaxed);
    g_receive_ns.fetch_add(receive_ns, std::memory_order_relaxed);
    g_scatter_ns.fetch_add(scatter_ns, std::memory_order_relaxed);
    g_scan_ns.fetch_add(scan_ns, std::memory_order_relaxed);
    g_profiled_rounds.fetch_add(round, std::memory_order_relaxed);
  }

  stats.rounds = round;
  result.selected.assign(total_ports, 0);
  for (std::size_t v = 0; v < n; ++v) {
    OutputSink sink({result.selected.data() + plan.offset(v), plan.degree(v)},
                    "run_synchronous");
    programs[v]->output(sink);
  }
  return result;
}

}  // namespace eds::runtime
