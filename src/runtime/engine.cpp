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

ExecutionPlan::ExecutionPlan(const port::PortGraph& g)
    : build_id_(g.build_id()) {
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
  // Equal non-zero build ids mean g is the source graph or a copy of it.
  // Otherwise two contiguous scans: the flat degree sequence and the flat
  // involution table are exactly what the constructor consumed.
  if (build_id_ != 0 && build_id_ == g.build_id()) return true;
  return degrees_ == g.degree_sequence() &&
         partner_ref_ == g.partner_table();
}

std::unique_ptr<ExecutionPolicy> make_policy(const ExecOptions& exec) {
  if (exec.threads == 1) return std::make_unique<SequentialPolicy>();
  return std::make_unique<ParallelPolicy>(exec.threads);
}

namespace {

/// Per-shard accumulators; merged strictly in shard order so parallel runs
/// reproduce the sequential order bit for bit.  Cache-line aligned so
/// neighboring shards' counters never share a line.
struct alignas(64) ShardScratch {
  std::uint64_t ports_served = 0;
  std::uint64_t messages = 0;  ///< non-silence slots this shard sent
  std::vector<DeliveredMessage> log;
  std::vector<std::size_t> newly_halted;
  /// One node's inbound messages, gathered through the involution from the
  /// current outbox back into the contiguous form receive() promises.
  /// Max-degree sized and reused across nodes, rounds and runs.
  std::vector<Message> recv;
  std::exception_ptr error;

  void reset() noexcept {
    ports_served = 0;
    messages = 0;
    log.clear();
    newly_halted.clear();
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
std::atomic<std::uint64_t> g_round_ns{0};
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

/// The pooled message transport: every buffer the round loop writes lives
/// here and is resized (capacity retained) at the start of each run instead
/// of being reallocated.  One workspace exists per thread, so sequential
/// runs and BatchRunner jobs (one job per pool lane) each reuse their
/// lane's arena run after run.
struct EngineWorkspace {
  /// The double buffer: one round's messages indexed by *sender* flat port
  /// (node v's sends occupy the contiguous segment [offset(v), offset(v) +
  /// degree(v))).  One buffer holds round r's messages while round r + 1's
  /// sends land in the other; they swap after every round's single barrier.
  /// Senders write only their own segment (trivially single-writer);
  /// receivers gather through the involution, so delivery itself is free.
  std::vector<Message> outbox[2];
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
    // short-lived pools (a BatchRunner per sweep) would leak dead bytes
    // into the "currently pooled" statistic.
    g_ws_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t footprint() const noexcept {
    std::size_t scratch_bytes = 0;
    for (const auto& sc : scratch) {
      scratch_bytes += sc.log.capacity() * sizeof(DeliveredMessage) +
                       sc.newly_halted.capacity() * sizeof(std::size_t) +
                       sc.recv.capacity() * sizeof(Message);
    }
    return (outbox[0].capacity() + outbox[1].capacity()) * sizeof(Message) +
           halted.capacity() + active.capacity() * sizeof(std::size_t) +
           bounds.capacity() * sizeof(std::size_t) +
           scratch.capacity() * sizeof(ShardScratch) + scratch_bytes;
  }

  /// Silences node segment [off, off + deg) in both buffers: its owner
  /// halted, so its partners must read silence from it for the rest of the
  /// run, whichever buffer they gather from.
  void silence(std::size_t off, Port deg) noexcept {
    std::fill_n(outbox[0].data() + off, deg, kSilence);
    std::fill_n(outbox[1].data() + off, deg, kSilence);
  }

  /// Readies the lane for a run of `programs` over `plan` with `lanes`
  /// shards: sizes every buffer (growing capacity only when this lane has
  /// never seen a graph this large), starts every program and builds the
  /// worklist.  The outboxes are NOT reset, they keep the previous run's
  /// bytes: every segment a receiver reads is written this run by its
  /// active owner before it is read, or silenced when the owner halts —
  /// here for a node that halts in start(), at the round merge for one
  /// that halts later.
  void prepare(const ExecutionPlan& plan,
               std::span<NodeProgram* const> programs, unsigned lanes) {
    const std::size_t n = plan.num_nodes();
    const std::size_t total_ports = plan.total_ports();
    const bool grows = total_ports > outbox[0].capacity() ||
                       n > halted.capacity() || n > active.capacity() ||
                       lanes > scratch.size();
    outbox[0].resize(total_ports);
    outbox[1].resize(total_ports);
    halted.assign(n, 0);
    active.clear();
    active.reserve(n);
    if (scratch.size() < lanes) scratch.resize(lanes);
    (grows ? g_ws_growths : g_ws_reuses).fetch_add(1,
                                                   std::memory_order_relaxed);

    // The worklist: indices of non-halted nodes, always sorted ascending
    // (it only ever loses elements), so contiguous shard ranges visit nodes
    // in exactly the sequential order.
    for (std::size_t v = 0; v < n; ++v) {
      programs[v]->start(plan.degree(v));
      if (programs[v]->halted()) {
        // Degree-0 nodes (or trivial algorithms) may halt immediately.
        halted[v] = 1;
        silence(plan.offset(v), plan.degree(v));
      } else {
        active.push_back(v);
      }
    }
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
  stats.round_ns = g_round_ns.load(std::memory_order_relaxed);
  stats.profiled_rounds = g_profiled_rounds.load(std::memory_order_relaxed);
  return stats;
}

void engine_stage_stats_reset() noexcept {
  g_round_ns.store(0, std::memory_order_relaxed);
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
  ws.prepare(plan, programs, lanes);
  Message* cur = ws.outbox[0].data();  // holds round r's messages
  Message* nxt = ws.outbox[1].data();  // round r + 1's sends land here
  std::vector<char>& halted = ws.halted;
  std::vector<std::size_t>& active = ws.active;

  RunResult result;
  result.messages_collected = options.collect_messages;
  const bool collect = options.collect_messages;
  RunStats& stats = result.stats;

  std::vector<ShardScratch>& scratch = ws.scratch;
  std::vector<std::size_t>& bounds = ws.bounds;

  // Stage profiling: the flag is sampled once per run (epoch-cached per
  // lane), so a disabled run takes no timestamps at all.  A profiled run
  // runs the same fused loop and takes one timestamp per round, after the
  // barrier and the merge.
  const bool profile = stage_profiling_sample();
  using ProfileClock = std::chrono::steady_clock;
  ProfileClock::time_point stamp;
  if (profile) stamp = ProfileClock::now();
  std::uint64_t round_ns = 0;

  // Stages node v's round-r sends: its contiguous outbox segment is reset
  // to silence (a program sends only by writing this round, so stale
  // messages never "ghost" into later ones) and the program writes message
  // structs straight into it — no intermediate staging buffer, all stores
  // sequential, and single-writer-per-slot holds trivially because every
  // slot belongs to exactly one sender.  The segment's traffic is counted
  // while it is still in L1.
  const auto send_node = [&](ShardScratch& sc, std::size_t v, Round r,
                             Message* to) {
    const Port deg = plan.degree(v);
    const std::size_t off = plan.offset(v);
    Message* const seg = to + off;
    std::fill_n(seg, deg, kSilence);
    programs[v]->send(r, std::span<Message>(seg, deg));
    sc.ports_served += deg;
    std::uint64_t sent = 0;
    for (Port i = 0; i < deg; ++i) {
      sent += static_cast<std::uint64_t>(!seg[i].is_silence());
    }
    sc.messages += sent;
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

  // Gathers v's round-r inputs from the current buffer through the
  // involution — in[i] = cur[partner(offset(v) + i)] — and fires
  // receive().  Delivery IS this gather: messages are never copied between
  // send and receive, the permutation is applied on the read side where
  // loads pipeline (scattered stores pay a read-for-ownership per cache
  // line), and halted receivers never pay for it at all.
  const auto receive_node = [&](ShardScratch& sc, std::size_t v, Round r,
                                const Message* from) {
    const Port deg = plan.degree(v);
    const std::size_t off = plan.offset(v);
    if (sc.recv.size() < deg) sc.recv.resize(deg);
    Message* const in = sc.recv.data();
    for (Port i = 0; i < deg; ++i) in[i] = from[plan.partner_flat(off + i)];
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

  // Folds one shard's counters and log into the result (called strictly in
  // shard order) and returns the non-silence messages it sent.
  const auto merge_shard = [&](const ShardScratch& sc) {
    stats.ports_served += sc.ports_served;
    stats.messages_sent += sc.messages;
    if (collect) {
      result.message_log.insert(result.message_log.end(), sc.log.begin(),
                                sc.log.end());
    }
    return sc.messages;
  };

  // `pending` is the number of non-silence messages in the buffer the next
  // receive sweep will read: the sum of the counts send_node took while
  // writing it (every other segment there is silence).
  std::uint64_t pending = 0;

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
        for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
          send_node(sc, active[idx], 1, cur);
        }
      } catch (...) {
        sc.error = std::current_exception();
      }
    });
    rethrow_first(scratch, shards);
    for (std::size_t s = 0; s < shards; ++s) pending += merge_shard(scratch[s]);
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
        for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
          const std::size_t v = active[idx];
          receive_node(sc, v, round, cur);
          if (programs[v]->halted()) {
            halted[v] = 1;
            sc.newly_halted.push_back(v);
          } else if (send_next) {
            send_node(sc, v, next, nxt);
          }
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
    // (the next run writes or silences every segment before reading it),
    // so the fills are skipped.
    std::size_t halting = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      halting += scratch[s].newly_halted.size();
    }
    const bool all_halted = halting == active.size();
    std::uint64_t sent_next = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      sent_next += merge_shard(scratch[s]);
      if (all_halted) continue;
      for (const std::size_t v : scratch[s].newly_halted) {
        ws.silence(plan.offset(v), plan.degree(v));
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
      const auto now = ProfileClock::now();
      round_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - stamp)
              .count());
      stamp = now;
    }

    if (active.empty()) break;
    if (!send_next) {
      std::ostringstream os;
      os << "run_synchronous: algorithm '" << name << "' did not halt within "
         << options.max_rounds << " rounds (" << active.size() << " of " << n
         << " nodes still running)";
      throw ExecutionError(os.str());
    }
    pending = sent_next;
    std::swap(cur, nxt);
  }

  if (profile) {
    g_round_ns.fetch_add(round_ns, std::memory_order_relaxed);
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
