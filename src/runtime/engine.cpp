#include "runtime/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <functional>
#include <optional>
#include <sstream>

#include "runtime/workspace.hpp"
#include "util/error.hpp"

namespace eds::runtime {

std::unique_ptr<ThreadPool> make_policy(const ExecOptions& exec) {
  return std::make_unique<ThreadPool>(exec.threads);
}

namespace {

/// Per-shard accumulators; merged strictly in shard order so parallel runs
/// reproduce the sequential order bit for bit.  Cache-line aligned so
/// neighboring shards' counters never share a line.
struct alignas(64) ShardScratch {
  std::uint64_t ports_served = 0;  ///< d(v) · halt_round(v) of its halts
  std::uint64_t messages = 0;      ///< non-silence slots this shard sent
  std::uint64_t sleepers = 0;      ///< unmarked rounds: hints past r + 1
  std::uint64_t slots = 0;         ///< calendar ring slots it filed into
  std::vector<DeliveredMessage> log;
  std::vector<std::uint32_t> newly_halted;
  /// The nodes whose hint needs a new entry in the calendar's far heap.
  std::vector<std::uint32_t> rescheduled;
  /// One node's inbound messages, gathered through the involution from the
  /// current outbox back into the contiguous form receive() promises.
  /// Max-degree sized and reused across nodes, rounds and runs.
  std::vector<Message> recv;
  std::exception_ptr error;

  void reset() noexcept {
    ports_served = 0;
    messages = 0;
    sleepers = 0;
    slots = 0;
    log.clear();
    newly_halted.clear();
    rescheduled.clear();
    error = nullptr;
  }
};

void rethrow_first(const std::vector<ShardScratch>& scratch,
                   std::size_t shards) {
  for (std::size_t s = 0; s < shards; ++s) {
    if (scratch[s].error) std::rethrow_exception(scratch[s].error);
  }
}

// Node bitsets — the wake bits (set when the node must run next round),
// the sender bits (set when the node sent a message into an outbox) and
// the calendar ring's slots.  Shards set bits concurrently (a sender marks
// its receivers, a node files its own hint), so a round
// stage of more than one shard writes through atomic_ref, testing first
// so a bit that is already set costs a load; a one-shard stage and the
// serial steps between rounds (after the barrier) use plain accesses.
void mark_shared(std::uint64_t* wake, std::uint32_t v) noexcept {
  std::atomic_ref<std::uint64_t> word(wake[v >> 6]);
  const std::uint64_t bit = std::uint64_t{1} << (v & 63);
  if ((word.load(std::memory_order_relaxed) & bit) == 0) {
    word.fetch_or(bit, std::memory_order_relaxed);
  }
}

void mark(std::uint64_t* wake, std::uint32_t v) noexcept {
  wake[v >> 6] |= std::uint64_t{1} << (v & 63);
}

/// Calls fn(v) for every node v whose bit is set in `word`, word `w` of a
/// node bitset, in ascending order.
template <class Fn>
void for_each_bit(std::uint64_t word, std::size_t w, Fn&& fn) {
  for (; word != 0; word &= word - 1) {
    fn(static_cast<std::uint32_t>(
        w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
  }
}

/// The hints past next round of one run.  A hint up to 64 rounds ahead of
/// the dispatch that gave it is one bit in the near ring: kRingSlots node
/// bitsets, slot k holding rounds [k kSlotRounds, (k + 1) kSlotRounds) of
/// its lap, 2 bytes per node, O(1) to file.  A farther one is an entry
/// due << 32 | node in the far min-heap.  Either is live while due[node]
/// still names its round: one left behind when a message woke the node
/// early and its hint moved is dropped when its slot or entry comes up,
/// and the heap also drops all of them at once when they outnumber the
/// live nodes, so the calendar stays O(n).  (On a 4-CPU x86-64 container
/// a heap alone cost about 85 ns per entry taken, more than a whole
/// dispatch of odd-regular at d = 3.)
class Calendar {
 public:
  static constexpr Round kSlotRounds = 4;
  static constexpr Round kRingSlots = 16;

  /// Binds an empty calendar to a run: `ring` is kRingSlots zeroed node
  /// bitsets of `words` words, `far` the heap's pooled storage, `due` and
  /// `halted` the run's per-node hint and halt flag.
  Calendar(std::uint64_t* ring, std::size_t words,
           std::vector<std::uint64_t>& far, const Round* due,
           const char* halted)
      : ring_(ring), words_(words), far_(far), due_(due), halted_(halted) {
    far_.clear();
  }

  /// Whether a hint for round h, given by a dispatch in round r, fits the
  /// ring: its slot must not be the one round r + 1 still uses, a lap on.
  [[nodiscard]] static bool near(Round h, Round r) {
    return h / kSlotRounds - (r + 1) / kSlotRounds < kRingSlots;
  }
  /// Round r's ring slot (a shard files a near hint there itself) and the
  /// slot's bit in a used-slot mask.
  [[nodiscard]] std::uint64_t* slot(Round r) const {
    return ring_ + static_cast<std::size_t>(r / kSlotRounds % kRingSlots) *
                       words_;
  }
  [[nodiscard]] static std::uint64_t slot_bit(Round r) {
    return std::uint64_t{1} << (r / kSlotRounds % kRingSlots);
  }
  /// Records slots the shards filed into.
  void used(std::uint64_t slots) { used_ |= slots; }

  /// Files node v's hint h, given by a dispatch in round r.
  void file(std::uint32_t v, Round h, Round r) {
    if (near(h, r)) {
      mark(slot(h), v);
      used_ |= slot_bit(h);
    } else {
      far_.push_back(key(h, v));
      std::push_heap(far_.begin(), far_.end(), std::greater<>{});
    }
  }

  /// Drops the far heap's dead entries once they outnumber `live` twice.
  void compact(std::size_t live) {
    if (far_.size() <= 2 * live + 64) return;
    std::erase_if(far_, [&](std::uint64_t k) { return !entry_live(k); });
    std::sort(far_.begin(), far_.end());  // sorted ascending is a min-heap
    far_.erase(std::unique(far_.begin(), far_.end()), far_.end());
  }

  /// Marks in `wake` every node whose hint is round r (none is earlier).
  void take_due(Round r, std::uint64_t* wake) {
    sweep(r, r, [&](std::uint32_t v, Round d) {
      if (d != r) return true;
      mark(wake, v);
      return false;
    });
    while (!far_.empty() && round_of(far_.front()) <= r) {
      const std::uint64_t k = far_.front();
      pop();
      if (entry_live(k)) mark(wake, static_cast<std::uint32_t>(k));
    }
  }

  /// The earliest round after `after` with a live hint, 0 when none is
  /// left (none is at or before `after`).
  [[nodiscard]] Round next_due(Round after) {
    while (!far_.empty() && !entry_live(far_.front())) pop();
    const Round far = far_.empty() ? 0 : round_of(far_.front());
    // Every ring bit was filed by a dispatch in round `after` - 1 or
    // earlier, so it lies within kRingSlots slots from after + 1's.
    const Round first = (after + 1) / kSlotRounds * kSlotRounds;
    for (Round k = 0; k < kRingSlots && used_ != 0; ++k) {
      const Round base = first + k * kSlotRounds;
      if (far != 0 && far < base) break;
      Round best = 0;
      sweep(base, std::max(base, after + 1), [&](std::uint32_t, Round d) {
        if (best == 0 || d < best) best = d;
        return true;
      });
      if (best != 0) return far != 0 && far < best ? far : best;
    }
    return far;
  }

 private:
  [[nodiscard]] static std::uint64_t key(Round r, std::uint32_t v) {
    return (static_cast<std::uint64_t>(r) << 32) | v;
  }
  [[nodiscard]] static Round round_of(std::uint64_t k) {
    return static_cast<Round>(k >> 32);
  }
  [[nodiscard]] bool entry_live(std::uint64_t k) const {
    const auto v = static_cast<std::uint32_t>(k);
    return halted_[v] == 0 && due_[v] == round_of(k);
  }
  void pop() {
    std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
    far_.pop_back();
  }

  // Sweeps the ring slot of round r, which holds no live hint before
  // `from`: drops every bit that is not a live hint in [from, end of the
  // slot's rounds), passes each live one to `hit` with its round and keeps
  // it when `hit` returns true.  Releases the slot once it is empty.
  template <class Hit>
  void sweep(Round r, Round from, Hit&& hit) {
    if ((used_ & slot_bit(r)) == 0) return;
    const Round end = r / kSlotRounds * kSlotRounds + kSlotRounds;
    std::uint64_t* const bits = slot(r);
    std::uint64_t left = 0;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t keep = 0;
      for_each_bit(bits[w], w, [&](std::uint32_t v) {
        const Round d = due_[v];
        if (halted_[v] == 0 && d >= from && d < end && hit(v, d)) {
          keep |= std::uint64_t{1} << (v & 63);
        }
      });
      bits[w] = keep;
      left |= keep;
    }
    if (left == 0) used_ &= ~slot_bit(r);
  }

  std::uint64_t* ring_;
  std::size_t words_;
  std::vector<std::uint64_t>& far_;
  const Round* due_;
  const char* halted_;
  std::uint64_t used_ = 0;  // ring slots that may hold bits
};

std::atomic<std::uint64_t> g_ws_reuses{0};
std::atomic<std::uint64_t> g_ws_growths{0};
std::atomic<std::uint64_t> g_ws_bytes{0};

std::atomic<std::uint64_t> g_round_ns{0};
std::atomic<std::uint64_t> g_rounds{0};
std::atomic<std::uint64_t> g_dispatched{0};

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
  /// The nodes to dispatch this round, ascending, so contiguous shard
  /// ranges visit nodes in exactly the sequential order.
  std::vector<std::uint32_t> list;
  std::vector<std::size_t> bounds;  // shard boundaries, shards + 1 entries
  std::vector<ShardScratch> scratch;
  // The sparse-round state, sized only by runs in which some node sleeps.
  std::vector<Round> due;               // each node's latest wake hint
  /// Node bitsets, one bit per node each: the wake bits, the senders into
  /// each outbox, and the calendar's near ring of kRingSlots slots.
  std::vector<std::uint64_t> bits;
  std::vector<std::uint64_t> calendar;  // the far heap: due << 32 | node
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
                       (sc.newly_halted.capacity() +
                        sc.rescheduled.capacity()) *
                           sizeof(std::uint32_t) +
                       sc.recv.capacity() * sizeof(Message);
    }
    return (outbox[0].capacity() + outbox[1].capacity()) * sizeof(Message) +
           halted.capacity() +
           list.capacity() * sizeof(std::uint32_t) +
           due.capacity() * sizeof(Round) +
           (bits.capacity() + calendar.capacity()) * sizeof(std::uint64_t) +
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
  /// never seen a graph this large), starts every program and lists the
  /// nodes that did not halt.  The outboxes are NOT reset, they keep the
  /// previous run's bytes: every segment a receiver reads is written this
  /// run by its owner before it is read, or silenced — here for a node
  /// that halts in start(), later for one that halts or sleeps.
  void prepare(const ExecutionPlan& plan,
               std::span<NodeProgram* const> programs, unsigned lanes) {
    const std::size_t n = plan.num_nodes();
    const std::size_t total_ports = plan.total_ports();
    outbox[0].resize(total_ports);
    outbox[1].resize(total_ports);
    halted.assign(n, 0);
    list.clear();
    list.reserve(n);
    if (scratch.size() < lanes) scratch.resize(lanes);

    for (std::size_t v = 0; v < n; ++v) {
      programs[v]->start(plan.degree(v));
      if (programs[v]->halted()) {
        // Degree-0 nodes (or trivial algorithms) may halt immediately.
        halted[v] = 1;
        silence(plan.offset(v), plan.degree(v));
      } else {
        list.push_back(static_cast<std::uint32_t>(v));
      }
    }
  }

  /// Sizes the sparse-round state for a run over `n` nodes, with no hint
  /// filed and no wake, sender or ring bit set.
  void start_sparse(std::size_t n, std::size_t words) {
    due.assign(n, 0);
    bits.assign((3 + Calendar::kRingSlots) * words, 0);
  }

  /// The end-of-run accounting (WorkspaceLease calls it on release).
  /// Counts the run as a growth when any pooled buffer's capacity grew in
  /// it — capacities never shrink, so that is a footprint above the last
  /// run's — and as a reuse otherwise; a lane's pooled workspace also
  /// moves the pooled-bytes gauge to its new footprint.
  void end_run(bool pooled) noexcept {
    const std::size_t now = footprint();
    (now > bytes ? g_ws_growths : g_ws_reuses)
        .fetch_add(1, std::memory_order_relaxed);
    if (!pooled) return;
    if (now >= bytes) {
      g_ws_bytes.fetch_add(now - bytes, std::memory_order_relaxed);
    } else {
      g_ws_bytes.fetch_sub(bytes - now, std::memory_order_relaxed);
    }
    bytes = now;
  }
};

}  // namespace

EngineAllocStats engine_alloc_stats() noexcept {
  EngineAllocStats stats;
  stats.workspace_reuses = g_ws_reuses.load(std::memory_order_relaxed);
  stats.workspace_growths = g_ws_growths.load(std::memory_order_relaxed);
  stats.workspace_bytes = g_ws_bytes.load(std::memory_order_relaxed);
  return stats;
}

EngineStageStats engine_stage_stats() noexcept {
  EngineStageStats stats;
  stats.round_ns = g_round_ns.load(std::memory_order_relaxed);
  stats.rounds = g_rounds.load(std::memory_order_relaxed);
  stats.dispatched = g_dispatched.load(std::memory_order_relaxed);
  return stats;
}

RunResult run_plan(const ExecutionPlan& plan,
                   std::vector<std::unique_ptr<NodeProgram>>& programs,
                   const RunOptions& options, const std::string& name,
                   ThreadPool& pool) {
  return run_plan(plan, borrow_programs(programs), options, name, pool);
}

RunResult run_plan(const ExecutionPlan& plan,
                   std::span<NodeProgram* const> programs,
                   const RunOptions& options, const std::string& name,
                   ThreadPool& pool) {
  if (options.max_rounds == 0) {
    throw InvalidArgument(
        "run_synchronous: RunOptions::max_rounds must be positive");
  }
  const std::size_t n = plan.num_nodes();
  EDS_ENSURE(programs.size() == n, "run_plan: one program per node required");

  const unsigned lanes = std::max(1u, pool.lanes());
  const std::size_t total_ports = plan.total_ports();
  const WorkspaceLease<EngineWorkspace> lease;
  EngineWorkspace& ws = *lease;
  ws.prepare(plan, programs, lanes);
  Message* cur = ws.outbox[0].data();  // holds round r's messages
  Message* nxt = ws.outbox[1].data();  // round r + 1's sends land here
  std::vector<char>& halted = ws.halted;
  std::vector<std::uint32_t>& list = ws.list;
  std::size_t live = list.size();  // nodes that have not halted
  // The sparse state, set up when the first node hints past next round,
  // so a run of a hint-less program, or one that ends in round 1, sets up
  // none.
  Round* due = nullptr;
  std::uint64_t* wake = nullptr;
  std::uint64_t* sent_cur = nullptr;  // who sent into `cur`
  std::uint64_t* sent_nxt = nullptr;  // who sent into `nxt`
  std::optional<Calendar> calendar;
  const std::size_t wake_words = (n + 63) / 64;

  RunResult result;
  result.messages_collected = options.collect_messages;
  const bool collect = options.collect_messages;
  RunStats& stats = result.stats;

  std::vector<ShardScratch>& scratch = ws.scratch;
  std::vector<std::size_t>& bounds = ws.bounds;

  std::uint64_t dispatched = 0;

  // Whether this round's senders mark their receivers' wake bits.  Until
  // the first node hints past next round, every live node runs every
  // round and no marks are needed; from then on every round marks.
  bool marking = false;
  // Whether the round stage runs on more than one shard, so node bits
  // need atomic writes.
  bool shared = false;
  const auto set_bit = [&](std::uint64_t* bits, std::uint32_t v) {
    if (shared) {
      mark_shared(bits, v);
    } else {
      mark(bits, v);
    }
  };

  // Logs the non-silence messages of v's round-r segment `seg` (with
  // collect_messages) and, in a marking round, records v as a sender into
  // `nxt` and marks every receiver's wake bit.  Kept apart from
  // send_node, which runs for every sending node, so that stays small
  // enough to inline at both of its call sites.
  const auto note_traffic = [&](ShardScratch& sc, std::uint32_t v, Round r,
                                const Message* seg) {
    const Port deg = plan.degree(v);
    const std::size_t off = plan.offset(v);
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
    if (marking) {
      set_bit(sent_nxt, v);
      for (Port i = 0; i < deg; ++i) {
        if (!seg[i].is_silence()) {
          set_bit(wake, plan.partner_node(off + i));
        }
      }
    }
  };

  // Stages node v's round-r sends: its contiguous outbox segment is reset
  // to silence (a program sends only by writing this round, so stale
  // messages never "ghost" into later ones) and the program writes message
  // structs straight into it — no intermediate staging buffer, all stores
  // sequential, and single-writer-per-slot holds trivially because every
  // slot belongs to exactly one sender.  The segment's traffic is counted
  // while it is still in L1; returns the count.
  const auto send_node = [&](std::uint32_t v, Round r, Message* seg) {
    const Port deg = plan.degree(v);
    std::fill_n(seg, deg, kSilence);
    programs[v]->send(r, std::span<Message>(seg, deg));
    std::uint64_t sent = 0;
    for (Port i = 0; i < deg; ++i) {
      sent += static_cast<std::uint64_t>(!seg[i].is_silence());
    }
    return sent;
  };

  // Gathers v's round-r inputs from the current buffer through the
  // involution — in[i] = cur[partner(offset(v) + i)] — and fires
  // receive().  Delivery IS this gather: messages are never copied between
  // send and receive, the permutation is applied on the read side where
  // loads pipeline (scattered stores pay a read-for-ownership per cache
  // line), and sleeping or halted receivers never pay for it at all.
  const auto receive_node = [&](ShardScratch& sc, std::uint32_t v, Round r) {
    const Port deg = plan.degree(v);
    const std::size_t off = plan.offset(v);
    if (sc.recv.size() < deg) sc.recv.resize(deg);
    Message* const in = sc.recv.data();
    for (Port i = 0; i < deg; ++i) in[i] = cur[plan.partner_flat(off + i)];
    programs[v]->receive(r, std::span<const Message>(in, deg));
  };

  // Node v's dispatch in round r: gather and receive round r, then —
  // unless it halted, or round r + 1 would exceed the cap — send round
  // r + 1 and, from round 2 on, ask its wake hint.  An unmarked round
  // only counts the hints past r + 1.  A marking round notes the hint in
  // due[v]: a hint for round r + 1 marks the node's own wake bit; a later
  // one, when it moved, is filed in the calendar: in the ring slot of its
  // round when that is near, else (through `rescheduled`) in the far
  // heap.  ports_served is a model quantity, Σ d(v) · halt_round(v), so
  // it is added once, at the halt.
  const auto dispatch = [&](ShardScratch& sc, std::uint32_t v, Round r,
                            bool send_next) {
    receive_node(sc, v, r);
    const NodeProgram& program = *programs[v];
    if (program.halted()) {
      halted[v] = 1;
      sc.newly_halted.push_back(v);
      sc.ports_served += static_cast<std::uint64_t>(plan.degree(v)) * r;
      return;
    }
    if (!send_next) return;
    Message* const seg = nxt + plan.offset(v);
    const std::uint64_t sent = send_node(v, r + 1, seg);
    sc.messages += sent;
    if (sent != 0 && (collect || marking)) note_traffic(sc, v, r + 1, seg);
    if (r == 1) return;
    const Round hint = std::max(program.wake_hint(r), r + 1);
    if (!marking) {
      if (hint != r + 1) ++sc.sleepers;
      return;
    }
    const Round filed = due[v];
    due[v] = hint;
    if (hint == r + 1) {
      set_bit(wake, v);
      return;
    }
    if (hint == filed) return;
    if (Calendar::near(hint, r)) {
      set_bit(calendar->slot(hint), v);
      sc.slots |= Calendar::slot_bit(hint);
    } else {
      sc.rescheduled.push_back(v);
    }
  };

  // Computes this round's shard boundaries: port-count balanced, so a
  // power-law list cannot pile most of the traffic onto one lane.  Any
  // contiguous partition of the ascending list preserves the shard-order
  // merge, hence bit-identical results.
  const auto shard_bounds = [&](std::size_t shards) {
    balanced_shard_bounds(
        list.size(), shards,
        [&](std::size_t idx) {
          return static_cast<std::uint64_t>(plan.degree(list[idx]));
        },
        bounds);
  };

  // Runs `body(sc, v)` for every listed node, sharded; returns the shard
  // count after the barrier (rethrowing the lowest shard's failure).
  const auto for_each_listed = [&](const auto& body) {
    const std::size_t shards = std::min<std::size_t>(lanes, list.size());
    shared = shards > 1;
    shard_bounds(shards);
    for (std::size_t s = 0; s < shards; ++s) scratch[s].reset();
    pool.run(shards, [&](std::size_t s) {
      ShardScratch& sc = scratch[s];
      try {
        for (std::size_t idx = bounds[s]; idx < bounds[s + 1]; ++idx) {
          body(sc, list[idx]);
        }
      } catch (...) {
        sc.error = std::current_exception();
      }
    });
    rethrow_first(scratch, shards);
    return shards;
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

  const auto round_limit = [&]() {
    std::ostringstream os;
    os << "run_synchronous: algorithm '" << name << "' did not halt within "
       << options.max_rounds << " rounds (" << live << " of " << n
       << " nodes still running)";
    throw ExecutionError(os.str());
  };

  // Rebuilds `list` from the wake bits (ascending node order, halted
  // nodes dropped) and clears the bits.
  const auto collect_woken = [&] {
    list.clear();
    for (std::size_t w = 0; w < wake_words; ++w) {
      if (wake[w] == 0) continue;
      for_each_bit(wake[w], w, [&](std::uint32_t v) {
        if (halted[v] == 0) list.push_back(v);
      });
      wake[w] = 0;
    }
  };
  const auto silence_in = [&](Message* buffer, std::uint32_t v) {
    std::fill_n(buffer + plan.offset(v), plan.degree(v), kSilence);
  };

  // `pending` is the number of non-silence messages in the buffer the next
  // receive sweep will read: the sum of the counts send_node took while
  // writing it (every other segment there is silence).
  std::uint64_t pending = 0;

  // Initial exchange: round 1's sends land in `cur` before the loop, so
  // every later round can fuse "receive round r" and "send round r + 1"
  // behind one barrier.  The round loop's time runs from here to the end
  // of its last round.
  const auto started = std::chrono::steady_clock::now();
  if (!list.empty()) {
    const std::size_t shards =
        for_each_listed([&](ShardScratch& sc, std::uint32_t v) {
          Message* const seg = cur + plan.offset(v);
          const std::uint64_t sent = send_node(v, 1, seg);
          sc.messages += sent;
          if (sent != 0 && collect) note_traffic(sc, v, 1, seg);
        });
    for (std::size_t s = 0; s < shards; ++s) pending += merge_shard(scratch[s]);
  }

  Round round = 0;
  Round target = 1;  // the next round with work
  while (live != 0) {
    round = target;
    const Round next = round + 1;
    const bool send_next = next <= options.max_rounds;

    // The fused round stage, ONE barrier: every listed node gathers and
    // receives its round-r input from `cur`, then — unless it halted, or
    // round r + 1 would exceed the cap — writes round r + 1 into its own
    // segment of `nxt`.  `cur` is read-only for the whole stage and every
    // `nxt` segment has exactly one writer (its owner), so shards never
    // contend; a directed self-loop reads its own `cur` segment and writes
    // `nxt`, never racing itself.  Halt flags and due[] are written only
    // by the shard that owns the node; node bits are set atomically when
    // more than one shard runs.
    const std::size_t shards =
        for_each_listed([&](ShardScratch& sc, std::uint32_t v) {
          dispatch(sc, v, round, send_next);
        });
    dispatched += list.size();

    // Merge, strictly in shard order.  A halting node's *own* segment is
    // silenced in BOTH buffers — two contiguous fills, no scattered
    // writes: in `nxt` it holds stale sends (the node sent nothing this
    // stage), in `cur` its round-r sends — and either copy would ghost
    // into a later round's gathers once the node stops overwriting it.
    // When every live node halted, nothing reads either buffer again (the
    // next run writes or silences every segment before reading it), so
    // the fills are skipped.
    std::size_t halting = 0;
    std::uint64_t sleepers = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      halting += scratch[s].newly_halted.size();
      sleepers += scratch[s].sleepers;
    }
    live -= halting;
    std::uint64_t sent_next = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      sent_next += merge_shard(scratch[s]);
      if (live == 0) continue;
      for (const std::uint32_t v : scratch[s].newly_halted) {
        ws.silence(plan.offset(v), plan.degree(v));
      }
    }

    if (options.collect_trace) {
      result.trace.push_back({round, pending, n - live});
    }

    if (live == 0) break;
    if (!send_next) round_limit();
    pending = sent_next;
    target = next;

    if (!marking) {
      // Every live node ran and runs again next round.
      if (halting != 0) {
        std::erase_if(list, [&](std::uint32_t v) { return halted[v] != 0; });
      }
      if (sleepers != 0) {
        // The first hint past next round: from next round on, every
        // round marks.  Next round still runs every live node (early for
        // the sleepers, which a hint allows), so each files a fresh hint,
        // and any of them may have sent into `nxt`.
        ws.start_sparse(n, wake_words);
        due = ws.due.data();
        wake = ws.bits.data();
        sent_cur = wake + wake_words;
        sent_nxt = sent_cur + wake_words;
        calendar.emplace(sent_nxt + wake_words, wake_words, ws.calendar, due,
                         halted.data());
        for (const std::uint32_t v : list) mark(sent_nxt, v);
        marking = true;
      }
      std::swap(cur, nxt);
      std::swap(sent_cur, sent_nxt);
      continue;
    }

    // Next round runs the nodes whose hint is due or that have a message
    // waiting.  Node u's segment in `cur` holds its round-r messages when
    // u sent some last round; unless u runs next round (and rewrites it),
    // silence it now — that buffer receives round r + 2, and a sleeping
    // node must read as silence in both buffers.
    for (std::size_t s = 0; s < shards; ++s) {
      calendar->used(scratch[s].slots);
      for (const std::uint32_t v : scratch[s].rescheduled) {
        calendar->file(v, due[v], round);
      }
    }
    calendar->compact(live);
    calendar->take_due(next, wake);
    for (std::size_t w = 0; w < wake_words; ++w) {
      for_each_bit(sent_cur[w] & ~wake[w], w,
                   [&](std::uint32_t v) { silence_in(cur, v); });
      sent_cur[w] = 0;
    }
    collect_woken();

    if (list.empty()) {
      // Nothing to do next round: its messages all went to halted nodes,
      // whose slots no live node reads, and every slot a live node reads
      // is silent in both buffers.  Skip to the earliest hint without a
      // barrier; skipped rounds keep their trace entries.
      target = calendar->next_due(next);
      if (target == 0 || target > options.max_rounds) round_limit();
      if (options.collect_trace) {
        for (Round r = next; r < target; ++r) {
          result.trace.push_back({r, r == next ? pending : 0, n - live});
        }
      }
      pending = 0;
      calendar->take_due(target, wake);
      collect_woken();
    }
    std::swap(cur, nxt);
    std::swap(sent_cur, sent_nxt);
  }

  g_round_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - started)
              .count()),
      std::memory_order_relaxed);
  g_rounds.fetch_add(round, std::memory_order_relaxed);
  g_dispatched.fetch_add(dispatched, std::memory_order_relaxed);

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
