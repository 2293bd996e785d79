#include "runtime/async.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "runtime/plan_cache.hpp"
#include "runtime/workspace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace eds::runtime {

namespace {

constexpr Round kNoHalt = std::numeric_limits<Round>::max();

double draw01(std::uint64_t seed, std::uint64_t x, std::uint64_t y,
              std::uint64_t salt) {
  return static_cast<double>(draw_bits(seed, x, y, salt) >> 11) * 0x1.0p-53;
}

/// One entry of the delay matrix: the latency of the directed link behind
/// flat port q.
std::uint64_t sample_delay(const DelayModel& model, std::uint64_t seed,
                           std::uint64_t q) {
  switch (model.kind) {
    case DelayKind::kFixed:
      return model.a;
    case DelayKind::kUniform:
      return model.a +
             draw_bits(seed, q, 0, /*salt=*/3) % (model.b - model.a + 1);
    case DelayKind::kGeometric: {
      if (model.a <= 1) return 1;
      const double u = draw01(seed, q, 0, /*salt=*/4);
      const double p = 1.0 / static_cast<double>(model.a);
      const double tail = std::floor(std::log1p(-u) / std::log1p(-p));
      const auto ticks = 1 + static_cast<std::uint64_t>(tail);
      return std::clamp<std::uint64_t>(ticks, 1, model.b);
    }
  }
  return 1;  // unreachable
}

enum class EventKind : std::uint8_t {
  kPayload,       ///< an algorithm message arriving at a flat port
  kAckedPayload,  ///< a synchronized one whose ack the receiver schedules
  kAck,           ///< a transport acknowledgement returning to the sender
  kHaltNotice,    ///< "my side of this link halted after round `round`"
  kCrash,         ///< scheduled node crash from the FaultPlan
  kDeadline,      ///< round timeout (free-running mode only)
};

/// One timeline entry, 40 bytes.  Its time is the tick of the bucket that
/// holds it and its seq is its position in that bucket (see Timeline), so
/// neither is stored.  `key` packs the rest of the pop order, (priority,
/// node, port), into one integer: rank · span + offset(node) + node + port,
/// where span = total_ports + n and port is the local port, 0 for a
/// node-level event.  Within one rank that is a strictly increasing map of
/// (node, port) with node-level events first; the rank orders nodes by
/// their PCT priority, ties by node, so comparing keys compares (priority,
/// node, port) exactly.  Without a schedule every rank is 0.  With
/// key_base[v] = rank · span + v + 1, a port event's key is key_base[node]
/// plus its flat port, a node-level event's key_base[node] + offset(node)
/// - 1.
struct Event {
  std::uint64_t key = 0;
  Message payload = kSilence;
  port::NodeId node = 0;   ///< the node the event happens at
  std::uint32_t flat = 0;  ///< its flat port; unused by node-level events
  Round round = 0;
  EventKind kind = EventKind::kPayload;
};

/// The largest ring: 16384 buckets (384 KiB of bucket headers).  Ticks
/// further out than the ring reaches wait in the overflow heap.
constexpr std::uint64_t kMaxRingWidth = std::uint64_t{1} << 14;

/// Buckets up to this size are insertion-sorted; larger ones radix-sorted.
/// Wide delays on large graphs spread a round over thousands of ticks of a
/// few events each, where zeroing the radix histograms would dominate:
/// radix-only sorting doubled the run time of `edsim sweep regular --min
/// 4096 --max 4096 --d 4 --algorithm bounded-degree --model async --delay
/// uniform:1:5000` (gcc 12 Release, 4-CPU x86-64 container), while
/// dense-tick workloads showed no difference.
constexpr std::size_t kInsertionSortMax = 24;

/// The event queue: a calendar queue (Brown, CACM 1988) specialised to an
/// integer clock, with one bucket per tick.  The ring covers the window
/// [now, now + width); an event further out waits in a min-heap on (time,
/// push order) and moves into its bucket when the window reaches its tick.
///
/// Exact order.  Every push made while tick t drains lands at t + 1 or
/// later (each delay, penalty and timeout is at least one tick, and the
/// kMaxTicks cap rules out wrap-around), so a tick's event set is complete
/// when its drain begins.  A bucket fills in push order: overflow events
/// for a tick migrate, in push order, before any push can reach that tick
/// directly, because the window only reaches a tick after the migration.
/// Position in the bucket is therefore the global seq tie-break, and a
/// stable sort of the bucket on `key` yields (time, prio, node, port, seq).
class Timeline {
 public:
  /// Empties the timeline (including what a run that threw left behind)
  /// and sizes the ring to `width` buckets, a power of two no larger than
  /// kMaxRingWidth; `key_bits` bounds every event key.
  void reset(std::uint64_t width, unsigned key_bits) {
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
      for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        ring_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))]
            .clear();
      }
      occupied_[w] = 0;
    }
    if (ring_.size() < width) {
      ring_.resize(width);
      occupied_.resize((width + 63) / 64, 0);
    }
    mask_ = width - 1;
    words_ = (width + 63) / 64;
    passes_ = std::max(1u, (key_bits + 7) / 8);
    digit_bits_ = (key_bits + passes_ - 1) / passes_;
    far_.clear();
    far_seq_ = 0;
    now_ = 0;
    floor_ = 0;
    live_buckets_ = 0;
    draining_ = false;
  }

  /// Schedules `e` at `time`, which must not precede the tick being
  /// drained's successor (nor 0 before the first drain).
  void push(std::uint64_t time, const Event& e) {
    EDS_ENSURE(time >= floor_,
               "async timeline: event scheduled into a drained tick");
    if (time - now_ <= mask_) {
      place(time, e);
    } else {
      far_.push_back({time, far_seq_++, e});
      std::push_heap(far_.begin(), far_.end(), Later{});
    }
  }

  /// Moves to the earliest tick holding events and returns its bucket,
  /// sorted into exact pop order; nullptr once the timeline is empty.  The
  /// bucket stays valid, and is never pushed to, until the next call.
  std::vector<Event>* next_tick(std::uint64_t& tick) {
    if (draining_) release(now_);
    if (live_buckets_ == 0) {
      if (far_.empty()) return nullptr;
      now_ = far_.front().time;
    } else {
      now_ += distance_to_next();
    }
    while (!far_.empty() && far_.front().time - now_ <= mask_) {
      std::pop_heap(far_.begin(), far_.end(), Later{});
      place(far_.back().time, far_.back().event);
      far_.pop_back();
    }
    floor_ = now_ + 1;
    tick = now_;
    std::vector<Event>& bucket = ring_[now_ & mask_];
    sort_by_key(bucket);
    draining_ = true;
    return &bucket;
  }

 private:
  struct Far {
    std::uint64_t time;
    std::uint64_t seq;
    Event event;
  };
  /// Min-heap order on (time, seq) for the std heap algorithms.
  struct Later {
    bool operator()(const Far& x, const Far& y) const noexcept {
      return x.time != y.time ? x.time > y.time : x.seq > y.seq;
    }
  };

  void place(std::uint64_t time, const Event& e) {
    const std::size_t slot = time & mask_;
    std::vector<Event>& bucket = ring_[slot];
    if (bucket.empty()) {
      occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
      ++live_buckets_;
    }
    bucket.push_back(e);
  }

  /// Empties the bucket of `tick`, just drained.
  void release(std::uint64_t tick) {
    const std::size_t slot = tick & mask_;
    ring_[slot].clear();
    occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    --live_buckets_;
    draining_ = false;
  }

  /// Ticks from now_ to the first occupied bucket (some bucket is).
  [[nodiscard]] std::uint64_t distance_to_next() const noexcept {
    const std::size_t start = now_ & mask_;
    std::size_t w = start / 64;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
      w = (w + 1) & (words_ - 1);
      bits = occupied_[w];
    }
    const std::size_t slot = w * 64 + static_cast<std::size_t>(
                                          std::countr_zero(bits));
    return (slot - start) & mask_;
  }

  /// Stable sort of one bucket by key: insertion sort when small, else an
  /// LSD radix sort over `passes_` digits, skipping any digit every event
  /// shares.
  void sort_by_key(std::vector<Event>& bucket) {
    const std::size_t m = bucket.size();
    if (m <= kInsertionSortMax) {
      for (std::size_t i = 1; i < m; ++i) {
        if (bucket[i - 1].key <= bucket[i].key) continue;
        const Event e = bucket[i];
        std::size_t j = i;
        for (; j > 0 && bucket[j - 1].key > e.key; --j) {
          bucket[j] = bucket[j - 1];
        }
        bucket[j] = e;
      }
      return;
    }
    const std::size_t radix = std::size_t{1} << digit_bits_;
    const std::uint64_t digit_mask = radix - 1;
    counts_.assign(passes_ * radix, 0);
    for (const Event& e : bucket) {
      std::uint64_t key = e.key;
      for (unsigned p = 0; p < passes_; ++p, key >>= digit_bits_) {
        ++counts_[p * radix + (key & digit_mask)];
      }
    }
    scratch_.resize(m);
    for (unsigned p = 0; p < passes_; ++p) {
      std::uint32_t* count = counts_.data() + p * radix;
      const unsigned shift = p * digit_bits_;
      if (count[(bucket[0].key >> shift) & digit_mask] == m) continue;
      std::uint32_t sum = 0;
      for (std::size_t d = 0; d < radix; ++d) {
        sum += std::exchange(count[d], sum);
      }
      for (const Event& e : bucket) {
        scratch_[count[(e.key >> shift) & digit_mask]++] = e;
      }
      bucket.swap(scratch_);
    }
  }

  std::vector<std::vector<Event>> ring_;
  std::vector<std::uint64_t> occupied_;  ///< one bit per non-empty bucket
  std::vector<Far> far_;                 ///< the overflow heap
  std::vector<Event> scratch_;           ///< radix-sort ping-pong buffer
  std::vector<std::uint32_t> counts_;    ///< radix histograms
  std::uint64_t mask_ = 0;
  std::size_t words_ = 0;
  unsigned passes_ = 1;
  unsigned digit_bits_ = 8;
  std::uint64_t far_seq_ = 0;
  std::uint64_t now_ = 0;
  std::uint64_t floor_ = 0;  ///< earliest tick a push may target
  std::size_t live_buckets_ = 0;
  bool draining_ = false;  ///< now_'s bucket was handed out, not yet emptied
};

struct NodeState {
  Round round = 0;             ///< round whose inputs are being assembled
  Round halt_round = kNoHalt;  ///< kNoHalt while running; 0 = halted at start
  bool crashed = false;
  Port acks_got = 0;           ///< acks received for this round's sends

  [[nodiscard]] bool running() const noexcept {
    return halt_round == kNoHalt && !crashed;
  }
};

/// Rounds of input slots.  A payload that reaches a running node is never
/// for a round beyond the one after the node's current round, so two
/// suffice.  Under the α-synchronizer a sender enters round r + 1 only after
/// the receiver's round-r message reached it.  Free-running, a sender can
/// only outrun a live partner by timing out, and both wait the same
/// round_timeout: if v entered round j - 1 no later than u entered round j,
/// then u enters round j + 1 either after v's round-j message arrived, or
/// a full timeout after entering round j — by which time v's own deadline
/// has moved v into round j.  Induction from round 1, entered by everyone
/// at time 0, keeps every receiver at most one round behind.
constexpr std::size_t kSlotRounds = 2;

/// Everything one run allocates, reused run after run on the same thread:
/// sizes are reset per run, capacity is kept.
///
/// Round slots.  Inputs wait in flat `kSlotRounds × total_ports` arrays:
/// round r's message for flat port q sits at (r mod 2) · total_ports + q, so
/// a node's inputs for a round are contiguous and receive() reads them in
/// place.
struct AsyncWorkspace {
  Timeline timeline;
  std::vector<NodeState> nodes;
  std::vector<Message> slots;
  std::vector<char> have;
  std::vector<Round> partner_halt;  ///< per flat port: partner's halt round
  std::vector<std::uint64_t> delays;
  std::vector<std::uint32_t> last_ack;  ///< per node: flat port of its last ack
  std::vector<std::uint64_t> key_base;  ///< per node: rank · span + v + 1
  std::vector<char> demoted;
  std::vector<std::pair<std::uint64_t, port::NodeId>> by_priority;
  std::vector<Message> stage;           ///< send-stage scratch
  std::vector<std::uint64_t> round_messages;

  void end_run(bool /*pooled*/) noexcept {}  // nothing to account
};

}  // namespace

AsyncPolicy::AsyncPolicy(AsyncOptions options) : options_(std::move(options)) {}

AsyncResult AsyncPolicy::run(const port::PortGraph& g,
                             std::vector<std::unique_ptr<NodeProgram>>& programs,
                             const RunOptions& options,
                             const std::string& name) const {
  return run(g, borrow_programs(programs), options, name);
}

AsyncResult AsyncPolicy::run(const port::PortGraph& g,
                             std::span<NodeProgram* const> programs,
                             const RunOptions& options,
                             const std::string& name) const {
  const std::size_t n = g.num_nodes();
  if (options.max_rounds == 0) {
    throw InvalidArgument(
        "run_asynchronous: RunOptions::max_rounds must be positive");
  }
  if (programs.size() != n) {
    throw InvalidArgument("run_asynchronous: one program per node required");
  }
  const FaultPlan& faults = options_.faults;
  // Written as "not inside", so NaN is rejected too.
  if (!(faults.loss >= 0.0 && faults.loss <= 1.0) ||
      !(faults.duplicate >= 0.0 && faults.duplicate <= 1.0)) {
    throw InvalidArgument(
        "run_asynchronous: fault probabilities must lie in [0, 1]");
  }
  if (options_.synchronizer && !faults.empty()) {
    throw InvalidArgument(
        "run_asynchronous: the α-synchronizer requires a fault-free "
        "FaultPlan — loss or crashes would stall its per-round "
        "acknowledgements; disable the synchronizer to inject faults");
  }
  if (options_.delay.a == 0 || options_.delay.b < options_.delay.a) {
    throw InvalidArgument("run_asynchronous: malformed DelayModel bounds");
  }
  for (const auto& crash : faults.crashes) {
    if (crash.node >= n) {
      throw InvalidArgument("run_asynchronous: crash of out-of-range node");
    }
  }
  const Schedule& sched = options_.schedule;
  if (!sched.change_points.empty() && sched.prio_seed == 0) {
    throw InvalidArgument(
        "run_asynchronous: Schedule change points require a non-zero "
        "prio_seed (there is no priority lane to demote from)");
  }
  for (const DelayOverride& o : sched.delay_overrides) {
    if (o.port >= g.num_ports()) {
      throw InvalidArgument(
          "run_asynchronous: Schedule delay override names an out-of-range "
          "flat port");
    }
    if (o.ticks == 0) {
      throw InvalidArgument(
          "run_asynchronous: Schedule delay override of zero ticks (a "
          "zero-latency link would collapse back to the synchronous model)");
    }
  }
  check_tick_bounds(options_);

  const bool synchronized = options_.synchronizer;
  const std::uint64_t seed = options_.seed;
  const std::uint64_t timeout = effective_round_timeout(options_);
  const std::size_t total_ports = g.num_ports();
  // The graph's tables, read through unchecked pointers by every event.
  const std::uint32_t* const offsets = g.offsets().data();
  const std::uint32_t* const partner_flat = g.partner_flat().data();
  const std::uint32_t* const partner_node = g.partner_node().data();
  const auto degree = [offsets](std::size_t v) -> Port {
    return offsets[v + 1] - offsets[v];
  };

  const WorkspaceLease<AsyncWorkspace> lease;
  AsyncWorkspace& ws = *lease;

  // The delay matrix: one latency per directed link, fixed for the run.
  // Schedule overrides are applied after sampling, so an override on one
  // link never shifts another link's draw.
  std::vector<std::uint64_t>& delays = ws.delays;
  delays.resize(total_ports);
  for (std::size_t q = 0; q < total_ports; ++q) {
    delays[q] = sample_delay(options_.delay, seed, q);
  }
  for (const DelayOverride& o : sched.delay_overrides) {
    delays[o.port] = o.ticks;
  }

  // Under the α-synchronizer only the ack that pops last in a node's
  // round can complete its wait; every other one just raises acks_got.
  // The ack of flat port q arrives at the send tick + the sender's send
  // penalty + delays[q] + delays[partner_flat[q]], all fixed once the
  // payload leaves, and same-tick acks of one node pop in port order.  So
  // the last is on the port with the longest round trip, the highest such
  // port on a tie: last_ack[v], the same port every round.  Only that
  // payload goes out as a kAckedPayload, whose receiver schedules its ack.
  // The payload pop counts every other ack at once, at least a tick
  // before the last one pops, and until then the sender reads acks_got <
  // degree either way, so every pop that changes state keeps its (time,
  // key, seq) place and every counter ends the same.  While a change point
  // is still ahead at send time, every payload is a kAckedPayload: the pop
  // count places change points, and a demotion re-keys later acks.
  std::vector<std::uint32_t>& last_ack = ws.last_ack;
  if (synchronized) {
    last_ack.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      std::uint64_t longest = 0;
      for (std::uint32_t q = offsets[v]; q < offsets[v + 1]; ++q) {
        const std::uint64_t trip = delays[q] + delays[partner_flat[q]];
        if (trip >= longest) {
          longest = trip;
          last_ack[v] = q;
        }
      }
    }
  }

  // PCT priority lane: initial priorities hash off prio_seed; crossing
  // change point k demotes the node whose pop crossed it below every
  // initial priority (the k-th demotion below the (k-1)-th).  Priorities
  // are stamped on events at push time, so a demotion affects what the
  // node schedules afterwards, never events already in flight — the
  // deterministic analogue of PCT's "change the running thread's priority
  // now".  Event keys carry a node's priority as its rank: initial ranks
  // order nodes by (priority, node), demotion k takes rank n + k.
  const bool prioritized = sched.prio_seed != 0;
  std::vector<std::uint64_t> change_points = sched.change_points;
  std::sort(change_points.begin(), change_points.end());
  std::size_t next_change = 0;
  const std::uint64_t span = std::max<std::uint64_t>(total_ports + n, 1);
  const std::uint64_t ranks = prioritized ? n + change_points.size() : 1;
  EDS_ENSURE(ranks <= std::numeric_limits<std::uint64_t>::max() / span,
             "run_asynchronous: event keys overflow 64 bits");
  std::vector<std::uint64_t>& key_base = ws.key_base;
  key_base.resize(n);
  for (std::size_t v = 0; v < n; ++v) key_base[v] = v + 1;
  std::vector<char>& demoted = ws.demoted;
  demoted.assign(n, 0);
  if (prioritized) {
    auto& order = ws.by_priority;
    order.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      order[v] = {1 + (draw_bits(sched.prio_seed, v, 0, /*salt=*/5) >> 32),
                  static_cast<port::NodeId>(v)};
    }
    std::sort(order.begin(), order.end());
    for (std::size_t rank = 0; rank < n; ++rank) {
      key_base[order[rank].second] += rank * span;
    }
  }

  // Ring width: the furthest any push reaches past the current tick.
  const std::uint64_t max_delay =
      total_ports == 0 ? 1 : *std::max_element(delays.begin(), delays.end());
  const std::uint64_t penalty =
      prioritized && !change_points.empty() ? sched.demote_ticks : 0;
  std::uint64_t reach = max_delay + penalty;  // payloads, halt notices
  if (faults.duplicate > 0.0) reach += max_delay;  // the duplicate's copy
  if (!synchronized) reach = std::max(reach, timeout);  // deadlines
  const std::uint64_t width = std::min(std::bit_ceil(reach + 1), kMaxRingWidth);
  Timeline& timeline = ws.timeline;
  timeline.reset(width,
                 static_cast<unsigned>(std::bit_width(ranks * span - 1)));

  AsyncResult out;
  RunResult& result = out.run;
  result.messages_collected = options.collect_messages;
  RunStats& stats = result.stats;
  out.crashed.assign(n, 0);

  std::vector<NodeState>& st = ws.nodes;
  st.assign(n, NodeState{});
  ws.slots.assign(kSlotRounds * total_ports, kSilence);
  ws.have.assign(kSlotRounds * total_ports, 0);
  std::vector<Round>& partner_halt = ws.partner_halt;
  partner_halt.assign(total_ports, kNoHalt);
  std::vector<Message>& stage = ws.stage;
  std::vector<std::uint64_t>& round_messages = ws.round_messages;
  round_messages.assign(1, 0);  // [round] -> non-silence sends
  Round max_fired = 0;

  // Schedules an event at the partner of flat port q: the other end of
  // the link q sends on.
  const auto push_to_partner = [&](std::uint64_t time, EventKind kind,
                                   std::size_t q, Round round,
                                   const Message& payload = kSilence) {
    const port::NodeId node = partner_node[q];
    const std::size_t flat = partner_flat[q];
    timeline.push(time, {key_base[node] + flat, payload, node,
                         static_cast<std::uint32_t>(flat), round, kind});
  };
  const auto push_at_node = [&](std::uint64_t time, EventKind kind,
                                port::NodeId node, Round round) {
    timeline.push(time, {key_base[node] + offsets[node] - 1, kSilence,
                         node, 0, round, kind});
  };

  /// Extra latency a sender's transmissions suffer: demote_ticks once the
  /// node has been demoted at a change point, zero otherwise.
  const auto send_penalty = [&](std::size_t v) -> std::uint64_t {
    return demoted[v] ? sched.demote_ticks : 0;
  };

  /// First slot of round r's inputs for the port segment starting at `off`.
  const auto slot = [&](Round r, std::size_t off) {
    return (r % kSlotRounds) * total_ports + off;
  };

  const auto schedule_halt_notices = [&](std::size_t v, Round h,
                                         std::uint64_t now) {
    const Port deg = degree(v);
    const std::size_t off = offsets[v];
    for (Port i = 1; i <= deg; ++i) {
      const std::size_t q = off + i - 1;
      push_to_partner(now + delays[q] + send_penalty(v),
                      EventKind::kHaltNotice, q, h);
    }
  };

  const auto send_round = [&](std::size_t v, Round r, std::uint64_t now) {
    NodeState& s = st[v];
    const Port deg = degree(v);
    const std::size_t off = offsets[v];
    stats.ports_served += deg;
    stage.assign(deg, kSilence);
    programs[v]->send(r, std::span<Message>(stage.data(), deg));
    if (round_messages.size() <= r) round_messages.resize(r + 1, 0);
    const bool every_ack = next_change < change_points.size();
    for (Port i = 1; i <= deg; ++i) {
      const std::size_t q = off + i - 1;
      const Message& m = stage[i - 1];
      if (!m.is_silence()) {
        ++stats.messages_sent;
        ++round_messages[r];
        // Logged at transmission (duplicates excluded), not acceptance: the
        // synchronous engine records every non-silence send of a running
        // node — including sends a halted receiver will ignore — so this is
        // the only recording point that keeps the transcript bit-identical.
        if (options.collect_messages) {
          result.message_log.push_back(
              {r, {static_cast<port::NodeId>(v), i}, g.partner_ref(q), m});
        }
      }
      if (faults.loss > 0.0 && draw01(seed, q, r, /*salt=*/1) < faults.loss) {
        out.fault_log.push_back({now, FaultKind::kLoss,
                                 static_cast<port::NodeId>(v), i, r});
        ++out.async.lost;
        continue;
      }
      const std::uint64_t arrival = now + delays[q] + send_penalty(v);
      push_to_partner(arrival,
                      synchronized && (every_ack || q == last_ack[v])
                          ? EventKind::kAckedPayload
                          : EventKind::kPayload,
                      q, r, m);
      if (faults.duplicate > 0.0 &&
          draw01(seed, q, r, /*salt=*/2) < faults.duplicate) {
        push_to_partner(arrival + delays[q], EventKind::kPayload, q, r, m);
        out.fault_log.push_back({now, FaultKind::kDuplicate,
                                 static_cast<port::NodeId>(v), i, r});
        ++out.async.duplicated;
      }
    }
    if (synchronized) {
      s.acks_got = 0;
    } else {
      push_at_node(now + timeout, EventKind::kDeadline,
                   static_cast<port::NodeId>(v), r);
    }
  };

  // Fires receive(round) on the node's slots for that round (missing
  // inputs read as silence), clears them for reuse, then either halts the
  // node or advances it into the next round and sends.  Throws past
  // max_rounds, mirroring the synchronous engine.
  const auto fire = [&](std::size_t v, std::uint64_t now) {
    NodeState& s = st[v];
    const Port deg = degree(v);
    const Round r = s.round;
    const std::size_t first = slot(r, offsets[v]);
    const Message* inputs = ws.slots.data() + first;
    programs[v]->receive(r, std::span<const Message>(inputs, deg));
    std::fill_n(ws.slots.begin() + first, deg, kSilence);
    std::fill_n(ws.have.begin() + first, deg, 0);
    max_fired = std::max(max_fired, r);
    if (programs[v]->halted()) {
      s.halt_round = r;
      schedule_halt_notices(v, r, now);
      return;
    }
    if (r + 1 > options.max_rounds) {
      std::size_t still_running = 0;
      for (const NodeState& other : st) still_running += other.running();
      std::ostringstream os;
      os << "run_asynchronous: algorithm '" << name
         << "' did not halt within " << options.max_rounds << " rounds ("
         << still_running << " of " << n << " nodes still running)";
      throw ExecutionError(os.str());
    }
    s.round = r + 1;
    send_round(v, r + 1, now);
  };

  // A node's round is ready when every port either delivered this round's
  // message or is known to have halted before it (then it reads silence,
  // exactly as in the synchronous engine).
  const auto inputs_ready = [&](std::size_t v) {
    const Round r = st[v].round;
    const std::size_t off = offsets[v];
    const char* got = ws.have.data() + slot(r, off);
    const Round* halts = partner_halt.data() + off;
    const Port deg = degree(v);
    for (Port i = 0; i < deg; ++i) {
      if (!got[i] && halts[i] >= r) return false;
    }
    return true;
  };

  const auto try_fire = [&](std::size_t v, std::uint64_t now) {
    NodeState& s = st[v];
    const Port deg = degree(v);
    while (s.running()) {
      if (synchronized && s.acks_got < deg) break;
      if (!inputs_ready(v)) break;
      fire(v, now);
    }
  };

  // --- Initialisation: start every program, let round 1 leave the gates.
  for (std::size_t v = 0; v < n; ++v) {
    NodeState& s = st[v];
    programs[v]->start(degree(v));
    if (programs[v]->halted()) {
      s.halt_round = 0;
      schedule_halt_notices(v, 0, 0);
      continue;
    }
    s.round = 1;
    send_round(v, 1, 0);
    try_fire(v, 0);  // degree-0 nodes have no inputs to wait for
  }
  for (const CrashEvent& crash : faults.crashes) {
    push_at_node(crash.time, EventKind::kCrash, crash.node, 0);
  }

  // --- The event loop: strictly ordered, single-threaded, deterministic.
  std::uint64_t now = 0;
  while (const std::vector<Event>* tick = timeline.next_tick(now)) {
    out.async.virtual_time = now;
    for (const Event& e : *tick) {
      ++out.async.events;
      // PCT change point: demote the node whose pop crossed it.  The pop
      // count is itself deterministic, so which node a change point hits
      // is a pure function of (options, schedule) — the replay contract.
      if (next_change < change_points.size() &&
          out.async.events >= change_points[next_change]) {
        key_base[e.node] = (n + next_change) * span + e.node + 1;
        demoted[e.node] = 1;
        ++next_change;
      }
      NodeState& s = st[e.node];
      switch (e.kind) {
        case EventKind::kPayload:
        case EventKind::kAckedPayload: {
          if (s.crashed) {
            ++out.async.stale;
            break;
          }
          const std::size_t q = e.flat;
          if (synchronized) {
            // Transport-level acknowledgement: receipt is confirmed whether
            // or not the algorithm layer still listens, over the reverse
            // direction of the same link.  An ack that cannot complete its
            // sender's wait is counted here instead of popping later.
            if (e.kind == EventKind::kAckedPayload) {
              push_to_partner(now + delays[q], EventKind::kAck, q, e.round);
            } else {
              ++out.async.events;
              ++out.async.acks;
              ++st[partner_node[q]].acks_got;
            }
          }
          if (s.halt_round != kNoHalt) break;  // halted: payload ignored
          if (e.round < s.round) {
            ++out.async.stale;  // late after a timeout, or a duplicate
            break;
          }
          EDS_ENSURE(e.round - s.round < kSlotRounds,
                     "run_asynchronous: a payload outran its receiver by "
                     "two rounds");
          const std::size_t at = slot(e.round, q);
          if (ws.have[at]) {
            ++out.async.stale;  // duplicated delivery, suppressed
            break;
          }
          ws.have[at] = 1;
          ws.slots[at] = e.payload;
          ++out.async.delivered;
          if (e.round == s.round) try_fire(e.node, now);
          break;
        }
        case EventKind::kAck: {
          if (s.crashed) break;
          ++out.async.acks;
          ++s.acks_got;
          if (s.halt_round == kNoHalt) try_fire(e.node, now);
          break;
        }
        case EventKind::kHaltNotice: {
          if (s.crashed) break;
          partner_halt[e.flat] = e.round;
          if (s.halt_round == kNoHalt) try_fire(e.node, now);
          break;
        }
        case EventKind::kCrash: {
          if (s.crashed || s.halt_round != kNoHalt) break;  // no-op once done
          s.crashed = true;
          out.crashed[e.node] = 1;
          out.fault_log.push_back({now, FaultKind::kCrash, e.node, 0, 0});
          break;
        }
        case EventKind::kDeadline: {
          if (!s.running() || s.round != e.round) break;  // superseded
          ++out.async.timeouts;
          fire(e.node, now);  // missing inputs become silence
          try_fire(e.node, now);
          break;
        }
      }
    }
  }

  for (std::size_t v = 0; v < n; ++v) {
    if (st[v].running()) {
      // Unreachable by construction (the synchronizer always completes its
      // waits, free-running nodes always hold a deadline); kept as a
      // defensive check so a future regression fails loudly.
      throw ExecutionError("run_asynchronous: algorithm '" + name +
                           "' stalled with the timeline empty");
    }
  }

  stats.rounds = max_fired;
  if (options.collect_trace) {
    for (Round r = 1; r <= max_fired; ++r) {
      std::size_t halted_cum = 0;
      for (const NodeState& s : st) halted_cum += s.halt_round <= r;
      result.trace.push_back(
          {r, r < round_messages.size() ? round_messages[r] : 0, halted_cum});
    }
  }

  result.selected.assign(total_ports, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (st[v].halt_round == kNoHalt) continue;  // crashed: empty output
    OutputSink sink({result.selected.data() + offsets[v], degree(v)},
                    "run_asynchronous");
    programs[v]->output(sink);
  }
  return out;
}

AsyncResult run_asynchronous(const port::PortGraph& g,
                             const ProgramFactory& factory,
                             const RunOptions& options,
                             const AsyncOptions& async) {
  ProgramArena arena(g.num_nodes());
  const auto programs =
      create_programs(factory, g.num_nodes(), arena, "run_asynchronous");
  if (PlanCache* cache = options.exec.plan_cache) (void)cache->get(g);
  const AsyncPolicy policy(async);
  return policy.run(g, programs, options, factory.name());
}

}  // namespace eds::runtime
