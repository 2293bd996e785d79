// The synchronous round stage: run_plan's round loop as one template body
// over a program-access policy.
//
// run_rounds is instantiated once over NodeProgram* (VirtualAccess: both
// run_plan overloads, so user programs, test fixtures, the ID-model
// baselines, run_synchronous_programs and edsbench's replay) and once per
// built-in program type P over one contiguous block of P (BlockAccess,
// through run_block: the built-in factories' ProgramFactory::run).  P is
// final, so start, send, receive, halted, wake_hint and output are direct,
// inlinable calls there.  Only the loops over nodes are instantiated —
// start, the initial exchange, the round stage and output extraction; a
// shard runs its slice of the dispatch list as one flat loop over locals.
// Everything between the loops (sharding, merges, the sparse-round
// bookkeeping, the round cap) and the rare per-node steps (message logging,
// wake marks, hint filing, silencing) is the non-template Stage, compiled
// once in engine.cpp.
//
// Private to the runtime and the algorithm factories; not part of the
// library's API.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/workspace.hpp"
#include "util/error.hpp"

namespace eds::runtime {
namespace detail {

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
           const char* halted);

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
  void file(std::uint32_t v, Round h, Round r);

  /// Drops the far heap's dead entries once they outnumber `live` twice.
  void compact(std::size_t live);

  /// Marks in `wake` every node whose hint is round r (none is earlier).
  void take_due(Round r, std::uint64_t* wake);

  /// The earliest round after `after` with a live hint, 0 when none is
  /// left (none is at or before `after`).
  [[nodiscard]] Round next_due(Round after);

 private:
  [[nodiscard]] bool entry_live(std::uint64_t k) const;
  void pop();
  // Sweeps the ring slot of round r, which holds no live hint before
  // `from`: drops every bit that is not a live hint in [from, end of the
  // slot's rounds), passes each live one to `hit` with its round and keeps
  // it when `hit` returns true.  Releases the slot once it is empty.
  template <class Hit>
  void sweep(Round r, Round from, Hit&& hit);

  std::uint64_t* ring_;
  std::size_t words_;
  std::vector<std::uint64_t>& far_;
  const Round* due_;
  const char* halted_;
  std::uint64_t used_ = 0;  // ring slots that may hold bits
};

// The process-wide counters behind engine_alloc_stats and
// engine_stage_stats, defined once in engine.cpp, so every instantiation
// of the round loop adds to the same ones.
extern std::atomic<std::uint64_t> g_ws_reuses;
extern std::atomic<std::uint64_t> g_ws_growths;
extern std::atomic<std::uint64_t> g_ws_bytes;
extern std::atomic<std::uint64_t> g_round_ns;
extern std::atomic<std::uint64_t> g_rounds;
extern std::atomic<std::uint64_t> g_dispatched;

/// A pooled Message array that grows without initializing its slots.  The
/// engine reads no slot before the same run wrote or silenced it, so the
/// zeros a std::vector would write on growth are dead, and a buffer a run
/// never writes (port-one's second outbox) never becomes resident.
/// Message is an implicit-lifetime aggregate, so the raw storage holds a
/// Message in every slot once it is assigned.
class MessageBuffer {
 public:
  MessageBuffer() = default;
  ~MessageBuffer() { release(); }
  MessageBuffer(const MessageBuffer&) = delete;
  MessageBuffer& operator=(const MessageBuffer&) = delete;

  /// Makes room for `count` slots.  Growing drops every slot's contents.
  void fit(std::size_t count);

  [[nodiscard]] Message* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  void release() noexcept;

  Message* data_ = nullptr;
  std::size_t capacity_ = 0;
};

/// The pooled message transport: every buffer the round loop writes lives
/// here and is resized (capacity retained) at the start of each run instead
/// of being reallocated.  One workspace exists per thread, so sequential
/// runs and BatchRunner jobs (one job per pool lane) each reuse their
/// lane's arena run after run, whichever instantiation of the round loop
/// they run: WorkspaceLease<EngineWorkspace> is one thread_local per lane
/// because this type has external linkage.
struct EngineWorkspace {
  /// The double buffer: one round's messages indexed by *sender* flat port
  /// (node v's sends occupy the contiguous segment [offset(v), offset(v) +
  /// degree(v))).  One buffer holds round r's messages while round r + 1's
  /// sends land in the other; they swap after every round's single barrier.
  /// Senders write only their own segment (trivially single-writer);
  /// receivers gather through the involution, so delivery itself is free.
  MessageBuffer outbox[2];
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
  ~EngineWorkspace();

  [[nodiscard]] std::size_t footprint() const noexcept;

  /// Silences node segment [off, off + deg) in both buffers: its owner
  /// halted, so its partners must read silence from it for the rest of the
  /// run, whichever buffer they gather from.
  void silence(std::size_t off, Port deg) noexcept;

  /// Readies the lane for a run over `g` with `lanes` shards: sizes
  /// every buffer (growing capacity only when this lane has never seen a
  /// graph this large), clears the halt flags and empties the list.  The
  /// outboxes are NOT reset, they keep the previous run's bytes (or none,
  /// after growing): every segment a receiver reads is written this run by
  /// its owner before it is read, or silenced — at start for a node that
  /// halts in start(), later for one that halts or sleeps.
  void prepare(const port::PortGraph& g, unsigned lanes);

  /// Sizes the sparse-round state for a run over `n` nodes, with no hint
  /// filed and no wake, sender or ring bit set.
  void start_sparse(std::size_t n, std::size_t words);

  /// The end-of-run accounting (WorkspaceLease calls it on release).
  /// Counts the run as a growth when any pooled buffer's capacity grew in
  /// it — capacities never shrink, so that is a footprint above the last
  /// run's — and as a reuse otherwise; a lane's pooled workspace also
  /// moves the pooled-bytes gauge to its new footprint.
  void end_run(bool pooled) noexcept;
};

/// What a shard loop reads of the current stage, copied into its locals:
/// the graph's tables, the dispatch list and its shard boundaries, both
/// buffers, the halt flags and the round's flags.
struct RoundView {
  const std::uint32_t* offsets;
  const std::uint32_t* partner_flat;
  const std::uint32_t* list;
  const std::size_t* bounds;
  std::size_t shards;
  Message* cur;   // holds round r's messages
  Message* nxt;   // round r + 1's sends land here
  char* halted;
  Round round;
  bool send_next;  // round r + 1 is within the cap
  bool marking;    // a dispatch files its hint
  bool note;       // a sending node's traffic goes to Stage::note_traffic
};

/// One run_rounds call's state and the serial steps between its shard
/// loops, compiled once for every instantiation.
class Stage {
 public:
  /// Checks the options, leases this thread's workspace and sizes it for
  /// `g`, whose tables it reads until the run ends.
  Stage(const port::PortGraph& g, const RunOptions& options,
        const std::string& name, ThreadPool& pool);
  Stage(const Stage&) = delete;
  Stage& operator=(const Stage&) = delete;

  /// Node v, of degree `degree`, has started; `halted` is whether it
  /// halted in start().  Nodes start in ascending order.
  void started(std::uint32_t v, Port degree, bool halted) {
    if (degree > max_degree_) max_degree_ = degree;
    if (halted) {
      halt_at_start(v);
    } else {
      ws_.list.push_back(v);
    }
  }
  /// Ends start(): sizes the shards' receive buffers and starts the round
  /// loop's clock.
  void begin();
  /// Nodes that have not halted.
  [[nodiscard]] std::size_t live() const noexcept { return live_; }

  /// Shards the dispatch list for the next stage (port-count balanced, so
  /// a power-law list cannot pile most of the traffic onto one lane; any
  /// contiguous partition of the ascending list preserves the shard-order
  /// merge) and returns the view its shard loops read.
  [[nodiscard]] RoundView shard();

  /// Runs body(scratch, s) for every shard s of `view` on the pool; a
  /// shard that throws keeps its exception for the merge to rethrow.
  template <class Body>
  void run(const RoundView& view, const Body& body) {
    pool_.run(view.shards, [&](std::size_t s) {
      ShardScratch& sc = ws_.scratch[s];
      try {
        body(sc, s);
      } catch (...) {
        sc.error = std::current_exception();
      }
    });
  }

  /// After the initial exchange's barrier: rethrows the lowest shard's
  /// failure and merges the shards.
  void end_exchange(std::size_t shards);
  /// Moves to the next round with work; false once every node halted.
  [[nodiscard]] bool next_round();
  /// After a round stage's barrier: rethrows the lowest shard's failure,
  /// merges the shards, silences the nodes that halted, enforces the round
  /// cap and lists the nodes the next round dispatches.
  void end_round(std::size_t shards);
  /// Adds the run to the stage counters and returns its result, every
  /// field but the selection mask filled in.
  [[nodiscard]] RunResult finish();

  /// Logs the non-silence messages of v's round-r segment `seg` (with
  /// collect_messages) and, in a marking round, records v as a sender into
  /// `nxt` and marks every receiver's wake bit.
  void note_traffic(ShardScratch& sc, std::uint32_t v, Round r,
                    const Message* seg) const;
  /// Files the hint `hint` node v gave after its dispatch in marking round
  /// r: in due[v], and, when it is round r + 1, as v's own wake bit; a
  /// later one, when it moved, in the calendar: in the ring slot of its
  /// round when that is near, else (through `rescheduled`) in the far
  /// heap.
  void file_hint(ShardScratch& sc, std::uint32_t v, Round r,
                 Round hint) const;

 private:
  void halt_at_start(std::uint32_t v);
  void rethrow_first(std::size_t shards) const;
  // Folds one shard's counters and log into the result (called strictly in
  // shard order) and returns the non-silence messages it sent.
  std::uint64_t merge_shard(const ShardScratch& sc);
  // Rebuilds the list from the wake bits (ascending node order, halted
  // nodes dropped) and clears the bits.
  void collect_woken();
  void set_bit(std::uint64_t* bits, std::uint32_t v) const;
  [[noreturn]] void round_limit() const;
  [[nodiscard]] Port degree(std::uint32_t v) const noexcept {
    return offsets_[v + 1] - offsets_[v];
  }

  const port::PortGraph& graph_;
  // The graph's tables, read through unchecked pointers.
  const std::uint32_t* const offsets_;
  const std::uint32_t* const partner_flat_;
  const std::uint32_t* const partner_node_;
  const RunOptions& options_;
  const std::string& name_;
  ThreadPool& pool_;
  const WorkspaceLease<EngineWorkspace> lease_;
  EngineWorkspace& ws_;
  const std::size_t n_;
  const unsigned lanes_;
  const std::size_t wake_words_;
  Message* cur_ = nullptr;  // holds round r's messages
  Message* nxt_ = nullptr;  // round r + 1's sends land here
  RunResult result_;
  Port max_degree_ = 0;
  std::size_t live_ = 0;  // nodes that have not halted
  // `pending` is the number of non-silence messages in the buffer the next
  // receive sweep will read: the sum of the counts the senders took while
  // writing it (every other segment there is silence).
  std::uint64_t pending_ = 0;
  std::uint64_t dispatched_ = 0;
  Round round_ = 0;
  Round target_ = 1;  // the next round with work
  bool send_next_ = false;
  // Whether this round's senders mark their receivers' wake bits.  Until
  // the first node hints past next round, every live node runs every
  // round and no marks are needed; from then on every round marks.
  bool marking_ = false;
  // Whether the round stage runs on more than one shard, so node bits
  // need atomic writes.
  bool shared_ = false;
  // The sparse state, set up when the first node hints past next round,
  // so a run of a hint-less program, or one that ends in round 1, sets up
  // none.
  Round* due_ = nullptr;
  std::uint64_t* wake_ = nullptr;
  std::uint64_t* sent_cur_ = nullptr;  // who sent into `cur`
  std::uint64_t* sent_nxt_ = nullptr;  // who sent into `nxt`
  std::optional<Calendar> calendar_;
  std::chrono::steady_clock::time_point started_;
};

/// Program access for run_plan: every call goes through the vtable.
struct VirtualAccess {
  NodeProgram* const* programs;
  NodeProgram& operator[](std::size_t v) const noexcept {
    return *programs[v];
  }
};

/// Program access for one contiguous block of the final program type P:
/// every call is direct.
template <class P>
struct BlockAccess {
  static_assert(std::is_base_of_v<NodeProgram, P> && std::is_final_v<P>,
                "a typed run needs a final NodeProgram type");
  P* programs;
  P& operator[](std::size_t v) const noexcept { return programs[v]; }
};

/// Has `program` write its round-r messages into its own segment `seg` of
/// `degree` slots — reset to silence first (a program sends only by
/// writing this round, so stale messages never "ghost" into later ones),
/// then written in place: no staging copy, all stores sequential, single
/// writer per slot — and counts the segment's non-silence slots while it
/// is still in L1.
template <class Program>
std::uint64_t send_segment(Program& program, Round r, Message* seg,
                           Port degree) {
  std::fill_n(seg, degree, kSilence);
  program.send(r, std::span<Message>(seg, degree));
  std::uint64_t sent = 0;
  for (Port i = 0; i < degree; ++i) {
    sent += static_cast<std::uint64_t>(!seg[i].is_silence());
  }
  return sent;
}

/// The round loop: drives `programs` (one per node, constructed, not yet
/// started) over `g` until every node halts, then collects
/// every node's output.  See run_plan (runtime/engine.hpp) for the
/// contract and ARCHITECTURE.md for the determinism argument.
template <class Access>
RunResult run_rounds(const port::PortGraph& g, const Access programs,
                     const RunOptions& options, const std::string& name,
                     ThreadPool& pool) {
  Stage stage(g, options, name, pool);
  const std::size_t n = g.num_nodes();
  const std::uint32_t* const offsets = g.offsets().data();
  for (std::size_t v = 0; v < n; ++v) {
    const Port degree = offsets[v + 1] - offsets[v];
    auto& program = programs[v];
    program.start(degree);
    stage.started(static_cast<std::uint32_t>(v), degree, program.halted());
  }
  stage.begin();

  // Initial exchange: round 1's sends land in `cur` before the loop, so
  // every later round can fuse "receive round r" and "send round r + 1"
  // behind one barrier.
  if (stage.live() != 0) {
    const RoundView view = stage.shard();
    stage.run(view, [&](ShardScratch& sc, std::size_t s) {
      const std::uint32_t* const offset = view.offsets;
      const std::uint32_t* const list = view.list;
      Message* const cur = view.cur;
      const bool note = view.note;
      std::uint64_t messages = 0;
      for (std::size_t idx = view.bounds[s]; idx < view.bounds[s + 1];
           ++idx) {
        const std::uint32_t v = list[idx];
        const std::size_t off = offset[v];
        const Port degree = offset[v + 1] - offset[v];
        Message* const seg = cur + off;
        const std::uint64_t sent = send_segment(programs[v], 1, seg, degree);
        messages += sent;
        if (sent != 0 && note) stage.note_traffic(sc, v, 1, seg);
      }
      sc.messages = messages;
    });
    stage.end_exchange(view.shards);
  }

  // The fused round stage, ONE barrier a round: every listed node gathers
  // and receives its round-r input from `cur`, then — unless it halted, or
  // round r + 1 would exceed the cap — writes round r + 1 into its own
  // segment of `nxt` and, from round 2 on, gives its wake hint.  `cur` is
  // read-only for the whole stage and every `nxt` segment has exactly one
  // writer (its owner), so shards never contend; a directed self-loop
  // reads its own `cur` segment and writes `nxt`, never racing itself.
  // Halt flags and due[] are written only by the shard that owns the node;
  // node bits are set atomically when more than one shard runs.  The
  // gather is the delivery: in[i] = cur[partner(offset(v) + i)], applied on
  // the read side where loads pipeline, and sleeping or halted receivers
  // never pay for it.  ports_served is a model quantity,
  // Σ d(v) · halt_round(v), so it is added once, at the halt.
  while (stage.next_round()) {
    const RoundView view = stage.shard();
    stage.run(view, [&](ShardScratch& sc, std::size_t s) {
      const std::uint32_t* const offset = view.offsets;
      const std::uint32_t* const partner = view.partner_flat;
      const std::uint32_t* const list = view.list;
      const Message* const cur = view.cur;
      Message* const nxt = view.nxt;
      char* const halted = view.halted;
      const Round r = view.round;
      const bool send_next = view.send_next;
      const bool marking = view.marking;
      const bool note = view.note;
      Message* const in = sc.recv.data();
      std::uint64_t messages = 0;
      std::uint64_t ports_served = 0;
      std::uint64_t sleepers = 0;
      for (std::size_t idx = view.bounds[s]; idx < view.bounds[s + 1];
           ++idx) {
        const std::uint32_t v = list[idx];
        const std::size_t off = offset[v];
        const Port degree = offset[v + 1] - offset[v];
        for (Port i = 0; i < degree; ++i) in[i] = cur[partner[off + i]];
        auto& program = programs[v];
        program.receive(r, std::span<const Message>(in, degree));
        if (program.halted()) {
          halted[v] = 1;
          sc.newly_halted.push_back(v);
          ports_served += static_cast<std::uint64_t>(degree) * r;
          continue;
        }
        if (!send_next) continue;
        Message* const seg = nxt + off;
        const std::uint64_t sent = send_segment(program, r + 1, seg, degree);
        messages += sent;
        if (sent != 0 && note) stage.note_traffic(sc, v, r + 1, seg);
        if (r == 1) continue;
        const Round hint = std::max(program.wake_hint(r), r + 1);
        if (marking) {
          stage.file_hint(sc, v, r, hint);
        } else if (hint != r + 1) {
          ++sleepers;
        }
      }
      sc.messages = messages;
      sc.ports_served = ports_served;
      sc.sleepers = sleepers;
    });
    stage.end_round(view.shards);
  }

  RunResult result = stage.finish();
  result.selected.assign(g.num_ports(), 0);
  std::uint8_t* const selected = result.selected.data();
  for (std::size_t v = 0; v < n; ++v) {
    OutputSink sink({selected + offsets[v], offsets[v + 1] - offsets[v]},
                    "run_synchronous");
    programs[v].output(sink);
  }
  return result;
}

}  // namespace detail

/// Runs one block of programs of the final type P (programs[v] on node v,
/// constructed, not yet started) over `g`, like run_plan, through the
/// round loop's instantiation for P.  ProgramArena::emplace_block builds
/// such a block.
template <class P>
[[nodiscard]] RunResult run_block(const port::PortGraph& g,
                                  std::span<P> programs,
                                  const RunOptions& options,
                                  const std::string& name, ThreadPool& pool) {
  EDS_ENSURE(programs.size() == g.num_nodes(),
             "run_block: one program per node required");
  return detail::run_rounds(g, detail::BlockAccess<P>{programs.data()},
                            options, name, pool);
}

}  // namespace eds::runtime
