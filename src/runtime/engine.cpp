#include "runtime/engine.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <sstream>

#include "runtime/stage.hpp"
#include "util/error.hpp"

namespace eds::runtime {

std::unique_ptr<ThreadPool> make_policy(const ExecOptions& exec) {
  return std::make_unique<ThreadPool>(exec.threads);
}

namespace detail {

std::atomic<std::uint64_t> g_ws_reuses{0};
std::atomic<std::uint64_t> g_ws_growths{0};
std::atomic<std::uint64_t> g_ws_bytes{0};

std::atomic<std::uint64_t> g_round_ns{0};
std::atomic<std::uint64_t> g_rounds{0};
std::atomic<std::uint64_t> g_dispatched{0};

namespace {

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

[[nodiscard]] std::uint64_t key(Round r, std::uint32_t v) {
  return (static_cast<std::uint64_t>(r) << 32) | v;
}
[[nodiscard]] Round round_of(std::uint64_t k) {
  return static_cast<Round>(k >> 32);
}

/// `options`, once its round cap is checked: a run with no rounds to give
/// is rejected before it leases a workspace.
const RunOptions& checked(const RunOptions& options) {
  if (options.max_rounds == 0) {
    throw InvalidArgument(
        "run_synchronous: RunOptions::max_rounds must be positive");
  }
  return options;
}

}  // namespace

Calendar::Calendar(std::uint64_t* ring, std::size_t words,
                   std::vector<std::uint64_t>& far, const Round* due,
                   const char* halted)
    : ring_(ring), words_(words), far_(far), due_(due), halted_(halted) {
  far_.clear();
}

void Calendar::file(std::uint32_t v, Round h, Round r) {
  if (near(h, r)) {
    mark(slot(h), v);
    used_ |= slot_bit(h);
  } else {
    far_.push_back(key(h, v));
    std::push_heap(far_.begin(), far_.end(), std::greater<>{});
  }
}

void Calendar::compact(std::size_t live) {
  if (far_.size() <= 2 * live + 64) return;
  std::erase_if(far_, [&](std::uint64_t k) { return !entry_live(k); });
  std::sort(far_.begin(), far_.end());  // sorted ascending is a min-heap
  far_.erase(std::unique(far_.begin(), far_.end()), far_.end());
}

void Calendar::take_due(Round r, std::uint64_t* wake) {
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

Round Calendar::next_due(Round after) {
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

bool Calendar::entry_live(std::uint64_t k) const {
  const auto v = static_cast<std::uint32_t>(k);
  return halted_[v] == 0 && due_[v] == round_of(k);
}

void Calendar::pop() {
  std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
  far_.pop_back();
}

template <class Hit>
void Calendar::sweep(Round r, Round from, Hit&& hit) {
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

void MessageBuffer::fit(std::size_t count) {
  if (count <= capacity_) return;
  release();
  data_ = std::allocator<Message>().allocate(count);
  capacity_ = count;
}

void MessageBuffer::release() noexcept {
  if (data_ == nullptr) return;
  std::allocator<Message>().deallocate(data_, capacity_);
  data_ = nullptr;
  capacity_ = 0;
}

EngineWorkspace::~EngineWorkspace() {
  // The lane (thread) is going away: return its bytes to the gauge, or
  // short-lived pools (a BatchRunner per sweep) would leak dead bytes
  // into the "currently pooled" statistic.
  g_ws_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

std::size_t EngineWorkspace::footprint() const noexcept {
  std::size_t scratch_bytes = 0;
  for (const auto& sc : scratch) {
    scratch_bytes += sc.log.capacity() * sizeof(DeliveredMessage) +
                     (sc.newly_halted.capacity() + sc.rescheduled.capacity()) *
                         sizeof(std::uint32_t) +
                     sc.recv.capacity() * sizeof(Message);
  }
  return (outbox[0].capacity() + outbox[1].capacity()) * sizeof(Message) +
         halted.capacity() + list.capacity() * sizeof(std::uint32_t) +
         due.capacity() * sizeof(Round) +
         (bits.capacity() + calendar.capacity()) * sizeof(std::uint64_t) +
         bounds.capacity() * sizeof(std::size_t) +
         scratch.capacity() * sizeof(ShardScratch) + scratch_bytes;
}

void EngineWorkspace::silence(std::size_t off, Port deg) noexcept {
  std::fill_n(outbox[0].data() + off, deg, kSilence);
  std::fill_n(outbox[1].data() + off, deg, kSilence);
}

void EngineWorkspace::prepare(const port::PortGraph& g, unsigned lanes) {
  const std::size_t n = g.num_nodes();
  outbox[0].fit(g.num_ports());
  outbox[1].fit(g.num_ports());
  halted.assign(n, 0);
  list.clear();
  list.reserve(n);
  if (scratch.size() < lanes) scratch.resize(lanes);
}

void EngineWorkspace::start_sparse(std::size_t n, std::size_t words) {
  due.assign(n, 0);
  bits.assign((3 + Calendar::kRingSlots) * words, 0);
}

void EngineWorkspace::end_run(bool pooled) noexcept {
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

Stage::Stage(const port::PortGraph& g, const RunOptions& options,
             const std::string& name, ThreadPool& pool)
    : graph_(g),
      offsets_(g.offsets().data()),
      partner_flat_(g.partner_flat().data()),
      partner_node_(g.partner_node().data()),
      options_(checked(options)),
      name_(name),
      pool_(pool),
      ws_(*lease_),
      n_(g.num_nodes()),
      lanes_(std::max(1u, pool.lanes())),
      wake_words_((n_ + 63) / 64) {
  ws_.prepare(g, lanes_);
  cur_ = ws_.outbox[0].data();
  nxt_ = ws_.outbox[1].data();
  result_.messages_collected = options.collect_messages;
}

void Stage::halt_at_start(std::uint32_t v) {
  // Degree-0 nodes (or trivial algorithms) may halt immediately.
  ws_.halted[v] = 1;
  ws_.silence(offsets_[v], degree(v));
}

void Stage::begin() {
  live_ = ws_.list.size();
  for (ShardScratch& sc : ws_.scratch) {
    if (sc.recv.size() < max_degree_) sc.recv.resize(max_degree_);
  }
  // The round loop's time runs from here to the end of its last round.
  started_ = std::chrono::steady_clock::now();
}

RoundView Stage::shard() {
  const std::vector<std::uint32_t>& list = ws_.list;
  const std::size_t shards = std::min<std::size_t>(lanes_, list.size());
  shared_ = shards > 1;
  balanced_shard_bounds(
      list.size(), shards,
      [&](std::size_t idx) {
        return static_cast<std::uint64_t>(degree(list[idx]));
      },
      ws_.bounds);
  for (std::size_t s = 0; s < shards; ++s) ws_.scratch[s].reset();
  return {offsets_,
          partner_flat_,
          list.data(),
          ws_.bounds.data(),
          shards,
          cur_,
          nxt_,
          ws_.halted.data(),
          round_,
          send_next_,
          marking_,
          options_.collect_messages || marking_};
}

void Stage::rethrow_first(std::size_t shards) const {
  for (std::size_t s = 0; s < shards; ++s) {
    if (ws_.scratch[s].error) std::rethrow_exception(ws_.scratch[s].error);
  }
}

std::uint64_t Stage::merge_shard(const ShardScratch& sc) {
  result_.stats.ports_served += sc.ports_served;
  result_.stats.messages_sent += sc.messages;
  if (options_.collect_messages) {
    result_.message_log.insert(result_.message_log.end(), sc.log.begin(),
                               sc.log.end());
  }
  return sc.messages;
}

void Stage::end_exchange(std::size_t shards) {
  rethrow_first(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    pending_ += merge_shard(ws_.scratch[s]);
  }
}

bool Stage::next_round() {
  if (live_ == 0) return false;
  round_ = target_;
  send_next_ = round_ + 1 <= options_.max_rounds;
  return true;
}

void Stage::set_bit(std::uint64_t* bits, std::uint32_t v) const {
  if (shared_) {
    mark_shared(bits, v);
  } else {
    mark(bits, v);
  }
}

void Stage::note_traffic(ShardScratch& sc, std::uint32_t v, Round r,
                         const Message* seg) const {
  const Port deg = degree(v);
  const std::size_t off = offsets_[v];
  if (options_.collect_messages) {
    for (Port i = 0; i < deg; ++i) {
      if (!seg[i].is_silence()) {
        sc.log.push_back({r,
                          {static_cast<port::NodeId>(v),
                           static_cast<Port>(i + 1)},
                          graph_.partner_ref(off + i),
                          seg[i]});
      }
    }
  }
  if (marking_) {
    set_bit(sent_nxt_, v);
    for (Port i = 0; i < deg; ++i) {
      if (!seg[i].is_silence()) set_bit(wake_, partner_node_[off + i]);
    }
  }
}

void Stage::file_hint(ShardScratch& sc, std::uint32_t v, Round r,
                      Round hint) const {
  const Round filed = due_[v];
  due_[v] = hint;
  if (hint == r + 1) {
    set_bit(wake_, v);
    return;
  }
  if (hint == filed) return;
  if (Calendar::near(hint, r)) {
    set_bit(calendar_->slot(hint), v);
    sc.slots |= Calendar::slot_bit(hint);
  } else {
    sc.rescheduled.push_back(v);
  }
}

void Stage::round_limit() const {
  std::ostringstream os;
  os << "run_synchronous: algorithm '" << name_ << "' did not halt within "
     << options_.max_rounds << " rounds (" << live_ << " of " << n_
     << " nodes still running)";
  throw ExecutionError(os.str());
}

void Stage::collect_woken() {
  std::vector<std::uint32_t>& list = ws_.list;
  list.clear();
  for (std::size_t w = 0; w < wake_words_; ++w) {
    if (wake_[w] == 0) continue;
    for_each_bit(wake_[w], w, [&](std::uint32_t v) {
      if (ws_.halted[v] == 0) list.push_back(v);
    });
    wake_[w] = 0;
  }
}

void Stage::end_round(std::size_t shards) {
  rethrow_first(shards);
  std::vector<ShardScratch>& scratch = ws_.scratch;
  std::vector<std::uint32_t>& list = ws_.list;
  dispatched_ += list.size();
  const Round next = round_ + 1;

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
  live_ -= halting;
  std::uint64_t sent_next = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    sent_next += merge_shard(scratch[s]);
    if (live_ == 0) continue;
    for (const std::uint32_t v : scratch[s].newly_halted) {
      ws_.silence(offsets_[v], degree(v));
    }
  }

  if (options_.collect_trace) {
    result_.trace.push_back({round_, pending_, n_ - live_});
  }

  if (live_ == 0) return;
  if (!send_next_) round_limit();
  pending_ = sent_next;
  target_ = next;

  if (!marking_) {
    // Every live node ran and runs again next round.
    if (halting != 0) {
      std::erase_if(list,
                    [&](std::uint32_t v) { return ws_.halted[v] != 0; });
    }
    if (sleepers != 0) {
      // The first hint past next round: from next round on, every
      // round marks.  Next round still runs every live node (early for
      // the sleepers, which a hint allows), so each files a fresh hint,
      // and any of them may have sent into `nxt`.
      ws_.start_sparse(n_, wake_words_);
      due_ = ws_.due.data();
      wake_ = ws_.bits.data();
      sent_cur_ = wake_ + wake_words_;
      sent_nxt_ = sent_cur_ + wake_words_;
      calendar_.emplace(sent_nxt_ + wake_words_, wake_words_, ws_.calendar,
                        due_, ws_.halted.data());
      for (const std::uint32_t v : list) mark(sent_nxt_, v);
      marking_ = true;
    }
    std::swap(cur_, nxt_);
    std::swap(sent_cur_, sent_nxt_);
    return;
  }

  // Next round runs the nodes whose hint is due or that have a message
  // waiting.  Node u's segment in `cur` holds its round-r messages when
  // u sent some last round; unless u runs next round (and rewrites it),
  // silence it now — that buffer receives round r + 2, and a sleeping
  // node must read as silence in both buffers.
  for (std::size_t s = 0; s < shards; ++s) {
    calendar_->used(scratch[s].slots);
    for (const std::uint32_t v : scratch[s].rescheduled) {
      calendar_->file(v, due_[v], round_);
    }
  }
  calendar_->compact(live_);
  calendar_->take_due(next, wake_);
  for (std::size_t w = 0; w < wake_words_; ++w) {
    for_each_bit(sent_cur_[w] & ~wake_[w], w, [&](std::uint32_t v) {
      std::fill_n(cur_ + offsets_[v], degree(v), kSilence);
    });
    sent_cur_[w] = 0;
  }
  collect_woken();

  if (list.empty()) {
    // Nothing to do next round: its messages all went to halted nodes,
    // whose slots no live node reads, and every slot a live node reads
    // is silent in both buffers.  Skip to the earliest hint without a
    // barrier; skipped rounds keep their trace entries.
    target_ = calendar_->next_due(next);
    if (target_ == 0 || target_ > options_.max_rounds) round_limit();
    if (options_.collect_trace) {
      for (Round r = next; r < target_; ++r) {
        result_.trace.push_back({r, r == next ? pending_ : 0, n_ - live_});
      }
    }
    pending_ = 0;
    calendar_->take_due(target_, wake_);
    collect_woken();
  }
  std::swap(cur_, nxt_);
  std::swap(sent_cur_, sent_nxt_);
}

RunResult Stage::finish() {
  g_round_ns.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - started_)
              .count()),
      std::memory_order_relaxed);
  g_rounds.fetch_add(round_, std::memory_order_relaxed);
  g_dispatched.fetch_add(dispatched_, std::memory_order_relaxed);
  result_.stats.rounds = round_;
  return std::move(result_);
}

}  // namespace detail

EngineAllocStats engine_alloc_stats() noexcept {
  EngineAllocStats stats;
  stats.workspace_reuses =
      detail::g_ws_reuses.load(std::memory_order_relaxed);
  stats.workspace_growths =
      detail::g_ws_growths.load(std::memory_order_relaxed);
  stats.workspace_bytes = detail::g_ws_bytes.load(std::memory_order_relaxed);
  return stats;
}

EngineStageStats engine_stage_stats() noexcept {
  EngineStageStats stats;
  stats.round_ns = detail::g_round_ns.load(std::memory_order_relaxed);
  stats.rounds = detail::g_rounds.load(std::memory_order_relaxed);
  stats.dispatched = detail::g_dispatched.load(std::memory_order_relaxed);
  return stats;
}

RunResult run_plan(const port::PortGraph& g,
                   std::vector<std::unique_ptr<NodeProgram>>& programs,
                   const RunOptions& options, const std::string& name,
                   ThreadPool& pool) {
  return run_plan(g, borrow_programs(programs), options, name, pool);
}

RunResult run_plan(const port::PortGraph& g,
                   std::span<NodeProgram* const> programs,
                   const RunOptions& options, const std::string& name,
                   ThreadPool& pool) {
  EDS_ENSURE(programs.size() == g.num_nodes(),
             "run_plan: one program per node required");
  return detail::run_rounds(g, detail::VirtualAccess{programs.data()},
                            options, name, pool);
}

}  // namespace eds::runtime
