// The node-program abstraction: what one anonymous node runs.
//
// The interface enforces the port-numbering model of Section 2.2:
//  * a program is created by a factory with no node identity;
//  * at start it learns exactly one thing — its own degree;
//  * each round it emits one message per port and then consumes one message
//    per port;
//  * at any point after a receive it may halt and expose its output
//    X(v) ⊆ {1, ..., degree} (the ports of its chosen edges).
//
// A program may also say when it next has work (wake_hint, optional).  The
// round engine then dispatches a node only in the rounds its hint names or
// in which a non-silence message reaches it; a program without a hint is
// dispatched every round, exactly as the model describes.
//
// Programs of one run live in a ProgramArena: factories construct them
// contiguously there, and per-node state that lives exactly as long as the
// run can take its memory from the arena's monotonic resource.  Outputs go
// through an OutputSink straight into the run's flat per-port mask
// (RunResult::selected), so no per-node output container exists.
//
// A factory performs a whole synchronous run through ProgramFactory::run.
// The default builds the programs with create_all and runs the round loop
// over them as NodeProgram*; the built-in factories override it to run
// their own instantiation of the same loop over one block of their final
// program type, where every program call is direct (runtime/stage.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <new>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "port/port_graph.hpp"
#include "runtime/message.hpp"

namespace eds {
class ThreadPool;
}  // namespace eds

namespace eds::runtime {

struct RunOptions;
struct RunResult;

using port::Port;

/// 1-based round counter.
using Round = std::uint32_t;

/// A halted node's view of the run's flat selection mask: its own segment,
/// one byte per port.  select(i) puts port i into X(v).
class OutputSink {
 public:
  /// `segment` is the node's slice of the mask (degree bytes, all zero);
  /// `engine` prefixes error messages ("run_synchronous").
  OutputSink(std::span<std::uint8_t> segment, const char* engine) noexcept
      : segment_(segment), engine_(engine) {}

  /// Adds port i (1-based) to X(v).  Throws ExecutionError for a port
  /// outside 1..degree or a port selected twice.
  void select(Port i) {
    if (i < 1 || i > segment_.size()) fail(/*duplicate=*/false);
    std::uint8_t& slot = segment_[i - 1];
    if (slot != 0) fail(/*duplicate=*/true);
    slot = 1;
  }

  /// Puts every port i with flags[i - 1] != 0 into X(v), with no branch per
  /// port.  Throws ExecutionError when `flags` is longer than the degree or
  /// names a port already selected.
  void select_flags(std::span<const std::uint8_t> flags) {
    if (flags.size() > segment_.size()) fail(/*duplicate=*/false);
    std::uint8_t repeated = 0;
    for (std::size_t i = 0; i < flags.size(); ++i) {
      const auto bit = static_cast<std::uint8_t>(flags[i] != 0);
      repeated |= static_cast<std::uint8_t>(segment_[i] & bit);
      segment_[i] |= bit;
    }
    if (repeated != 0) fail(/*duplicate=*/true);
  }

 private:
  [[noreturn]] void fail(bool duplicate) const;

  std::span<std::uint8_t> segment_;
  const char* engine_;
};

/// One anonymous node's state machine.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  /// Called once, before the first round.  `degree` is the only initial
  /// knowledge a node has about the graph.
  virtual void start(Port degree) = 0;

  /// Produce the message for every port: `out[i - 1]` goes to port i.
  /// `out.size()` equals the node degree.  Called only while not halted.
  virtual void send(Round round, std::span<Message> out) = 0;

  /// Consume the received messages: `in[i - 1]` arrived from port i.
  /// May set the halted state.  Called only while not halted.
  virtual void receive(Round round, std::span<const Message> in) = 0;

  /// True once the node has stopped and announced its output.
  [[nodiscard]] virtual bool halted() const = 0;

  /// Wake hint, asked after the node's dispatch in `round` (receive(round)
  /// and, unless it halted, send(round + 1)).  Names the next round h in
  /// which the node, on all-silent input, would send a non-silence
  /// message (that is, in h's send(h + 1)), halt, or change state that a
  /// later call reads.  Returning h promises that skipping the dispatches
  /// of rounds round + 1 … h − 1 in which every input is silence changes
  /// nothing the node later sends, outputs, or when it halts.  The round
  /// engine then dispatches the node next in round h, or earlier, in the
  /// first round whose input holds a non-silence message for it.  A hint
  /// that is early is always correct; a late one breaks the run.  The
  /// default, round + 1, promises nothing; values <= round count as
  /// round + 1.  The async engine and the α-synchronizer ignore hints.
  [[nodiscard]] virtual Round wake_hint(Round round) const {
    return round + 1;
  }

  /// Announces X(v) by selecting each of its ports once on `out`, in any
  /// order.  Called once, after the node halted.
  virtual void output(OutputSink& out) const = 0;
};

/// Owns the programs of one run.  Factories construct programs in
/// contiguous blocks (emplace, emplace_block) or hand over heap programs
/// (adopt); programs() lists the emplaced and adopted ones in node order.
/// resource() is a monotonic memory resource for per-node state that lives
/// as long as the run: nothing is freed before the arena is destroyed, so
/// take a block of fixed size once (in start(degree)) and rewrite it in
/// place; state that is reallocated round after round belongs on the heap
/// instead.  Every block is destroyed through its own program type, in
/// reverse order of construction.
class ProgramArena {
 public:
  /// Sized for a run over `n` nodes.
  explicit ProgramArena(std::size_t n);
  ~ProgramArena();
  ProgramArena(const ProgramArena&) = delete;
  ProgramArena& operator=(const ProgramArena&) = delete;

  /// Constructs `count` programs P(args...) in one contiguous block and
  /// appends them to programs().
  template <class P, class... Args>
  void emplace(std::size_t count, const Args&... args) {
    static_assert(std::is_base_of_v<NodeProgram, P>);
    if (count == 0) return;
    programs_.reserve(programs_.size() + count);  // push_back cannot throw
    for (P& program : emplace_block<P>(count, args...)) {
      programs_.push_back(&program);
    }
  }

  /// Constructs `count` programs P(args...) in one contiguous block and
  /// returns it, without listing them in programs(): the block a typed run
  /// (run_block in runtime/stage.hpp) hands the round loop.  If a
  /// constructor throws, the programs built before it are destroyed with
  /// the arena.
  template <class P, class... Args>
  std::span<P> emplace_block(std::size_t count, const Args&... args) {
    static_assert(std::is_base_of_v<NodeProgram, P>);
    if (count == 0) return {};
    auto* block = static_cast<P*>(memory_.allocate(count * sizeof(P),
                                                   alignof(P)));
    blocks_.push_back({block, 0, &destroy_block<P>});
    for (std::size_t k = 0; k < count; ++k) {
      ::new (static_cast<void*>(block + k)) P(args...);
      ++blocks_.back().count;
    }
    return {block, count};
  }

  /// Appends a heap program and takes ownership of it.  A null program is
  /// appended as null; the engines reject it.
  void adopt(std::unique_ptr<NodeProgram> program);

  /// The emplaced and adopted programs, in the order they were added (node
  /// order).
  [[nodiscard]] std::span<NodeProgram* const> programs() const noexcept {
    return programs_;
  }

  /// Monotonic memory released with the arena.
  [[nodiscard]] std::pmr::memory_resource* resource() noexcept {
    return &memory_;
  }

 private:
  struct Block {
    void* first = nullptr;   // the block's first program
    std::size_t count = 0;   // programs constructed so far
    void (*destroy)(void* first, std::size_t count) noexcept = nullptr;
  };

  /// Destroys `count` programs of type P from `first` on, last first.
  template <class P>
  static void destroy_block(void* first, std::size_t count) noexcept {
    P* const programs = static_cast<P*>(first);
    for (std::size_t k = count; k-- > 0;) programs[k].~P();
  }

  std::size_t nodes_;  // the run's node count: adopt() reserves for it
  std::pmr::monotonic_buffer_resource memory_;
  std::vector<NodeProgram*> programs_;
  std::vector<Block> blocks_;  // arena-constructed blocks, in order
  std::vector<std::unique_ptr<NodeProgram>> owned_;  // adopted programs
};

/// Creates identical programs for every node — anonymity means the factory
/// cannot specialise per node.
class ProgramFactory {
 public:
  virtual ~ProgramFactory() = default;
  [[nodiscard]] virtual std::unique_ptr<NodeProgram> create() const = 0;

  /// Adds programs for `n` nodes to `arena`.  The default adopts n create()
  /// results; an override must build the same programs create() would, so
  /// both paths give bit-identical runs.
  virtual void create_all(std::size_t n, ProgramArena& arena) const;

  /// Performs one synchronous run of this factory's programs over `g`,
  /// scheduling its stages on `pool` (run_synchronous's engine path).  The
  /// default builds the programs with create_all into a ProgramArena and
  /// runs run_plan over them.  An override must give a bit-identical
  /// RunResult, and throw what the default would; the built-in factories
  /// run their own typed instantiation of run_plan's round loop
  /// (run_block in runtime/stage.hpp).
  [[nodiscard]] virtual RunResult run(const port::PortGraph& g,
                                      const RunOptions& options,
                                      ThreadPool& pool) const;

  /// Short human-readable algorithm name (for tables and traces).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Builds the programs of an n-node run through factory.create_all and
/// checks them: exactly n, none null (ExecutionError prefixed with
/// `engine` otherwise).
[[nodiscard]] std::span<NodeProgram* const> create_programs(
    const ProgramFactory& factory, std::size_t n, ProgramArena& arena,
    const char* engine);

/// Borrowed raw pointers to caller-owned programs, for the engine entry
/// points that take std::span<NodeProgram* const>.
[[nodiscard]] std::vector<NodeProgram*> borrow_programs(
    const std::vector<std::unique_ptr<NodeProgram>>& programs);

}  // namespace eds::runtime
