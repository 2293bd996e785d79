// Shared machinery for the distributed EDS algorithms.
//
// Message tags, each node's block of per-port state, and the local label
// bookkeeping every node performs in the first two rounds: learning the
// remote port number (and degree) behind each of its ports, deriving label
// pairs, its distinguishable neighbour (Section 5), and the per-step role
// in the M(i, j) schedule.
#pragma once

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <span>
#include <string>
#include <type_traits>

#include "runtime/message.hpp"
#include "runtime/program.hpp"

namespace eds::algo {

using port::Port;
using runtime::Message;
using runtime::Round;

/// Message tags shared by the algorithms (0 is reserved for silence).
enum Tag : std::int32_t {
  kTagHello = 1,    ///< arg0 = sender's port number, arg1 = sender's degree
  kTagDnClaim = 2,  ///< "you are my distinguishable neighbour"
  kTagStatus = 3,   ///< arg0 = covered bit for the current schedule step
  kTagMStatus = 4,  ///< arg0 = 1 when the sender is covered by M
  kTagPropose = 5,  ///< matching proposal
  kTagAccept = 6,   ///< proposal accepted
  kTagReject = 7,   ///< proposal rejected
};

/// k · (d² + 1), the shape of the quadratic schedules (A(∆) runs
/// 3 + 3∆'² rounds, odd-regular 2 + 2d²), in 64 bits and saturating at
/// 2^64 − 1: the exact length of every accepted parameter, and one that a
/// Round cannot hold for every other.
[[nodiscard]] constexpr std::uint64_t quadratic_schedule(std::uint64_t k,
                                                         Port d) noexcept {
  const std::uint64_t dd1 = std::uint64_t{d} * d + 1;  // < 2^64 for d < 2^32
  return dd1 > UINT64_MAX / k ? UINT64_MAX : k * dd1;
}

/// Throws InvalidArgument, naming `who` and `param` (the algorithm and its
/// parameter, "odd-regular: d" and 7) and the length, when a schedule of
/// `rounds` rounds does not fit a Round: a wrapped length would halt every
/// node early, with a wrong result.  The factories check their parameter
/// with it, and the programs again, so a program built without a factory
/// does its schedule arithmetic in exact Rounds too; the message is built
/// only on failure.
void check_schedule(const char* who, std::uint64_t param,
                    std::uint64_t rounds);

/// Bits of PortSlot::flags.
enum PortFlag : std::uint8_t {
  kFlagDnClaimed = 1,  ///< the neighbour behind the port declared me its DN
  kFlagEligible = 2,   ///< double cover: I may propose on the port
  kFlagProposed = 4,   ///< a proposal arrived on the port this slot
  kFlagInD = 8,        ///< odd-regular: the port's edge is in D
};

/// What a node knows about one of its ports.
struct PortSlot {
  Port remote_port = 0;    ///< l_G(u, v): the port number at the far end
  Port remote_degree = 0;  ///< d_G(u): the far end's degree
  std::uint8_t flags = 0;  ///< PortFlag bits
};

/// A node's per-port state: one block of `degree` values of T, taken in
/// start(degree) from the memory resource the program was built with (the
/// run's ProgramArena::resource() under create_all and the typed run, the
/// heap under create()) and given back when the program is destroyed.
/// Indexed through std::span, so _GLIBCXX_ASSERTIONS catches an index past
/// the block; ASan cannot, since neighbouring nodes' blocks share one arena
/// chunk.
template <class T>
class PortArray {
  static_assert(std::is_trivially_destructible_v<T>,
                "a port block is released without destroying its values");

 public:
  explicit PortArray(std::pmr::memory_resource* memory) noexcept
      : memory_(memory) {}
  ~PortArray() { release(); }
  PortArray(const PortArray&) = delete;
  PortArray& operator=(const PortArray&) = delete;

  /// Replaces the block with `degree` value-initialized (zeroed) values.
  void assign(Port degree) {
    release();
    if (degree == 0) return;
    auto* data =
        static_cast<T*>(memory_->allocate(degree * sizeof(T), alignof(T)));
    std::uninitialized_value_construct_n(data, degree);
    slots_ = {data, degree};
  }

  /// The values; slots()[i - 1] is port i's.
  [[nodiscard]] std::span<T> slots() const noexcept { return slots_; }

 private:
  void release() noexcept {
    if (slots_.empty()) return;
    memory_->deallocate(slots_.data(), slots_.size() * sizeof(T),
                        alignof(T));
    slots_ = {};
  }

  std::pmr::memory_resource* memory_;
  std::span<T> slots_;
};

/// What A(∆), odd-regular and double-cover keep per port.
using PortBlock = PortArray<PortSlot>;

/// The distinguishable-neighbour port for a node whose port i leads to
/// remote port r_i = ports[i - 1].remote_port: the lowest port whose label
/// pair {i, r_i} no other port carries, or 0 when there is none (possible
/// only for even degree, by Lemma 1).  Port j != i carries {i, r_i} only
/// when j = r_i and r_j = i, so this takes O(degree) and needs no memory.
[[nodiscard]] Port distinguishable_port(std::span<const PortSlot> ports);

/// Per-node label bookkeeping (the local view of Section 5), kept in the
/// node's port block.
class LabelView {
 public:
  explicit LabelView(std::pmr::memory_resource* memory) noexcept
      : block_(memory) {}

  /// Sizes the block for a node of degree `degree`.
  void start(Port degree) { block_.assign(degree); }

  [[nodiscard]] Port degree() const noexcept {
    return static_cast<Port>(block_.slots().size());
  }

  /// The port block; ports()[i - 1] is port i.
  [[nodiscard]] std::span<PortSlot> ports() const noexcept {
    return block_.slots();
  }

  /// My port to my distinguishable neighbour; 0 when I have none.
  [[nodiscard]] Port dn_port() const noexcept { return dn_port_; }

  /// The neighbour behind port i declared me its DN.
  [[nodiscard]] bool dn_claimed(Port i) const {
    return (ports()[i - 1].flags & kFlagDnClaimed) != 0;
  }

  /// Record the hello message received from port i.
  void record_hello(Port i, const Message& m);

  /// Record the (possible) DN claim received from port i.
  void record_claim(Port i, const Message& m);

  /// Computes dn_port() from the remote ports (distinguishable_port).
  void compute_dn() { dn_port_ = distinguishable_port(ports()); }

  /// My active port for schedule step (i, j) of the M(i, j) sweep, or 0 when
  /// I am not an endpoint of an M(i, j) edge.  A node is active either as
  /// the "v" side (my DN edge uses my port i and the remote port is j) or as
  /// the "u" side (the neighbour behind my port j declared me its DN and its
  /// port is i).  Lemma 2 guarantees the two cannot name different ports;
  /// violation throws InternalError.
  [[nodiscard]] Port mij_active_port(Port i, Port j) const;

 private:
  PortBlock block_;
  Port dn_port_ = 0;
};

}  // namespace eds::algo
