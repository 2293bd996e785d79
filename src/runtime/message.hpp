// Messages exchanged by node programs.
//
// In the synchronous port-numbering model a node sends exactly one message
// per port per round.  All algorithms in this library need only a small tag
// plus up to three integer arguments, so Message is a fixed-size value type;
// tag 0 ("silence") is the conventional empty message and is excluded from
// traffic statistics.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>

namespace eds::runtime {

struct Message {
  std::int32_t tag = 0;
  std::array<std::int32_t, 3> arg{0, 0, 0};

  [[nodiscard]] bool operator==(const Message&) const = default;
  [[nodiscard]] bool is_silence() const noexcept { return tag == 0; }
};

// Both runtimes move Messages through pooled flat buffers: the engine's
// outbox is written by concurrent shards and read back across the round
// barrier, and the async runtime's round slots hand receive() a span over
// its storage.  That is value-exact only for a trivially copyable aggregate
// whose state is exactly its four int32 fields — keep Message that way.
static_assert(std::is_trivially_copyable_v<Message>,
              "Message must stay trivially copyable: the runtimes store it "
              "in shared flat buffers written from concurrent shards");
static_assert(sizeof(Message) == 4 * sizeof(std::int32_t),
              "Message must stay exactly {tag, arg[3]}: 16 bytes, four to a "
              "cache line in the engine's outbox");

/// The empty message.
inline constexpr Message kSilence{};

/// Builds a message from a tag and up to three arguments.
[[nodiscard]] constexpr Message msg(std::int32_t tag, std::int32_t a0 = 0,
                                    std::int32_t a1 = 0,
                                    std::int32_t a2 = 0) noexcept {
  return Message{tag, {a0, a1, a2}};
}

}  // namespace eds::runtime
