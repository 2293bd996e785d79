// Deterministic pseudo-random number generation.
//
// All randomness in the library flows through eds::Rng so that every
// experiment is reproducible from a single 64-bit seed.  The generator is
// xoshiro256** (Blackman & Vigna) seeded via splitmix64; both are implemented
// here to avoid any dependence on the standard library's unspecified
// distributions (std::uniform_int_distribution is not portable across
// implementations, which would make recorded experiment outputs non-portable).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace eds {

/// splitmix64 step; used for seeding and as a cheap hash.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-independent deterministic draw: a pure hash of a seed and two
/// structural coordinates, so a decision keyed on them never depends on
/// event-pop order or thread count.  The async engine draws with salts 1–5
/// and the schedule search (runtime/sched) with 16 and up, disjoint so a
/// search never correlates with the runs it drives.
[[nodiscard]] constexpr std::uint64_t draw_bits(std::uint64_t seed,
                                                std::uint64_t x,
                                                std::uint64_t y,
                                                std::uint64_t salt) noexcept {
  std::uint64_t state = seed;
  state = splitmix64(state) ^ (x + 0x9E3779B97F4A7C15ULL * salt);
  state = splitmix64(state) ^ y;
  return splitmix64(state);
}

/// Deterministic xoshiro256** generator with portable distributions.
class Rng {
 public:
  /// Seeds the state from a single 64-bit value via splitmix64.
  explicit Rng(std::uint64_t seed = 0) noexcept { reseed(seed); }

  /// Resets the generator to the state derived from `seed`.
  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  /// Next raw 64-bit output.
  [[nodiscard]] std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound); bound must be positive.
  /// Uses Lemire-style rejection to avoid modulo bias.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) throw InvalidArgument("Rng::below: bound must be positive");
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in the inclusive range [lo, hi].
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw InvalidArgument("Rng::range: lo must be <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo);
    return lo + static_cast<std::int64_t>(below(span + 1));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0, 1]).
  [[nodiscard]] bool chance(double p) { return uniform01() < p; }

  /// Fisher-Yates shuffle of a vector.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// A random permutation of {0, 1, ..., n-1}.
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

  /// Derives an independent child generator (for parallel experiment arms).
  [[nodiscard]] Rng split() noexcept { return Rng(next_u64()); }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace eds
