#include "calibrate.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <thread>

#include "util/rng.hpp"

namespace edsbench {

namespace {

/// 256 KiB per thread: past L1, inside the per-core L2, like the mid-sized
/// instances the workloads simulate.
constexpr std::size_t kRingSize = std::size_t{1} << 16;
constexpr std::size_t kSteps = 130000;

std::atomic<std::uint64_t> g_sink{0};

/// One random cycle through all slots (Sattolo), from a fixed seed.
std::vector<std::uint32_t> make_ring() {
  std::vector<std::uint32_t> order(kRingSize);
  std::iota(order.begin(), order.end(), 0U);
  std::uint64_t state = 0x5EEDCA11B8A7E5ULL;
  for (std::size_t i = kRingSize - 1; i > 0; --i) {
    const std::size_t j = eds::splitmix64(state) % i;
    std::swap(order[i], order[j]);
  }
  std::vector<std::uint32_t> next(kRingSize);
  for (std::size_t i = 0; i < kRingSize; ++i) {
    next[order[i]] = order[(i + 1) % kRingSize];
  }
  return next;
}

/// The work the simulator does, in miniature: dependent loads through a
/// cache-sized structure, hashing, data-dependent branches, and small heap
/// blocks allocated and freed.
std::uint64_t kernel(const std::vector<std::uint32_t>& next) {
  std::array<std::unique_ptr<std::uint32_t[]>, 64> blocks;
  std::array<std::uint32_t, 32> scratch{};
  std::uint32_t i = 0;
  std::uint64_t h = 0;
  for (std::size_t s = 0; s < kSteps; ++s) {
    i = next[i];
    std::uint64_t x = h ^ i;
    h = eds::splitmix64(x);
    if ((h & 3) == 0) i = next[(i + 1) % kRingSize];
    if ((s & 15) == 0) {
      auto& b = blocks[(h >> 8) & 63];
      b = std::make_unique<std::uint32_t[]>(4 + ((h >> 16) & 31));
      b[0] = i;
    }
    if ((s & 255) == 0) {
      for (auto& v : scratch) v = next[(v + i) % kRingSize];
      std::sort(scratch.begin(), scratch.end());
      h += scratch[h & 31];
    }
  }
  return h;
}

}  // namespace

Calibrator::Calibrator(unsigned threads) : threads_(std::max(threads, 1U)) {
  for (unsigned t = 0; t < threads_; ++t) rings_.push_back(make_ring());
}

double Calibrator::measure() {
  std::vector<double> ns(threads_);
  const auto timed = [&](unsigned t) {
    // Load the ring into cache first, so the timed run does not depend on
    // how much of it the measured work left there.
    std::uint64_t touch = 0;
    for (const std::uint32_t v : rings_[t]) touch += v;
    g_sink += touch;
    const auto t0 = std::chrono::steady_clock::now();
    g_sink += kernel(rings_[t]);
    ns[t] = std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - t0)
                .count();
  };
  std::vector<std::thread> helpers;
  for (unsigned t = 1; t < threads_; ++t) helpers.emplace_back(timed, t);
  timed(0);
  for (auto& h : helpers) h.join();
  return std::accumulate(ns.begin(), ns.end(), 0.0) /
         static_cast<double>(threads_);
}

}  // namespace edsbench
