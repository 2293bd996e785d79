// A fixed load that does not call the library, timed next to every pass so
// that the benchmark can report times at a reference core speed.  On a
// shared host the core a run gets can be slower for seconds or minutes (a
// busy neighbour on the same physical core, a lower clock); such a slowdown
// stretches the kernel and the pass alike, so their ratio stays put while
// a change to the library still moves it.
#pragma once

#include <cstdint>
#include <vector>

namespace edsbench {

/// The kernel takes this long on the reference core; a time t measured
/// next to a kernel run of c ns is reported as t × kReferenceNs / c.
constexpr double kReferenceNs = 2.0e6;

class Calibrator {
 public:
  /// `threads` copies of the kernel run at once, one per lane the measured
  /// work uses.
  explicit Calibrator(unsigned threads);

  /// Runs the kernel once on every thread; returns the mean of their
  /// durations, in ns.
  double measure();

 private:
  unsigned threads_;
  std::vector<std::vector<std::uint32_t>> rings_;  ///< one per thread
};

}  // namespace edsbench
