// Event-driven asynchronous execution of port-numbering algorithms.
//
// The synchronous engine advances every node in lock-step; AsyncPolicy
// replaces the global round with a virtual clock and a timeline: every
// transmission becomes an event that arrives after the per-link delay drawn
// from the run's delay matrix, and nodes fire their receive step when their
// local round's inputs are in.  Two modes:
//
//  * α-synchronizer (AsyncOptions::synchronizer, default).  The classic
//    simulation layer: every payload is acknowledged by the receiving
//    transport, and a node enters round r+1 only once (a) it holds a
//    round-r message (or a halt notice) for every port and (b) all of its
//    round-r sends are acknowledged.  Per-round buffering keeps early
//    messages until their round fires, so each node observes *exactly* the
//    message sequence of the synchronous execution — outputs, stats, trace
//    and (order-normalized) message log are bit-identical to the round
//    engine for every delay matrix.  This is the differential oracle: any
//    divergence is an engine bug, not an algorithm property.  Only the ack
//    that completes a node's round is a timeline event; any other ack just
//    raises its sender's count, so the receiver counts it when its payload
//    arrives, which moves no pop that changes state.  While a PCT change
//    point is still ahead, every ack is scheduled (async.cpp says why).
//
//  * Free-running (synchronizer off).  No acknowledgements: a node waits at
//    most AsyncOptions::round_timeout ticks for a round's inputs, then
//    substitutes silence for the missing ports and fires anyway.  This mode
//    admits the FaultPlan (loss, duplication, crashes) and exists to
//    measure how the paper's algorithms degrade off the synchronous model.
//
// Determinism: the event loop is sequential and pops a strict weak order —
// (time, priority, node, port, seq) with seq a global monotone counter —
// and every random draw is a pure function of the seed and structural
// coordinates (see runtime/fault.hpp).  Equal inputs give byte-identical
// AsyncResults, including the fault log, regardless of ExecOptions::threads
// (which only parallelizes *across* runs at the batch layer, never within
// one).
//
// The timeline is a calendar queue over the integer clock: a ring with one
// bucket per tick, as wide as the furthest any push reaches (the delay
// matrix's maximum plus demote_ticks, or the round timeout; at most 2^14
// buckets), and a small overflow heap for events beyond it — crash times,
// overridden slow links — which move into their bucket once the ring
// reaches their tick.  The order stays exact:
//
//  * No push lands in the tick being drained: every delay and timeout is at
//    least one tick, and every tick-valued input is capped at kMaxTicks
//    (runtime/fault.hpp), so now + offset can never wrap into the past.
//  * A bucket fills in push order (overflow events migrate, in push order,
//    before any push can reach their tick), so position is seq.
//  * One stable sort of the bucket on a packed (priority, node, port) key
//    then yields the full order.
//
// Inputs wait in flat (round mod 2) × total_ports message slots, and
// receive() reads its node's segment in place.  Two rounds of slots
// suffice in both modes: no receiver is ever two rounds behind a sender.
// Under the α-synchronizer a sender needs the receiver's message to
// advance; free-running, a sender can only run ahead by timing out, and
// the receiver's own deadline, of the same length, keeps it within one
// round.  All of it lives in a per-thread workspace reused across runs; a
// run started from inside a program's receive() gets a private one.
//
// The ordering hook: AsyncOptions::schedule (runtime/fault.hpp) injects an
// adversarial perturbation into that order.  A non-empty Schedule stamps
// each event with a PCT-style per-node priority (splicing ahead of the
// structural node/port tie-break), demotes nodes at its change points —
// demoted nodes' sends take Schedule::demote_ticks extra latency — and
// forces entries of the delay matrix via its overrides.  With an empty
// schedule every priority is zero and the engine is bit-identical to a
// build without schedules.  Schedules are pure data, so (options, schedule)
// fully determine the run — the property runtime/sched.hpp's searcher and
// the replay file format rely on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/runner.hpp"

namespace eds::runtime {

/// Counters specific to the asynchronous engine (RunStats covers the
/// model-independent ones).
struct AsyncStats {
  std::uint64_t virtual_time = 0;  ///< clock value of the last event
  std::uint64_t delivered = 0;     ///< payloads accepted into a round buffer
  std::uint64_t acks = 0;          ///< acknowledgements delivered (synchronizer)
  std::uint64_t lost = 0;          ///< transmissions dropped by the FaultPlan
  std::uint64_t duplicated = 0;    ///< transmissions delivered twice
  std::uint64_t stale = 0;         ///< late/duplicate arrivals discarded
  std::uint64_t timeouts = 0;      ///< rounds fired with inputs missing
  /// Timeline pops plus the acks counted without one (the change-point
  /// axis: no ack is counted that way while a change point is ahead).
  std::uint64_t events = 0;

  [[nodiscard]] bool operator==(const AsyncStats&) const = default;
};

/// Outcome of an asynchronous run.  `run` carries exactly what the
/// synchronous engine would produce (and is what the dispatching
/// run_synchronous returns); the remaining fields are the async-only
/// observables.  Crashed nodes never halt, so their segment of
/// `run.selected` is all zeros and `crashed[v]` distinguishes "crashed"
/// from "selected nothing".
struct AsyncResult {
  RunResult run;
  AsyncStats async;
  std::vector<FaultEvent> fault_log;  ///< injected faults, in event order
  std::vector<std::uint8_t> crashed;  ///< crashed[v] != 0: node v crashed

  [[nodiscard]] bool operator==(const AsyncResult&) const = default;
};

/// The event-driven execution policy.  Stateless apart from its options;
/// safe to share across threads and reuse across graphs.
class AsyncPolicy {
 public:
  explicit AsyncPolicy(AsyncOptions options);

  [[nodiscard]] const AsyncOptions& options() const noexcept {
    return options_;
  }

  /// Executes `programs` (one per node of `g`) under the event loop.  Throws
  /// InvalidArgument for inconsistent options (synchronizer with a non-empty
  /// FaultPlan, probabilities outside [0, 1], crash of an out-of-range
  /// node, zero max_rounds, a tick-valued input above kMaxTicks) and
  /// ExecutionError when a node exceeds RunOptions::max_rounds, mirroring
  /// the synchronous engine's contract.
  [[nodiscard]] AsyncResult run(const port::PortGraph& g,
                                std::span<NodeProgram* const> programs,
                                const RunOptions& options,
                                const std::string& name) const;

  /// run() over caller-owned heap programs.
  [[nodiscard]] AsyncResult run(
      const port::PortGraph& g,
      std::vector<std::unique_ptr<NodeProgram>>& programs,
      const RunOptions& options, const std::string& name) const;

 private:
  AsyncOptions options_;
};

/// Runs `factory`'s program on every node of `g` under the asynchronous
/// engine.  The RunOptions' ExecOptions::async field is ignored here — the
/// explicit `async` argument wins (this *is* the async entry point).
[[nodiscard]] AsyncResult run_asynchronous(const port::PortGraph& g,
                                           const ProgramFactory& factory,
                                           const RunOptions& options,
                                           const AsyncOptions& async);

}  // namespace eds::runtime
