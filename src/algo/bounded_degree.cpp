#include "algo/bounded_degree.hpp"

#include <algorithm>

#include "runtime/stage.hpp"
#include "util/error.hpp"

namespace eds::algo {

namespace {

/// The algorithm a missing handshake message names (expect_message).
constexpr const char* kWho = "bounded-degree";

}  // namespace

BoundedDegreeProgram::BoundedDegreeProgram(
    port::Port max_degree, std::shared_ptr<BoundedPhaseStats> sink,
    std::pmr::memory_resource* memory)
    : delta_(normalised_delta(max_degree)),
      view_(memory),
      sink_(std::move(sink)) {
  if (max_degree < 2) {
    throw InvalidArgument(
        "BoundedDegreeProgram: use AllEdgesProgram for max degree 1");
  }
  check_schedule("BoundedDegreeProgram: max degree", max_degree,
                 schedule_length(max_degree));
}

void BoundedDegreeProgram::start(port::Port degree) {
  if (degree > delta_) {
    throw ExecutionError(
        "BoundedDegreeProgram: node degree exceeds the family parameter");
  }
  view_.start(degree);
}

port::Port BoundedDegreeProgram::next_smaller(port::Port from) const {
  const auto ports = view_.ports();
  for (port::Port p = from; p <= ports.size(); ++p) {
    if (ports[p - 1].remote_degree < ports.size()) return p;
  }
  return 0;
}

BoundedDegreeProgram::Step BoundedDegreeProgram::step_for(
    runtime::Round round) const {
  const auto d = static_cast<runtime::Round>(delta_);
  if (round == 1) return {Step::Kind::kHello, 0, 0, false, false};
  if (round == 2) return {Step::Kind::kClaim, 0, 0, false, false};

  runtime::Round base = 2;
  if (round <= base + d * d) {
    const auto s = round - base - 1;  // 0-based
    return {Step::Kind::kPhase1, static_cast<port::Port>(s / d + 1),
            static_cast<port::Port>(s % d + 1), false, false};
  }
  base += d * d;

  if (round <= base + 2 * d * (d - 1)) {
    const auto rr = round - base - 1;  // 0-based within phase II
    const auto block = rr / (2 * d);   // degree class index: i = block + 2
    const auto within = rr % (2 * d);
    return {Step::Kind::kPhase2, static_cast<port::Port>(block + 2), 0,
            within % 2 == 1, within == 0};
  }
  base += 2 * d * (d - 1);

  if (round == base + 1) return {Step::Kind::kMStatus, 0, 0, false, false};
  base += 1;

  const auto rr = round - base - 1;  // 0-based within phase III
  return {Step::Kind::kPhase3, 0, 0, rr % 2 == 1, false};
}

runtime::Round BoundedDegreeProgram::next_wake(runtime::Round round) const {
  if (round < 2) return round + 1;  // the claims are not in yet
  // The schedule fits a Round (the constructor checked it), so every round
  // below is exact.  I send into round s in the dispatch of round s − 1.
  const auto d = static_cast<runtime::Round>(delta_);
  const runtime::Round phase2 = 2 + d * d;  // last phase-I round
  if (round < phase2 - 1) {
    // Phase I step (i, j) is round 2 + (i − 1)∆' + j; I act in the step
    // of my DN edge and in the step of every edge whose far end claimed
    // me, all fixed since round 2.
    runtime::Round next = phase2;
    const auto consider = [&](runtime::Round sends) {
      if (sends - 1 > round) next = std::min(next, sends - 1);
    };
    const auto ports = view_.ports();
    if (const port::Port dn = view_.dn_port(); dn != 0) {
      consider(2 + (dn - 1) * d + ports[dn - 1].remote_port);
    }
    for (port::Port j = 1; j <= ports.size(); ++j) {
      const PortSlot& slot = ports[j - 1];
      if ((slot.flags & kFlagDnClaimed) != 0) {
        consider(2 + (slot.remote_port - 1) * d + j);
      }
    }
    if (next < phase2) return next;
  }
  if (m_port_ == 0 && smaller_neighbour_) {
    // My phase-II block starts in round phase2 + 1 + (degree − 2)·2∆'
    // (degree >= 2, since a neighbour has a smaller one).
    const runtime::Round block = phase2 + (view_.degree() - 2) * 2 * d;
    if (block > round) return block;
  }
  const runtime::Round m_status = phase2 + 2 * d * (d - 1) + 1;
  if (m_status - 1 > round) return m_status - 1;
  return halt_round();
}

void BoundedDegreeProgram::send(runtime::Round round,
                                std::span<runtime::Message> out) {
  const auto step = step_for(round);
  switch (step.kind) {
    case Step::Kind::kHello:
      for (port::Port i = 1; i <= view_.degree(); ++i) {
        out[i - 1] = runtime::msg(kTagHello, static_cast<std::int32_t>(i),
                                  static_cast<std::int32_t>(view_.degree()));
      }
      return;

    case Step::Kind::kClaim:
      // Even-degree nodes may legitimately have no distinguishable
      // neighbour; they simply make no claim.
      if (view_.dn_port() != 0) {
        out[view_.dn_port() - 1] = runtime::msg(kTagDnClaim);
      }
      return;

    case Step::Kind::kPhase1:
      active_port_ = view_.mij_active_port(step.i, step.j);
      if (active_port_ != 0) {
        out[active_port_ - 1] =
            runtime::msg(kTagStatus, m_port_ != 0 ? 1 : 0);
      }
      return;

    case Step::Kind::kPhase2:
      phase2_send(step, out);
      return;

    case Step::Kind::kMStatus:
      for (port::Port i = 1; i <= view_.degree(); ++i) {
        out[i - 1] = runtime::msg(kTagMStatus, m_port_ != 0 ? 1 : 0);
      }
      return;

    case Step::Kind::kPhase3:
      if (!step.respond_half) {
        engine_.send_propose(out);
      } else {
        engine_.send_respond(view_.ports(), out);
      }
      return;
  }
}

void BoundedDegreeProgram::phase2_send(const Step& step,
                                       std::span<runtime::Message> out) {
  if (step.block_start) {
    // I am a proposer ("black") in this block iff my degree equals the
    // block's degree class i and I am still M-free; eligible targets are the
    // neighbours of strictly smaller degree, in increasing port order.
    p2_target_ =
        view_.degree() == step.i && m_port_ == 0 ? next_smaller(1) : 0;
  }
  if (!step.respond_half) {
    // Propose half.
    p2_outstanding_ = false;
    if (m_port_ == 0 && p2_target_ != 0) {
      out[p2_target_ - 1] = runtime::msg(kTagPropose);
      p2_outstanding_ = true;
    }
  } else {
    // Respond half ("white" side): accept the smallest-port proposal if
    // still M-free, reject everything else.
    const port::Port accepted =
        answer_proposals(view_.ports(), p2_proposals_, m_port_ == 0, out);
    if (accepted != 0) m_port_ = accepted;  // the accepted proposal joins M
  }
}

void BoundedDegreeProgram::phase2_receive(
    runtime::Round round, const Step& step,
    std::span<const runtime::Message> in) {
  if (!step.respond_half) {
    p2_proposals_ = flag_proposals(view_.ports(), in);
  } else {
    if (p2_outstanding_) {
      const auto& reply = in[p2_target_ - 1];
      expect_message(reply.tag == kTagAccept || reply.tag == kTagReject,
                     kWho, "phase-II proposal response", p2_target_, round);
      if (reply.tag == kTagAccept) {
        m_port_ = p2_target_;  // my proposal was accepted: edge joins M
      } else {
        p2_target_ = next_smaller(p2_target_ + 1);
      }
      p2_outstanding_ = false;
    }
  }
}

void BoundedDegreeProgram::receive(runtime::Round round,
                                   std::span<const runtime::Message> in) {
  const auto step = step_for(round);
  switch (step.kind) {
    case Step::Kind::kHello: {
      const auto ports = view_.ports();
      for (port::Port i = 1; i <= ports.size(); ++i) {
        view_.record_hello(i, in[i - 1], kWho, round);
        smaller_neighbour_ |= ports[i - 1].remote_degree < ports.size();
      }
      view_.compute_dn();
      break;
    }

    case Step::Kind::kClaim:
      for (port::Port i = 1; i <= view_.degree(); ++i) {
        view_.record_claim(i, in[i - 1]);
      }
      break;

    case Step::Kind::kPhase1:
      if (active_port_ != 0) {
        const auto& their = in[active_port_ - 1];
        expect_message(their.tag == kTagStatus, kWho, "phase-I status",
                       active_port_, round);
        // "If neither u nor v is covered by M, we add e to M."
        if (m_port_ == 0 && their.arg[0] == 0) {
          m_port_ = active_port_;
          wake_ = 0;  // my phase-II block start is no wake-up any more
        }
        active_port_ = 0;
      }
      break;

    case Step::Kind::kPhase2:
      phase2_receive(round, step, in);
      break;

    case Step::Kind::kMStatus: {
      // Phase III runs on H, the edges with both endpoints M-free; M is
      // final now.
      const auto ports = view_.ports();
      for (port::Port i = 1; i <= ports.size(); ++i) {
        expect_message(in[i - 1].tag == kTagMStatus, kWho, "M-status", i,
                       round);
        if (m_port_ == 0 && in[i - 1].arg[0] == 0) {
          ports[i - 1].flags |= kFlagEligible;
        }
      }
      engine_.init(ports);
      break;
    }

    case Step::Kind::kPhase3:
      if (!step.respond_half) {
        engine_.receive_propose(view_.ports(), in);
      } else {
        engine_.receive_respond(view_.ports(), in, kWho, round);
      }
      break;
  }

  // The halt round is my last wake-up, so a dispatch before wake_ neither
  // halts nor moves it.
  if (round < wake_) return;
  if (round < halt_round()) {
    wake_ = next_wake(round);
  } else {
    halted_ = true;
    if (sink_) {
      const auto p_ports = engine_.p_ports();
      sink_->m_port_claims.fetch_add(m_port_ != 0 ? 1 : 0,
                                     std::memory_order_relaxed);
      sink_->p_port_claims.fetch_add(
          static_cast<std::size_t>(std::count_if(
              p_ports.begin(), p_ports.end(),
              [](port::Port p) { return p != 0; })),
          std::memory_order_relaxed);
    }
  }
}

void BoundedDegreeProgram::output(runtime::OutputSink& out) const {
  if (m_port_ != 0) out.select(m_port_);
  for (const port::Port p : engine_.p_ports()) {
    if (p != 0) out.select(p);
  }
}

runtime::RunResult BoundedDegreeFactory::run(
    const port::PortGraph& g, const runtime::RunOptions& options,
    ThreadPool& pool) const {
  runtime::ProgramArena arena(g.num_nodes());
  return runtime::run_block(
      g,
      arena.emplace_block<BoundedDegreeProgram>(g.num_nodes(), max_degree_,
                                                sink_, arena.resource()),
      options, name(), pool);
}

}  // namespace eds::algo
