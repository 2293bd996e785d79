#include "runtime/fault.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/text.hpp"

namespace eds::runtime {

DelayModel parse_delay_model(const std::string& spec) {
  const auto parts = split_fields(spec, ':');
  const auto ticks = [&spec](std::string_view part) {
    return parse_uint<std::uint64_t, InvalidArgument>(
        part, "parse_delay_model: tick count in '" + spec + "'");
  };
  DelayModel model;
  if (parts.size() == 2 && parts[0] == "fixed") {
    model.kind = DelayKind::kFixed;
    model.a = model.b = ticks(parts[1]);
  } else if (parts.size() == 3 && parts[0] == "uniform") {
    model.kind = DelayKind::kUniform;
    model.a = ticks(parts[1]);
    model.b = ticks(parts[2]);
  } else if ((parts.size() == 2 || parts.size() == 3) &&
             parts[0] == "geometric") {
    model.kind = DelayKind::kGeometric;
    model.a = ticks(parts[1]);
    model.b = parts.size() == 3 ? ticks(parts[2])
                                : std::min(8 * model.a, kMaxTicks);
  } else {
    throw InvalidArgument(
        "parse_delay_model: expected fixed:T, uniform:LO:HI or "
        "geometric:MEAN[:CAP], got '" +
        spec + "'");
  }
  if (model.a == 0 || model.b == 0) {
    throw InvalidArgument("parse_delay_model: delays must be >= 1 in '" +
                          spec + "'");
  }
  if (model.a > kMaxTicks || model.b > kMaxTicks) {
    throw InvalidArgument("parse_delay_model: delays must be <= 2^32 in '" +
                          spec + "'");
  }
  if (model.a > model.b) {
    throw InvalidArgument("parse_delay_model: lower bound exceeds upper in '" +
                          spec + "'");
  }
  return model;
}

std::uint64_t effective_round_timeout(const AsyncOptions& options) {
  return options.round_timeout != 0 ? options.round_timeout
                                    : 8 * options.delay.max_delay();
}

void check_tick_bounds(const AsyncOptions& options) {
  const auto reject = [](const std::string& what, std::uint64_t ticks) {
    throw InvalidArgument("async options: " + what + " of " +
                          std::to_string(ticks) +
                          " ticks exceeds the 2^32-tick limit");
  };
  const DelayModel& delay = options.delay;
  if (delay.a > kMaxTicks || delay.b > kMaxTicks) {
    reject("delay bound", std::max(delay.a, delay.b));
  }
  for (const DelayOverride& o : options.schedule.delay_overrides) {
    if (o.ticks > kMaxTicks) reject("delay override", o.ticks);
  }
  if (options.schedule.demote_ticks > kMaxTicks) {
    reject("demote_ticks", options.schedule.demote_ticks);
  }
  if (options.round_timeout > kMaxTicks) {
    reject("round timeout", options.round_timeout);
  }
  const std::uint64_t timeout = effective_round_timeout(options);
  if (!options.synchronizer && timeout > kMaxTicks) {
    reject("derived round timeout (8 x max delay)", timeout);
  }
}

std::string format_delay_model(const DelayModel& model) {
  std::ostringstream os;
  switch (model.kind) {
    case DelayKind::kFixed:
      os << "fixed:" << model.a;
      break;
    case DelayKind::kUniform:
      os << "uniform:" << model.a << ':' << model.b;
      break;
    case DelayKind::kGeometric:
      os << "geometric:" << model.a << ':' << model.b;
      break;
  }
  return os.str();
}

FaultPlan make_fault_plan(double loss, double duplicate,
                          std::size_t crash_count, std::size_t num_nodes,
                          std::uint64_t horizon, std::uint64_t seed) {
  FaultPlan plan;
  plan.loss = loss;
  plan.duplicate = duplicate;
  crash_count = std::min(crash_count, num_nodes);
  if (crash_count > 0) {
    std::uint64_t state = seed ^ 0xFA17B0A7DULL;
    Rng rng(splitmix64(state));
    auto victims = rng.permutation(num_nodes);
    victims.resize(crash_count);
    std::sort(victims.begin(), victims.end());
    plan.crashes.reserve(crash_count);
    for (const std::size_t v : victims) {
      plan.crashes.push_back({static_cast<port::NodeId>(v),
                              1 + rng.below(horizon == 0 ? 1 : horizon)});
    }
  }
  return plan;
}

std::string encode_replay(const ReplayFile& replay) {
  std::ostringstream os;
  os << "edsched " << kReplaySchemaVersion << '\n';
  os << "strategy " << replay.strategy << '\n';
  os << "algorithm " << replay.algorithm << '\n';
  os << "param " << replay.param << '\n';
  const AsyncOptions& a = replay.options;
  os << "synchronizer " << (a.synchronizer ? "on" : "off") << '\n';
  os << "delay " << format_delay_model(a.delay) << '\n';
  // max_digits10 makes the probabilities round-trip bit-exactly through the
  // text form — a replay must reproduce every loss draw.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << "loss " << a.faults.loss << '\n';
  os << "dup " << a.faults.duplicate << '\n';
  os << "timeout " << a.round_timeout << '\n';
  os << "seed " << a.seed << '\n';
  for (const CrashEvent& c : a.faults.crashes) {
    os << "crash " << c.node << ' ' << c.time << '\n';
  }
  const Schedule& s = a.schedule;
  if (s.prio_seed != 0) os << "prioseed " << s.prio_seed << '\n';
  if (s.demote_ticks != 0) os << "demote " << s.demote_ticks << '\n';
  for (const std::uint64_t cp : s.change_points) os << "change " << cp << '\n';
  for (const DelayOverride& o : s.delay_overrides) {
    os << "override " << o.port << ' ' << o.ticks << '\n';
  }
  for (const auto& [name, value] : replay.metrics) {
    os << "metric " << name << ' ' << value << '\n';
  }
  os << "graph\n" << replay.graph_text;
  return os.str();
}

ReplayFile decode_replay(const std::string& text) {
  std::istringstream is(text);
  LineReader<InvalidArgument> in(is, "decode_replay");
  if (!in.next()) {
    throw InvalidArgument("decode_replay: empty input");
  }
  if (in[0] != "edsched") {
    throw InvalidArgument(
        "decode_replay: not a replay file (expected an 'edsched " +
        std::to_string(kReplaySchemaVersion) + "' header)");
  }
  in.expect_size(2, "the 'edsched' header");
  if (in.number<std::uint32_t>(1, "schema version") != kReplaySchemaVersion) {
    throw InvalidArgument("decode_replay: schema mismatch: this build "
                          "speaks version " +
                          std::to_string(kReplaySchemaVersion) + ", got " +
                          std::string(in[1]));
  }
  ReplayFile replay;
  AsyncOptions& a = replay.options;
  bool saw_graph = false;
  while (!saw_graph && in.next()) {
    const std::string key(in[0]);
    // Every record is its key and a fixed number of values.
    const auto values = [&in, &key](std::size_t count) {
      in.expect_size(count + 1, "record '" + key + "'");
    };
    const auto u64 = [&in, &key](std::size_t k) {
      return in.number<std::uint64_t>(k, key);
    };
    if (key == "graph") {
      values(0);
      saw_graph = true;
    } else if (key == "strategy") {
      values(1);
      replay.strategy = in[1];
    } else if (key == "algorithm") {
      values(1);
      replay.algorithm = in[1];
    } else if (key == "param") {
      values(1);
      replay.param = in.number<std::uint32_t>(1, key);
    } else if (key == "synchronizer") {
      values(1);
      if (in[1] != "on" && in[1] != "off") {
        in.fail("synchronizer takes on|off");
      }
      a.synchronizer = in[1] == "on";
    } else if (key == "delay") {
      values(1);
      a.delay = parse_delay_model(std::string(in[1]));
    } else if (key == "loss") {
      values(1);
      a.faults.loss = in.probability(1, key);
    } else if (key == "dup") {
      values(1);
      a.faults.duplicate = in.probability(1, key);
    } else if (key == "timeout") {
      values(1);
      a.round_timeout = u64(1);
    } else if (key == "seed") {
      values(1);
      a.seed = u64(1);
    } else if (key == "crash") {
      values(2);
      a.faults.crashes.push_back(
          {in.number<port::NodeId>(1, "crash node"), u64(2)});
    } else if (key == "prioseed") {
      values(1);
      a.schedule.prio_seed = u64(1);
    } else if (key == "demote") {
      values(1);
      a.schedule.demote_ticks = u64(1);
    } else if (key == "change") {
      values(1);
      a.schedule.change_points.push_back(u64(1));
    } else if (key == "override") {
      values(2);
      a.schedule.delay_overrides.push_back(
          {in.number<std::uint32_t>(1, "override port"), u64(2)});
    } else if (key == "metric") {
      values(2);
      replay.metrics.emplace_back(std::string(in[1]), u64(2));
    } else {
      in.fail("unknown record '" + key + "'");
    }
  }
  if (!saw_graph) {
    throw InvalidArgument("decode_replay: missing 'graph' section");
  }
  std::ostringstream graph_text;
  graph_text << is.rdbuf();
  replay.graph_text = graph_text.str();
  if (replay.algorithm.empty()) {
    throw InvalidArgument("decode_replay: missing 'algorithm' record");
  }
  check_tick_bounds(replay.options);
  return replay;
}

std::string format_fault_log(const std::vector<FaultEvent>& log) {
  std::ostringstream os;
  for (const auto& e : log) {
    os << "t=" << e.time << ' ';
    switch (e.kind) {
      case FaultKind::kLoss:
        os << "loss (" << e.node << ',' << e.port << ") r" << e.round;
        break;
      case FaultKind::kDuplicate:
        os << "dup (" << e.node << ',' << e.port << ") r" << e.round;
        break;
      case FaultKind::kCrash:
        os << "crash node " << e.node;
        break;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace eds::runtime
