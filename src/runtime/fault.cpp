#include "runtime/fault.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace eds::runtime {

namespace {

std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(spec);
  while (std::getline(is, part, ':')) parts.push_back(part);
  return parts;
}

std::uint64_t parse_ticks(const std::string& text, const std::string& spec) {
  try {
    std::size_t pos = 0;
    const unsigned long long value = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw InvalidArgument("parse_delay_model: bad tick count '" + text +
                          "' in '" + spec + "'");
  }
}

}  // namespace

DelayModel parse_delay_model(const std::string& spec) {
  const auto parts = split_spec(spec);
  DelayModel model;
  if (parts.size() == 2 && parts[0] == "fixed") {
    model.kind = DelayKind::kFixed;
    model.a = model.b = parse_ticks(parts[1], spec);
  } else if (parts.size() == 3 && parts[0] == "uniform") {
    model.kind = DelayKind::kUniform;
    model.a = parse_ticks(parts[1], spec);
    model.b = parse_ticks(parts[2], spec);
  } else if ((parts.size() == 2 || parts.size() == 3) &&
             parts[0] == "geometric") {
    model.kind = DelayKind::kGeometric;
    model.a = parse_ticks(parts[1], spec);
    model.b = parts.size() == 3 ? parse_ticks(parts[2], spec)
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

namespace {

/// Parses one probability token of a replay file.
double parse_prob(const std::string& text, const std::string& key) {
  try {
    std::size_t pos = 0;
    const double value = std::stod(text, &pos);
    if (pos != text.size() || !(value >= 0.0 && value <= 1.0)) {
      throw std::invalid_argument(text);
    }
    return value;
  } catch (const std::exception&) {
    throw InvalidArgument("decode_replay: bad probability '" + text +
                          "' for '" + key + "'");
  }
}

std::uint64_t parse_u64(const std::string& text, const std::string& key) {
  try {
    std::size_t pos = 0;
    const unsigned long long value = std::stoull(text, &pos);
    if (pos != text.size()) throw std::invalid_argument(text);
    return value;
  } catch (const std::exception&) {
    throw InvalidArgument("decode_replay: bad number '" + text + "' for '" +
                          key + "'");
  }
}

}  // namespace

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
  std::string line;
  if (!std::getline(is, line)) {
    throw InvalidArgument("decode_replay: empty input");
  }
  {
    std::istringstream header(line);
    std::string magic;
    std::string version;
    header >> magic >> version;
    if (magic != "edsched" || version.empty()) {
      throw InvalidArgument(
          "decode_replay: not a replay file (expected an 'edsched " +
          std::to_string(kReplaySchemaVersion) + "' header)");
    }
    if (parse_u64(version, "edsched") != kReplaySchemaVersion) {
      throw InvalidArgument("decode_replay: schema mismatch: this build "
                            "speaks version " +
                            std::to_string(kReplaySchemaVersion) + ", got " +
                            version);
    }
  }
  ReplayFile replay;
  bool saw_graph = false;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line == "graph") {
      saw_graph = true;
      break;
    }
    std::istringstream record(line);
    std::string key;
    record >> key;
    const auto rest = [&record, &key, &line]() {
      std::string token;
      if (!(record >> token)) {
        throw InvalidArgument("decode_replay: record '" + line +
                              "' is missing a value for '" + key + "'");
      }
      return token;
    };
    if (key == "strategy") {
      replay.strategy = rest();
    } else if (key == "algorithm") {
      replay.algorithm = rest();
    } else if (key == "param") {
      replay.param = static_cast<std::uint32_t>(parse_u64(rest(), key));
    } else if (key == "synchronizer") {
      const auto token = rest();
      if (token != "on" && token != "off") {
        throw InvalidArgument("decode_replay: synchronizer takes on|off");
      }
      replay.options.synchronizer = token == "on";
    } else if (key == "delay") {
      replay.options.delay = parse_delay_model(rest());
    } else if (key == "loss") {
      replay.options.faults.loss = parse_prob(rest(), key);
    } else if (key == "dup") {
      replay.options.faults.duplicate = parse_prob(rest(), key);
    } else if (key == "timeout") {
      replay.options.round_timeout = parse_u64(rest(), key);
    } else if (key == "seed") {
      replay.options.seed = parse_u64(rest(), key);
    } else if (key == "crash") {
      CrashEvent c;
      c.node = static_cast<port::NodeId>(parse_u64(rest(), key));
      c.time = parse_u64(rest(), key);
      replay.options.faults.crashes.push_back(c);
    } else if (key == "prioseed") {
      replay.options.schedule.prio_seed = parse_u64(rest(), key);
    } else if (key == "demote") {
      replay.options.schedule.demote_ticks = parse_u64(rest(), key);
    } else if (key == "change") {
      replay.options.schedule.change_points.push_back(parse_u64(rest(), key));
    } else if (key == "override") {
      DelayOverride o;
      o.port = static_cast<std::uint32_t>(parse_u64(rest(), key));
      o.ticks = parse_u64(rest(), key);
      replay.options.schedule.delay_overrides.push_back(o);
    } else if (key == "metric") {
      const auto name = rest();
      replay.metrics.emplace_back(name, parse_u64(rest(), key));
    } else {
      throw InvalidArgument("decode_replay: unknown record '" + key + "'");
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
