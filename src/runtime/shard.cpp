#include "runtime/shard.hpp"

#include <iomanip>
#include <limits>
#include <sstream>
#include <utility>

#include "runtime/worker_pool.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace eds::runtime {

namespace {

// ---------------------------------------------------------------------------
// Wire codecs.  The protocol is NDJSON with a *fixed field order* (the
// shapes in shard.hpp): encoders and decoders are two halves of one
// implementation, so a strict sequential parser is both sufficient and the
// cheapest way to reject malformed input loudly.

void append_escaped(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
}

/// Strict sequential scanner over one wire line.
class Cursor {
 public:
  explicit Cursor(const std::string& s) : s_(s) {}

  /// Consumes the exact literal `text` or throws.
  void lit(const char* text) {
    for (const char* p = text; *p != '\0'; ++p) {
      if (pos_ >= s_.size() || s_[pos_] != *p) {
        throw InvalidArgument("wire: expected '" + std::string(text) +
                              "' at offset " + std::to_string(pos_));
      }
      ++pos_;
    }
  }

  [[nodiscard]] bool peek(char c) const {
    return pos_ < s_.size() && s_[pos_] == c;
  }

  /// Consumes `text` if it is next; returns whether it did.
  [[nodiscard]] bool try_lit(const char* text) {
    std::size_t p = pos_;
    for (const char* t = text; *t != '\0'; ++t, ++p) {
      if (p >= s_.size() || s_[p] != *t) return false;
    }
    pos_ = p;
    return true;
  }

  [[nodiscard]] std::uint64_t uint() {
    if (pos_ >= s_.size() || s_[pos_] < '0' || s_[pos_] > '9') {
      throw InvalidArgument("wire: expected digit at offset " +
                            std::to_string(pos_));
    }
    std::uint64_t value = 0;
    while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') {
      const std::uint64_t digit = static_cast<std::uint64_t>(s_[pos_] - '0');
      if (value > (UINT64_MAX - digit) / 10) {
        throw InvalidArgument("wire: integer overflow");
      }
      value = value * 10 + digit;
      ++pos_;
    }
    return value;
  }

  /// A JSON boolean literal.
  [[nodiscard]] bool boolean() {
    if (try_lit("true")) return true;
    if (try_lit("false")) return false;
    throw InvalidArgument("wire: expected boolean at offset " +
                          std::to_string(pos_));
  }

  /// A non-negative real as std::ostream writes doubles at max_digits10
  /// (plain or scientific notation) — the loss/duplication probabilities
  /// round-trip bit-exactly through this.
  [[nodiscard]] double real() {
    const std::size_t start = pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      const bool numeric = (c >= '0' && c <= '9') || c == '.' || c == 'e' ||
                           c == 'E' || c == '+' || c == '-';
      if (!numeric) break;
      ++pos_;
    }
    if (pos_ == start) {
      throw InvalidArgument("wire: expected number at offset " +
                            std::to_string(pos_));
    }
    try {
      std::size_t used = 0;
      const double value = std::stod(s_.substr(start, pos_ - start), &used);
      if (used != pos_ - start) throw std::invalid_argument("trailing");
      return value;
    } catch (const std::exception&) {
      throw InvalidArgument("wire: malformed number at offset " +
                            std::to_string(start));
    }
  }

  [[nodiscard]] std::string str() {
    lit("\"");
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) throw InvalidArgument("wire: unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) throw InvalidArgument("wire: dangling escape");
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            throw InvalidArgument("wire: truncated \\u escape");
          }
          unsigned value = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else throw InvalidArgument("wire: bad \\u escape");
          }
          if (value > 0xFF) {
            throw InvalidArgument("wire: non-latin \\u escape unsupported");
          }
          out += static_cast<char>(value);
          break;
        }
        default:
          throw InvalidArgument("wire: unknown escape");
      }
    }
  }

  void end() const {
    if (pos_ != s_.size()) {
      throw InvalidArgument("wire: trailing bytes after object");
    }
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
};

void check_schema_encodable(int schema) {
  if (schema < kLegacyWireSchemaVersion || schema > kWireSchemaVersion) {
    throw InvalidArgument("wire: cannot encode schema version " +
                          std::to_string(schema));
  }
}

void append_prefix(std::string& out, int schema) {
  out += "{\"schema\":";
  out += std::to_string(schema);
  out += ',';
}

/// Consumes the versioned line prefix and returns the schema spoken.
/// Anything outside [legacy, current] is rejected loudly, never misparsed.
int consume_prefix(Cursor& c) {
  c.lit("{\"schema\":");
  const auto schema = c.uint();
  if (schema < static_cast<std::uint64_t>(kLegacyWireSchemaVersion) ||
      schema > static_cast<std::uint64_t>(kWireSchemaVersion)) {
    throw InvalidArgument("wire: unsupported schema version " +
                          std::to_string(schema));
  }
  c.lit(",");
  return static_cast<int>(schema);
}

/// Writes a probability exactly as the replay codec does — max_digits10,
/// so decode's std::stod recovers the identical bits.
std::string format_prob(double value) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
  return os.str();
}

/// The fixed-order `"async":{…}` segment of a schema-2 job line.
void append_async(std::string& out, const AsyncOptions& async) {
  out += "\"async\":{\"synchronizer\":";
  out += async.synchronizer ? "true" : "false";
  out += ",\"delay\":\"";
  append_escaped(out, format_delay_model(async.delay));
  out += "\",\"seed\":";
  out += std::to_string(async.seed);
  out += ",\"timeout\":";
  out += std::to_string(async.round_timeout);
  out += ",\"loss\":";
  out += format_prob(async.faults.loss);
  out += ",\"dup\":";
  out += format_prob(async.faults.duplicate);
  out += ",\"crashes\":[";
  for (std::size_t k = 0; k < async.faults.crashes.size(); ++k) {
    if (k != 0) out += ',';
    out += '[';
    out += std::to_string(async.faults.crashes[k].node);
    out += ',';
    out += std::to_string(async.faults.crashes[k].time);
    out += ']';
  }
  out += "]},";
}

/// Parses the async segment after its `"synchronizer":` key literal.
AsyncOptions decode_async(Cursor& c) {
  AsyncOptions async;
  async.synchronizer = c.boolean();
  c.lit(",\"delay\":");
  async.delay = parse_delay_model(c.str());
  c.lit(",\"seed\":");
  async.seed = c.uint();
  c.lit(",\"timeout\":");
  async.round_timeout = c.uint();
  c.lit(",\"loss\":");
  async.faults.loss = c.real();
  c.lit(",\"dup\":");
  async.faults.duplicate = c.real();
  for (const double p : {async.faults.loss, async.faults.duplicate}) {
    if (p < 0.0 || p > 1.0) {
      throw InvalidArgument("wire: fault probability outside [0, 1]");
    }
  }
  c.lit(",\"crashes\":[");
  if (!c.peek(']')) {
    while (true) {
      CrashEvent crash;
      c.lit("[");
      crash.node = static_cast<port::NodeId>(c.uint());
      c.lit(",");
      crash.time = c.uint();
      c.lit("]");
      async.faults.crashes.push_back(crash);
      if (c.peek(',')) {
        c.lit(",");
        continue;
      }
      break;
    }
  }
  c.lit("]},");
  return async;
}

/// Job-line body with the graph segment already escaped — the writer
/// threads escape each distinct graph once and reuse it across every
/// repeat, instead of re-scanning the (potentially large) text per job.
std::string encode_job_line(std::size_t index, const std::string& algorithm,
                            Port param, unsigned threads, Round max_rounds,
                            const std::optional<AsyncOptions>& async,
                            const std::string& escaped_graph, int schema) {
  check_schema_encodable(schema);
  if (async.has_value() && schema < 2) {
    throw InvalidArgument("wire: schema 1 carries no AsyncOptions");
  }
  std::string out;
  out.reserve(escaped_graph.size() + algorithm.size() + 160);
  append_prefix(out, schema);
  out += "\"job\":{\"index\":";
  out += std::to_string(index);
  out += ",\"algorithm\":\"";
  append_escaped(out, algorithm);
  out += "\",\"param\":";
  out += std::to_string(param);
  out += ",\"threads\":";
  out += std::to_string(threads);
  out += ",\"max_rounds\":";
  out += std::to_string(max_rounds);
  out += ',';
  if (async.has_value()) append_async(out, *async);
  out += "\"graph\":\"";
  out += escaped_graph;
  out += "\"}}";
  return out;
}

/// Parses a job body after its `"job":{"index":` key literal.
WireJob decode_job_body(Cursor& c, int schema) {
  WireJob job;
  job.index = static_cast<std::size_t>(c.uint());
  c.lit(",\"algorithm\":");
  job.algorithm = c.str();
  c.lit(",\"param\":");
  job.param = static_cast<Port>(c.uint());
  c.lit(",\"threads\":");
  job.threads = static_cast<unsigned>(c.uint());
  c.lit(",\"max_rounds\":");
  job.max_rounds = static_cast<Round>(c.uint());
  c.lit(",");
  if (schema >= 2 && c.try_lit("\"async\":{\"synchronizer\":")) {
    job.async = decode_async(c);
  }
  c.lit("\"graph\":");
  job.graph_text = c.str();
  c.lit("}}");
  c.end();
  return job;
}

}  // namespace

std::string encode_wire_job(const WireJob& job, int schema) {
  std::string escaped;
  escaped.reserve(job.graph_text.size());
  append_escaped(escaped, job.graph_text);
  return encode_job_line(job.index, job.algorithm, job.param, job.threads,
                         job.max_rounds, job.async, escaped, schema);
}

WireJob decode_wire_job(const std::string& line) {
  Cursor c(line);
  const int schema = consume_prefix(c);
  c.lit("\"job\":{\"index\":");
  return decode_job_body(c, schema);
}

std::string encode_batch_begin(std::uint64_t batch_id) {
  std::string out;
  append_prefix(out, kWireSchemaVersion);
  out += "\"batch_begin\":{\"batch\":";
  out += std::to_string(batch_id);
  out += "}}";
  return out;
}

std::string encode_batch_end(std::uint64_t batch_id) {
  std::string out;
  append_prefix(out, kWireSchemaVersion);
  out += "\"batch_end\":{\"batch\":";
  out += std::to_string(batch_id);
  out += "}}";
  return out;
}

ParentLine decode_parent_line(const std::string& line) {
  Cursor c(line);
  ParentLine parsed;
  parsed.schema = consume_prefix(c);
  if (c.try_lit("\"batch_begin\":{\"batch\":")) {
    if (parsed.schema < 2) {
      throw InvalidArgument("wire: batch framing requires schema 2");
    }
    parsed.kind = ParentLine::Kind::kBatchBegin;
    parsed.batch_id = c.uint();
    c.lit("}}");
    c.end();
    return parsed;
  }
  if (c.try_lit("\"batch_end\":{\"batch\":")) {
    if (parsed.schema < 2) {
      throw InvalidArgument("wire: batch framing requires schema 2");
    }
    parsed.kind = ParentLine::Kind::kBatchEnd;
    parsed.batch_id = c.uint();
    c.lit("}}");
    c.end();
    return parsed;
  }
  c.lit("\"job\":{\"index\":");
  parsed.kind = ParentLine::Kind::kJob;
  parsed.job = decode_job_body(c, parsed.schema);
  return parsed;
}

std::string encode_wire_result(std::size_t index, const RunResult& result,
                               int schema) {
  check_schema_encodable(schema);
  std::string out;
  out.reserve(64 + result.selected.size());
  append_prefix(out, schema);
  out += "\"result\":{\"index\":";
  out += std::to_string(index);
  out += ",\"rounds\":";
  out += std::to_string(result.stats.rounds);
  out += ",\"messages\":";
  out += std::to_string(result.stats.messages_sent);
  out += ",\"ports_served\":";
  out += std::to_string(result.stats.ports_served);
  out += ",\"selected\":\"";
  for (const std::uint8_t bit : result.selected) out += bit != 0 ? '1' : '0';
  out += "\"}}";
  return out;
}

std::string encode_wire_error(std::size_t index, const std::string& message,
                              int schema) {
  check_schema_encodable(schema);
  std::string out;
  append_prefix(out, schema);
  out += "\"error\":{\"index\":";
  out += std::to_string(index);
  out += ",\"message\":\"";
  append_escaped(out, message);
  out += "\"}}";
  return out;
}

std::string encode_worker_summary(const WorkerSummary& summary, int schema) {
  check_schema_encodable(schema);
  std::string out;
  append_prefix(out, schema);
  out += "\"worker_summary\":{";
  if (schema >= 2) {
    out += "\"batch\":";
    out += std::to_string(summary.batch_id);
    out += ',';
  }
  out += "\"jobs\":";
  out += std::to_string(summary.jobs);
  out += ",\"plans_compiled\":";
  out += std::to_string(summary.plans_compiled);
  out += ",\"plan_hits\":";
  out += std::to_string(summary.plan_hits);
  if (schema >= 2) {
    out += ",\"total_jobs\":";
    out += std::to_string(summary.total_jobs);
    out += ",\"total_compiled\":";
    out += std::to_string(summary.total_compiled);
    out += ",\"total_hits\":";
    out += std::to_string(summary.total_hits);
  }
  out += "}}";
  return out;
}

WorkerLine decode_worker_line(const std::string& line) {
  Cursor c(line);
  WorkerLine parsed;
  parsed.schema = consume_prefix(c);
  if (c.try_lit("\"result\":{\"index\":")) {
    parsed.kind = WorkerLine::Kind::kResult;
    parsed.index = static_cast<std::size_t>(c.uint());
    c.lit(",\"rounds\":");
    parsed.result.stats.rounds = static_cast<Round>(c.uint());
    c.lit(",\"messages\":");
    parsed.result.stats.messages_sent = c.uint();
    c.lit(",\"ports_served\":");
    parsed.result.stats.ports_served = c.uint();
    c.lit(",\"selected\":\"");
    while (!c.peek('"')) {
      if (c.try_lit("0")) {
        parsed.result.selected.push_back(0);
      } else {
        c.lit("1");
        parsed.result.selected.push_back(1);
      }
    }
    c.lit("\"}}");
    c.end();
    return parsed;
  }
  if (c.try_lit("\"error\":{\"index\":")) {
    parsed.kind = WorkerLine::Kind::kError;
    parsed.index = static_cast<std::size_t>(c.uint());
    c.lit(",\"message\":");
    parsed.message = c.str();
    c.lit("}}");
    c.end();
    return parsed;
  }
  c.lit("\"worker_summary\":{");
  parsed.kind = WorkerLine::Kind::kSummary;
  if (parsed.schema >= 2) {
    c.lit("\"batch\":");
    parsed.summary.batch_id = c.uint();
    c.lit(",");
  }
  c.lit("\"jobs\":");
  parsed.summary.jobs = c.uint();
  c.lit(",\"plans_compiled\":");
  parsed.summary.plans_compiled = c.uint();
  c.lit(",\"plan_hits\":");
  parsed.summary.plan_hits = c.uint();
  if (parsed.schema >= 2) {
    c.lit(",\"total_jobs\":");
    parsed.summary.total_jobs = c.uint();
    c.lit(",\"total_compiled\":");
    parsed.summary.total_compiled = c.uint();
    c.lit(",\"total_hits\":");
    parsed.summary.total_hits = c.uint();
  } else {
    // A single-batch legacy worker's lifetime IS the batch: mirror the
    // counters so consumers can read the cumulative fields uniformly.
    parsed.summary.total_jobs = parsed.summary.jobs;
    parsed.summary.total_compiled = parsed.summary.plans_compiled;
    parsed.summary.total_hits = parsed.summary.plan_hits;
  }
  c.lit("}}");
  c.end();
  return parsed;
}

namespace detail {

// Writer-thread fast path shared with worker_pool.cpp: escape each
// distinct graph once, then stamp job lines around the cached segment.
void wire_escape(std::string& out, const std::string& text) {
  append_escaped(out, text);
}

std::string encode_wire_job_preescaped(const WireJob& job,
                                       const std::string& escaped_graph) {
  return encode_job_line(job.index, job.algorithm, job.param, job.threads,
                         job.max_rounds, job.async, escaped_graph,
                         kWireSchemaVersion);
}

std::string describe_wire_line(std::size_t line_no, const std::string& line) {
  // Keep the snippet one error-message-sized line no matter what arrived:
  // escape the control characters a garbled frame tends to carry and cut
  // at 80 chars — enough to recognize the line, never a log bomb.
  constexpr std::size_t kMaxSnippet = 80;
  std::string snippet;
  append_escaped(snippet, line.size() > kMaxSnippet
                              ? line.substr(0, kMaxSnippet)
                              : line);
  if (line.size() > kMaxSnippet) snippet += "…";
  return "line " + std::to_string(line_no) + " (\"" + snippet + "\")";
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Chaos spec codec + action function.  Pure and deterministic so every
// test failure replays: the worker's behaviour is a function of (spec,
// job ordinal, wire index) and nothing else.

namespace {

[[nodiscard]] std::uint64_t parse_chaos_uint(const std::string& spec,
                                             const std::string& field) {
  if (field.empty() ||
      field.find_first_not_of("0123456789") != std::string::npos) {
    throw InvalidArgument("chaos: expected a number in \"" + spec + "\"");
  }
  return std::stoull(field);
}

/// splitmix64: the same tiny deterministic mixer the fault layer uses —
/// full-period, seedable, identical on every platform.
[[nodiscard]] std::uint64_t chaos_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

ChaosSpec parse_chaos_spec(const std::string& spec) {
  ChaosSpec parsed;
  if (spec.empty()) return parsed;

  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      fields.push_back(spec.substr(start));
      break;
    }
    fields.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }

  const auto want = [&](std::size_t n) {
    if (fields.size() != n) {
      throw InvalidArgument("chaos: \"" + spec + "\" takes " +
                            std::to_string(n - 1) + " argument(s), got " +
                            std::to_string(fields.size() - 1));
    }
  };
  const std::string& mode = fields[0];
  if (mode == "crash") {
    want(2);
    parsed.mode = ChaosSpec::Mode::kCrash;
    parsed.n = parse_chaos_uint(spec, fields[1]);
  } else if (mode == "hang") {
    want(3);
    parsed.mode = ChaosSpec::Mode::kHang;
    parsed.n = parse_chaos_uint(spec, fields[1]);
    parsed.ms = parse_chaos_uint(spec, fields[2]);
  } else if (mode == "garbage") {
    want(2);
    parsed.mode = ChaosSpec::Mode::kGarbage;
    parsed.n = parse_chaos_uint(spec, fields[1]);
  } else if (mode == "slow") {
    want(3);
    parsed.mode = ChaosSpec::Mode::kSlow;
    parsed.n = parse_chaos_uint(spec, fields[1]);
    parsed.ms = parse_chaos_uint(spec, fields[2]);
  } else if (mode == "exit-mid") {
    want(2);
    parsed.mode = ChaosSpec::Mode::kExitMid;
    parsed.n = parse_chaos_uint(spec, fields[1]);
  } else if (mode == "poison") {
    want(2);
    parsed.mode = ChaosSpec::Mode::kPoison;
    parsed.n = parse_chaos_uint(spec, fields[1]);
  } else if (mode == "rand") {
    want(3);
    parsed.mode = ChaosSpec::Mode::kRandom;
    parsed.seed = parse_chaos_uint(spec, fields[1]);
    parsed.permille = parse_chaos_uint(spec, fields[2]);
    if (parsed.permille > 1000) {
      throw InvalidArgument("chaos: rand permille must be <= 1000, got " +
                            fields[2]);
    }
  } else {
    throw InvalidArgument(
        "chaos: unknown mode \"" + mode +
        "\" (expected crash, hang, garbage, slow, exit-mid, poison, rand)");
  }
  // The deterministic modes trigger on a 1-based ordinal/index; "the 0th
  // job" never exists for ordinals but poison:0 targets wire index 0.
  if (parsed.mode != ChaosSpec::Mode::kPoison &&
      parsed.mode != ChaosSpec::Mode::kRandom && parsed.n == 0) {
    throw InvalidArgument("chaos: job ordinal must be >= 1 in \"" + spec +
                          "\"");
  }
  return parsed;
}

std::string format_chaos_spec(const ChaosSpec& spec) {
  switch (spec.mode) {
    case ChaosSpec::Mode::kNone:
      return "";
    case ChaosSpec::Mode::kCrash:
      return "crash:" + std::to_string(spec.n);
    case ChaosSpec::Mode::kHang:
      return "hang:" + std::to_string(spec.n) + ":" + std::to_string(spec.ms);
    case ChaosSpec::Mode::kGarbage:
      return "garbage:" + std::to_string(spec.n);
    case ChaosSpec::Mode::kSlow:
      return "slow:" + std::to_string(spec.n) + ":" + std::to_string(spec.ms);
    case ChaosSpec::Mode::kExitMid:
      return "exit-mid:" + std::to_string(spec.n);
    case ChaosSpec::Mode::kPoison:
      return "poison:" + std::to_string(spec.n);
    case ChaosSpec::Mode::kRandom:
      return "rand:" + std::to_string(spec.seed) + ":" +
             std::to_string(spec.permille);
  }
  return "";
}

ChaosAction chaos_action(const ChaosSpec& spec, std::uint64_t job_ordinal,
                         std::size_t wire_index) {
  ChaosAction action;
  switch (spec.mode) {
    case ChaosSpec::Mode::kNone:
      break;
    case ChaosSpec::Mode::kCrash:
      // Triggers at the Nth job and stays armed past it, so a worker that
      // somehow survives (it should not) keeps trying to die.
      if (job_ordinal >= spec.n) action.mode = spec.mode;
      break;
    case ChaosSpec::Mode::kHang:
    case ChaosSpec::Mode::kGarbage:
    case ChaosSpec::Mode::kSlow:
    case ChaosSpec::Mode::kExitMid:
      if (job_ordinal == spec.n) {
        action.mode = spec.mode;
        action.ms = spec.ms;
      }
      break;
    case ChaosSpec::Mode::kPoison:
      if (wire_index == spec.n) action.mode = spec.mode;
      break;
    case ChaosSpec::Mode::kRandom: {
      const std::uint64_t draw = chaos_mix(spec.seed ^ chaos_mix(job_ordinal));
      if (draw % 1000 < spec.permille) {
        // Recoverable faults only — no hang (deadline-tuning territory)
        // and no poison (it would defeat a retry budget by design).
        switch ((draw >> 32) % 4) {
          case 0:
            action.mode = ChaosSpec::Mode::kCrash;
            break;
          case 1:
            action.mode = ChaosSpec::Mode::kGarbage;
            break;
          case 2:
            action.mode = ChaosSpec::Mode::kExitMid;
            break;
          default:
            action.mode = ChaosSpec::Mode::kSlow;
            action.ms = 2;
        }
      }
      break;
    }
  }
  return action;
}

// ---------------------------------------------------------------------------
// The executor itself: validation + stats surface over a WorkerPool.  The
// process machinery (fork/exec, framing, reader/writer threads, teardown)
// lives in worker_pool.cpp; unpooled mode simply runs each batch through
// an ephemeral single-batch pool, so both modes share one code path.

ProcessShardExecutor::ProcessShardExecutor(
    std::vector<std::string> worker_command, unsigned shards)
    : ProcessShardExecutor(std::move(worker_command), shards, Options()) {}

ProcessShardExecutor::ProcessShardExecutor(
    std::vector<std::string> worker_command, unsigned shards, Options options)
    : worker_command_(std::move(worker_command)),
      shards_(resolve_threads(shards)),
      options_(options) {
  if (worker_command_.empty()) {
    throw InvalidArgument(
        "ProcessShardExecutor: worker command must not be empty");
  }
#if defined(_WIN32)
  throw InvalidArgument(
      "ProcessShardExecutor: process sharding requires a POSIX platform");
#endif
}

ProcessShardExecutor::~ProcessShardExecutor() = default;

namespace {

void accumulate(ProcessShardExecutor::Stats& into,
                const ProcessShardExecutor::Stats& from) {
  into.jobs_shipped += from.jobs_shipped;
  into.batches_run += from.batches_run;
  into.workers_spawned += from.workers_spawned;
  into.workers_respawned += from.workers_respawned;
  into.workers_reaped += from.workers_reaped;
  into.plans_compiled += from.plans_compiled;
  into.plan_hits += from.plan_hits;
  into.jobs_retried += from.jobs_retried;
  into.jobs_poisoned += from.jobs_poisoned;
  into.deadline_kills += from.deadline_kills;
  into.batch_timeouts += from.batch_timeouts;
  into.pool_quarantines += from.pool_quarantines;
  into.fallback_jobs += from.fallback_jobs;
  into.summaries_lost += from.summaries_lost;
}

/// The executor's *_ms knobs, as the pool's chrono Options.
[[nodiscard]] WorkerPool::Options pool_options_from(
    const ProcessShardExecutor::Options& options, bool pooled) {
  WorkerPool::Options pool_options;
  pool_options.idle_timeout = std::chrono::milliseconds(
      pooled ? options.idle_timeout_ms : 0);  // ephemeral pools never reap
  pool_options.max_retries = options.max_retries;
  pool_options.retry_backoff =
      std::chrono::milliseconds(options.retry_backoff_ms);
  pool_options.job_timeout = std::chrono::milliseconds(options.job_timeout_ms);
  pool_options.batch_timeout =
      std::chrono::milliseconds(options.batch_timeout_ms);
  pool_options.breaker_deaths = options.breaker_deaths;
  pool_options.fallback_inprocess = options.fallback_inprocess;
  return pool_options;
}

}  // namespace

ProcessShardExecutor::Stats ProcessShardExecutor::stats() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  Stats merged = retired_;
  if (pool_) accumulate(merged, pool_->stats());
  return merged;
}

std::size_t ProcessShardExecutor::live_workers() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_ ? pool_->live_workers() : 0;
}

void ProcessShardExecutor::drain() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_) pool_->drain();
}

bool ProcessShardExecutor::quarantined() const {
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  return pool_ && pool_->quarantined();
}

void ProcessShardExecutor::validate(const std::vector<BatchJob>& jobs) const {
  Executor::validate(jobs);
  for (const auto& job : jobs) {
    if (!job.spec.has_value()) {
      throw InvalidArgument(
          "ProcessShardExecutor: job carries no JobSpec and cannot cross a "
          "process boundary");
    }
    if (job.options.collect_trace || job.options.collect_messages) {
      throw InvalidArgument(
          "ProcessShardExecutor: trace/message collection does not cross "
          "the wire");
    }
    if (job.options.exec.async.has_value() &&
        !job.options.exec.async->schedule.empty()) {
      throw InvalidArgument(
          "ProcessShardExecutor: adversarial schedules do not cross the "
          "wire; run scheduled jobs on the in-process backend");
    }
  }
}

#if defined(_WIN32)

void ProcessShardExecutor::run_streaming(const std::vector<BatchJob>&,
                                         const ResultCallback&) const {
  throw InvalidArgument(
      "ProcessShardExecutor: process sharding requires a POSIX platform");
}

#else

void ProcessShardExecutor::run_streaming(const std::vector<BatchJob>& jobs,
                                         const ResultCallback& on_result) const {
  validate(jobs);
  if (jobs.empty()) return;

  if (options_.pooled) {
    WorkerPool* pool = nullptr;
    {
      const std::lock_guard<std::mutex> lock(pool_mutex_);
      if (!pool_) {
        pool_ = std::make_unique<WorkerPool>(
            worker_command_, shards_,
            pool_options_from(options_, /*pooled=*/true));
      }
      pool = pool_.get();
    }
    // The pool serializes batches internally; holding pool_mutex_ across
    // the batch would deadlock stats() calls made from the callback.
    pool->run_batch(jobs, on_result);
    return;
  }

  // Unpooled: the pre-pool behaviour — a fresh fleet per batch, drained
  // before returning.  Counters merge into retired_ even when the batch
  // throws (jobs were shipped and workers forked either way).  The
  // resilience knobs apply within the batch; a quarantine dies with the
  // ephemeral pool.
  WorkerPool ephemeral(worker_command_, shards_,
                       pool_options_from(options_, /*pooled=*/false));
  try {
    ephemeral.run_batch(jobs, on_result);
  } catch (...) {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    accumulate(retired_, ephemeral.stats());
    throw;
  }
  const std::lock_guard<std::mutex> lock(pool_mutex_);
  accumulate(retired_, ephemeral.stats());
}

#endif  // defined(_WIN32)

}  // namespace eds::runtime
