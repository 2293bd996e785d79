#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

namespace edsbench {

namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t number = next++;
  return number;
}

/// Trace-event timestamps are microseconds; keep the nanosecond digits.
void write_us(std::ostream& out, std::int64_t ns) {
  const auto frac = ns % 1000;
  out << ns / 1000 << '.' << frac / 100 << frac / 10 % 10 << frac % 10;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kGen: return "gen";
    case Layer::kPlan: return "plan";
    case Layer::kProgram: return "program";
    case Layer::kEngine: return "engine";
    case Layer::kOutputs: return "outputs";
    case Layer::kAnalysis: return "analysis";
    case Layer::kBatch: return "batch";
    case Layer::kAsync: return "async";
    case Layer::kSched: return "sched";
  }
  return "?";
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::begin(const char* name, Layer layer, std::uint64_t op,
                  int parent) {
  const std::uint32_t tid = thread_number();
  const std::int64_t start = now_ns();
  const std::lock_guard lock(mutex_);
  spans_.push_back({name, layer, start, start, parent, op, tid});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  const std::int64_t stop = now_ns();
  const std::lock_guard lock(mutex_);
  spans_[static_cast<std::size_t>(span)].end_ns = stop;
}

std::size_t Tracer::size() const {
  const std::lock_guard lock(mutex_);
  return spans_.size();
}

LayerTimes Tracer::self_ns(std::size_t from) const {
  const std::lock_guard lock(mutex_);
  LayerTimes self{};
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    self[static_cast<std::size_t>(s.layer)] += dur;
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) >= from) {
      self[static_cast<std::size_t>(
          spans_[static_cast<std::size_t>(s.parent)].layer)] -= dur;
    }
  }
  return self;
}

std::int64_t Tracer::root_ns(std::size_t from) const {
  const std::lock_guard lock(mutex_);
  std::int64_t total = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].parent < 0) total += spans_[i].end_ns - spans_[i].start_ns;
  }
  return total;
}

std::pair<std::int64_t, std::uint64_t> Tracer::named(const char* name,
                                                     std::size_t from) const {
  const std::lock_guard lock(mutex_);
  std::int64_t total = 0;
  std::uint64_t count = 0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      total += spans_[i].end_ns - spans_[i].start_ns;
      ++count;
    }
  }
  return {total, count};
}

void Tracer::write_chrome_json(std::ostream& out,
                               std::size_t max_spans) const {
  const std::lock_guard lock(mutex_);
  const std::size_t count = std::min(spans_.size(), max_spans);
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":{\"spans\":"
      << spans_.size() << ",\"written\":" << count << "},\"traceEvents\":[";
  for (std::size_t i = 0; i < count; ++i) {
    const Span& s = spans_[i];
    if (i != 0) out << ",\n";
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"" << layer_name(s.layer)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":";
    write_us(out, s.start_ns);
    out << ",\"dur\":";
    write_us(out, s.end_ns - s.start_ns);
    out << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  out << "]}\n";
}

}  // namespace edsbench
