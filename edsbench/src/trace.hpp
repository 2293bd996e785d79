// In-memory span recorder for the benchmark's traced mode.
//
// Spans are recorded from the benchmark's own code around each call into a
// library layer (named after its src/ module), kept in memory, and written
// once at exit as Chrome trace-event JSON — the format Perfetto and
// about:tracing open, so spans the library may emit later can join the
// same file.  A layer's self time is its spans' durations minus the part
// covered by their child spans.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <vector>

namespace edsbench {

/// What a span is charged to.  kOp is the benchmark's own per-op glue (the
/// root of each op's span tree); every other value is a src/ module.
enum class Layer : std::uint8_t {
  kOp,
  kGen,       ///< graph/generators + port numbering
  kPlan,      ///< runtime/plan_cache
  kProgram,   ///< runtime/program via the algo factories
  kEngine,    ///< runtime/engine run_plan
  kOutputs,   ///< runtime/outputs validated_edge_set
  kAnalysis,  ///< analysis/verify is_edge_dominating_set
  kBatch,     ///< runtime/batch + executor, via algo::run_batch_streaming
  kAsync,     ///< runtime/async AsyncPolicy::run
  kSched,     ///< runtime/sched adversary search and shrink
};
inline constexpr std::size_t kLayerCount = 10;

[[nodiscard]] const char* layer_name(Layer layer);

using LayerTimes = std::array<std::int64_t, kLayerCount>;

struct Span {
  const char* name = "";
  Layer layer = Layer::kOp;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint64_t op = 0;      ///< op id shared by every span of one op
  std::uint32_t tid = 0;
};

/// Thread-safe span store.  `name` must be a string literal (or otherwise
/// outlive the tracer): spans keep the pointer.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span and returns its index.
  int begin(const char* name, Layer layer, std::uint64_t op, int parent);
  void end(int span);

  [[nodiscard]] std::size_t size() const;

  /// Per-layer self time of the spans with index >= `from` (their children
  /// must come later, which holds for spans opened in nesting order).
  [[nodiscard]] LayerTimes self_ns(std::size_t from = 0) const;

  /// Summed duration of the root spans with index >= `from`.
  [[nodiscard]] std::int64_t root_ns(std::size_t from = 0) const;

  /// Summed duration and count of the spans named `name` with index >=
  /// `from`.
  [[nodiscard]] std::pair<std::int64_t, std::uint64_t> named(
      const char* name, std::size_t from = 0) const;

  /// Writes the first `max_spans` spans as Chrome trace-event JSON ("X"
  /// complete events, microsecond timestamps; parent and op id in args).
  /// Every span still counts in the metrics; the cap bounds the file.
  void write_chrome_json(std::ostream& out, std::size_t max_spans) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, Layer layer, std::uint64_t op,
        int parent = -1)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(name, layer, op, parent) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace edsbench
