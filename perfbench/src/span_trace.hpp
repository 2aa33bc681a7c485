// In-memory spans around the benchmark's calls into each library layer.
//
// A span records a name, start, end, parent span and the reporting round
// it belongs to (the id every span of one round shares).  Spans nest: a
// callback the library makes back into benchmark code (an exporter's
// envelope consumer, a fetch client's round handler) opens a child span,
// so a layer's self time -- its span minus the part its children cover --
// excludes the work it merely triggered downstream.
//
// A disabled tracer records nothing; the untraced run pays one branch per
// call site.  Spans stay in memory until the run ends and are written out
// then (write_csv).
#ifndef VPM_PERFBENCH_SPAN_TRACE_HPP
#define VPM_PERFBENCH_SPAN_TRACE_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names.  The text before the first '.' names the layer: the src/
/// module the call enters, or "bench" for the benchmark's own glue.
enum class SpanName : std::uint8_t {
  kPass,  ///< the timed region of one pipeline pass (the root span)
  kObserve,
  kDrain,
  kAdversary,
  kExport,
  kTransport,
  kStore,
  kFetch,
  kAddRound,
  kReportGap,
  kAnalyze,
  kGlue,
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(
                                             SpanName::kCount)>
    kSpanNames = {
        "bench.pass",       "collector.observe", "collector.drain",
        "adversary.transform", "dissem.export",   "dissem.transport",
        "dissem.store",     "dissem.fetch",      "core.add_round",
        "core.report_gap",  "core.analyze",      "bench.glue",
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< index + 1 of the parent span; 0 = none
  std::uint32_t round = 0;
  SpanName name = SpanName::kPass;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_round(std::uint32_t round) noexcept { round_ = round; }

  /// Opens a span under the innermost open one; returns its handle.
  std::uint32_t open(SpanName name) {
    spans_.push_back(Span{.start_ns = now_ns(),
                          .end_ns = 0,
                          .parent = current_,
                          .round = round_,
                          .name = name});
    current_ = static_cast<std::uint32_t>(spans_.size());
    return current_;
  }
  void close(std::uint32_t handle) {
    Span& s = spans_[handle - 1];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  void clear() {
    spans_.clear();
    current_ = 0;
    round_ = 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::uint32_t current_ = 0;
  std::uint32_t round_ = 0;
};

/// RAII span; free when the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, SpanName name)
      : tracer_(tracer), handle_(tracer.enabled() ? tracer.open(name) : 0) {}
  ~Scope() {
    if (handle_ != 0) tracer_.close(handle_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t handle_;
};

/// Per-name totals over a span list.
struct SelfTimes {
  std::array<std::int64_t, static_cast<std::size_t>(SpanName::kCount)>
      self_ns{};
  std::array<std::uint64_t, static_cast<std::size_t>(SpanName::kCount)>
      calls{};

  [[nodiscard]] std::int64_t self(SpanName n) const {
    return self_ns[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] std::uint64_t count(SpanName n) const {
    return calls[static_cast<std::size_t>(n)];
  }
};

[[nodiscard]] SelfTimes self_times(const std::vector<Span>& spans);

/// Durations (ns) of every span named `name`, in record order.
[[nodiscard]] std::vector<std::int64_t> durations(
    const std::vector<Span>& spans, SpanName name);

/// Writes `id,name,parent,round,start_ns,end_ns` rows (times relative to
/// the first span's start).  Returns false if the file cannot be written.
bool write_csv(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // VPM_PERFBENCH_SPAN_TRACE_HPP
