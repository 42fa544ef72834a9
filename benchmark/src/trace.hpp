#pragma once
// In-memory span recorder for the traced ptgbench run.
//
// Spans are recorded by the benchmark around its calls into each layer of
// the library (the library itself is not instrumented). A span has a name
// of the form "<layer>.<what>", a start and end on the steady clock, the
// span that was open when it started (its parent), and the job it belongs
// to. Everything stays in memory until the run ends; write_chrome_trace()
// then dumps it in the Chrome trace-event format that chrome://tracing and
// Perfetto open directly.
//
// Self time of a span is its duration minus the durations of its direct
// children. Spans are recorded from one thread only, so children never
// overlap each other and always lie inside their parent.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ptgbench {

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  ///< String literal; compared by content.
    std::int32_t parent = -1;    ///< Index into spans(), -1 for a root.
    std::uint32_t job = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::int32_t index) : tracer_(tracer), index_(index) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

    /// Renames the span, for spans whose kind is known only after the
    /// call (an engine-pool hit or miss). `name` must be a string literal.
    void rename(const char* name) noexcept {
      tracer_.spans_[static_cast<std::size_t>(index_)].name = name;
    }

   private:
    Tracer& tracer_;
    std::int32_t index_;
  };

  Tracer();

  /// Opens a span as a child of the innermost open span. `name` must be a
  /// string literal (its pointer is stored).
  [[nodiscard]] Scope span(const char* name);

  /// Tags spans opened from now on with `job`.
  void set_job(std::uint32_t job) noexcept { job_ = job; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Per span name: number of spans, summed duration and summed self time
  /// (seconds).
  struct Totals {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Chrome trace-event JSON ("X" events, microseconds since the tracer
  /// was created; args carry the parent span index and the job).
  void write_chrome_trace(const std::string& path) const;

 private:
  void close(std::int32_t index) noexcept;
  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
  std::uint32_t job_ = 0;
};

}  // namespace ptgbench
