#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

namespace ptgbench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 14);
}

Tracer::Scope Tracer::span(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_;
  s.job = job_;
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  open_ = index;
  // Read the clock last so the bookkeeping above is not inside the span.
  spans_.back().start_ns = now_ns();
  return Scope(*this, index);
}

void Tracer::close(std::int32_t index) noexcept {
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end_ns = now_ns();
  open_ = s.parent;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    Totals& t = out[s.name];
    ++t.count;
    t.total_s += static_cast<double>(dur) * 1e-9;
    t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
  }
  return out;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"job\":%u}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, s.job);
  }
  std::fputs("]}\n", f.get());
}

}  // namespace ptgbench
