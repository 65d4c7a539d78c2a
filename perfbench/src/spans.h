// The benchmark's own tracing: spans recorded around every call the
// harness makes into a layer's public functions, kept in memory and
// written out once the run ends. Nothing here touches the engine's
// instrumentation; `PhaseSelfTimes` only reads the spans the engine's
// own Tracer recorded when the traced run handed it one.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// One closed span. `request` groups the spans of one request (a query,
// an update burst, one batch leg); `parent` is the id of the enclosing
// span, 0 at the top.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t request = 0;
  uint64_t parent = 0;
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
};

// Single-writer span storage for one harness thread.
class SpanBuffer {
 public:
  SpanBuffer(uint64_t id_base, std::string thread)
      : id_base_(id_base), thread_(std::move(thread)) {}
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  // Opens a span and returns its id.
  uint64_t Open(const char* name, uint64_t request, uint64_t parent = 0) {
    Span span;
    span.name = name;
    span.id = id_base_ + spans_.size() + 1;
    span.request = request;
    span.parent = parent;
    span.begin_ns = NowNs();
    spans_.push_back(span);
    return span.id;
  }
  // Closes span `id` and returns its duration in seconds.
  double Close(uint64_t id) {
    Span& span = spans_[id - id_base_ - 1];
    span.end_ns = NowNs();
    return static_cast<double>(span.end_ns - span.begin_ns) * 1e-9;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread() const { return thread_; }

 private:
  uint64_t id_base_;
  std::string thread_;
  std::vector<Span> spans_;
};

// Owns every thread's buffer and the request-id counter.
class SpanLog {
 public:
  // A buffer for one thread; stays valid as long as the log.
  SpanBuffer* NewBuffer(const std::string& thread);
  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  // Writes every span as one JSON object per line; call after every
  // writer thread has been joined.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
  std::atomic<uint64_t> next_request_{0};
};

// Per-phase self time (ns) of one engine trace ring: a span's duration
// minus the part of it that nested spans cover. `ok` is false when the
// ring holds unmatched Begin/End events (it dropped events).
struct PhaseTimes {
  static constexpr int kPhases =
      static_cast<int>(pdatalog::TracePhase::kMaintain) + 1;
  std::array<uint64_t, kPhases> self_ns{};
  std::array<uint64_t, kPhases> spans{};
  bool ok = true;

  uint64_t self(pdatalog::TracePhase phase) const {
    return self_ns[static_cast<size_t>(phase)];
  }
  uint64_t SumSelf() const;
};

PhaseTimes PhaseSelfTimes(const pdatalog::TraceRing& ring);

// Order statistics over a copy of `values` (linear interpolation, the
// same rule as Python's statistics.quantiles "inclusive").
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}
// Interquartile mean: the mean of the middle half of the values. Leg
// times on a shared host are bimodal (a fast and a slow mode that come
// and go); a median jumps between the modes as their mix shifts, while
// this estimate moves in proportion and still ignores outliers.
double InterquartileMean(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
