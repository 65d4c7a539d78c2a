#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

SpanBuffer* SpanLog::NewBuffer(const std::string& thread) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id_base = static_cast<uint64_t>(buffers_.size()) << 40;
  buffers_.push_back(std::make_unique<SpanBuffer>(id_base, thread));
  return buffers_.back().get();
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  uint64_t epoch = UINT64_MAX;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans()) {
      epoch = std::min(epoch, span.begin_ns);
    }
  }
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans()) {
      std::fprintf(out,
                   "{\"name\": \"%s\", \"thread\": \"%s\", \"id\": %llu, "
                   "\"request\": %llu, \"parent\": %llu, \"begin_us\": "
                   "%.3f, \"dur_us\": %.3f}\n",
                   span.name, buffer->thread().c_str(),
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.request),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<double>(span.begin_ns - epoch) * 1e-3,
                   static_cast<double>(span.end_ns - span.begin_ns) * 1e-3);
    }
  }
  return std::fclose(out) == 0;
}

uint64_t PhaseTimes::SumSelf() const {
  uint64_t sum = 0;
  for (uint64_t ns : self_ns) sum += ns;
  return sum;
}

PhaseTimes PhaseSelfTimes(const pdatalog::TraceRing& ring) {
  using pdatalog::TraceEventKind;
  struct Open {
    size_t phase;
    uint64_t begin;
    uint64_t children = 0;  // ns covered by nested spans
  };
  PhaseTimes times;
  std::vector<Open> stack;
  for (size_t i = 0; i < ring.size(); ++i) {
    const pdatalog::TraceEvent& event = ring.event(i);
    const size_t phase = static_cast<size_t>(event.phase);
    if (event.kind == TraceEventKind::kInstant) continue;
    if (phase >= times.self_ns.size()) {
      times.ok = false;
      continue;
    }
    if (event.kind == TraceEventKind::kBegin) {
      stack.push_back(Open{phase, event.ts});
      continue;
    }
    if (stack.empty() || stack.back().phase != phase ||
        event.ts < stack.back().begin) {
      times.ok = false;
      continue;
    }
    const Open open = stack.back();
    stack.pop_back();
    const uint64_t duration = event.ts - open.begin;
    times.self_ns[phase] += duration - std::min(duration, open.children);
    times.spans[phase] += 1;
    if (!stack.empty()) stack.back().children += duration;
  }
  if (!stack.empty()) times.ok = false;
  return times;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

}  // namespace perfbench
