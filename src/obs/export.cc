#include "obs/export.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

namespace pdatalog {

namespace {

// Microseconds (3 decimals) relative to the tracer epoch. Events can
// only be stamped after the tracer (and thus the epoch) exists, so the
// subtraction cannot underflow; clamp anyway for safety.
std::string RelativeUs(uint64_t ts, uint64_t epoch) {
  double us = ts >= epoch ? static_cast<double>(ts - epoch) / 1e3 : 0.0;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void AppendEvent(std::string* out, const char* ph, int tid,
                 const std::string& ts, const char* name, uint32_t arg,
                 bool instant) {
  *out += "  {\"ph\":\"";
  *out += ph;
  *out += "\",\"pid\":0,\"tid\":" + std::to_string(tid) + ",\"ts\":" + ts +
          ",\"name\":\"" + name + "\"";
  if (instant) *out += ",\"s\":\"t\"";
  if (arg != 0) *out += ",\"args\":{\"v\":" + std::to_string(arg) + "}";
  *out += "},\n";
}

void AppendRing(std::string* out, const TraceRing& ring, uint64_t epoch,
                int num_workers) {
  int tid = ring.id();
  std::string thread_name =
      tid == num_workers ? "engine" : "worker " + std::to_string(tid);
  *out += "  {\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(tid) +
          ",\"name\":\"thread_name\",\"args\":{\"name\":\"" + thread_name +
          "\"}},\n";

  // Sanitize as we emit: a dropped event can only be at the tail of the
  // ring (full rings drop the newest event), so an End whose Begin was
  // recorded always finds it; unmatched Ends are skipped defensively
  // and Begins left open at the end of the ring are closed at the last
  // timestamp so the exported nesting is always well-formed.
  std::vector<TracePhase> open;
  uint64_t last_ts = epoch;
  for (size_t i = 0; i < ring.size(); ++i) {
    const TraceEvent& e = ring.event(i);
    last_ts = e.ts;
    std::string ts = RelativeUs(e.ts, epoch);
    const char* name = TracePhaseName(e.phase);
    switch (e.kind) {
      case TraceEventKind::kBegin:
        open.push_back(e.phase);
        AppendEvent(out, "B", tid, ts, name, e.arg, false);
        break;
      case TraceEventKind::kEnd:
        if (open.empty() || open.back() != e.phase) break;  // unmatched
        open.pop_back();
        AppendEvent(out, "E", tid, ts, name, 0, false);
        break;
      case TraceEventKind::kInstant:
        // Flow instants are emitted by the pairing pass in
        // ChromeTraceJson, not as generic instants.
        if (e.phase == TracePhase::kFlowSend ||
            e.phase == TracePhase::kFlowRecv) {
          break;
        }
        AppendEvent(out, "i", tid, ts, name, e.arg, true);
        break;
    }
  }
  std::string close_ts = RelativeUs(last_ts, epoch);
  while (!open.empty()) {
    AppendEvent(out, "E", tid, close_ts, TracePhaseName(open.back()), 0,
                false);
    open.pop_back();
  }
}

// One endpoint of a flow (send or delivery of a block frame).
struct FlowPoint {
  uint64_t ts;
  int tid;
};

// Collects flow endpoints from every ring, keyed by the flow identity
// (sender, receiver, per-channel frame sequence). Endpoints are kept
// in ring order and paired positionally: channels are FIFO, so the
// k-th send of a key matches the k-th delivery.
void CollectFlows(
    const Tracer& tracer,
    std::map<uint64_t, std::pair<std::vector<FlowPoint>,
                                 std::vector<FlowPoint>>>* flows) {
  for (int i = 0; i < tracer.num_rings(); ++i) {
    const TraceRing& ring = tracer.ring(i);
    for (size_t k = 0; k < ring.size(); ++k) {
      const TraceEvent& e = ring.event(k);
      if (e.kind != TraceEventKind::kInstant) continue;
      if (e.phase == TracePhase::kFlowSend) {
        uint64_t key =
            ((static_cast<uint64_t>(i) << 10 |
              static_cast<uint64_t>(FlowPeer(e.arg)))
             << kFlowSeqBits) |
            FlowSeq(e.arg);
        (*flows)[key].first.push_back(FlowPoint{e.ts, i});
      } else if (e.phase == TracePhase::kFlowRecv) {
        uint64_t key =
            ((static_cast<uint64_t>(FlowPeer(e.arg)) << 10 |
              static_cast<uint64_t>(i))
             << kFlowSeqBits) |
            FlowSeq(e.arg);
        (*flows)[key].second.push_back(FlowPoint{e.ts, i});
      }
    }
  }
}

void AppendFlowEvent(std::string* out, const char* ph, const FlowPoint& p,
                     uint64_t epoch, uint64_t id) {
  *out += "  {\"ph\":\"";
  *out += ph;
  *out += "\",\"pid\":0,\"tid\":" + std::to_string(p.tid) +
          ",\"ts\":" + RelativeUs(p.ts, epoch) +
          ",\"name\":\"frame\",\"cat\":\"flow\"";
  if (ph[0] == 'f') *out += ",\"bp\":\"e\"";
  *out += ",\"id\":" + std::to_string(id) + "},\n";
}

}  // namespace

std::string ChromeTraceJson(const Tracer& tracer) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (int i = 0; i < tracer.num_rings(); ++i) {
    AppendRing(&out, tracer.ring(i), tracer.epoch_ticks(),
               tracer.num_workers());
  }
  // Emit matched send/delivery pairs as Chrome flow events. Only pairs
  // with both endpoints recorded are exported, so every flow id occurs
  // exactly once as "s" and once as "f".
  std::map<uint64_t,
           std::pair<std::vector<FlowPoint>, std::vector<FlowPoint>>>
      flows;
  CollectFlows(tracer, &flows);
  uint64_t next_id = 1;
  for (const auto& [key, points] : flows) {
    (void)key;
    size_t n = std::min(points.first.size(), points.second.size());
    for (size_t k = 0; k < n; ++k) {
      AppendFlowEvent(&out, "s", points.first[k], tracer.epoch_ticks(),
                      next_id);
      AppendFlowEvent(&out, "f", points.second[k], tracer.epoch_ticks(),
                      next_id);
      ++next_id;
    }
  }
  // Strip the trailing ",\n" left by the last event.
  if (out.size() >= 2 && out[out.size() - 2] == ',') {
    out.erase(out.size() - 2, 1);
  }
  out += "]}\n";
  return out;
}

std::string MetricsJson(const MetricsRegistry& metrics) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.counters()) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : metrics.gauges()) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + JsonNumber(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : metrics.histograms()) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"count\": " + std::to_string(h.count()) +
           ", \"sum\": " + std::to_string(h.sum()) +
           ", \"max\": " + std::to_string(h.max()) +
           ", \"mean\": " + JsonNumber(h.Mean()) +
           ", \"p50\": " + JsonNumber(h.Percentile(50)) +
           ", \"p95\": " + JsonNumber(h.Percentile(95)) +
           ", \"p99\": " + JsonNumber(h.Percentile(99)) + ", \"buckets\": [";
    int last = -1;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      if (h.bucket(b) != 0) last = b;
    }
    for (int b = 0; b <= last; ++b) {
      if (b != 0) out += ", ";
      out += std::to_string(h.bucket(b));
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

Status WriteTextFile(const std::string& body, const std::string& path,
                     const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal(std::string("cannot open ") + what +
                            " output file " + path);
  }
  size_t written = std::fwrite(body.data(), 1, body.size(), f);
  int close_rc = std::fclose(f);
  if (written != body.size() || close_rc != 0) {
    return Status::Internal(std::string("short write to ") + what +
                            " output file " + path);
  }
  return Status::Ok();
}

Status WriteChromeTrace(const Tracer& tracer, const std::string& path) {
  return WriteTextFile(ChromeTraceJson(tracer), path, "trace");
}

Status WriteMetricsJson(const MetricsRegistry& metrics,
                        const std::string& path) {
  return WriteTextFile(MetricsJson(metrics), path, "metrics");
}

}  // namespace pdatalog
