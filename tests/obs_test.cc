// Tests for the observability subsystem (src/obs/): trace ring
// overflow semantics, span nesting, Chrome-trace and metrics JSON
// exporters, and the registry-is-source-of-truth contract against the
// parallel engine.
#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;

// Minimal recursive-descent JSON syntax validator: enough to assert the
// exporters emit parseable documents without an external dependency.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool String() {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    return Expect('"');
  }

  bool Number() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* c = word; *c != '\0'; ++c, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *c) return false;
    }
    return true;
  }

  bool Expect(char c) {
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Peek(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

size_t CountOccurrences(const std::string& haystack,
                        const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(TraceRingTest, OverflowDropsCountedNotCrashed) {
  TraceRing ring(0, 8);
  for (int i = 0; i < 20; ++i) {
    ring.Instant(TracePhase::kRound, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.dropped(), 12u);
  // The surviving events are the oldest eight, in order.
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.event(i).arg, static_cast<uint32_t>(i));
    EXPECT_EQ(ring.event(i).kind, TraceEventKind::kInstant);
  }
}

TEST(TraceRingTest, SpanNestingIsWellFormed) {
  TraceRing ring(0, 64);
  {
    TraceScope outer(&ring, TracePhase::kProbe, 1);
    ring.Instant(TracePhase::kRound, 1);
    {
      TraceScope inner(&ring, TracePhase::kInsert, 7);
    }
    TraceScope flush(&ring, TracePhase::kFlush);
  }
  ASSERT_EQ(ring.dropped(), 0u);
  // Walk the events with a stack: every End must match the open Begin.
  std::vector<TracePhase> open;
  for (size_t i = 0; i < ring.size(); ++i) {
    const TraceEvent& e = ring.event(i);
    if (e.kind == TraceEventKind::kBegin) {
      open.push_back(e.phase);
    } else if (e.kind == TraceEventKind::kEnd) {
      ASSERT_FALSE(open.empty());
      EXPECT_EQ(open.back(), e.phase);
      open.pop_back();
    }
  }
  EXPECT_TRUE(open.empty());
  // Timestamps never go backwards within one ring.
  for (size_t i = 1; i < ring.size(); ++i) {
    EXPECT_GE(ring.event(i).ts, ring.event(i - 1).ts);
  }
}

TEST(TraceRingTest, NullScopeEmitsNothing) {
  // The disabled configuration: a null ring must be a no-op.
  TraceScope scope(nullptr, TracePhase::kProbe, 3);
  SUCCEED();
}

TEST(TracerTest, RingLayoutHasEngineRingLast) {
  Tracer tracer(3, 16);
  EXPECT_EQ(tracer.num_workers(), 3);
  EXPECT_EQ(tracer.num_rings(), 4);
  EXPECT_EQ(tracer.engine_ring(), tracer.ring(3));
  for (int i = 0; i < tracer.num_rings(); ++i) {
    EXPECT_EQ(tracer.ring(i)->id(), i);
    EXPECT_EQ(tracer.ring(i)->capacity(), 16u);
  }
  EXPECT_EQ(tracer.total_events(), 0u);
  EXPECT_EQ(tracer.total_dropped(), 0u);
}

TEST(ExportTest, ClosesUnbalancedSpansAndStaysParseable) {
  Tracer tracer(1, 8);
  TraceRing* ring = tracer.ring(0);
  ring->Begin(TracePhase::kProbe, 1);
  ring->Begin(TracePhase::kInsert, 2);
  ring->Instant(TracePhase::kRound, 1);
  // Both Begins are left open (a mid-span abort or tail drop).
  std::string json = ChromeTraceJson(tracer);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  // The exporter synthesizes the missing Ends: B and E counts balance.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"B\""),
            CountOccurrences(json, "\"ph\":\"E\""));
}

TEST(ExportTest, EmptyTracerExportsValidJson) {
  Tracer tracer(2, 8);
  std::string json = ChromeTraceJson(tracer);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  // Thread-name metadata is present even with no events.
  EXPECT_NE(json.find("worker 0"), std::string::npos);
  EXPECT_NE(json.find("engine"), std::string::npos);
}

TEST(ExportTest, ParallelAncestorTraceParsesAndIsMonotone) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 16);
  const int P = 3;
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, P);

  Tracer tracer(P);
  ParallelOptions options;
  options.tracer = &tracer;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(tracer.total_events(), 0u);
  EXPECT_EQ(tracer.total_dropped(), 0u);

  // Per-worker timestamps never go backwards (single-writer rings).
  for (int i = 0; i < tracer.num_rings(); ++i) {
    const TraceRing& ring = *tracer.ring(i);
    for (size_t k = 1; k < ring.size(); ++k) {
      EXPECT_GE(ring.event(k).ts, ring.event(k - 1).ts)
          << "ring " << i << " event " << k;
    }
  }

  std::string json = ChromeTraceJson(tracer);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid());
  // The run exercises init, drain, probe spans and round instants on
  // every worker, plus the engine's pooling span.
  EXPECT_NE(json.find("\"name\":\"init\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"drain\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"probe\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"round\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pool\""), std::string::npos);
}

TEST(ExportTest, UndersizedTracerIsRejected) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  Tracer tracer(2);  // bundle needs 3
  ParallelOptions options;
  options.tracer = &tracer;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  EXPECT_FALSE(result.ok());
}

TEST(MetricsTest, CountersAddAndGaugesOverwrite) {
  MetricsRegistry m;
  EXPECT_TRUE(m.empty());
  m.AddCounter("run.firings", 3);
  m.AddCounter("run.firings", 4);
  m.SetGauge("run.wall_seconds", 1.5);
  m.SetGauge("run.wall_seconds", 2.5);
  EXPECT_EQ(m.counter("run.firings"), 7u);
  EXPECT_EQ(m.counter("absent"), 0u);
  EXPECT_DOUBLE_EQ(m.gauge("run.wall_seconds"), 2.5);
  EXPECT_DOUBLE_EQ(m.gauge("absent"), 0.0);
  EXPECT_EQ(m.size(), 2u);
}

TEST(MetricsTest, JsonExportParses) {
  MetricsRegistry m;
  m.AddCounter("run.firings", 42);
  m.AddCounter("worker.0.rounds", 5);
  m.SetGauge("run.wall_seconds", 0.125);
  std::string json = MetricsJson(m);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"run.firings\": 42"), std::string::npos);

  MetricsRegistry empty;
  std::string empty_json = MetricsJson(empty);
  JsonValidator empty_validator(empty_json);
  EXPECT_TRUE(empty_validator.Valid()) << empty_json;
}

TEST(MetricsTest, RegistryAgreesWithParallelResultScalars) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 12);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const MetricsRegistry& m = result->metrics;
  EXPECT_EQ(m.counter("run.firings"), result->total_firings);
  EXPECT_EQ(m.counter("run.cross_tuples"), result->cross_tuples);
  EXPECT_EQ(m.counter("run.self_tuples"), result->self_tuples);
  EXPECT_EQ(m.counter("run.cross_bytes"), result->cross_bytes);
  EXPECT_EQ(m.counter("run.cross_frames"), result->cross_frames);
  EXPECT_EQ(m.counter("run.out_tuples_total"), result->out_tuples_total);
  EXPECT_EQ(m.counter("run.pooled_tuples"), result->pooled_tuples);
  EXPECT_EQ(m.counter("run.pooling_messages"), result->pooling_messages);
  EXPECT_EQ(m.counter("run.pooling_bytes"), result->pooling_bytes);
  EXPECT_GT(result->total_firings, 0u);

  // Per-worker entries sum to the run totals.
  uint64_t worker_firings = 0;
  for (size_t i = 0; i < result->workers.size(); ++i) {
    worker_firings +=
        m.counter("worker." + std::to_string(i) + ".firings");
    EXPECT_EQ(m.counter("worker." + std::to_string(i) + ".rounds"),
              static_cast<uint64_t>(result->workers[i].rounds));
  }
  EXPECT_EQ(worker_firings, result->total_firings);
}

TEST(HistogramTest, RecordTracksExactScalars) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 100ull, 1000ull}) h.Record(v);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1106u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.Mean(), 1106.0 / 6.0);
  // Bucket geometry: 0 -> 0, v -> floor(log2 v) + 1.
  EXPECT_EQ(Histogram::BucketOf(0), 0);
  EXPECT_EQ(Histogram::BucketOf(1), 1);
  EXPECT_EQ(Histogram::BucketOf(2), 2);
  EXPECT_EQ(Histogram::BucketOf(3), 2);
  EXPECT_EQ(Histogram::BucketOf(4), 3);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), Histogram::kBuckets - 1);
  EXPECT_EQ(Histogram::BucketLow(0), 0u);
  EXPECT_EQ(Histogram::BucketLow(1), 1u);
  EXPECT_EQ(Histogram::BucketLow(5), 16u);
  EXPECT_EQ(h.bucket(0), 1u);  // the recorded 0
  EXPECT_EQ(h.bucket(2), 2u);  // 2 and 3
}

TEST(HistogramTest, PercentilesAreMonotoneAndClamped) {
  Histogram h;
  for (uint64_t v = 1; v <= 1024; ++v) h.Record(v);
  double prev = 0.0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0}) {
    double v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    EXPECT_LE(v, static_cast<double>(h.max())) << "p" << p;
    prev = v;
  }
  // log2 buckets are within a factor of two of the order statistic.
  EXPECT_GE(h.Percentile(50), 256.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1024.0);
  // Oversized p clamps instead of reading past the buckets.
  EXPECT_DOUBLE_EQ(h.Percentile(250), h.Percentile(100));
}

TEST(HistogramTest, MergeAddsBucketwise) {
  Histogram a, b;
  for (uint64_t v = 0; v < 16; ++v) a.Record(v);
  for (uint64_t v = 100; v < 200; ++v) b.Record(v);
  uint64_t sum_a = a.sum();
  a.Merge(b);
  EXPECT_EQ(a.count(), 116u);
  EXPECT_EQ(a.sum(), sum_a + b.sum());
  EXPECT_EQ(a.max(), 199u);
  for (int bucket = 0; bucket < Histogram::kBuckets; ++bucket) {
    uint64_t expected = 0;
    for (uint64_t v = 0; v < 16; ++v) {
      if (Histogram::BucketOf(v) == bucket) ++expected;
    }
    for (uint64_t v = 100; v < 200; ++v) {
      if (Histogram::BucketOf(v) == bucket) ++expected;
    }
    EXPECT_EQ(a.bucket(bucket), expected) << "bucket " << bucket;
  }
}

TEST(MetricsTest, JsonExportIncludesHistogramPercentiles) {
  MetricsRegistry m;
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  m.MergeHistogram("hist.probe_ns", h);
  m.AddCounter("run.firings", 1);
  std::string json = MetricsJson(m);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid()) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"hist.probe_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"buckets\""), std::string::npos);
}

// Extracts the integer after every `"id":` in objects whose "ph" is
// `phase`, in document order.
std::vector<long> FlowIds(const std::string& json, char phase) {
  std::vector<long> ids;
  std::string marker = std::string("\"ph\":\"") + phase + "\"";
  for (size_t pos = json.find(marker); pos != std::string::npos;
       pos = json.find(marker, pos + 1)) {
    size_t close = json.find('}', pos);
    size_t id = json.find("\"id\":", pos);
    if (id == std::string::npos || id > close) continue;
    ids.push_back(std::strtol(json.c_str() + id + 5, nullptr, 10));
  }
  return ids;
}

TEST(ExportTest, FlowEventsPairSendsWithReceives) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 20);
  const int P = 3;
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, P);

  Tracer tracer(P);
  ParallelOptions options;
  options.tracer = &tracer;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(result->cross_frames, 0u);

  std::string json = ChromeTraceJson(tracer);
  JsonValidator validator(json);
  EXPECT_TRUE(validator.Valid());

  // Every emitted flow-start has exactly one flow-finish with the same
  // id, and at least one cross-worker frame produced an arrow.
  std::vector<long> starts = FlowIds(json, 's');
  std::vector<long> finishes = FlowIds(json, 'f');
  ASSERT_GT(starts.size(), 0u);
  EXPECT_EQ(starts.size(), finishes.size());
  std::sort(starts.begin(), starts.end());
  std::sort(finishes.begin(), finishes.end());
  EXPECT_EQ(starts, finishes);
  EXPECT_EQ(std::adjacent_find(starts.begin(), starts.end()), starts.end())
      << "duplicate flow ids";
  // Chrome requires bp:e on the finish to bind at the enclosing slice.
  EXPECT_EQ(CountOccurrences(json, "\"bp\":\"e\""), finishes.size());
  EXPECT_EQ(CountOccurrences(json, "\"cat\":\"flow\""),
            starts.size() + finishes.size());
}

TEST(MetricsTest, TracedParallelRunRecordsHistograms) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 16);
  const int P = 3;
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, P);

  Tracer tracer(P);
  ParallelOptions options;
  options.tracer = &tracer;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const MetricsRegistry& m = result->metrics;
  for (const char* name :
       {"hist.probe_ns", "hist.drain_ns", "hist.block_tuples",
        "hist.queue_frames_at_drain"}) {
    const Histogram* h = m.FindHistogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_GT(h->count(), 0u) << name;
  }

  // An untraced run records none: the hot path must not pay for
  // distributions nobody asked for.
  auto setup2 = MakeAncestorSetup();
  GenChain(&setup2->symbols, &setup2->edb, "par", 16);
  RewriteBundle bundle2 =
      MakeAncestorBundle(setup2.get(), AncestorScheme::kExample3, P);
  StatusOr<ParallelResult> untraced = RunParallel(bundle2, &setup2->edb);
  ASSERT_TRUE(untraced.ok());
  EXPECT_TRUE(untraced->metrics.histograms().empty());
}

TEST(SequentialTraceTest, EvaluatorEmitsInitAndRounds) {
  SymbolTable symbols;
  Program program =
      testing_util::ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = testing_util::ValidateOrDie(program);
  Database db;
  GenChain(&symbols, &db, "par", 10);

  Tracer tracer(1);
  EvalStats stats;
  EvalOptions options;
  options.trace = tracer.ring(0);
  ASSERT_TRUE(
      SemiNaiveEvaluate(program, info, &db, &stats, nullptr, options).ok());
  EXPECT_GT(stats.rounds, 1);

  const TraceRing& ring = *tracer.ring(0);
  size_t init_spans = 0, round_instants = 0, probe_spans = 0;
  for (size_t i = 0; i < ring.size(); ++i) {
    const TraceEvent& e = ring.event(i);
    if (e.phase == TracePhase::kInit &&
        e.kind == TraceEventKind::kBegin) {
      ++init_spans;
    }
    if (e.phase == TracePhase::kRound) ++round_instants;
    if (e.phase == TracePhase::kProbe &&
        e.kind == TraceEventKind::kBegin) {
      ++probe_spans;
    }
  }
  EXPECT_EQ(init_spans, 1u);
  EXPECT_EQ(round_instants, static_cast<size_t>(stats.rounds - 1));
  EXPECT_EQ(probe_spans, static_cast<size_t>(stats.rounds - 1));
}

}  // namespace
}  // namespace pdatalog
