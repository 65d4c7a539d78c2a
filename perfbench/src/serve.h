// Serving leg: a resident ServerEngine under an open loop of point
// queries beside an updater thread that submits bursts of base facts
// and waits for them with Flush. Every cycle of a run (main.cc) sets a
// fresh engine up, serves one fixed-rate slice and one ladder step on
// it, checks it and shuts it down, so no engine thread is alive while
// the batch legs or the calibration kernel run, and a host whose speed
// drifts during a run slows every metric alike.
#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "server/engine.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {

// Reader threads of the open loop. With the updater and the engine's
// maintenance thread that is at most four busy threads.
inline constexpr int kReaders = 2;

// The rate ladder's top rung, far above any full-size workload's
// capacity; it bounds the queries (and trace events) a run records.
inline constexpr double kMaxLadderQps = 25000;

// How late the open-loop generator may issue a query, at the 99th
// percentile, before its latencies stop meaning what they claim.
inline constexpr double kGenLateBoundMs = 5.0;

// The latency limit of sustained_qps: a ladder step whose p99 exceeds
// it does not sustain its rate.
inline constexpr double kP99LimitMs = 50.0;

// The updater submits one burst of Workload::burst_facts facts this
// often during a fixed-rate slice.
inline constexpr double kBurstIntervalS = 0.05;

struct QueryRecord {
  uint32_t key = 0;
  uint32_t answers = 0;
  uint64_t answer_hash = 0;
  bool ok = false;
  double latency_ms = 0;  // from the scheduled send time to the reply
  double late_ms = 0;     // generator lateness (see kGenLateBoundMs)
  double parse_us = 0, query_us = 0, render_us = 0;
};

struct ServeResult {
  std::vector<double> setup_s;      // one per engine
  std::vector<QueryRecord> fixed;   // at workload.fixed_qps, beside updates
  std::vector<QueryRecord> ladder;  // ladder steps, reads only
  std::vector<double> ladder_rates, ladder_p99_ms;
  double sustained_qps = 0;
  std::vector<double> visible_ms;  // burst submit until Flush returns
  // Per engine, in set-up order: where its fixed-rate records and its
  // visible_ms samples end.
  std::vector<size_t> fixed_ends, visible_ends;
  std::vector<double> submit_us, flush_ms;
  std::vector<std::string> streamed;  // update facts, in submit order
  pdatalog::MetricsRegistry metrics;  // the last engine's MetricsCopy
  double maintain_ms = 0, apply_ms = 0;  // mean self time per batch (traced)
  uint64_t trace_dropped = 0;
  uint64_t attempted = 0, failed = 0;
  uint64_t final_tuples = 0;  // tuples the last engine served
};

class ServeSession {
 public:
  ServeSession(const Workload& workload, uint64_t seed, bool traced,
               SpanLog* log, SpanBuffer* setup_spans, ServeResult* out);

  // Generates the inputs and creates a fresh engine over them — the
  // set-up a server pays before its first query — recording its time
  // in out->setup_s. Returns false on failure.
  bool Start();

  // `seconds` of queries at the workload's fixed rate beside update
  // bursts every kBurstIntervalS; returns once every burst is visible.
  void FixedSlice(double seconds);

  // One step of the rate ladder: `seconds` of queries, reads only, at
  // the walk's current rung (see serve.cc).
  void LadderStep(double seconds);

  // Reads the engine's telemetry, checks its final snapshot and every
  // answer it gave, and shuts it down. `scratch_dir` holds the saved
  // snapshot while it is compared.
  void Finish(const std::string& scratch_dir);

 private:
  const Workload& workload_;
  const uint64_t seed_;
  const bool traced_;
  SpanLog* log_;
  SpanBuffer* setup_spans_;
  ServeResult* out_;
  std::vector<SpanBuffer*> reader_spans_;
  SpanBuffer* updater_spans_;
  Rng key_rng_;
  Rng update_rng_;
  // The current engine, its program text and where its records start.
  std::unique_ptr<pdatalog::ServerEngine> engine_;
  std::string base_source_;
  size_t first_fixed_ = 0, first_ladder_ = 0, first_streamed_ = 0;
  // Traced maintenance self time and spans over every engine.
  uint64_t maintain_ns_ = 0, maintain_spans_ = 0;
  uint64_t apply_ns_ = 0, apply_spans_ = 0;
  // Ladder walk state.
  bool walk_started_ = false;
  int rung_ = 0;
  int jump_ = 4;
  int direction_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
