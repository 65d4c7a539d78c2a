// The run-level metrics registry: named monotonic counters and gauges.
//
// The registry is the single source of truth for a run's aggregate
// statistics. The engine absorbs the ad-hoc counters kept by workers
// and channels into it once, after the workers have joined, and the
// `ParallelResult`'s legacy numeric fields are projections of registry
// entries — so the text report (which renders those fields) and the
// `--metrics` JSON export (which renders the registry) can never
// disagree. Absorption is post-run by design: the hot path keeps its
// uncontended per-worker counters and pays nothing for the registry.
//
// Naming convention: dot-separated lowercase paths —
//   run.*      aggregate totals (run.firings, run.cross_tuples, ...)
//   worker.N.* one entry per WorkerStats field per processor
//   faults.*   injected-fault and reliability counters
//   trace.*    tracer bookkeeping (events recorded / dropped)
//   eval.*     sequential-evaluator statistics (CLI seq modes)
#ifndef PDATALOG_OBS_METRICS_H_
#define PDATALOG_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>

#include "obs/histogram.h"

namespace pdatalog {

class MetricsRegistry {
 public:
  // Adds `delta` to the named monotonic counter, creating it at zero.
  void AddCounter(const std::string& name, uint64_t delta) {
    counters_[name] += delta;
  }

  // Sets the named gauge (point-in-time double; last write wins).
  void SetGauge(const std::string& name, double value) {
    gauges_[name] = value;
  }

  // Reads a counter; an absent name reads as zero so projections of a
  // run that never touched a subsystem stay well-defined.
  uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  double gauge(const std::string& name) const {
    auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
  }

  // Folds `histogram` into the named distribution, creating it empty.
  // Naming convention: hist.* (hist.probe_ns, hist.block_tuples, ...).
  void MergeHistogram(const std::string& name, const Histogram& histogram) {
    histograms_[name].Merge(histogram);
  }

  // Reads a distribution; nullptr when the run never recorded it.
  const Histogram* FindHistogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  bool empty() const {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }
  size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  // Sorted views for deterministic export.
  const std::map<std::string, uint64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace pdatalog

#endif  // PDATALOG_OBS_METRICS_H_
