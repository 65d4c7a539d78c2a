// EXP-7: load distribution and modeled makespan versus processor count —
// the quantitative study the paper explicitly defers to future work
// ("load balancing, processor utilization etc.", Section 8).
//
// Wall time can show speedup only up to the host's core count; the
// deterministic work metrics show it for every N. We report, per N:
// the maximum and mean per-processor firings, the load imbalance,
// cross traffic, and the modeled makespan under two cost regimes
// (cheap and expensive communication).
#include <cstdio>

#include "bench_json.h"
#include "bench_util.h"
#include "core/report.h"
#include "obs/analyze.h"
#include "obs/trace.h"

using namespace pdatalog;
using bench::AncestorHarness;

int main() {
  bench::BenchJson json("scaling");
  std::printf(
      "EXP-7: scaling with processors (ancestor, Example 3 scheme).\n"
      "paper: qualitative only; expectation: per-processor work shrinks\n"
      "~1/N under hash partitioning, while total work stays constant\n"
      "(non-redundancy), so modeled speedup approaches N until\n"
      "communication costs dominate.\n\n");

  for (const char* topology : {"random", "grid", "tree"}) {
    AncestorHarness h;
    Database base;
    size_t edges =
        bench::GenerateTopology(topology, &h.symbols, &base, "par", 21);
    EvalStats seq = h.RunSequential(base);
    std::printf("topology=%s edges=%zu   sequential firings: %llu\n",
                topology, edges,
                static_cast<unsigned long long>(seq.firings));

    TextTable table({"N", "max firings", "mean firings", "imbalance",
                     "cross-msgs", "speedup(net=0)", "speedup(net=4)",
                     "wall ms"});
    for (int P : {1, 2, 4, 8, 16}) {
      ParallelResult r = h.RunScheme(base, h.Example3(P), P);
      // Tracer-on re-run of the same scheme: the delta quantifies the
      // observability overhead the acceptance gate bounds (< 3% when
      // the tracer is disabled; this measures the *enabled* side too).
      Tracer tracer(P);
      ParallelOptions traced_opts;
      traced_opts.tracer = &tracer;
      ParallelResult traced =
          h.RunScheme(base, h.Example3(P), P, traced_opts);
      double trace_overhead_pct =
          r.wall_seconds == 0
              ? 0.0
              : (traced.wall_seconds - r.wall_seconds) / r.wall_seconds *
                    100.0;
      uint64_t max_firings = 0;
      uint64_t sum_firings = 0;
      for (const WorkerStats& w : r.workers) {
        max_firings = std::max(max_firings, w.firings);
        sum_firings += w.firings;
      }
      double mean = static_cast<double>(sum_firings) / P;
      double imbalance =
          mean == 0 ? 1.0 : static_cast<double>(max_firings) / mean;
      double cheap = r.ModeledMakespan(1.0, 0.0);
      double costly = r.ModeledMakespan(1.0, 4.0);
      double seq_work = static_cast<double>(seq.firings);
      table.AddRow(
          {TextTable::Cell(P), TextTable::Cell(max_firings),
           TextTable::Cell(mean, 1), TextTable::Cell(imbalance, 2),
           TextTable::Cell(r.cross_tuples),
           TextTable::Cell(cheap == 0 ? 0.0 : seq_work / cheap, 2),
           TextTable::Cell(costly == 0 ? 0.0 : seq_work / costly, 2),
           TextTable::Cell(r.wall_seconds * 1e3, 1)});
      bench::JsonRecord& rec = json.NewRecord();
      rec.Set("topology", topology)
          .Set("processors", P)
          .Set("max_firings", max_firings)
          .Set("mean_firings", mean)
          .Set("imbalance", imbalance)
          .Set("cross_msgs", r.cross_tuples)
          .Set("cross_frames", r.cross_frames)
          .Set("cross_bytes", r.cross_bytes)
          .Set("tuples_per_frame",
               r.cross_frames == 0
                   ? 0.0
                   : static_cast<double>(r.cross_tuples) /
                         static_cast<double>(r.cross_frames))
          .Set("speedup_net0", cheap == 0 ? 0.0 : seq_work / cheap)
          .Set("speedup_net4", costly == 0 ? 0.0 : seq_work / costly)
          .Set("wall_ms", r.wall_seconds * 1e3)
          .Set("trace_overhead_pct", trace_overhead_pct)
          .Set("trace_events", tracer.total_events());
      // Profiler-derived load metrics from the traced re-run: measured
      // busy-time skew (vs. the firing-count `imbalance` above) and the
      // probe latency tail.
      ProfileReport prof = AnalyzeRun(tracer, MakeProfileContext(traced));
      const Histogram* probe =
          traced.metrics.FindHistogram("hist.probe_ns");
      rec.Set("skew_ratio", prof.skew_ratio)
          .Set("probe_p99_ns",
               probe == nullptr ? 0.0 : probe->Percentile(99));
    }
    table.Print();
    std::printf("\n");
  }

  std::printf(
      "reading guide: speedup(net=0) tracks N/imbalance — near-linear\n"
      "for hash-partitioned work; speedup(net=4) saturates as the\n"
      "received-message cost approaches the per-processor compute cost,\n"
      "which is the architecture-dependent crossover Section 8\n"
      "anticipates. Wall time can scale only up to the host's core\n"
      "count; beyond it the threads time-share the cores.\n");
  json.WriteFile();
  return 0;
}
