// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale full|smoke] [--commit SHA]
//
// One run generates the workload's inputs from the seed, runs one
// round of the batch legs (seq, incremental, P=1, P=4, P=4 without
// communication), and then spends the measured seconds in cycles of a
// timed server set-up, a fixed-rate serving slice beside update bursts
// and a read-only rate-ladder step on that server, its check and
// shutdown, and a batch round. Every output is checked (README.md).
// The last stdout line is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics with --trace 0 and the per-layer
// metrics with --trace 1 (which also hands the engine a Tracer). The
// line before it records provenance and the run's exact counts. Spans
// are written to .bench_out/ when the run ends.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "batch.h"
#include "calibration.h"
#include "serve.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Length of one fixed-rate slice and of one ladder step.
constexpr double kSliceSeconds = 0.4;

// Spans and the snapshot compared at the end go here, in the checkout.
constexpr const char* kOutDir = ".bench_out";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale full|smoke] "
               "[--commit SHA]\nworkloads:",
               why);
  for (const std::string& name : WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + flag;
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (args->seconds <= 0) end = nullptr;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") end = nullptr;
      else end = value.data() + value.size(), args->trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "full" && value != "smoke") end = nullptr;
      else end = value.data() + value.size(), args->smoke = value == "smoke";
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if ((flag == "--seed" || flag == "--seconds" || flag == "--trace" ||
         flag == "--scale") &&
        (end == nullptr || *end != '\0' || value.empty())) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Interquartile mean of per-round ratios a[i]/b[i] (same-round pairs
// cancel drift).
double RatioIqm(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> ratios;
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (b[i] > 0) ratios.push_back(a[i] / b[i]);
  }
  return InterquartileMean(ratios);
}

class MetricWriter {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!out_.empty()) out_ += ", ";
    out_ += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
            unit + "\"}";
  }
  std::string Json() const { return "{" + out_ + "}"; }

 private:
  std::string out_;
};

template <typename F>
std::vector<double> Collect(const std::vector<QueryRecord>& records, F field) {
  std::vector<double> values;
  values.reserve(records.size());
  for (const QueryRecord& r : records) values.push_back(field(r));
  return values;
}

// Fixed-rate query latencies; a failed query misses every limit.
std::vector<double> FixedLatencies(const ServeResult& serve) {
  return Collect(serve.fixed, [](const QueryRecord& r) {
    return r.ok ? r.latency_ms : 1e9;
  });
}

// Phases of a run (calibration.h): batch round r runs in phase 2r and
// serving cycle c (its engine's set-up, slices and check) in 2c+1.
size_t RoundPhase(size_t round) { return 2 * round; }
size_t CyclePhase(size_t cycle) { return 2 * cycle + 1; }

// The serving cycle of sample `i`, given where each cycle's samples end.
size_t CycleOf(const std::vector<size_t>& ends, size_t i) {
  return static_cast<size_t>(
      std::upper_bound(ends.begin(), ends.end(), i) - ends.begin());
}

// `values[i]` times the scale of its phase `phase(i)`, at nominal host
// speed; as measured when `calibration` is null.
template <typename Phase>
std::vector<double> Nominal(std::vector<double> values,
                            const HostCalibration* calibration, Phase phase) {
  if (calibration != nullptr) {
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] *= calibration->PhaseScale(phase(i));
    }
  }
  return values;
}

// Every time at nominal host speed when `calibration` is given, each
// sample scaled by the kernel runs around its own phase.
void EndToEndMetrics(const BatchResult& batch, const ServeResult& serve,
                     double peak_rss_mb, const HostCalibration* calibration,
                     MetricWriter* m) {
  auto leg = [&](const std::vector<double>& per_round) {
    return InterquartileMean(Nominal(per_round, calibration, RoundPhase));
  };
  m->Add("seq_s", leg(batch.seq_s), "s");
  m->Add("incr_s", leg(batch.incr_s), "s");
  m->Add("par1_s", leg(batch.par1_s), "s");
  m->Add("par4_s", leg(batch.par4_s), "s");
  m->Add("par4_nocomm_s", leg(batch.par4_nocomm_s), "s");
  m->Add("par4_speedup", RatioIqm(batch.seq_s, batch.par4_s), "x");
  m->Add("framework_tax", RatioIqm(batch.par1_s, batch.seq_s), "x");
  const std::vector<double> latency =
      Nominal(FixedLatencies(serve), calibration, [&](size_t i) {
        return CyclePhase(CycleOf(serve.fixed_ends, i));
      });
  m->Add("query_p50_ms", Quantile(latency, 0.50), "ms");
  const std::vector<double> visible =
      Nominal(serve.visible_ms, calibration, [&](size_t i) {
        return CyclePhase(CycleOf(serve.visible_ends, i));
      });
  m->Add("visible_p50_ms", Quantile(visible, 0.50), "ms");
  m->Add("setup_s",
         InterquartileMean(Nominal(serve.setup_s, calibration, CyclePhase)),
         "s");
  m->Add("peak_rss_mb", peak_rss_mb, "MB");
}

void LayerMetrics(const BatchContext& ctx, const Reference& ref,
                  const BatchResult& batch, const ServeResult& serve,
                  double gen_late_ms, double calib_ms, MetricWriter* m) {
  m->Add("host.calib_ms", calib_ms, "ms");
  m->Add("datalog.parse_ms", ctx.parse_ms, "ms");
  m->Add("rewrite.ms", ctx.rewrite_ms, "ms");
  m->Add("storage.load_ms", ctx.load_ms, "ms");

  const pdatalog::EvalStats& s = ref.stats;
  const double firings = static_cast<double>(s.firings);
  m->Add("seminaive.rounds", s.rounds, "count");
  m->Add("seminaive.firings", firings, "count");
  m->Add("seminaive.useful_frac",
         firings > 0 ? static_cast<double>(s.tuples_inserted) / firings : 0,
         "frac");
  m->Add("seminaive.rows_per_firing",
         firings > 0 ? static_cast<double>(s.rows_examined) / firings : 0,
         "rows");
  m->Add("incremental.add_ms", Median(batch.incr_add_ms), "ms");
  m->Add("incremental.evaluate_s", Median(batch.incr_evaluate_s), "s");

  const std::pair<const char*, const ParLayer*> configs[] = {
      {".p1", &batch.p1}, {".p4", &batch.p4}, {".p4nocomm", &batch.p4nocomm}};
  for (const auto& [suffix, layer] : configs) {
    const std::string sfx = suffix;
    m->Add("engine.threads_s" + sfx, Median(layer->threads_s), "s");
    m->Add("engine.outside_s" + sfx, Median(layer->outside_s), "s");
    m->Add("engine.pool_ms" + sfx, Median(layer->pool_ms), "ms");
    for (int p = 0; p < kNumPhases; ++p) {
      m->Add(std::string("worker.") + kPhaseNames[p] + "_ms" + sfx,
             Median(layer->phase_ms[p]), "ms");
    }
    m->Add("worker.busy_skew" + sfx, Median(layer->busy_skew), "x");
    m->Add("channel.cross_tuples" + sfx,
           static_cast<double>(layer->cross_tuples), "count");
    m->Add("channel.self_tuples" + sfx, static_cast<double>(layer->self_tuples),
           "count");
    m->Add("channel.cross_frames" + sfx,
           static_cast<double>(layer->cross_frames), "count");
    m->Add("channel.cross_bytes" + sfx, static_cast<double>(layer->cross_bytes),
           "bytes");
    const double sent =
        static_cast<double>(layer->cross_tuples + layer->self_tuples);
    m->Add("channel.tuples_per_frame" + sfx,
           layer->frames > 0 ? sent / static_cast<double>(layer->frames) : 0,
           "count");
  }

  const pdatalog::MetricsRegistry& sm = serve.metrics;
  auto per = [](uint64_t a, uint64_t b) {
    return b > 0 ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  auto median_of = [&](double QueryRecord::*field) {
    return Median(Collect(serve.fixed,
                          [field](const QueryRecord& r) { return r.*field; }));
  };
  m->Add("server.parse_us", median_of(&QueryRecord::parse_us), "us");
  m->Add("server.query_us", median_of(&QueryRecord::query_us), "us");
  m->Add("server.render_us", median_of(&QueryRecord::render_us), "us");
  m->Add("server.submit_us", Median(serve.submit_us), "us");
  m->Add("server.flush_ms", Median(serve.flush_ms), "ms");
  m->Add("server.maintain_ms", serve.maintain_ms, "ms");
  m->Add("server.apply_ms", serve.apply_ms, "ms");
  m->Add("server.snapshot_rows", sm.gauge("serve.snapshot_rows"), "rows");
  m->Add("server.answers_per_query",
         Median(Collect(serve.fixed, [](const QueryRecord& r) {
           return static_cast<double>(r.answers);
         })),
         "rows");
  m->Add("server.facts_per_batch",
         per(sm.counter("serve.updates_applied"),
             sm.counter("serve.update_batches")),
         "count");
  m->Add("server.derived_per_fact",
         per(sm.counter("serve.derived_inserted"),
             sm.counter("serve.updates_applied")),
         "count");
  m->Add("server.gen_late_ms", gen_late_ms, "ms");
  // Too unsteady on a shared host to bound (README.md).
  m->Add("server.sustained_qps", serve.sustained_qps, "1/s");
  m->Add("server.query_p99_ms", Quantile(FixedLatencies(serve), 0.99), "ms");
  m->Add("server.visible_p95_ms", Quantile(serve.visible_ms, 0.95), "ms");

  const double untraced = Median(batch.par4_s);
  m->Add("obs.trace_overhead_pct",
         untraced > 0 ? 100.0 * (Median(batch.par4_traced_s) - untraced) /
                            untraced
                      : 0,
         "%");
  m->Add("obs.trace_dropped",
         static_cast<double>(batch.trace_dropped + serve.trace_dropped),
         "count");
}

std::string Quoted(const std::string& text) { return "\"" + text + "\""; }

// Provenance and exact counts. Everything under "counts" is a function
// of the workload and the seed alone.
std::string ProvenanceJson(const Args& args, const Workload& workload,
                           BatchContext* ctx, const Reference& ref,
                           const BatchResult& batch, const ServeResult& serve,
                           double calib_ms, const std::string& raw_metrics) {
#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  std::unique_ptr<pdatalog::Database> edb = ctx->MakeEdb();
  uint64_t base_tuples = 0;
  for (const auto& [predicate, relation] : edb->relations()) {
    base_tuples += relation->size();
  }
  std::string derived;
  for (const auto& [name, fp] : ref.print) {
    if (!derived.empty()) derived += ", ";
    derived += Quoted(name) + ": " + std::to_string(fp.size);
  }
  char input_hash[32];
  std::snprintf(input_hash, sizeof(input_hash), "%016llx",
                static_cast<unsigned long long>(std::hash<std::string>{}(
                    RenderFacts(*edb, ctx->symbols))));
  // The same input over interned ids, as the engine hashes and
  // partitions it: it differs between seeds too.
  std::vector<std::string> base_predicates;
  for (const auto& [predicate, relation] : edb->relations()) {
    base_predicates.push_back(ctx->symbols.Name(predicate));
  }
  uint64_t id_hash = 0;
  for (const auto& [name, fp] : FingerprintOf(*edb, ctx->symbols,
                                              base_predicates)) {
    id_hash = id_hash * 0x100000001b3ULL + (fp.sum ^ fp.xor_all);
  }
  char input_id_hash[32];
  std::snprintf(input_id_hash, sizeof(input_id_hash), "%016llx",
                static_cast<unsigned long long>(id_hash));
  const pdatalog::EvalStats& s = ref.stats;
  return std::string("{\"provenance\": {") +
         "\"workload\": " + Quoted(workload.name) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"seconds\": " + std::to_string(args.seconds) +
         ", \"trace\": " + (args.trace ? "1" : "0") +
         ", \"scale\": " + Quoted(args.smoke ? "smoke" : "full") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"build_type\": " + Quoted(PERFBENCH_BUILD_TYPE) +
         ", \"assertions\": " + (assertions ? "true" : "false") +
         ", \"compiler\": " + Quoted(PERFBENCH_COMPILER) +
         ", \"cxx_flags\": " + Quoted(PERFBENCH_CXX_FLAGS) +
         ", \"commit\": " + Quoted(args.commit) +
         "}, \"counts\": {\"input_hash\": " + Quoted(input_hash) +
         ", \"input_id_hash\": " + Quoted(input_id_hash) +
         ", \"base_tuples\": " + std::to_string(base_tuples) +
         ", \"derived_tuples\": {" + derived + "}" +
         ", \"seq_firings\": " + std::to_string(s.firings) +
         ", \"seq_tuples\": " + std::to_string(s.tuples_inserted) +
         ", \"seq_rounds\": " + std::to_string(s.rounds) +
         ", \"seq_rows_examined\": " + std::to_string(s.rows_examined) +
         "}, \"run\": {\"batch_rounds\": " + std::to_string(batch.reps) +
         ", \"fixed_queries\": " + std::to_string(serve.fixed.size()) +
         ", \"ladder_queries\": " + std::to_string(serve.ladder.size()) +
         ", \"update_bursts\": " + std::to_string(serve.visible_ms.size()) +
         ", \"streamed_facts\": " + std::to_string(serve.streamed.size()) +
         ", \"served_tuples\": " + std::to_string(serve.final_tuples) +
         ", \"calib_ms\": " + std::to_string(calib_ms) +
         "}, \"uncalibrated\": " + raw_metrics + "}";
}

// The readable summary on stderr: the ladder, the query and visibility
// percentiles, and every round's leg times.
void PrintSummary(const Workload& workload, const Args& args,
                  const BatchResult& batch, const ServeResult& serve,
                  const HostCalibration& calibration) {
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %d batch rounds, %zu+%zu queries, "
               "%zu bursts, ladder",
               workload.name.c_str(),
               static_cast<unsigned long long>(args.seed), batch.reps,
               serve.fixed.size(), serve.ladder.size(),
               serve.visible_ms.size());
  for (size_t i = 0; i < serve.ladder_rates.size(); ++i) {
    std::fprintf(stderr, " %.0f:%.1fms", serve.ladder_rates[i],
                 serve.ladder_p99_ms[i]);
  }
  const std::vector<double> latency = FixedLatencies(serve);
  std::fprintf(stderr, "\nperfbench: query ms");
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    std::fprintf(stderr, " p%g %.3f", q * 100, Quantile(latency, q));
  }
  std::fprintf(stderr, "; visible ms");
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    std::fprintf(stderr, " p%g %.3f", q * 100, Quantile(serve.visible_ms, q));
  }
  std::fprintf(stderr, "\n");
  if (args.trace) {
    std::fprintf(stderr, "perfbench: fullest engine trace ring %zu events\n",
                 batch.max_ring_events);
  }
  const std::pair<const char*, const std::vector<double>*> legs[] = {
      {"seq_s", &batch.seq_s},       {"incr_s", &batch.incr_s},
      {"par1_s", &batch.par1_s},     {"par4_s", &batch.par4_s},
      {"par4_nocomm_s", &batch.par4_nocomm_s}, {"setup_s", &serve.setup_s}};
  for (const auto& [name, values] : legs) {
    std::fprintf(stderr, "perfbench: %-14s", name);
    for (double v : *values) std::fprintf(stderr, " %.4f", v);
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr, "perfbench: calib_ms      ");
  for (double v : calibration.samples_ms()) std::fprintf(stderr, " %.2f", v);
  std::fprintf(stderr, "\n");
}

int Run(const Args& args) {
  const std::optional<Workload> found = FindWorkload(args.workload, args.smoke);
  if (!found) return Usage(("unknown workload " + args.workload).c_str());
  const Workload& workload = *found;
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", kOutDir);
    return 2;
  }

  SpanLog log;
  SpanBuffer* main_spans = log.NewBuffer("main");
  std::unique_ptr<BatchContext> ctx =
      PrepareBatch(workload, args.seed, &log, main_spans);
  Reference ref;
  if (ctx == nullptr || !ComputeReference(ctx.get(), &log, main_spans, &ref)) {
    return 1;
  }

  // The first batch round runs alone: its high-water mark is the batch
  // legs' peak_rss_mb, before the server and the harness's query
  // records take memory of their own.
  const uint64_t start = NowNs();
  HostCalibration calibration;
  calibration.Run();
  BatchResult batch;
  RunBatchRound(ctx.get(), ref, args.trace, &log, main_spans, &batch);
  const double peak_rss_mb = PeakRssMb();
  calibration.Run();
  const uint64_t first_round_ns = NowNs() - start;

  // Cycles of a set-up, a fixed-rate slice and a ladder step on the
  // fresh engine, its check and shutdown, and a batch round, until the
  // measured seconds are spent. Interleaving keeps a drift in host
  // speed from landing on one phase's metrics only. The calibration
  // kernel runs between the phases, when no engine thread is alive, so
  // engine work cannot slow it and hide in the scaling.
  ServeResult serve;
  ServeSession session(workload, args.seed, args.trace, &log, main_spans,
                       &serve);
  const uint64_t measured_ns = static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t deadline =
      NowNs() +
      (measured_ns > first_round_ns ? measured_ns - first_round_ns : 0);
  do {
    if (!session.Start()) return 1;
    session.FixedSlice(kSliceSeconds);
    session.LadderStep(kSliceSeconds);
    session.Finish(kOutDir);
    calibration.Run();
    RunBatchRound(ctx.get(), ref, args.trace, &log, main_spans, &batch);
    calibration.Run();
  } while (NowNs() < deadline);

  // Over every open-loop query, fixed-rate and ladder alike: a smoke
  // run's fixed slices alone leave too few queries beyond a p99.
  auto late = [](const QueryRecord& r) { return r.late_ms; };
  std::vector<double> late_ms = Collect(serve.fixed, late);
  const std::vector<double> ladder_late_ms = Collect(serve.ladder, late);
  late_ms.insert(late_ms.end(), ladder_late_ms.begin(), ladder_late_ms.end());
  const double gen_late_ms = Quantile(std::move(late_ms), 0.99);
  if (gen_late_ms > kGenLateBoundMs) {
    std::fprintf(stderr,
                 "perfbench: open-loop generator ran %.3f ms late at p99 "
                 "(bound %.1f ms); query latencies are overstated\n",
                 gen_late_ms, kGenLateBoundMs);
  }

  const uint64_t attempted = batch.attempted + serve.attempted;
  const uint64_t failed = batch.failed + serve.failed;
  const bool correct = failed == 0;
  // The end-to-end metrics as measured, before scaling to nominal host
  // speed: a slowdown the scaling hides still shows here.
  MetricWriter raw_metrics;
  EndToEndMetrics(batch, serve, peak_rss_mb, nullptr, &raw_metrics);
  MetricWriter metrics;
  if (args.trace) {
    LayerMetrics(*ctx, ref, batch, serve, gen_late_ms, calibration.Ms(),
                 &metrics);
  } else {
    EndToEndMetrics(batch, serve, peak_rss_mb, &calibration, &metrics);
  }

  // One file per workload and mode, overwritten by the next run, so
  // repeated runs do not pile up spans in the checkout.
  const std::string spans_path = std::string(kOutDir) + "/spans-" +
                                 workload.name + "-trace" +
                                 (args.trace ? "1" : "0") + ".jsonl";
  if (!log.WriteJsonLines(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
  }
  PrintSummary(workload, args, batch, serve, calibration);

  std::printf("%s\n",
              ProvenanceJson(args, workload, ctx.get(), ref, batch, serve,
                             calibration.Ms(), raw_metrics.Json())
                  .c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    return perfbench::Usage(error.c_str());
  }
  return perfbench::Run(args);
}
