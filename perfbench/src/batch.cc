#include "batch.h"

#include <algorithm>
#include <cstdio>

#include "core/dataflow_graph.h"
#include "core/engine.h"
#include "datalog/analysis.h"
#include "datalog/parser.h"
#include "eval/incremental.h"
#include "obs/trace.h"
#include "workload/programs.h"

namespace perfbench {

using namespace pdatalog;

const char* const kPhaseNames[kNumPhases] = {"init",  "probe", "insert",
                                             "drain", "flush", "idle"};

namespace {

// Engine trace phases behind each reported worker phase.
constexpr TracePhase kEnginePhase[kNumPhases] = {
    TracePhase::kInit,  TracePhase::kProbe, TracePhase::kInsert,
    TracePhase::kDrain, TracePhase::kFlush, TracePhase::kIdle};

// Events per trace ring (2 MiB each). The fullest ring of a traced
// full-size run holds under 10K events; the margin keeps
// obs.trace_dropped at 0, and RunBatchRound fails a leg that drops any.
constexpr size_t kTraceRingEvents = size_t{1} << 17;

uint64_t TupleHash(const Relation& rel, size_t row) {
  uint64_t h = 0x84222325cbf29ce4ULL;
  for (int c = 0; c < rel.arity(); ++c) {
    h ^= rel.cell(row, c);
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ULL;
  return h ^ (h >> 32);
}

bool Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what,
               status.ToString().c_str());
  return false;
}

StatusOr<RewriteBundle> Rewrite(const BatchContext& ctx, int processors,
                                bool no_comm) {
  if (ctx.workload->linear) {
    StatusOr<LinearSirup> sirup = ExtractLinearSirup(ctx.program, ctx.info);
    if (!sirup.ok()) return sirup.status();
    if (no_comm) {
      // Example 1: a symmetric hash on the dataflow cycle's positions.
      StatusOr<LinearSchemeOptions> scheme =
          CommunicationFreeScheme(*sirup, processors);
      if (!scheme.ok()) return scheme.status();
      return RewriteLinearSirup(ctx.program, ctx.info, *sirup, processors,
                                *scheme);
    }
    // Example 3: hash on the recursive atom's variables.
    LinearSchemeOptions scheme;
    for (Symbol v : sirup->BodyVarsY()) {
      if (v != kInvalidSymbol) scheme.v_r.push_back(v);
    }
    for (Symbol v : sirup->ExitVarsZ()) {
      if (v != kInvalidSymbol) scheme.v_e.push_back(v);
    }
    scheme.h = DiscriminatingFunction::UniformHash(processors);
    return RewriteLinearSirup(ctx.program, ctx.info, *sirup, processors,
                              scheme);
  }
  // Section 7 general scheme for points_to, partitioned as
  // examples/points_to.cpp does: rules 1-2 on the object O, rules 3-4
  // on the heap object A. No partition of points_to avoids
  // communication (rule 4 joins pt on two unrelated variables), so the
  // no-communication leg maps every rule to processor 0: one worker
  // does every join, and the only cross traffic left is processor 0
  // broadcasting the tuples rule 4's second pt atom cannot route.
  const char* vars[] = {"O", "O", "A", "A"};
  std::vector<GeneralRuleSpec> specs(ctx.program.rules.size());
  for (size_t r = 0; r < specs.size(); ++r) {
    specs[r].vars = {ctx.program.symbols->Lookup(vars[r % 4])};
    specs[r].h = no_comm ? DiscriminatingFunction::Constant(0)
                         : DiscriminatingFunction::UniformHash(processors);
  }
  return RewriteGeneral(ctx.program, ctx.info, processors, specs);
}

// Self time per reported phase over a traced run's worker rings.
struct TracedRun {
  std::array<double, kNumPhases> phase_ms{};
  double pool_ms = 0;
  double busy_skew = 0;
  bool invariants_ok = true;
};

TracedRun AnalyzeRun(const Tracer& tracer, double threads_s) {
  TracedRun run;
  double max_busy = 0, sum_busy = 0;
  for (int w = 0; w < tracer.num_workers(); ++w) {
    const PhaseTimes times = PhaseSelfTimes(tracer.ring(w));
    run.invariants_ok = run.invariants_ok && times.ok;
    // Summed self time of one worker cannot exceed the threads' span.
    const double self_s = static_cast<double>(times.SumSelf()) * 1e-9;
    if (self_s > threads_s * 1.001 + 1e-4) {
      std::fprintf(stderr,
                   "perfbench: worker %d self time %.6f s exceeds "
                   "engine.threads_s %.6f s\n",
                   w, self_s, threads_s);
      run.invariants_ok = false;
    }
    double busy = 0;
    for (int p = 0; p < kNumPhases; ++p) {
      const double ms = static_cast<double>(times.self(kEnginePhase[p])) * 1e-6;
      run.phase_ms[p] += ms;
      if (p != kIdlePhase) busy += ms;
    }
    max_busy = std::max(max_busy, busy);
    sum_busy += busy;
  }
  const PhaseTimes engine = PhaseSelfTimes(tracer.ring(tracer.num_workers()));
  run.invariants_ok = run.invariants_ok && engine.ok;
  run.pool_ms = static_cast<double>(engine.self(TracePhase::kPool)) * 1e-6;
  const double mean_busy = sum_busy / tracer.num_workers();
  run.busy_skew = mean_busy > 0 ? max_busy / mean_busy : 1.0;
  return run;
}

}  // namespace

DbPrint FingerprintOf(const Database& db, const SymbolTable& symbols,
                      const std::vector<std::string>& predicates) {
  DbPrint print;
  for (const std::string& name : predicates) {
    Fingerprint& fp = print[name];
    const Relation* rel = db.Find(symbols.Lookup(name));
    if (rel == nullptr) continue;
    fp.size = rel->size();
    for (size_t r = 0; r < rel->size(); ++r) {
      const uint64_t h = TupleHash(*rel, r);
      fp.sum += h;
      fp.xor_all ^= h;
    }
  }
  return print;
}

std::unique_ptr<Database> BatchContext::MakeEdb() {
  auto db = std::make_unique<Database>();
  workload->Generate(&symbols, db.get(), seed);
  return db;
}

std::unique_ptr<BatchContext> PrepareBatch(const Workload& workload,
                                           uint64_t seed, SpanLog* log,
                                           SpanBuffer* spans) {
  auto ctx = std::make_unique<BatchContext>();
  ctx->workload = &workload;
  ctx->seed = seed;
  StatusOr<NamedProgram> named = FindProgram(workload.program);
  if (!named.ok()) return Fail("FindProgram", named.status()), nullptr;

  const uint64_t request = log->NewRequest();
  const uint64_t parse = spans->Open("ParseProgram+Validate", request);
  StatusOr<Program> program = ParseProgram(named->source, &ctx->symbols);
  if (!program.ok()) return Fail("ParseProgram", program.status()), nullptr;
  ctx->program = std::move(*program);
  Status valid = Validate(ctx->program, &ctx->info);
  ctx->parse_ms = spans->Close(parse) * 1e3;
  if (!valid.ok()) return Fail("Validate", valid), nullptr;

  const uint64_t load = spans->Open("generate+load", request);
  std::unique_ptr<Database> edb = ctx->MakeEdb();
  ctx->load_ms = spans->Close(load) * 1e3;

  const char* rewrite_name = workload.linear ? "RewriteLinearSirup"
                                             : "RewriteGeneral";
  StatusOr<RewriteBundle> p1 = Rewrite(*ctx, 1, false);
  const uint64_t rewrite = spans->Open(rewrite_name, request);
  StatusOr<RewriteBundle> p4 = Rewrite(*ctx, 4, false);
  ctx->rewrite_ms = spans->Close(rewrite) * 1e3;
  StatusOr<RewriteBundle> p4nocomm = Rewrite(*ctx, 4, true);
  if (!p1.ok()) return Fail("rewrite P=1", p1.status()), nullptr;
  if (!p4.ok()) return Fail("rewrite P=4", p4.status()), nullptr;
  if (!p4nocomm.ok()) {
    return Fail("rewrite P=4 no-comm", p4nocomm.status()), nullptr;
  }
  ctx->p1 = std::move(*p1);
  ctx->p4 = std::move(*p4);
  ctx->p4nocomm = std::move(*p4nocomm);
  return ctx;
}

bool ComputeReference(BatchContext* ctx, SpanLog* log, SpanBuffer* spans,
                      Reference* ref) {
  ref->db = ctx->MakeEdb();
  const uint64_t span = spans->Open("SemiNaiveEvaluate", log->NewRequest());
  Status status =
      SemiNaiveEvaluate(ctx->program, ctx->info, ref->db.get(), &ref->stats);
  spans->Close(span);
  if (!status.ok()) return Fail("reference SemiNaiveEvaluate", status);
  ref->print = FingerprintOf(*ref->db, ctx->symbols, ctx->workload->derived);
  return true;
}

void RunBatchRound(BatchContext* ctx, const Reference& ref, bool traced,
                   SpanLog* log, SpanBuffer* spans, BatchResult* out) {
  const std::vector<std::string>& derived = ctx->workload->derived;
  // Counts a wrong fixpoint as a failed leg (the caller counts the leg
  // as attempted).
  auto check = [&](const char* leg, const Database& db) {
    if (FingerprintOf(db, ctx->symbols, derived) == ref.print) return;
    out->failed += 1;
    std::fprintf(stderr, "perfbench: %s fixpoint differs from seq\n", leg);
  };

  // One RunParallel call; `layer` is non-null for traced runs.
  auto run_parallel = [&](const char* leg, const RewriteBundle& bundle,
                          std::vector<double>* call_s, ParLayer* layer) {
    std::unique_ptr<Database> edb = ctx->MakeEdb();
    std::unique_ptr<Tracer> tracer;
    ParallelOptions options;
    if (layer != nullptr) {
      tracer = std::make_unique<Tracer>(bundle.num_processors,
                                        kTraceRingEvents);
      options.tracer = tracer.get();
    }
    const uint64_t request = log->NewRequest();
    const uint64_t call = spans->Open("RunParallel", request);
    StatusOr<ParallelResult> result = RunParallel(bundle, edb.get(), options);
    const double seconds = spans->Close(call);
    out->attempted += 1;
    if (!result.ok()) {
      out->failed += 1;
      Fail(leg, result.status());
      return;
    }
    call_s->push_back(seconds);
    check(leg, result->output);
    if (layer == nullptr) return;

    const double threads_s = result->metrics.gauge("run.wall_seconds");
    const TracedRun run = AnalyzeRun(*tracer, threads_s);
    out->trace_dropped += tracer->total_dropped();
    for (int r = 0; r < tracer->num_rings(); ++r) {
      out->max_ring_events =
          std::max(out->max_ring_events, tracer->ring(r)->size());
    }
    // The trace's integrity is checked as an operation of its own.
    out->attempted += 1;
    if (!run.invariants_ok || tracer->total_dropped() > 0) {
      std::fprintf(stderr,
                   "perfbench: %s trace unusable (%llu events dropped)\n", leg,
                   static_cast<unsigned long long>(tracer->total_dropped()));
      out->failed += 1;
    }
    layer->threads_s.push_back(threads_s);
    layer->outside_s.push_back(seconds - threads_s);
    layer->pool_ms.push_back(run.pool_ms);
    layer->busy_skew.push_back(run.busy_skew);
    for (int p = 0; p < kNumPhases; ++p) {
      layer->phase_ms[p].push_back(run.phase_ms[p]);
    }
    const MetricsRegistry& m = result->metrics;
    layer->cross_tuples = m.counter("run.cross_tuples");
    layer->self_tuples = m.counter("run.self_tuples");
    layer->cross_frames = m.counter("run.cross_frames");
    layer->cross_bytes = m.counter("run.cross_bytes");
    layer->frames = 0;
    for (const WorkerStats& w : result->workers) layer->frames += w.frames;
  };

  out->reps += 1;
  {
    std::unique_ptr<Database> db = ctx->MakeEdb();
    EvalStats stats;
    const uint64_t span = spans->Open("SemiNaiveEvaluate", log->NewRequest());
    Status status = SemiNaiveEvaluate(ctx->program, ctx->info, db.get(),
                                      &stats);
    const double seconds = spans->Close(span);
    out->attempted += 1;
    if (status.ok()) {
      out->seq_s.push_back(seconds);
      check("seq", *db);
    } else {
      out->failed += 1;
      Fail("SemiNaiveEvaluate", status);
    }
  }
  {
    std::unique_ptr<Database> edb = ctx->MakeEdb();
    const uint64_t request = log->NewRequest();
    const uint64_t top = spans->Open("incremental", request);
    StatusOr<IncrementalEvaluator> eval =
        IncrementalEvaluator::Create(ctx->program, ctx->info);
    bool ok = eval.ok();
    const uint64_t add =
        spans->Open("IncrementalEvaluator::AddFact", request, top);
    for (const auto& [predicate, relation] : edb->relations()) {
      for (size_t r = 0; ok && r < relation->size(); ++r) {
        ok = eval->AddFact(predicate, relation->row(r)).ok();
      }
    }
    const double add_s = spans->Close(add);
    const uint64_t evaluate =
        spans->Open("IncrementalEvaluator::Evaluate", request, top);
    ok = ok && eval->Evaluate().ok();
    const double evaluate_s = spans->Close(evaluate);
    const double seconds = spans->Close(top);
    out->attempted += 1;
    if (ok) {
      out->incr_s.push_back(seconds);
      out->incr_add_ms.push_back(add_s * 1e3);
      out->incr_evaluate_s.push_back(evaluate_s);
      check("incr", eval->db());
    } else {
      out->failed += 1;
      std::fprintf(stderr, "perfbench: incremental evaluation failed\n");
    }
  }
  run_parallel("par1", *ctx->p1, &out->par1_s, traced ? &out->p1 : nullptr);
  run_parallel("par4", *ctx->p4, &out->par4_s, nullptr);
  if (traced) run_parallel("par4", *ctx->p4, &out->par4_traced_s, &out->p4);
  run_parallel("par4_nocomm", *ctx->p4nocomm, &out->par4_nocomm_s,
               traced ? &out->p4nocomm : nullptr);
}

}  // namespace perfbench
