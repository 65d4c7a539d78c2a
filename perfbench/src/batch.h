// Batch legs: one-shot fixpoints through SemiNaiveEvaluate, the
// incremental evaluator, and RunParallel at P=1/P=4, each timed as the
// whole public call and checked against the sequential reference.
#ifndef PERFBENCH_BATCH_H_
#define PERFBENCH_BATCH_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/rewrite.h"
#include "datalog/ast.h"
#include "datalog/validate.h"
#include "eval/seminaive.h"
#include "spans.h"
#include "storage/database.h"
#include "workloads.h"

namespace perfbench {

// Order-independent fingerprint of one relation: its size plus a sum
// and an xor of per-tuple hashes over interned ids. Two relations
// interned through the same symbol table compare equal iff (with
// overwhelming probability) they hold the same tuples.
struct Fingerprint {
  uint64_t size = 0;
  uint64_t sum = 0;
  uint64_t xor_all = 0;
  bool operator==(const Fingerprint&) const = default;
};
using DbPrint = std::map<std::string, Fingerprint>;

DbPrint FingerprintOf(const pdatalog::Database& db,
                      const pdatalog::SymbolTable& symbols,
                      const std::vector<std::string>& predicates);

// Parsed program, generated-input recipe and the three rewrites. Pinned
// on the heap: the program points into the symbol table.
struct BatchContext {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  pdatalog::SymbolTable symbols;
  pdatalog::Program program;
  pdatalog::ProgramInfo info;
  std::optional<pdatalog::RewriteBundle> p1, p4, p4nocomm;
  double parse_ms = 0;    // ParseProgram + Validate
  double rewrite_ms = 0;  // the P=4 rewrite
  double load_ms = 0;     // generating + loading the base facts once

  // A freshly generated copy of the base facts.
  std::unique_ptr<pdatalog::Database> MakeEdb();
};

// Parses, validates and rewrites `workload`'s program. Returns null
// and prints the error when any step fails.
std::unique_ptr<BatchContext> PrepareBatch(const Workload& workload,
                                           uint64_t seed, SpanLog* log,
                                           SpanBuffer* spans);

// The sequential fixpoint every other result is checked against.
struct Reference {
  std::unique_ptr<pdatalog::Database> db;
  pdatalog::EvalStats stats;
  DbPrint print;
};
bool ComputeReference(BatchContext* ctx, SpanLog* log, SpanBuffer* spans,
                      Reference* ref);

// Per-configuration layer samples from the traced legs.
enum Phase { kInitPhase, kProbePhase, kInsertPhase, kDrainPhase,
             kFlushPhase, kIdlePhase, kNumPhases };
extern const char* const kPhaseNames[kNumPhases];

struct ParLayer {
  std::vector<double> threads_s, outside_s, pool_ms, busy_skew;
  std::array<std::vector<double>, kNumPhases> phase_ms;  // over workers
  // Exact counters of the last run (identical on every run).
  uint64_t cross_tuples = 0, self_tuples = 0, cross_frames = 0;
  uint64_t cross_bytes = 0, frames = 0;
};

struct BatchResult {
  int reps = 0;
  std::vector<double> seq_s, incr_s, par1_s, par4_s, par4_nocomm_s;
  std::vector<double> incr_add_ms, incr_evaluate_s;
  std::vector<double> par4_traced_s;  // traced twin of par4_s
  ParLayer p1, p4, p4nocomm;          // filled by traced runs only
  uint64_t attempted = 0, failed = 0;
  uint64_t trace_dropped = 0;
  size_t max_ring_events = 0;  // fullest engine trace ring (sizing check)
};

// Runs one round of every leg. With `traced`, the parallel legs also
// run with a Tracer and the per-phase self times are collected.
void RunBatchRound(BatchContext* ctx, const Reference& ref, bool traced,
                   SpanLog* log, SpanBuffer* spans, BatchResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_BATCH_H_
