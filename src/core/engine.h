// The parallel evaluation engine: given a rewrite bundle and an input
// database, runs the per-processor programs on the abstract architecture
// (worker threads + channel network + termination detection) and pools
// the outputs (Section 3, "Final Pooling").
#ifndef PDATALOG_CORE_ENGINE_H_
#define PDATALOG_CORE_ENGINE_H_

#include <memory>
#include <vector>

#include "core/fault.h"
#include "core/rewrite.h"
#include "core/worker.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "util/status.h"

namespace pdatalog {

class Tracer;  // obs/trace.h

struct ParallelOptions {
  // true: one OS thread per processor with asynchronous receives and
  // Mattern termination detection (the paper's execution model).
  // false: deterministic round-robin scheduling of the same workers in
  // the calling thread; used by tests to get reproducible interleavings.
  bool use_threads = true;
  // Deterministic fault injection on the cross-processor channels (see
  // core/fault.h). With faults enabled and retransmit off, a run whose
  // messages were lost/duplicated fails with a diagnostic Status —
  // never a silently wrong fixpoint.
  FaultSpec faults;
  // At-least-once delivery: senders keep unacknowledged copies of every
  // cross frame and idle workers periodically re-send them; receivers
  // deliver in order exactly once. Makes the fixpoint exact under drop/
  // duplicate/reorder/delay faults.
  bool retransmit = false;
  // Flush threshold for the block-oriented channel protocol: each worker
  // accumulates outgoing tuples per (destination, predicate) and ships
  // one frame per block — at the end of the round, or mid-round once a
  // block holds this many tuples. 1 reproduces the per-tuple protocol
  // (one frame per tuple); must be in [1, kMaxBlockTuples].
  int block_tuples = 256;
  // Observability: when set, worker i records phase spans on the
  // tracer's ring i and channel (i, j) records receive-side duplicate
  // discard instants on ring j. The tracer must be sized for at least
  // num_processors workers and must outlive the run. Null (the
  // default) disables tracing entirely.
  Tracer* tracer = nullptr;
};

struct ParallelResult {
  // Pooled derived relations under their original predicate names.
  Database output;

  std::vector<WorkerStats> workers;
  // worker_rounds[i] = per-round logs of processor i, for the BSP cost
  // model (core/cost_model.h).
  std::vector<std::vector<RoundLog>> worker_rounds;
  // channel_matrix[i][j] = tuples sent from processor i to j.
  std::vector<std::vector<uint64_t>> channel_matrix;
  // bytes_matrix[i][j] = modeled frame bytes (BlockWireBytes) sent from
  // processor i to j.
  std::vector<std::vector<uint64_t>> bytes_matrix;
  // frames_matrix[i][j] = block frames sent from processor i to j.
  std::vector<std::vector<uint64_t>> frames_matrix;

  uint64_t total_firings = 0;
  uint64_t cross_tuples = 0;   // inter-processor tuples
  uint64_t cross_bytes = 0;    // inter-processor modeled frame bytes
  uint64_t cross_frames = 0;   // inter-processor block frames
  uint64_t self_tuples = 0;    // self-routed tuples (no communication)
  // Sum over processors of distinct t_out tuples; exceeds the pooled
  // output size exactly when computation was redundant.
  uint64_t out_tuples_total = 0;
  uint64_t pooled_tuples = 0;
  // Final pooling (Section 3, step 5) "might require communication from
  // all processors to a single processor": messages/bytes to ship every
  // processor's share to collector 0 (its own tuples stay local) — its
  // t_in for single-owner predicates, else its t_out (see PoolOutputs).
  uint64_t pooling_messages = 0;
  uint64_t pooling_bytes = 0;
  // Injected-fault totals summed over all channels (zero when fault
  // injection is off).
  FaultCounters faults;
  double wall_seconds = 0;

  // Every run-level and per-worker counter above, as named metrics
  // (run.*, worker.N.*, faults.*). This registry is the single source
  // of truth: the scalar fields above are projections of it, so the
  // text report and a --metrics JSON export can never disagree.
  MetricsRegistry metrics;

  // Work-model makespan: max over processors of
  //   firings_i * cpu_cost + (received_cross_i) * net_cost.
  // Wall-clock time on a multi-core host is the scaling metric; the
  // modeled makespan explains it in work units (see DESIGN.md).
  double ModeledMakespan(double cpu_cost, double net_cost) const;
};

// Runs the parallel evaluation. `edb` is mutated only by index creation
// and by materializing empty relations for unused base predicates.
StatusOr<ParallelResult> RunParallel(const RewriteBundle& bundle,
                                     Database* edb,
                                     const ParallelOptions& options = {});

// Final pooling (Section 3, step 5) over workers that have stopped
// running. For a derived predicate with a single owner per tuple
// (HasSingleOwner: Examples 1 and 3), the owners' t_in relations are
// already a disjoint cover of the fixpoint: worker 0's t_in moves into
// `output` under the original name and workers 1..P-1's t_in are
// appended in order (Relation::AppendDisjoint), with no dedup probe.
// Every other predicate adopts worker 0's t_out and merges workers
// 1..P-1's t_out into it in order (Relation::InsertAll): worker 0's
// rows first, then each later worker's new rows in its own order. Adds
// the run.out_tuples_total, run.pooling_messages (the shipped shares'
// sizes), run.pooling_bytes and run.pooled_tuples counters to
// `metrics`. Worker 0 is left without the relation it gave up.
void PoolOutputs(const RewriteBundle& bundle,
                 std::vector<std::unique_ptr<Worker>>* workers,
                 Database* output, MetricsRegistry* metrics);

// Stratified parallel evaluation: the program's dependency-graph
// condensation is evaluated bottom-up, one parallel run per stratum
// (Section 7 general scheme within each). Completed strata become
// extensional inputs of later ones, so upper-stratum processors never
// idle through lower-stratum rounds and the per-stratum discriminating
// choices are independent. `rule_specs` follows Program::rules order.
// Returns the pooled outputs of every stratum plus summed statistics
// (worker/channel details are per-stratum internally and aggregated).
StatusOr<ParallelResult> RunParallelStratified(
    const Program& program, const ProgramInfo& info, int num_processors,
    const std::vector<GeneralRuleSpec>& rule_specs, Database* edb,
    const ParallelOptions& options = {});

}  // namespace pdatalog

#endif  // PDATALOG_CORE_ENGINE_H_
