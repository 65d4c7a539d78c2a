// One processor of the abstract architecture: evaluates its rewritten
// program Q_i/R_i/T_i with a local semi-naive loop, sending output
// deltas through the channel network and receiving asynchronously
// (Section 3: "processor i does not wait for data from processor j").
#ifndef PDATALOG_CORE_WORKER_H_
#define PDATALOG_CORE_WORKER_H_

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/channel.h"
#include "core/partition.h"
#include "core/rewrite.h"
#include "core/routing.h"
#include "core/termination.h"
#include "eval/round.h"
#include "obs/histogram.h"
#include "storage/database.h"

namespace pdatalog {

class TraceRing;  // obs/trace.h; phase spans for this worker's thread

// Per-round record used by the BSP cost model (core/cost_model.h):
// round 0 is initialization; round k >= 1 is the k-th processing round.
struct RoundLog {
  uint64_t firings = 0;
  uint64_t received = 0;           // messages drained entering this round
  std::vector<uint64_t> sent_to;   // messages enqueued, by destination
};

// Per-worker latency/size distributions, recorded only while tracing
// is enabled (set_trace with a non-null ring) so the default hot path
// pays nothing beyond the existing null checks. All histograms are
// fixed-footprint (obs/histogram.h) and written only by the worker's
// own thread; the engine merges them into the run's MetricsRegistry
// (hist.* entries) after the workers have joined.
struct WorkerProfile {
  Histogram probe_ns;       // semi-naive pass duration, per round
  Histogram insert_ns;      // bulk t_in ingest duration, per block
  Histogram drain_ns;       // channel drain duration, per Step
  Histogram flush_ns;       // end-of-round flush duration
  Histogram idle_ns;        // idle backoff duration, per wait
  Histogram block_tuples;   // tuples per flushed block frame
  Histogram queue_frames;   // frames pending when a drain ran
  Histogram probe_batch;    // surviving keys per batch-kernel probe batch
  Histogram insert_tuples;  // tuples per ingested block (dedup-blind)
};

struct WorkerStats {
  int rounds = 0;
  uint64_t firings = 0;          // successful ground substitutions
  uint64_t out_inserted = 0;     // distinct tuples added to t_out
  uint64_t in_inserted = 0;      // distinct tuples added to t_in
  uint64_t received = 0;         // tuples drained (incl. self-channel)
  uint64_t sent_cross = 0;       // tuples to other processors
  uint64_t sent_self = 0;        // tuples routed to self
  uint64_t broadcasts = 0;       // tuples broadcast for undetermined sends
  uint64_t frames = 0;           // block frames flushed (all destinations)
  uint64_t rows_examined = 0;
  uint64_t batch_fallbacks = 0;  // joins the batch kernel could not cover
};

class Worker {
 public:
  // `fragments` are this worker's base fragments, moved in; replicated
  // base relations are read directly (and concurrently) from `edb`.
  // Create builds the indexes this worker probes on them, so workers
  // must be created before any of them runs. All pointers must outlive
  // the worker.
  static StatusOr<std::unique_ptr<Worker>> Create(
      const RewriteBundle* bundle, int id, Database* edb,
      std::unordered_map<int, std::unique_ptr<Relation>> fragments,
      CommNetwork* network, TerminationDetector* detector);

  // Evaluates the initialization rules (those without t_in body atoms)
  // and sends the resulting output delta. Call once before stepping.
  void Init();

  // Drains the incoming channels and, if anything new arrived, runs one
  // semi-naive round over the new t_in delta and sends the new outputs.
  // Returns false when there was nothing to do; a non-OK status (a
  // received block for an unknown predicate or with the wrong arity)
  // must abort the run — the worker's counters can no longer be trusted.
  StatusOr<bool> Step();

  // Thread body: Init() + Step() until global termination is detected
  // or any worker fails. A local failure is published through
  // TerminationDetector::Abort so peers stop too; the returned status
  // is this worker's own error, or the detector's run status.
  Status RunLoop();

  // Re-sends this worker's unacknowledged outgoing frames (retransmit
  // mode only; see Channel::RetransmitUnacked). Returns frames resent.
  size_t RetransmitUnacked();

  // Retransmit mode: the idle loop periodically re-sends unacknowledged
  // frames. The engine must also have called CommNetwork::
  // EnableRetransmit. Set before Init().
  void set_retransmit(bool on) { retransmit_ = on; }

  // Flush threshold for the per-(destination, predicate) send blocks: a
  // block normally flushes at the end of the round, but flushes early
  // once it holds `n` tuples. n == 1 degenerates to one frame per tuple
  // (the old per-tuple protocol). Set before Init().
  void set_block_tuples(int n) { block_tuples_ = n; }

  // Observability: record phase spans (init/drain/probe/insert/flush/
  // idle) and round instants on `ring`. The ring must be owned by
  // this worker's thread (the engine hands worker i ring i); it is also
  // propagated to the worker's t_in relations so bulk ingests appear as
  // insert spans. Null (the default) disables tracing at the cost of
  // one branch per site. Set before Init().
  void set_trace(TraceRing* ring);

  const WorkerStats& stats() const { return stats_; }
  const WorkerProfile& profile() const { return profile_; }
  const std::vector<RoundLog>& round_logs() const { return round_logs_; }
  const Database& local_db() const { return local_db_; }

  // The worker's t_out relation for original derived predicate `p`.
  const Relation& OutputRelation(Symbol p) const;

  // Moves the t_out relation for `p` out of the worker (final pooling
  // adopts it instead of copying). Only after the worker has stopped
  // running: afterwards it must not be stepped again, and
  // OutputRelation(p) is no longer valid.
  std::unique_ptr<Relation> TakeOutput(Symbol p);

  // The worker's t_in relation for `p`: every tuple of `p` routed to
  // this processor, deduplicated on ingest.
  const Relation& InputRelation(Symbol p) const;

  // Moves the t_in relation for `p` out of the worker, with its trace
  // and histogram hooks cleared (they point into this worker and its
  // tracer, which may be destroyed before the relation). Same contract
  // as TakeOutput.
  std::unique_ptr<Relation> TakeInput(Symbol p);

 private:
  Worker(const RewriteBundle* bundle, int id,
         std::unordered_map<int, std::unique_ptr<Relation>> fragments,
         CommNetwork* network, TerminationDetector* detector);

  Status Setup(Database* edb);

  // Appends all pending channel blocks into the t_in relations (bulk
  // ingest via Relation::InsertBlock). Returns the number of tuples
  // drained, or an error when a block names an unknown predicate or
  // carries the wrong arity.
  StatusOr<size_t> DrainChannels();
  // Ingests one received block into its t_in relation; returns the
  // block's tuple count on success.
  StatusOr<size_t> IngestBlock(const TupleBlock& block, int from);

  // Runs one semi-naive round over the current t_in deltas, then routes
  // the new t_out tuples.
  void ProcessRound();
  // Adds a kernel pass's counters to stats_ and the current round log.
  void AddEvalStats(const EvalStats& es);
  // Routes every t_out row derived since the last call, then flushes.
  void SendOutputDelta();

  // Applies the sending rules to `out`'s freshly derived rows
  // [begin, end): gathers up to 256 rows out of the column store,
  // computes their destinations with one RouteBatch call, and appends
  // each row to its (destination, predicate) accumulation blocks. A
  // block that reaches block_tuples_ flushes immediately; FlushSends()
  // flushes the remainder at the end of the round.
  void SendNewRows(Symbol pred, const Relation& out, size_t begin,
                   size_t end);
  // Ships one accumulated block as a single frame: one CountSend(n),
  // one lock acquisition, one sequence number — shared by the plain
  // and retransmit configurations.
  void FlushBlock(int dest, TupleBlock* block);
  void FlushSends();

  const RewriteBundle* bundle_;
  int id_;
  int num_processors_;
  CommNetwork* network_;
  TerminationDetector* detector_;

  Database local_db_;  // holds t_out / t_in relations (decorated names)
  // Base fragments keyed by occurrence index (see RewriteBundle).
  std::unordered_map<int, std::unique_ptr<Relation>> fragments_;
  // The semi-naive round over this worker's sources: every body atom
  // reads its local t_in relation, a shared EDB relation, or a fragment;
  // the t_in relations are tracked; heads fire into t_out. Built in
  // Setup().
  std::optional<SemiNaiveRound> round_;
  std::unordered_map<Symbol, size_t> out_sent_end_;  // routed, by t_out

  // Precompiled sending rules (pattern checks + routing positions per
  // predicate; see core/routing.h), built once in Setup().
  TupleRouter router_;
  std::vector<int> dests_;              // scratch for SendNewRows
  std::vector<uint32_t> route_offsets_; // per-row dest ranges into dests_
  std::vector<Value> send_rows_;        // row-major gather buffer
  WorkerStats stats_;
  TraceRing* trace_ = nullptr;  // optional per-worker trace ring
  WorkerProfile profile_;       // recorded only when trace_ is set
  std::vector<RoundLog> round_logs_;
  RoundLog* current_log_ = nullptr;  // active during Init/ProcessRound
  uint64_t pending_received_ = 0;    // drained since the last round started
  bool retransmit_ = false;
  int block_tuples_ = 256;  // flush threshold (see set_block_tuples)
  std::vector<TupleBlock> block_buffer_;  // scratch for drains
  // Outgoing accumulation blocks, indexed [dest * num_derived + slot]
  // where slot is the predicate's position in bundle_->derived. Blocks
  // keep their buffer capacity across rounds.
  std::vector<TupleBlock> send_blocks_;
  int num_derived_ = 0;
  std::unordered_map<Symbol, int> pred_slot_;  // derived pred -> slot
  // Memoized slot lookup: derivations arrive predicate-by-predicate, so
  // the previous SendTuple's slot almost always answers the next one.
  Symbol last_pred_ = kInvalidSymbol;
  int last_slot_ = 0;
};

}  // namespace pdatalog

#endif  // PDATALOG_CORE_WORKER_H_
