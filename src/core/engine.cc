#include "core/engine.h"

#include <algorithm>
#include <thread>

#include "core/partition.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace pdatalog {

double ParallelResult::ModeledMakespan(double cpu_cost,
                                       double net_cost) const {
  double makespan = 0;
  for (size_t j = 0; j < workers.size(); ++j) {
    uint64_t recv_cross = 0;
    for (size_t i = 0; i < workers.size(); ++i) {
      if (i != j) recv_cross += channel_matrix[i][j];
    }
    double t = static_cast<double>(workers[j].firings) * cpu_cost +
               static_cast<double>(recv_cross) * net_cost;
    makespan = std::max(makespan, t);
  }
  return makespan;
}

namespace {

// Best-effort static range check of the bundle's functions.
Status ValidateFunctions(const RewriteBundle& bundle) {
  for (int f = 0; f < bundle.registry->size(); ++f) {
    const DiscriminatingFunction& fn = bundle.registry->function(f);
    switch (fn.kind) {
      case DiscriminatingFunction::Kind::kConstant:
        if (fn.constant < 0 || fn.constant >= bundle.num_processors) {
          return Status::OutOfRange(
              "constant discriminating function value " +
              std::to_string(fn.constant) + " outside processor set");
        }
        break;
      case DiscriminatingFunction::Kind::kLinear: {
        for (int v : LinearAchievableValues(fn.coeffs)) {
          int mapped = v;
          if (!fn.remap.empty()) {
            auto it = fn.remap.find(v);
            if (it == fn.remap.end()) {
              return Status::OutOfRange(
                  "linear function remap misses achievable value " +
                  std::to_string(v));
            }
            mapped = it->second;
          }
          if (mapped < 0 || mapped >= bundle.num_processors) {
            return Status::OutOfRange(
                "linear discriminating function reaches processor " +
                std::to_string(mapped) + " outside [0, " +
                std::to_string(bundle.num_processors) +
                "); use WithDenseRemap and a matching processor count");
          }
        }
        break;
      }
      default: {
        if (fn.num_processors > bundle.num_processors) {
          return Status::OutOfRange(
              "discriminating function range exceeds processor count");
        }
        break;
      }
    }
  }
  return Status::Ok();
}

Status ValidateFaultSpec(const ParallelOptions& options) {
  const FaultSpec& f = options.faults;
  const double probs[] = {f.drop, f.duplicate, f.reorder, f.delay};
  for (double p : probs) {
    if (p < 0.0 || p > 1.0) {
      return Status::InvalidArgument(
          "fault probabilities must lie in [0, 1]");
    }
  }
  if (f.total() > 1.0) {
    return Status::InvalidArgument(
        "fault probabilities must sum to at most 1");
  }
  if (f.delay > 0.0 && f.delay_polls < 1) {
    return Status::InvalidArgument("fault delay_polls must be >= 1");
  }
  if (options.block_tuples < 1 ||
      static_cast<uint32_t>(options.block_tuples) > kMaxBlockTuples) {
    return Status::InvalidArgument(
        "block_tuples must be in [1, " + std::to_string(kMaxBlockTuples) +
        "]");
  }
  return Status::Ok();
}

// Folds one worker's stats into the run's metrics registry, both under
// the worker's own prefix and into the run-level totals the scalar
// ParallelResult fields are projected from.
void AbsorbWorkerStats(int i, const WorkerStats& w, MetricsRegistry* m) {
  const std::string prefix = "worker." + std::to_string(i) + ".";
  m->AddCounter(prefix + "rounds", static_cast<uint64_t>(w.rounds));
  m->AddCounter(prefix + "firings", w.firings);
  m->AddCounter(prefix + "out_inserted", w.out_inserted);
  m->AddCounter(prefix + "in_inserted", w.in_inserted);
  m->AddCounter(prefix + "received", w.received);
  m->AddCounter(prefix + "sent_cross", w.sent_cross);
  m->AddCounter(prefix + "sent_self", w.sent_self);
  m->AddCounter(prefix + "broadcasts", w.broadcasts);
  m->AddCounter(prefix + "frames", w.frames);
  m->AddCounter(prefix + "rows_examined", w.rows_examined);
  m->AddCounter(prefix + "batch_fallbacks", w.batch_fallbacks);
  m->AddCounter("run.firings", w.firings);
  m->AddCounter("run.cross_tuples", w.sent_cross);
  m->AddCounter("run.self_tuples", w.sent_self);
  // Scalar-join executions the batch kernel could not cover; a nonzero
  // count under --profile flags plans degenerating off the fast path.
  m->AddCounter("eval.batch_fallbacks", w.batch_fallbacks);
}

void AbsorbFaultCounters(const FaultCounters& f, MetricsRegistry* m) {
  m->AddCounter("faults.dropped", f.dropped);
  m->AddCounter("faults.duplicated", f.duplicated);
  m->AddCounter("faults.reordered", f.reordered);
  m->AddCounter("faults.delayed", f.delayed);
  m->AddCounter("faults.retransmitted", f.retransmitted);
  m->AddCounter("faults.duplicates_discarded", f.duplicates_discarded);
}

// Re-derives the run-level scalar fields from the registry so the text
// report and a metrics JSON export always agree (single source of
// truth).
void ProjectScalarsFromMetrics(ParallelResult* result) {
  const MetricsRegistry& m = result->metrics;
  result->total_firings = m.counter("run.firings");
  result->cross_tuples = m.counter("run.cross_tuples");
  result->self_tuples = m.counter("run.self_tuples");
  result->cross_bytes = m.counter("run.cross_bytes");
  result->cross_frames = m.counter("run.cross_frames");
  result->out_tuples_total = m.counter("run.out_tuples_total");
  result->pooling_messages = m.counter("run.pooling_messages");
  result->pooling_bytes = m.counter("run.pooling_bytes");
  result->pooled_tuples = m.counter("run.pooled_tuples");
}

}  // namespace

void PoolOutputs(const RewriteBundle& bundle,
                 std::vector<std::unique_ptr<Worker>>* workers,
                 Database* output, MetricsRegistry* metrics) {
  // Collector is processor 0: every other processor ships its share
  // across the network — its t_in when `p` has a single owner (the
  // receive sets are then disjoint and cover the fixpoint), else its
  // t_out, deduplicated on arrival.
  for (Symbol p : bundle.derived) {
    const int arity = bundle.arity.at(p);
    for (const auto& worker : *workers) {
      metrics->AddCounter("run.out_tuples_total",
                          worker->OutputRelation(p).size());
    }
    const bool single_owner = HasSingleOwner(bundle, p);
    Relation& pooled = output->Adopt(
        p, single_owner ? (*workers)[0]->TakeInput(p)
                        : (*workers)[0]->TakeOutput(p));
    for (size_t w = 1; w < workers->size(); ++w) {
      const Relation& share = single_owner
                                  ? (*workers)[w]->InputRelation(p)
                                  : (*workers)[w]->OutputRelation(p);
      metrics->AddCounter("run.pooling_messages", share.size());
      metrics->AddCounter("run.pooling_bytes",
                          share.size() * TupleWireBytes(arity));
      if (single_owner) {
        pooled.AppendDisjoint(share);
      } else {
        pooled.InsertAll(share);
      }
    }
    metrics->AddCounter("run.pooled_tuples", pooled.size());
  }
}

StatusOr<ParallelResult> RunParallel(const RewriteBundle& bundle,
                                     Database* edb,
                                     const ParallelOptions& options) {
  if (bundle.num_processors < 1 ||
      bundle.per_processor.size() !=
          static_cast<size_t>(bundle.num_processors)) {
    return Status::InvalidArgument("malformed rewrite bundle");
  }
  PDATALOG_RETURN_IF_ERROR(ValidateFunctions(bundle));
  PDATALOG_RETURN_IF_ERROR(ValidateFaultSpec(options));
  if (options.tracer != nullptr &&
      options.tracer->num_workers() < bundle.num_processors) {
    return Status::InvalidArgument(
        "tracer sized for " +
        std::to_string(options.tracer->num_workers()) +
        " workers but the bundle has " +
        std::to_string(bundle.num_processors) + " processors");
  }

  // Materialize every base relation so shared reads have a target.
  for (const auto& [pred, arity] : bundle.arity) {
    bool is_derived =
        std::find(bundle.derived.begin(), bundle.derived.end(), pred) !=
        bundle.derived.end();
    if (!is_derived) edb->GetOrCreate(pred, arity);
  }

  StatusOr<PartitionResult> partition = PartitionBases(bundle, *edb);
  if (!partition.ok()) return partition.status();

  CommNetwork network(bundle.num_processors);
  TerminationDetector detector(bundle.num_processors);
  const bool faults_on = options.faults.any();
  if (faults_on) network.InstallFaults(options.faults);
  if (options.retransmit) network.EnableRetransmit();
  if (faults_on && !options.retransmit) {
    // Without retransmission a lost or duplicated message would
    // livelock the detector (counters never balance); loss detection
    // turns that state into a reported failure. It is unsound under
    // retransmission — a pending resend would be declared lost.
    detector.EnableLossDetection(&network);
  }

  // Every worker is created before any runs: creation builds the
  // indexes it probes on shared (replicated) EDB relations, which are
  // read concurrently and must not be mutated during the run.
  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(bundle.num_processors);
  for (int i = 0; i < bundle.num_processors; ++i) {
    StatusOr<std::unique_ptr<Worker>> worker =
        Worker::Create(&bundle, i, edb, std::move(partition->fragments[i]),
                       &network, &detector);
    if (!worker.ok()) return worker.status();
    (*worker)->set_retransmit(options.retransmit);
    (*worker)->set_block_tuples(options.block_tuples);
    if (options.tracer != nullptr) {
      (*worker)->set_trace(options.tracer->ring(i));
    }
    workers.push_back(std::move(*worker));
  }

  if (options.tracer != nullptr) {
    // Channel (i, j) is drained on worker j's thread, so its receive-
    // side discard instants land on ring j (single-writer invariant).
    // Cross channels additionally emit flow instants: sends on ring i
    // (the sending worker's thread holds the channel lock), deliveries
    // on ring j — the exporter and analyzer pair them by (i, j, frame
    // sequence). Self-channels carry no communication, so no flows.
    for (int i = 0; i < bundle.num_processors; ++i) {
      for (int j = 0; j < bundle.num_processors; ++j) {
        network.channel(i, j).set_receive_trace(options.tracer->ring(j));
        if (i != j) {
          network.channel(i, j).set_flow_trace(
              i, j, options.tracer->ring(i), options.tracer->ring(j));
        }
      }
    }
  }

  Stopwatch watch;
  if (options.use_threads) {
    std::vector<Status> worker_status(workers.size());
    std::vector<std::thread> threads;
    threads.reserve(workers.size());
    for (size_t i = 0; i < workers.size(); ++i) {
      Worker* worker = workers[i].get();
      Status* slot = &worker_status[i];
      threads.emplace_back([worker, slot] { *slot = worker->RunLoop(); });
    }
    for (std::thread& t : threads) t.join();
    // The detector's status is the first failure (a failing worker
    // aborts the run for everyone); individual loop statuses are
    // checked too in case a loop exited before publishing.
    PDATALOG_RETURN_IF_ERROR(detector.run_status());
    for (const Status& st : worker_status) PDATALOG_RETURN_IF_ERROR(st);
  } else {
    // Deterministic round-robin schedule.
    for (auto& worker : workers) worker->Init();
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto& worker : workers) {
        StatusOr<bool> stepped = worker->Step();
        if (!stepped.ok()) return stepped.status();
        if (*stepped) progress = true;
      }
      if (!progress && options.retransmit) {
        // Quiescent but possibly short a dropped frame: re-send every
        // unacknowledged copy, then keep stepping if anything went out.
        size_t resent = 0;
        for (auto& worker : workers) resent += worker->RetransmitUnacked();
        if (resent > 0) progress = true;
      }
      if (!progress && network.AnyPending()) {
        // Delayed frames mature on future drain polls; keep stepping.
        progress = true;
      }
    }
    if (faults_on && !options.retransmit) {
      // The round-robin schedule quiesces by construction, so loss
      // shows up as a final send/receive imbalance rather than a
      // livelock; check it explicitly.
      PDATALOG_RETURN_IF_ERROR(detector.CheckCounterBalance());
    }
  }

  ParallelResult result;
  result.wall_seconds = watch.ElapsedSeconds();
  result.channel_matrix = network.SentMatrix();
  result.bytes_matrix = network.BytesMatrix();
  result.frames_matrix = network.FramesMatrix();
  result.faults = network.AggregateFaultCounters();
  MetricsRegistry& m = result.metrics;
  for (int i = 0; i < bundle.num_processors; ++i) {
    for (int j = 0; j < bundle.num_processors; ++j) {
      if (i != j) {
        m.AddCounter("run.cross_bytes", result.bytes_matrix[i][j]);
        m.AddCounter("run.cross_frames", result.frames_matrix[i][j]);
      }
    }
  }
  for (size_t i = 0; i < workers.size(); ++i) {
    result.workers.push_back(workers[i]->stats());
    result.worker_rounds.push_back(workers[i]->round_logs());
    AbsorbWorkerStats(static_cast<int>(i), workers[i]->stats(), &m);
  }
  AbsorbFaultCounters(result.faults, &m);
  if (options.tracer != nullptr) {
    // Fold every worker's single-writer histograms into the registry.
    auto fold = [&m](const char* name, const Histogram& h) {
      if (!h.empty()) m.MergeHistogram(name, h);
    };
    for (const auto& worker : workers) {
      const WorkerProfile& p = worker->profile();
      fold("hist.probe_ns", p.probe_ns);
      fold("hist.insert_ns", p.insert_ns);
      fold("hist.drain_ns", p.drain_ns);
      fold("hist.flush_ns", p.flush_ns);
      fold("hist.idle_ns", p.idle_ns);
      fold("hist.block_tuples", p.block_tuples);
      fold("hist.queue_frames_at_drain", p.queue_frames);
      fold("hist.probe_batch", p.probe_batch);
      fold("hist.insert_tuples", p.insert_tuples);
    }
  }

  {
    TraceScope pool_span(
        options.tracer != nullptr ? options.tracer->engine_ring() : nullptr,
        TracePhase::kPool);
    Stopwatch pool_watch;
    PoolOutputs(bundle, &workers, &result.output, &m);
    m.SetGauge("run.pool_seconds", pool_watch.ElapsedSeconds());
  }
  m.SetGauge("run.wall_seconds", result.wall_seconds);
  ProjectScalarsFromMetrics(&result);
  return result;
}

}  // namespace pdatalog
