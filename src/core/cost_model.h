// BSP-style cost model over the workers' per-round logs: the
// quantitative performance study the paper defers to future work
// (Section 8, "computation cost as opposed to communication cost").
//
// The asynchronous execution is replayed as bulk-synchronous supersteps
// aligned by round index: in superstep k, every processor performs its
// round-k firings and absorbs its round-k receives, then all processors
// barrier. The makespan is
//
//   sum_k ( max_i (firings_{i,k} * cpu + received_{i,k} * net) + latency )
//
// This upper-bounds the asynchronous schedule (which never waits at a
// barrier) while preserving the data dependencies between rounds, and
// lets benches sweep the comm/compute cost ratio to locate the scheme
// crossovers a compiler targeting a concrete architecture would use.
#ifndef PDATALOG_CORE_COST_MODEL_H_
#define PDATALOG_CORE_COST_MODEL_H_

#include <vector>

#include "core/worker.h"

namespace pdatalog {

struct CostParams {
  double cpu_per_firing = 1.0;
  double net_per_message = 1.0;  // applies to cross-processor messages only
  double round_latency = 0.0;    // fixed barrier cost per superstep
};

struct CostBreakdown {
  double makespan = 0.0;
  double compute = 0.0;    // sum over supersteps of the max compute term
  double network = 0.0;    // sum over supersteps of the max network term
  int supersteps = 0;
};

// `rounds[i]` is worker i's log (rounds[i][k] = its k-th round; workers
// may have different round counts — missing rounds cost nothing).
// Self-channel messages are free: routing a tuple to yourself is not
// communication.
CostBreakdown BspCost(const std::vector<std::vector<RoundLog>>& rounds,
                      const CostParams& params);

}  // namespace pdatalog

#endif  // PDATALOG_CORE_COST_MODEL_H_
