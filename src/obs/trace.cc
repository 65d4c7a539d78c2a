#include "obs/trace.h"

namespace pdatalog {

const char* TracePhaseName(TracePhase phase) {
  switch (phase) {
    case TracePhase::kInit:
      return "init";
    case TracePhase::kDrain:
      return "drain";
    case TracePhase::kProbe:
      return "probe";
    case TracePhase::kInsert:
      return "insert";
    case TracePhase::kFlush:
      return "flush";
    case TracePhase::kIdle:
      return "idle";
    case TracePhase::kPool:
      return "pool";
    case TracePhase::kQuery:
      return "query";
    case TracePhase::kApply:
      return "apply";
    case TracePhase::kMaintain:
      return "maintain";
    case TracePhase::kRound:
      return "round";
    case TracePhase::kRetransmit:
      return "retransmit";
    case TracePhase::kDupFrame:
      return "dup-frame";
    case TracePhase::kFlowSend:
      return "flow-send";
    case TracePhase::kFlowRecv:
      return "flow-recv";
  }
  return "unknown";
}

Tracer::Tracer(int num_workers, size_t ring_capacity)
    : num_workers_(num_workers), epoch_(TraceRing::NowTicks()) {
  rings_.reserve(static_cast<size_t>(num_workers) + 1);
  for (int i = 0; i <= num_workers; ++i) {
    rings_.push_back(std::make_unique<TraceRing>(i, ring_capacity));
  }
}

uint64_t Tracer::total_events() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->size();
  return total;
}

uint64_t Tracer::total_dropped() const {
  uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->dropped();
  return total;
}

}  // namespace pdatalog
