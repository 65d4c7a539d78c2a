// Deterministic fault injection for the channel network.
//
// The paper's Section 3 architecture *assumes* reliable channels: "if a
// processor i puts some data in channel ij, then processor j receives
// this data without error within some finite time". This module lets
// tests and experiments violate that assumption on purpose — dropping,
// duplicating, reordering, or delaying individual block frames with
// seeded per-channel probabilities — so the runtime's failure
// behavior is defined and tested instead of accidental. See
// docs/architecture.md, "Failure model".
//
// Determinism: every channel owns its own injector seeded from
// (run seed, from, to), and decisions are drawn under the channel lock
// in send order. A channel has exactly one sending worker, so the
// decision sequence of a run is reproducible regardless of thread
// interleaving across channels.
#ifndef PDATALOG_CORE_FAULT_H_
#define PDATALOG_CORE_FAULT_H_

#include <cstdint>

#include "util/hash.h"

namespace pdatalog {

// Per-message fault probabilities. All-zero (the default) disables
// injection entirely and keeps the channel fast path branch-free.
struct FaultSpec {
  double drop = 0;       // message vanishes (never enqueued)
  double duplicate = 0;  // message enqueued twice
  double reorder = 0;    // message jumps the queue (front insertion)
  double delay = 0;      // message held back for `delay_polls` drains
  int delay_polls = 3;   // maturity: drains before a delayed msg appears
  uint64_t seed = 0x5eed;

  bool any() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || delay > 0;
  }
  double total() const { return drop + duplicate + reorder + delay; }
};

// Counts of injected events, kept per channel and aggregated per run so
// reports can show exactly what the injector did.
struct FaultCounters {
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t delayed = 0;
  // Reliable-mode bookkeeping (not injector actions, but part of the
  // same fault story): retransmitted frames and receiver-side discards.
  uint64_t retransmitted = 0;
  uint64_t duplicates_discarded = 0;

  bool any() const {
    return dropped || duplicated || reordered || delayed || retransmitted ||
           duplicates_discarded;
  }
  FaultCounters& operator+=(const FaultCounters& o) {
    dropped += o.dropped;
    duplicated += o.duplicated;
    reordered += o.reordered;
    delayed += o.delayed;
    retransmitted += o.retransmitted;
    duplicates_discarded += o.duplicates_discarded;
    return *this;
  }
};

// One channel's decision stream. Not thread-safe by itself; the owning
// channel draws decisions under its send lock.
class FaultInjector {
 public:
  enum class Action { kDeliver, kDrop, kDuplicate, kReorder, kDelay };

  FaultInjector(const FaultSpec& spec, int from, int to)
      : spec_(spec),
        rng_(Mix64(spec.seed ^ (static_cast<uint64_t>(from) << 32) ^
                   static_cast<uint64_t>(to) ^ 0xfa017ULL)) {}

  // Draws the fate of the next message. Cumulative-threshold pick, so a
  // single uniform draw decides among all modes.
  Action Next() {
    double u = rng_.NextDouble();
    if (u < spec_.drop) return Action::kDrop;
    u -= spec_.drop;
    if (u < spec_.duplicate) return Action::kDuplicate;
    u -= spec_.duplicate;
    if (u < spec_.reorder) return Action::kReorder;
    u -= spec_.reorder;
    if (u < spec_.delay) return Action::kDelay;
    return Action::kDeliver;
  }

  int delay_polls() const { return spec_.delay_polls; }

 private:
  FaultSpec spec_;
  SplitMix64 rng_;
};

}  // namespace pdatalog

#endif  // PDATALOG_CORE_FAULT_H_
