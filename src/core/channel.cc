#include "core/channel.h"

#include <cassert>

#include "obs/trace.h"

namespace pdatalog {

// --- send / drain ---
//
// Fast path (no faults, no retransmit): accounting via single increments
// on the atomic counters, flow instant, then append the frame to the
// queue under the lock. The counter bump happens before the frame is
// enqueued, so a receiver that observed the frame also observes
// counters covering it (the Mattern detector's CountSend in the worker
// has the same ordering). Slow path: seq-stamped Extras queues.

void Channel::SendBlock(TupleBlock block) {
  total_bytes_.fetch_add(block.WireBytes(), std::memory_order_relaxed);
  total_sent_.fetch_add(block.count, std::memory_order_relaxed);
  uint64_t frame = total_frames_.fetch_add(1, std::memory_order_relaxed);
  if (fx_ == nullptr) NoteFlowSend(frame);
  std::lock_guard<std::mutex> lock(mutex_);
  if (fx_ != nullptr) {
    EnqueueBlockLocked(std::move(block));
  } else {
    queue_.push_back(std::move(block));
  }
}

size_t Channel::DrainBlocks(std::vector<TupleBlock>* out) {
  size_t start = out->size();
  if (fx_ != nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    DrainBlocksLocked(out);
  } else {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      out->reserve(start + queue_.size());
      for (TupleBlock& b : queue_) out->push_back(std::move(b));
      queue_.clear();
    }
    NoteFlowRecv(out->size() - start);
  }
  size_t tuples = 0;
  for (size_t i = start; i < out->size(); ++i) tuples += (*out)[i].count;
  return tuples;
}

bool Channel::HasPending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fx_ == nullptr) return !queue_.empty();
  return !fx_->queue.empty() || !fx_->delayed.empty();
}

Channel::Extras& Channel::EnsureExtras() {
  // Configuration happens before the run; nothing may be in flight when
  // the channel switches to the slow path.
  assert(queue_.empty());
  if (fx_ == nullptr) fx_ = std::make_unique<Extras>();
  return *fx_;
}

void Channel::ConfigureFaults(const FaultSpec& spec, int from, int to) {
  std::lock_guard<std::mutex> lock(mutex_);
  EnsureExtras().injector =
      std::make_unique<FaultInjector>(spec, from, to);
}

void Channel::EnableRetransmit() {
  std::lock_guard<std::mutex> lock(mutex_);
  EnsureExtras().reliable = true;
}

void Channel::NoteFlowSend(uint64_t frame) {
  if (send_trace_ == nullptr) return;
  // Past the 22-bit sequence space, stop emitting rather than wrap (the
  // receiver side applies the same cutoff, so pairing stays consistent).
  if (frame > kFlowMaxSeq) return;
  send_trace_->Instant(TracePhase::kFlowSend, PackFlowArg(flow_to_, frame));
}

void Channel::NoteFlowRecv(size_t frames) {
  if (send_trace_ == nullptr) {
    delivered_frames_ += frames;
    return;
  }
  // The fast path is FIFO and lossless, so the k-th frame drained is
  // the k-th frame sent; a running delivery counter reconstructs each
  // frame's sequence without adding anything to the frame.
  for (size_t k = 0; k < frames; ++k) {
    uint64_t seq = delivered_frames_ + k;
    if (seq > kFlowMaxSeq) break;
    if (recv_trace_ != nullptr) {
      recv_trace_->Instant(TracePhase::kFlowRecv,
                           PackFlowArg(flow_from_, seq));
    }
  }
  delivered_frames_ += frames;
}

void Channel::EnqueueBlockLocked(TupleBlock block) {
  Extras& fx = *fx_;
  uint64_t seq = fx.next_seq++;
  if (fx.reliable) fx.unacked.emplace_back(seq, block);
  FaultInjector::Action action = fx.injector != nullptr
                                     ? fx.injector->Next()
                                     : FaultInjector::Action::kDeliver;
  switch (action) {
    case FaultInjector::Action::kDrop:
      ++fx.counters.dropped;
      return;  // never enqueued — every tuple of the block is lost
    case FaultInjector::Action::kDuplicate:
      ++fx.counters.duplicated;
      fx.queue.emplace_back(seq, block);
      fx.queue.emplace_back(seq, std::move(block));
      return;
    case FaultInjector::Action::kReorder:
      ++fx.counters.reordered;
      fx.queue.insert(fx.queue.begin(), {seq, std::move(block)});
      return;
    case FaultInjector::Action::kDelay:
      ++fx.counters.delayed;
      fx.delayed.push_back(
          {seq, std::move(block),
           fx.drain_calls + fx.injector->delay_polls()});
      return;
    case FaultInjector::Action::kDeliver:
      fx.queue.emplace_back(seq, std::move(block));
      return;
  }
}

void Channel::ReleaseMatureLocked() {
  Extras& fx = *fx_;
  size_t kept = 0;
  for (size_t k = 0; k < fx.delayed.size(); ++k) {
    Extras::DelayedBlock& d = fx.delayed[k];
    if (d.release_at <= fx.drain_calls) {
      fx.queue.emplace_back(d.seq, std::move(d.block));
    } else {
      // Compact in place; guard the no-release case against
      // self-move-assignment, which would gut the block's buffer.
      if (kept != k) fx.delayed[kept] = std::move(d);
      ++kept;
    }
  }
  fx.delayed.resize(kept);
}

void Channel::DeliverBlockLocked(TupleBlock block,
                                 std::vector<TupleBlock>* out) {
  Extras& fx = *fx_;
  out->push_back(std::move(block));
  ++fx.deliver_next;
  // Flush consecutive frames that were buffered ahead of the gap.
  for (auto it = fx.ahead.find(fx.deliver_next); it != fx.ahead.end();
       it = fx.ahead.find(fx.deliver_next)) {
    out->push_back(std::move(it->second));
    fx.ahead.erase(it);
    ++fx.deliver_next;
  }
}

void Channel::NoteDuplicateLocked() {
  ++fx_->counters.duplicates_discarded;
  if (recv_trace_ != nullptr) recv_trace_->Instant(TracePhase::kDupFrame);
}

void Channel::DrainBlocksLocked(std::vector<TupleBlock>* out) {
  Extras& fx = *fx_;
  ++fx.drain_calls;
  ReleaseMatureLocked();
  if (!fx.reliable) {
    for (auto& [seq, b] : fx.queue) out->push_back(std::move(b));
    fx.queue.clear();
    return;
  }
  for (auto& [seq, b] : fx.queue) {
    if (seq < fx.deliver_next) {
      NoteDuplicateLocked();
    } else if (seq == fx.deliver_next) {
      DeliverBlockLocked(std::move(b), out);
    } else if (!fx.ahead.emplace(seq, std::move(b)).second) {
      NoteDuplicateLocked();
    }
  }
  fx.queue.clear();
}

size_t Channel::RetransmitUnacked() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fx_ == nullptr || !fx_->reliable) return 0;
  Extras& fx = *fx_;
  while (!fx.unacked.empty() && fx.unacked.front().first < fx.deliver_next) {
    fx.unacked.pop_front();
  }
  size_t resent = 0;
  for (const auto& [seq, b] : fx.unacked) {
    if (fx.ahead.count(seq) != 0) continue;  // receiver already holds it
    fx.queue.emplace_back(seq, b);
    ++fx.counters.retransmitted;
    ++resent;
  }
  return resent;
}

FaultCounters Channel::fault_counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fx_ != nullptr ? fx_->counters : FaultCounters{};
}

}  // namespace pdatalog
