// Verifies the hot path's allocation contract: once scratch buffers are
// warm, a JoinExecutor::Execute pass (index probes, bindings, firings
// into a raw-values sink), duplicate-rejecting InsertView calls, and a
// whole SemiNaiveRound::RunRound perform zero heap allocations. Guards
// against regressions that reintroduce per-probe key `Tuple`s, per-call
// binding vectors, or per-round input arrays and watermark maps.
#include <atomic>
#include <cstdlib>
#include <new>

#include "eval/plan.h"
#include "eval/round.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "storage/relation.h"
#include "test_util.h"

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

// Count every global allocation in this binary. Deallocation paths are
// left untouched (free is allocation-free by definition).
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::aligned_alloc(static_cast<std::size_t>(align), size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace pdatalog {
namespace {

using testing_util::ParseOrDie;
using testing_util::ValidateOrDie;

uint64_t AllocCount() { return g_news.load(std::memory_order_relaxed); }

TEST(HotPathAllocTest, JoinExecuteAllocatesNothingWhenWarm) {
  SymbolTable symbols;
  Program program = ParseOrDie("anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
                               &symbols);
  StatusOr<CompiledRule> compiled = CompiledRule::Compile(program.rules[0]);
  ASSERT_TRUE(compiled.ok());

  Relation par(2), anc(2);
  for (Value i = 0; i < 200; ++i) {
    par.Insert(Tuple{i % 40, i % 50});
    anc.Insert(Tuple{i % 50, i});
  }
  for (const auto& [pred, mask] : compiled->required_indexes()) {
    (void)pred;
    anc.EnsureIndex(mask);
    par.EnsureIndex(mask);
  }

  std::vector<AtomInput> inputs = {{&par, 0, par.size()},
                                   {&anc, 0, anc.size()}};
  JoinScratch scratch;
  uint64_t firings = 0;
  auto sink = [&firings](const Value* values, int n) {
    (void)values;
    (void)n;
    ++firings;
  };
  ExecStats stats;
  // Warm-up: sizes the scratch binding buffer.
  JoinExecutor::Execute(*compiled, inputs, nullptr, sink, &stats, &scratch);
  ASSERT_GT(firings, 0u);

  uint64_t before = AllocCount();
  JoinExecutor::Execute(*compiled, inputs, nullptr, sink, &stats, &scratch);
  uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations on the warm join path";
}

TEST(HotPathAllocTest, WarmRoundOfDuplicateDerivationsAllocatesNothing) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<CompiledProgram> compiled = CompiledProgram::Compile(program, info);
  ASSERT_TRUE(compiled.ok());
  const Symbol par_sym = symbols.Lookup("par");
  const Symbol anc_sym = symbols.Lookup("anc");

  // A 100-node chain whose closure is already materialized.
  constexpr Value kNodes = 100;
  Database db;
  Relation& par = db.GetOrCreate(par_sym, 2);
  Relation& anc = db.GetOrCreate(anc_sym, 2);
  for (Value i = 0; i + 1 < kNodes; ++i) par.Insert(Tuple{i, i + 1});
  for (Value i = 0; i < kNodes; ++i) {
    for (Value j = i + 1; j < kNodes; ++j) anc.Insert(Tuple{i, j});
  }
  for (const auto& [pred, mask] : compiled->required_indexes()) {
    if (pred == par_sym) par.EnsureIndex(mask);
  }
  SemiNaiveRound round = SemiNaiveRound::OverDatabase(
      std::move(*compiled), &db, {anc_sym}, nullptr);

  // Every node reaches a fresh sink node: the delta {(k, sink)} derives
  // (k - 1, sink) for every k > 0, each already in the delta itself.
  auto add_sink = [&](Value sink) {
    for (Value k = 0; k < kNodes; ++k) anc.Insert(Tuple{k, sink});
  };
  EvalStats stats;
  round.FireExitRules(&stats);
  ASSERT_EQ(stats.tuples_inserted, 0u);
  // Warm-up: the closure itself as the delta, then one sink round of
  // the measured shape.
  round.RunRound(&stats);
  add_sink(kNodes);
  round.RunRound(&stats);
  ASSERT_EQ(stats.tuples_inserted, 0u);

  add_sink(kNodes + 1);
  ASSERT_TRUE(round.HasDelta());
  EvalStats warm;
  uint64_t before = AllocCount();
  round.RunRound(&warm);
  uint64_t after = AllocCount();
  EXPECT_EQ(warm.firings, static_cast<uint64_t>(kNodes - 1));
  EXPECT_EQ(warm.tuples_inserted, 0u);
  EXPECT_FALSE(round.HasDelta());
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations in a warm semi-naive round";
}

TEST(HotPathAllocTest, DuplicateInsertViewAllocatesNothing) {
  Relation rel(3);
  std::vector<Tuple> rows;
  for (Value i = 0; i < 500; ++i) {
    Tuple t{i, i % 7, i % 13};
    rel.Insert(t);
    rows.push_back(t);
  }
  uint64_t before = AllocCount();
  for (const Tuple& t : rows) {
    ASSERT_FALSE(rel.InsertView(t.data(), t.arity()));
  }
  uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations while rejecting duplicates";
}

TEST(HotPathAllocTest, DisabledTracerAllocatesNothing) {
  // A null ring is the tracer-off configuration: spans and guarded
  // instants must cost one branch each and never touch the heap.
  uint64_t before = AllocCount();
  TraceRing* ring = nullptr;
  for (int i = 0; i < 10000; ++i) {
    TraceScope span(ring, TracePhase::kProbe,
                    static_cast<uint32_t>(i));
    if (ring != nullptr) ring->Instant(TracePhase::kRound);
  }
  uint64_t after = AllocCount();
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations with tracing disabled";
}

TEST(HotPathAllocTest, EnabledRingEmitIsAllocationFree) {
  // All ring storage is allocated at construction; emitting events —
  // including past capacity, where they drop — must not allocate.
  TraceRing ring(0, 1024);
  uint64_t before = AllocCount();
  for (int i = 0; i < 2000; ++i) {
    TraceScope span(&ring, TracePhase::kInsert,
                    static_cast<uint32_t>(i));
    ring.Instant(TracePhase::kRound, static_cast<uint32_t>(i));
  }
  uint64_t after = AllocCount();
  EXPECT_EQ(ring.size(), 1024u);
  EXPECT_GT(ring.dropped(), 0u);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations while emitting events";
}

TEST(HotPathAllocTest, HistogramRecordAllocatesNothing) {
  // WorkerProfile histograms sit on the enabled-tracing hot path:
  // Record is a bucket increment plus three scalar updates, with all
  // storage inline in the instance.
  Histogram h;
  uint64_t before = AllocCount();
  for (uint64_t i = 0; i < 10000; ++i) h.Record(i * 37);
  h.Record(~uint64_t{0});  // clamp path: lands in the last bucket
  uint64_t after = AllocCount();
  EXPECT_EQ(h.count(), 10001u);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations while recording";
}

TEST(HotPathAllocTest, ScopeWithHistogramAndFlowInstantsAllocatesNothing) {
  // The full enabled-tracing span cost: ring Begin/End, span-duration
  // histogram Record, and the channel's flow-send/recv instants.
  TraceRing ring(0, 4096);
  Histogram durations;
  uint64_t before = AllocCount();
  for (int i = 0; i < 1000; ++i) {
    TraceScope span(&ring, TracePhase::kDrain, 0, &durations);
    ring.Instant(TracePhase::kFlowSend,
                 PackFlowArg(3, static_cast<uint64_t>(i)));
    ring.Instant(TracePhase::kFlowRecv,
                 PackFlowArg(1, static_cast<uint64_t>(i)));
  }
  uint64_t after = AllocCount();
  EXPECT_EQ(durations.count(), 1000u);
  EXPECT_EQ(after - before, 0u)
      << (after - before)
      << " heap allocations on the traced span + flow path";
}

TEST(HotPathAllocTest, IndexProbeAllocatesNothing) {
  Relation rel(2);
  for (Value i = 0; i < 1000; ++i) rel.Insert(Tuple{i % 31, i});
  const ColumnIndex& index = rel.EnsureIndex(0b01);

  uint64_t hits = 0;
  uint64_t before = AllocCount();
  for (Value k = 0; k < 31; ++k) {
    ColumnIndex::Probe probe = index.ProbeRange(&k, 1, 0, rel.size());
    uint32_t id = 0;
    while (probe.Next(&id)) ++hits;
  }
  uint64_t after = AllocCount();
  EXPECT_EQ(hits, 1000u);
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " heap allocations across 31 index probes";
}

}  // namespace
}  // namespace pdatalog
