// Tests for the post-run trace analyzer (src/obs/analyze.h): busy/idle
// folding, skew, critical-path reconstruction over a hand-built trace
// with known geometry, and the empirical communication matrices of the
// paper's Section 4 schemes (Example 2 broadcasts all-to-all; Example 3
// with a mod-P discriminating function over a chain talks only to the
// successor processor).
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/report.h"
#include "core/rewrite.h"
#include "gtest/gtest.h"
#include "obs/analyze.h"
#include "obs/trace.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;

void Append(TraceRing* ring, uint64_t ts, TracePhase phase,
            TraceEventKind kind, uint32_t arg = 0) {
  ring->Append(TraceEvent{ts, arg, phase, kind});
}

// Two workers, one frame, fully hand-built: worker 0 initializes for
// 100 ns and sends a frame at t=90; worker 1 idles for 200 ns, drains
// the frame (recv at t=210), starts round 1, and probes until t=400.
// The critical path must be w0 [0, 90] -> flow edge -> w1 [200, 400].
ProfileReport HandBuiltTwoWorkerReport(Tracer* tracer) {
  const uint64_t e = tracer->epoch_ticks();
  TraceRing* r0 = tracer->ring(0);
  Append(r0, e + 0, TracePhase::kInit, TraceEventKind::kBegin);
  Append(r0, e + 90, TracePhase::kFlowSend, TraceEventKind::kInstant,
         PackFlowArg(1, 0));
  Append(r0, e + 100, TracePhase::kInit, TraceEventKind::kEnd);

  TraceRing* r1 = tracer->ring(1);
  Append(r1, e + 0, TracePhase::kIdle, TraceEventKind::kBegin);
  Append(r1, e + 200, TracePhase::kIdle, TraceEventKind::kEnd);
  Append(r1, e + 200, TracePhase::kDrain, TraceEventKind::kBegin);
  Append(r1, e + 210, TracePhase::kFlowRecv, TraceEventKind::kInstant,
         PackFlowArg(0, 0));
  Append(r1, e + 250, TracePhase::kDrain, TraceEventKind::kEnd);
  Append(r1, e + 250, TracePhase::kRound, TraceEventKind::kInstant, 1);
  Append(r1, e + 250, TracePhase::kProbe, TraceEventKind::kBegin);
  Append(r1, e + 400, TracePhase::kProbe, TraceEventKind::kEnd);
  return AnalyzeTrace(*tracer);
}

TEST(AnalyzeTest, HandBuiltBusyIdleAndSkew) {
  Tracer tracer(2, 64);
  ProfileReport report = HandBuiltTwoWorkerReport(&tracer);

  EXPECT_EQ(report.num_workers, 2);
  EXPECT_EQ(report.span_ns, 400u);
  EXPECT_EQ(report.dropped, 0u);
  ASSERT_EQ(report.totals.size(), 2u);
  EXPECT_EQ(report.totals[0].busy_ns, 100u);
  EXPECT_EQ(report.totals[0].idle_ns, 0u);
  EXPECT_EQ(report.totals[1].busy_ns, 200u);  // drain 50 + probe 150
  EXPECT_EQ(report.totals[1].idle_ns, 200u);
  EXPECT_EQ(
      report.totals[0].phase_ns[static_cast<size_t>(TracePhase::kInit)],
      100u);
  EXPECT_EQ(
      report.totals[1].phase_ns[static_cast<size_t>(TracePhase::kDrain)],
      50u);
  EXPECT_EQ(
      report.totals[1].phase_ns[static_cast<size_t>(TracePhase::kProbe)],
      150u);

  // max 200 over mean 150.
  EXPECT_NEAR(report.skew_ratio, 200.0 / 150.0, 1e-9);
  EXPECT_EQ(report.straggler, 1);
}

TEST(AnalyzeTest, HandBuiltRoundAttribution) {
  Tracer tracer(2, 64);
  ProfileReport report = HandBuiltTwoWorkerReport(&tracer);

  // Rounds: 0 (init window: w0 init, w1 idle+drain) and 1 (w1 probe).
  ASSERT_EQ(report.rounds.size(), 2u);
  EXPECT_EQ(report.rounds[0].workers[0].busy_ns, 100u);
  EXPECT_EQ(report.rounds[0].workers[1].busy_ns, 50u);
  EXPECT_EQ(report.rounds[1].workers[0].busy_ns, 0u);
  EXPECT_EQ(report.rounds[1].workers[1].busy_ns, 150u);
  // Round 1: max 150 over mean 75.
  EXPECT_NEAR(report.rounds[1].skew_ratio, 2.0, 1e-9);
  EXPECT_EQ(report.rounds[1].straggler, 1);
}

TEST(AnalyzeTest, HandBuiltCriticalPathFollowsFlowEdge) {
  Tracer tracer(2, 64);
  ProfileReport report = HandBuiltTwoWorkerReport(&tracer);

  // w0's init up to the send instant, then the flow edge into w1's
  // drain+probe interval. 90 + 200 = 290 ns of path.
  ASSERT_EQ(report.critical_path.size(), 2u);
  EXPECT_EQ(report.critical_path[0].worker, 0);
  EXPECT_EQ(report.critical_path[0].begin_ns, 0u);
  EXPECT_EQ(report.critical_path[0].end_ns, 90u);
  EXPECT_EQ(report.critical_path[0].from_worker, -1);
  EXPECT_EQ(report.critical_path[1].worker, 1);
  EXPECT_EQ(report.critical_path[1].begin_ns, 200u);
  EXPECT_EQ(report.critical_path[1].end_ns, 400u);
  EXPECT_EQ(report.critical_path[1].from_worker, 0);
  EXPECT_EQ(report.critical_path_ns, 290u);

  std::string text = report.ToText();
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("after frame from worker 0"), std::string::npos);
}

TEST(AnalyzeTest, HandBuiltJsonMentionsEverySection) {
  Tracer tracer(2, 64);
  ProfileReport report = HandBuiltTwoWorkerReport(&tracer);
  std::string json = report.ToJson();
  EXPECT_NE(json.find("\"skew_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"rounds\""), std::string::npos);
  EXPECT_NE(json.find("\"critical_path_ns\": 290"), std::string::npos);
}

TEST(AnalyzeTest, EmptyTracerYieldsNeutralReport) {
  Tracer tracer(3, 16);
  ProfileReport report = AnalyzeTrace(tracer);
  EXPECT_EQ(report.num_workers, 3);
  EXPECT_EQ(report.span_ns, 0u);
  EXPECT_DOUBLE_EQ(report.skew_ratio, 1.0);
  EXPECT_TRUE(report.critical_path.empty());
  // Renders without crashing even with nothing recorded.
  EXPECT_NE(report.ToText().find("profile:"), std::string::npos);
}

TEST(AnalyzeTest, HandBuiltPoolSumsEngineRingPoolSpans) {
  // Two strata pool twice; a query span on the same ring is not pooling.
  Tracer tracer(1, 64);
  const uint64_t e = tracer.epoch_ticks();
  TraceRing* engine = tracer.engine_ring();
  Append(engine, e + 100, TracePhase::kPool, TraceEventKind::kBegin);
  Append(engine, e + 130, TracePhase::kPool, TraceEventKind::kEnd);
  Append(engine, e + 140, TracePhase::kQuery, TraceEventKind::kBegin);
  Append(engine, e + 190, TracePhase::kQuery, TraceEventKind::kEnd);
  Append(engine, e + 200, TracePhase::kPool, TraceEventKind::kBegin);
  Append(engine, e + 212, TracePhase::kPool, TraceEventKind::kEnd);
  ProfileReport report = AnalyzeTrace(tracer);
  EXPECT_EQ(report.pool_ns, 42u);
  EXPECT_EQ(report.span_ns, 0u);  // the worker ring is empty
  EXPECT_NE(report.ToJson().find("\"pool_ns\": 42,"), std::string::npos);
  EXPECT_NE(report.ToText().find("final pooling 0.000 ms"),
            std::string::npos);
}

// The profile's pooling time is the engine ring's kPool span, which
// brackets the stopwatch behind the run.pool_seconds gauge.
TEST(AnalyzeTest, PoolTimeAgreesWithPoolSecondsGauge) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 40, 120, 9);
  const int P = 3;
  for (AncestorScheme scheme :
       {AncestorScheme::kExample2, AncestorScheme::kExample3}) {
    RewriteBundle bundle = MakeAncestorBundle(setup.get(), scheme, P);
    Tracer tracer(P);
    ParallelOptions options;
    options.tracer = &tracer;
    StatusOr<ParallelResult> result =
        RunParallel(bundle, &setup->edb, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    ProfileReport report = AnalyzeRun(tracer, MakeProfileContext(*result));
    const double gauge_ns = result->metrics.gauge("run.pool_seconds") * 1e9;
    EXPECT_GT(report.pool_ns, 0u);
    EXPECT_GE(static_cast<double>(report.pool_ns) + 1.0, gauge_ns);
    EXPECT_LE(static_cast<double>(report.pool_ns), gauge_ns + 20e6);
    EXPECT_NE(report.ToJson().find("\"pool_ns\": " +
                                   std::to_string(report.pool_ns)),
              std::string::npos);
  }
}

// Example 2 fragments par arbitrarily and broadcasts every derived
// tuple: the empirical communication matrix must be all-to-all (every
// off-diagonal entry positive), matching the Section 5 network graph.
TEST(AnalyzeTest, Example2MatrixIsAllToAll) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 16);
  const int P = 3;
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample2, P);

  Tracer tracer(P);
  ParallelOptions options;
  options.tracer = &tracer;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ProfileReport report = AnalyzeRun(tracer, MakeProfileContext(*result));
  ASSERT_EQ(report.tuples_matrix.size(), static_cast<size_t>(P));
  for (int i = 0; i < P; ++i) {
    for (int j = 0; j < P; ++j) {
      if (i == j) continue;
      EXPECT_GT(report.tuples_matrix[i][j], 0u)
          << "no tuples " << i << " -> " << j << " under broadcast";
    }
  }
  EXPECT_GE(report.skew_ratio, 1.0);
  EXPECT_GT(report.rounds.size(), 1u);
  uint64_t round_tuples = 0;
  for (const RoundProfile& r : report.rounds) round_tuples += r.tuples_sent;
  EXPECT_EQ(round_tuples, result->cross_tuples);
}

// Example 3 with the paper's h(Z) = Z mod P over a chain of raw
// integers: the repo's ancestor sirup is left-recursive
// (anc(X, Y) :- par(X, Z), anc(Z, Y)), so a derived anc(V, _) is
// consumed only by the firing that extends it backwards to V - 1,
// which lives on processor (V - 1) mod P — the network graph
// degenerates to a ring, each processor talking only to its
// predecessor.
TEST(AnalyzeTest, Example3ModuloChainMatrixIsSuccessorRing) {
  auto setup = MakeAncestorSetup();
  SymbolTable& symbols = setup->symbols;
  constexpr int P = 4;
  constexpr int N = 24;
  Relation& par = setup->edb.GetOrCreate(symbols.Intern("par"), 2);
  for (Value i = 0; i < N; ++i) par.Insert(Tuple{i, i + 1});

  LinearSchemeOptions options;
  options.v_r = {symbols.Intern("Z")};
  options.v_e = {symbols.Intern("X")};
  options.h = DiscriminatingFunction::Custom(
      [](const Value* v, int) { return static_cast<int>(v[0] % P); }, P);
  StatusOr<RewriteBundle> bundle = RewriteLinearSirup(
      setup->program, setup->info, setup->sirup, P, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  Tracer tracer(P);
  ParallelOptions popts;
  popts.tracer = &tracer;
  StatusOr<ParallelResult> result =
      RunParallel(*bundle, &setup->edb, popts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Sanity: the full transitive closure of a 24-edge chain.
  EXPECT_EQ(result->pooled_tuples,
            static_cast<uint64_t>(N) * (N + 1) / 2);

  ProfileReport report = AnalyzeRun(tracer, MakeProfileContext(*result));
  ASSERT_EQ(report.tuples_matrix.size(), static_cast<size_t>(P));
  bool any_ring_traffic = false;
  for (int i = 0; i < P; ++i) {
    for (int j = 0; j < P; ++j) {
      if (i == j) continue;
      if (j == (i + P - 1) % P) {
        any_ring_traffic |= report.tuples_matrix[i][j] > 0;
      } else {
        EXPECT_EQ(report.tuples_matrix[i][j], 0u)
            << "unexpected tuples " << i << " -> " << j
            << " outside the ring";
      }
    }
  }
  EXPECT_TRUE(any_ring_traffic);
}

// On a real multi-round run the critical path must land inside the
// span, chain monotonically, and start at a segment with no inbound
// flow edge.
TEST(AnalyzeTest, RealRunCriticalPathIsWellFormed) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 20);
  const int P = 3;
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, P);

  Tracer tracer(P);
  ParallelOptions options;
  options.tracer = &tracer;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ProfileReport report = AnalyzeRun(tracer, MakeProfileContext(*result));
  ASSERT_FALSE(report.critical_path.empty());
  EXPECT_EQ(report.critical_path.front().from_worker, -1);
  uint64_t prev_end = 0;
  for (const CriticalPathSegment& seg : report.critical_path) {
    EXPECT_LE(seg.begin_ns, seg.end_ns);
    EXPECT_LE(seg.end_ns, report.span_ns);
    EXPECT_GE(seg.end_ns, prev_end);
    prev_end = seg.end_ns;
    EXPECT_GE(seg.worker, 0);
    EXPECT_LT(seg.worker, P);
  }
  EXPECT_GT(report.critical_path_ns, 0u);
  EXPECT_LE(report.critical_path_ns, report.span_ns);
}

// A threaded P=4 run long enough that receivers are busy well before
// the frames they consume are sent: the walk must still emit
// time-ordered, disjoint segments whose sum fits inside the span.
TEST(AnalyzeTest, ThreadedCriticalPathSegmentsAreDisjoint) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 400, 800, 7);
  const int P = 4;
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, P);

  Tracer tracer(P);
  ParallelOptions options;
  options.tracer = &tracer;
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ProfileReport report = AnalyzeRun(tracer, MakeProfileContext(*result));
  ASSERT_EQ(report.dropped, 0u);
  const std::vector<CriticalPathSegment>& seg = report.critical_path;
  ASSERT_FALSE(seg.empty());
  for (size_t k = 0; k < seg.size(); ++k) {
    EXPECT_LE(seg[k].begin_ns, seg[k].end_ns) << "segment " << k;
    if (k > 0) {
      EXPECT_GE(seg[k].begin_ns, seg[k - 1].end_ns) << "segment " << k;
    }
  }
  EXPECT_LE(report.critical_path_ns, report.span_ns);
}

}  // namespace
}  // namespace pdatalog
