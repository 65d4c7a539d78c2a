#include "core/engine.h"

#include <string>
#include <thread>

#include "core/partition.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "parallel_test_util.h"
#include "workload/generators.h"
#include "workload/programs.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::DumpOutput;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;
using testing_util::SequentialAncestor;

class EngineModeTest : public ::testing::TestWithParam<bool> {
 protected:
  ParallelOptions Options() const {
    ParallelOptions options;
    options.use_threads = GetParam();
    return options;
  }
};

INSTANTIATE_TEST_SUITE_P(ThreadsAndRoundRobin, EngineModeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Threads" : "RoundRobin";
                         });

TEST_P(EngineModeTest, AncestorChainMatchesSequential) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 12);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()),
            SequentialAncestor(setup.get(), nullptr));
}

TEST_P(EngineModeTest, EmptyInputTerminatesImmediately) {
  auto setup = MakeAncestorSetup();
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pooled_tuples, 0u);
  EXPECT_EQ(result->total_firings, 0u);
}

TEST_P(EngineModeTest, SingleProcessorDegeneratesToSequential) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 50, 3);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 1);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok());
  EvalStats seq_stats;
  std::string expected = SequentialAncestor(setup.get(), &seq_stats);
  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_EQ(result->total_firings, seq_stats.firings);
  EXPECT_EQ(result->cross_tuples, 0u);
}

TEST_P(EngineModeTest, AllSchemesProduceTheSameAnswer) {
  // A uniform random graph, and a Zipf-skewed one whose hot targets pile
  // the recursive join work onto a few hash owners.
  for (bool zipf : {false, true}) {
    for (AncestorScheme scheme :
         {AncestorScheme::kExample1, AncestorScheme::kExample2,
          AncestorScheme::kExample3}) {
      auto setup = MakeAncestorSetup();
      if (zipf) {
        GenZipfGraph(&setup->symbols, &setup->edb, "par", 120, 360, 1.4, 7);
      } else {
        GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 55, 17);
      }
      std::string expected = SequentialAncestor(setup.get(), nullptr);
      RewriteBundle bundle = MakeAncestorBundle(setup.get(), scheme, 4);
      StatusOr<ParallelResult> result =
          RunParallel(bundle, &setup->edb, Options());
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected)
          << "scheme " << static_cast<int>(scheme)
          << (zipf ? ", zipf graph" : ", random graph");
    }
  }
}

TEST_P(EngineModeTest, CyclicDataTerminates) {
  auto setup = MakeAncestorSetup();
  GenCycle(&setup->symbols, &setup->edb, "par", 12);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pooled_tuples, 144u);  // complete relation
}

TEST_P(EngineModeTest, ChannelMatrixConsistentWithWorkerStats) {
  auto setup = MakeAncestorSetup();
  GenTree(&setup->symbols, &setup->edb, "par", 2, 6);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, Options());
  ASSERT_TRUE(result.ok());

  uint64_t matrix_cross = 0;
  uint64_t matrix_self = 0;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (i == j) {
        matrix_self += result->channel_matrix[i][j];
      } else {
        matrix_cross += result->channel_matrix[i][j];
      }
    }
  }
  EXPECT_EQ(matrix_cross, result->cross_tuples);
  EXPECT_EQ(matrix_self, result->self_tuples);

  uint64_t received = 0;
  uint64_t sent = 0;
  for (const WorkerStats& w : result->workers) {
    received += w.received;
    sent += w.sent_cross + w.sent_self;
  }
  EXPECT_EQ(received, sent);  // all channels drained at termination
}

TEST(EngineTest, MalformedBundleRejected) {
  RewriteBundle bundle;
  bundle.num_processors = 2;  // but no per-processor programs
  Database edb;
  EXPECT_FALSE(RunParallel(bundle, &edb).ok());
}

TEST(EngineTest, ConstantFunctionOutOfRangeRejected) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 3);
  StatusOr<LinearSirup> sirup =
      ExtractLinearSirup(setup->program, setup->info);
  ASSERT_TRUE(sirup.ok());
  TradeoffOptions options;
  options.v_r = {setup->symbols.Intern("Z")};
  options.v_e = {setup->symbols.Intern("X")};
  options.h_prime = DiscriminatingFunction::UniformHash(2);
  options.h_i = {DiscriminatingFunction::Constant(0),
                 DiscriminatingFunction::Constant(7)};  // out of range
  StatusOr<RewriteBundle> bundle = RewriteTradeoff(
      setup->program, setup->info, *sirup, 2, options);
  ASSERT_TRUE(bundle.ok());
  StatusOr<ParallelResult> result = RunParallel(*bundle, &setup->edb);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(EngineTest, ModeledMakespanUsesWorstWorker) {
  ParallelResult result;
  result.workers.resize(2);
  result.workers[0].firings = 100;
  result.workers[1].firings = 10;
  result.channel_matrix = {{0, 5}, {7, 0}};
  // cpu=1, net=0: max(100, 10) = 100.
  EXPECT_DOUBLE_EQ(result.ModeledMakespan(1.0, 0.0), 100.0);
  // cpu=0, net=1: worker0 receives 7, worker1 receives 5 -> 7.
  EXPECT_DOUBLE_EQ(result.ModeledMakespan(0.0, 1.0), 7.0);
}

// Section 7 general scheme vs the sequential fixpoint, tuple for tuple,
// on every derived predicate. The stacked closure (r2 over r1 over e)
// has one SCC per derived predicate, evaluated as one fixpoint.
TEST_P(EngineModeTest, GeneralSchemeMatchesSequential) {
  struct Case {
    const char* source;
    const char* base;
    std::vector<const char*> vars;  // discriminating variable per rule
  };
  const Case cases[] = {
      {"anc(X, Y) :- par(X, Y).\n"
       "anc(X, Y) :- anc(X, Z), anc(Z, Y).\n",
       "par",
       {"Y", "Z"}},
      {"r1(X, Y) :- e(X, Y).\n"
       "r1(X, Y) :- e(X, Z), r1(Z, Y).\n"
       "r2(X, Y) :- r1(X, Y).\n"
       "r2(X, Y) :- r1(X, Z), r2(Z, Y).\n",
       "e",
       {"Y", "Z", "Y", "Z"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.source);
    SymbolTable symbols;
    Program program = testing_util::ParseOrDie(c.source, &symbols);
    ProgramInfo info = testing_util::ValidateOrDie(program);
    ASSERT_EQ(c.vars.size(), program.rules.size());
    std::vector<GeneralRuleSpec> specs(program.rules.size());
    for (size_t r = 0; r < specs.size(); ++r) {
      specs[r].vars = {symbols.Intern(c.vars[r])};
      specs[r].h = DiscriminatingFunction::UniformHash(3);
    }
    StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 3, specs);
    ASSERT_TRUE(bundle.ok());

    Database edb;
    GenRandomGraph(&symbols, &edb, c.base, 20, 40, 2);

    // Sequential reference.
    Database seq_db;
    const Relation* base = edb.Find(symbols.Lookup(c.base));
    Relation& copy = seq_db.GetOrCreate(symbols.Lookup(c.base), 2);
    for (size_t r = 0; r < base->size(); ++r) copy.Insert(base->row(r));
    EvalStats seq_stats;
    ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq_stats).ok());

    StatusOr<ParallelResult> result =
        RunParallel(*bundle, &edb, Options());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (Symbol p : info.derived) {
      ASSERT_NE(result->output.Find(p), nullptr) << symbols.Name(p);
      EXPECT_EQ(result->output.Find(p)->ToSortedString(symbols),
                seq_db.Find(p)->ToSortedString(symbols))
          << symbols.Name(p);
    }
  }
}

// Runs the workers of `bundle` on their own network the way
// RunParallel does — one thread each, or its deterministic round-robin
// schedule (retransmitting when quiescent) — and returns them stopped,
// with every t_out and t_in still in place for the test to read before
// pooling.
struct WorkerRun {
  std::unique_ptr<CommNetwork> network;
  std::unique_ptr<TerminationDetector> detector;
  std::vector<std::unique_ptr<Worker>> workers;
};

void RunWorkers(const RewriteBundle& bundle, Database* edb,
                const ParallelOptions& options, WorkerRun* run) {
  const int P = bundle.num_processors;
  run->network = std::make_unique<CommNetwork>(P);
  run->detector = std::make_unique<TerminationDetector>(P);
  if (options.faults.any()) run->network->InstallFaults(options.faults);
  if (options.retransmit) run->network->EnableRetransmit();
  StatusOr<PartitionResult> partition = PartitionBases(bundle, *edb);
  ASSERT_TRUE(partition.ok());
  for (int i = 0; i < P; ++i) {
    StatusOr<std::unique_ptr<Worker>> worker = Worker::Create(
        &bundle, i, edb, std::move(partition->fragments[i]),
        run->network.get(), run->detector.get());
    ASSERT_TRUE(worker.ok()) << worker.status().ToString();
    (*worker)->set_retransmit(options.retransmit);
    run->workers.push_back(std::move(*worker));
  }
  if (options.use_threads) {
    std::vector<Status> status(P);
    std::vector<std::thread> threads;
    for (int i = 0; i < P; ++i) {
      Worker* worker = run->workers[i].get();
      threads.emplace_back([worker, &status, i] {
        status[i] = worker->RunLoop();
      });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& st : status) ASSERT_TRUE(st.ok()) << st.ToString();
    return;
  }
  for (auto& worker : run->workers) worker->Init();
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& worker : run->workers) {
      StatusOr<bool> stepped = worker->Step();
      ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
      if (*stepped) progress = true;
    }
    if (!progress && options.retransmit) {
      size_t resent = 0;
      for (auto& worker : run->workers) resent += worker->RetransmitUnacked();
      if (resent > 0) progress = true;
    }
    if (!progress && run->network->AnyPending()) progress = true;
  }
}

void ExpectSameRows(const Relation& got, const Relation& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.row(i), want.row(i)) << "row " << i;
  }
}

ParallelOptions PoolingOptions(bool threads, bool faults) {
  ParallelOptions options;
  options.use_threads = threads;
  if (faults) {
    options.faults.drop = 0.2;
    options.faults.duplicate = 0.1;
    options.faults.reorder = 0.1;
    options.retransmit = true;
  }
  return options;
}

TEST(EnginePoolingTest, PooledRelationIsTheOrderedUnionOfWorkerOutputs) {
  // Example 2 on a random digraph: the same anc tuple is derived on
  // several processors and broadcast, so anc has no single owner and
  // pooling must drop the overlap of the t_out relations while keeping
  // worker 0's rows first, then each later worker's new rows in order.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 90, 5);
  const std::string expected = SequentialAncestor(setup.get(), nullptr);
  const Symbol anc = setup->anc();
  for (int P : {1, 2, 4}) {
    for (bool threads : {false, true}) {
      for (bool faults : {false, true}) {
        SCOPED_TRACE("P=" + std::to_string(P) +
                     (threads ? " threads" : " round-robin") +
                     (faults ? " faults+retransmit" : ""));
        RewriteBundle bundle =
            MakeAncestorBundle(setup.get(), AncestorScheme::kExample2, P);
        ASSERT_FALSE(HasSingleOwner(bundle, anc));
        ParallelOptions options = PoolingOptions(threads, faults);

        WorkerRun run;
        RunWorkers(bundle, &setup->edb, options, &run);
        if (HasFatalFailure()) return;
        Relation reference(2);
        uint64_t out_total = 0;
        for (const auto& worker : run.workers) {
          const Relation& out = worker->OutputRelation(anc);
          out_total += out.size();
          for (size_t i = 0; i < out.size(); ++i) reference.Insert(out.row(i));
        }
        Database pooled;
        MetricsRegistry metrics;
        PoolOutputs(bundle, &run.workers, &pooled, &metrics);
        ExpectSameRows(*pooled.Find(anc), reference);
        EXPECT_EQ(pooled.Find(anc)->ToSortedString(setup->symbols),
                  expected);
        EXPECT_EQ(metrics.counter("run.out_tuples_total"), out_total);
        EXPECT_EQ(metrics.counter("run.pooled_tuples"), reference.size());
        if (P > 1) {
          EXPECT_GT(out_total, reference.size());  // the overlap case
        }

        StatusOr<ParallelResult> result =
            RunParallel(bundle, &setup->edb, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(DumpOutput(*result, setup->symbols, anc), expected);
        if (P > 1) {
          EXPECT_GT(result->out_tuples_total, result->pooled_tuples);
          if (faults) {
            EXPECT_TRUE(result->faults.any());
          }
        }
        ASSERT_EQ(result->metrics.gauges().count("run.pool_seconds"), 1u);
        EXPECT_GE(result->metrics.gauge("run.pool_seconds"), 0.0);
        // The round-robin schedule is deterministic, so RunParallel's
        // workers end where the ones above did and its pooled relation
        // must match the reference row for row.
        if (!threads) ExpectSameRows(*result->output.Find(anc), reference);
      }
    }
  }
}

TEST(EnginePoolingTest, OwnerPartitionsPoolByConcatenation) {
  // Examples 1 and 3 route every anc tuple to exactly one owner, so the
  // owners' t_in relations are a disjoint cover of the fixpoint:
  // pooling concatenates them owner-major (t_in^0, then t_in^1, ...)
  // and their sizes sum to the pooled size. Duplicated frames under
  // faults are dropped on ingest, so this holds for t_in, not frames.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 90, 5);
  const std::string expected = SequentialAncestor(setup.get(), nullptr);
  const Symbol anc = setup->anc();
  for (AncestorScheme scheme :
       {AncestorScheme::kExample1, AncestorScheme::kExample3}) {
    for (int P : {1, 2, 4}) {
      for (bool threads : {false, true}) {
        for (bool faults : {false, true}) {
          SCOPED_TRACE(std::string(scheme == AncestorScheme::kExample1
                                       ? "example1"
                                       : "example3") +
                       " P=" + std::to_string(P) +
                       (threads ? " threads" : " round-robin") +
                       (faults ? " faults+retransmit" : ""));
          RewriteBundle bundle = MakeAncestorBundle(setup.get(), scheme, P);
          ASSERT_TRUE(HasSingleOwner(bundle, anc));
          ParallelOptions options = PoolingOptions(threads, faults);

          WorkerRun run;
          RunWorkers(bundle, &setup->edb, options, &run);
          if (HasFatalFailure()) return;
          Relation reference(2);
          uint64_t out_total = 0;
          uint64_t remote_in = 0;
          for (size_t w = 0; w < run.workers.size(); ++w) {
            out_total += run.workers[w]->OutputRelation(anc).size();
            const Relation& in = run.workers[w]->InputRelation(anc);
            if (w > 0) remote_in += in.size();
            for (size_t i = 0; i < in.size(); ++i) {
              ASSERT_TRUE(reference.Insert(in.row(i)))
                  << "owners overlap at worker " << w << " row " << i;
            }
          }
          Database pooled;
          MetricsRegistry metrics;
          PoolOutputs(bundle, &run.workers, &pooled, &metrics);
          ExpectSameRows(*pooled.Find(anc), reference);
          EXPECT_EQ(pooled.Find(anc)->ToSortedString(setup->symbols),
                    expected);
          EXPECT_EQ(metrics.counter("run.pooled_tuples"), reference.size());
          EXPECT_EQ(metrics.counter("run.pooling_messages"), remote_in);
          EXPECT_EQ(metrics.counter("run.out_tuples_total"), out_total);

          StatusOr<ParallelResult> result =
              RunParallel(bundle, &setup->edb, options);
          ASSERT_TRUE(result.ok()) << result.status().ToString();
          EXPECT_EQ(DumpOutput(*result, setup->symbols, anc), expected);
          uint64_t in_total = 0;
          for (const WorkerStats& w : result->workers) {
            in_total += w.in_inserted;
          }
          EXPECT_EQ(in_total, result->pooled_tuples);
          EXPECT_EQ(result->pooling_messages,
                    in_total - result->workers[0].in_inserted);
          if (faults && P > 1 && scheme == AncestorScheme::kExample3) {
            EXPECT_TRUE(result->faults.any());
          }
          if (!threads) ExpectSameRows(*result->output.Find(anc), reference);
        }
      }
    }
  }
}

TEST(EnginePoolingTest, SingleOwnerFollowsTheSendingRules) {
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 12, 30, 7);
  const Symbol anc = setup->anc();
  EXPECT_TRUE(HasSingleOwner(
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample1, 4), anc));
  EXPECT_TRUE(HasSingleOwner(
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4), anc));
  // Example 2 cannot evaluate h(X, Z) on anc(Z, Y): it broadcasts.
  EXPECT_FALSE(HasSingleOwner(
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample2, 4), anc));

  // Tradeoff with distinct h_i: each processor routes by its own
  // function, so a tuple's destination depends on who derived it.
  TradeoffOptions tradeoff;
  tradeoff.v_r = {setup->symbols.Intern("Z")};
  tradeoff.v_e = {setup->symbols.Intern("X")};
  tradeoff.h_prime = DiscriminatingFunction::UniformHash(2);
  tradeoff.h_i = {DiscriminatingFunction::Constant(0),
                  DiscriminatingFunction::Constant(1)};
  StatusOr<RewriteBundle> r = RewriteTradeoff(
      setup->program, setup->info, setup->sirup, 2, tradeoff);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(HasSingleOwner(*r, anc));

  // General scheme on points_to: pt feeds three body atoms (several
  // sending rules), heap_pt feeds one determined atom.
  SymbolTable symbols;
  StatusOr<NamedProgram> named = FindProgram("points_to");
  ASSERT_TRUE(named.ok());
  Program program = testing_util::ParseOrDie(named->source, &symbols);
  ProgramInfo info = testing_util::ValidateOrDie(program);
  std::vector<GeneralRuleSpec> specs(program.rules.size());
  const char* vars[] = {"O", "O", "A", "A"};
  for (size_t k = 0; k < specs.size(); ++k) {
    specs[k].vars = {symbols.Intern(vars[k])};
    specs[k].h = DiscriminatingFunction::UniformHash(4);
  }
  StatusOr<RewriteBundle> general = RewriteGeneral(program, info, 4, specs);
  ASSERT_TRUE(general.ok()) << general.status().ToString();
  EXPECT_FALSE(HasSingleOwner(*general, symbols.Lookup("pt")));
  EXPECT_TRUE(HasSingleOwner(*general, symbols.Lookup("heap_pt")));
}

TEST(EnginePoolingTest, PooledRelationOutlivesTheTracer) {
  // The pooled relation is worker 0's t_in, whose ingest hooks pointed
  // at the worker's histograms and the tracer's ring. Both are gone by
  // the time the caller inserts; under ASan a stale hook would fault.
  auto setup = MakeAncestorSetup();
  GenRandomGraph(&setup->symbols, &setup->edb, "par", 30, 90, 5);
  const int P = 4;
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, P);
  auto tracer = std::make_unique<Tracer>(P);
  ParallelOptions options;
  options.tracer = tracer.get();
  StatusOr<ParallelResult> result =
      RunParallel(bundle, &setup->edb, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  tracer.reset();

  Relation* pooled = result->output.Find(setup->anc());
  ASSERT_NE(pooled, nullptr);
  const size_t size = pooled->size();
  ASSERT_GT(size, 0u);
  const Value fresh = setup->symbols.Intern("fresh");
  EXPECT_FALSE(pooled->Insert(pooled->row(size - 1)));
  EXPECT_TRUE(pooled->Insert(Tuple{fresh, fresh}));
  const Value block[] = {fresh, fresh, fresh, pooled->cell(0, 0)};
  EXPECT_EQ(pooled->InsertBlock(block, 2, 2), 1u);
  EXPECT_EQ(pooled->size(), size + 2);
}

}  // namespace
}  // namespace pdatalog
