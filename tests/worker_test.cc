// Direct unit tests of the Worker: init/step semantics, pattern-matched
// sending (including constants and repeated variables in the recursive
// atom), self-channel accounting, undetermined-broadcast behaviour, and
// the receive-side check on incoming blocks.
#include "core/worker.h"

#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;
using testing_util::AncestorScheme;
using testing_util::AncestorSetup;
using testing_util::ParseOrDie;
using testing_util::ValidateOrDie;

struct WorkerRig {
  std::unique_ptr<CommNetwork> network;
  std::unique_ptr<TerminationDetector> detector;
  std::vector<std::unique_ptr<Worker>> workers;

  static WorkerRig Create(const RewriteBundle& bundle, Database* edb) {
    WorkerRig rig;
    rig.network = std::make_unique<CommNetwork>(bundle.num_processors);
    rig.detector =
        std::make_unique<TerminationDetector>(bundle.num_processors);
    StatusOr<PartitionResult> partition = PartitionBases(bundle, *edb);
    EXPECT_TRUE(partition.ok());
    for (int i = 0; i < bundle.num_processors; ++i) {
      StatusOr<std::unique_ptr<Worker>> worker = Worker::Create(
          &bundle, i, edb, std::move(partition->fragments[i]),
          rig.network.get(), rig.detector.get());
      EXPECT_TRUE(worker.ok()) << worker.status().ToString();
      rig.workers.push_back(std::move(*worker));
    }
    return rig;
  }

  // Runs init + round-robin steps to quiescence.
  void RunToQuiescence() {
    for (auto& w : workers) w->Init();
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto& w : workers) {
        StatusOr<bool> stepped = w->Step();
        ASSERT_TRUE(stepped.ok()) << stepped.status().ToString();
        if (*stepped) progress = true;
      }
    }
  }
};

TEST(WorkerTest, StepWithoutInputIsNoOp) {
  auto setup = MakeAncestorSetup();
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  // No Init, no data: stepping does nothing.
  StatusOr<bool> stepped = rig.workers[0]->Step();
  ASSERT_TRUE(stepped.ok());
  EXPECT_FALSE(*stepped);
  EXPECT_EQ(rig.workers[0]->stats().rounds, 0);
}

TEST(WorkerTest, InitFiresExitRulesAndRoutes) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  rig.workers[0]->Init();
  rig.workers[1]->Init();
  uint64_t sent = 0;
  for (auto& w : rig.workers) {
    sent += w->stats().sent_cross + w->stats().sent_self;
  }
  // Every exit tuple (4 of them) is routed exactly once (Example 3).
  EXPECT_EQ(sent, 4u);
}

TEST(WorkerTest, QuiescenceComputesClosure) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 6);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  rig.RunToQuiescence();
  size_t total = 0;
  for (auto& w : rig.workers) {
    total += w->OutputRelation(setup->anc()).size();
  }
  EXPECT_EQ(total, 21u);  // 6*7/2, no duplicates across workers here
}

TEST(WorkerTest, ConstantInRecursiveAtomFiltersSends) {
  // t(X, Y) :- t(Y, c), b(X, Y): only tuples whose second column is the
  // constant c can ever fire a processing rule, so only those are sent.
  SymbolTable symbols;
  Program program = ParseOrDie(
      "t(X, Y) :- s(X, Y).\n"
      "t(X, Y) :- t(Y, c), b(X, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  LinearSchemeOptions options;
  options.v_r = {symbols.Intern("Y")};
  options.v_e = {symbols.Intern("X")};
  options.h = DiscriminatingFunction::UniformHash(2);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 2, options);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  Database edb;
  Value c = symbols.Lookup("c");
  Value n1 = symbols.Intern("n1");
  Value n2 = symbols.Intern("n2");
  Relation& s = edb.GetOrCreate(symbols.Lookup("s"), 2);
  s.Insert(Tuple{n1, c});   // matches the pattern t(Y, c)
  s.Insert(Tuple{n1, n2});  // does not
  s.Insert(Tuple{n2, c});   // matches

  WorkerRig rig = WorkerRig::Create(*bundle, &edb);
  rig.workers[0]->Init();
  rig.workers[1]->Init();
  uint64_t sent = 0;
  for (auto& w : rig.workers) {
    sent += w->stats().sent_cross + w->stats().sent_self;
  }
  EXPECT_EQ(sent, 2u);  // only the two pattern-matching tuples travel
}

TEST(WorkerTest, RepeatedVariableInRecursiveAtomFiltersSends) {
  // t(X, Y) :- t(Y, Y), b(X, Y): only diagonal tuples are consumable.
  SymbolTable symbols;
  Program program = ParseOrDie(
      "t(X, Y) :- s(X, Y).\n"
      "t(X, Y) :- t(Y, Y), b(X, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  LinearSchemeOptions options;
  options.v_r = {symbols.Intern("Y")};
  options.v_e = {symbols.Intern("X")};
  options.h = DiscriminatingFunction::UniformHash(2);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 2, options);
  ASSERT_TRUE(bundle.ok());

  Database edb;
  Value n1 = symbols.Intern("n1");
  Value n2 = symbols.Intern("n2");
  Relation& s = edb.GetOrCreate(symbols.Lookup("s"), 2);
  s.Insert(Tuple{n1, n1});  // diagonal: consumable
  s.Insert(Tuple{n1, n2});  // not

  WorkerRig rig = WorkerRig::Create(*bundle, &edb);
  rig.workers[0]->Init();
  rig.workers[1]->Init();
  uint64_t sent = 0;
  for (auto& w : rig.workers) {
    sent += w->stats().sent_cross + w->stats().sent_self;
  }
  EXPECT_EQ(sent, 1u);
}

TEST(WorkerTest, BroadcastCountsOnUndeterminedSends) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 5);
  // Example 2: v(r) = <X, Z>, X not in anc(Z, Y) => broadcast.
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample2, 3);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  rig.RunToQuiescence();
  uint64_t broadcasts = 0;
  uint64_t messages = 0;
  uint64_t out = 0;
  for (auto& w : rig.workers) {
    broadcasts += w->stats().broadcasts;
    messages += w->stats().sent_cross + w->stats().sent_self;
    out += w->stats().out_inserted;
  }
  EXPECT_EQ(broadcasts, out);       // every output tuple is broadcast
  EXPECT_EQ(messages, out * 3);     // to all three processors
}

TEST(WorkerTest, ReceivedDuplicatesDoNotRefire) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample2, 2);
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  rig.RunToQuiescence();
  // Broadcast delivers each tuple to both workers; in_inserted counts
  // distinct t_in tuples, received counts raw messages.
  for (auto& w : rig.workers) {
    EXPECT_LE(w->stats().in_inserted, w->stats().received);
  }
  size_t closure = 0;
  std::string dump;
  Relation pooled(2);
  for (auto& w : rig.workers) {
    const Relation& out = w->OutputRelation(setup->anc());
    for (size_t r = 0; r < out.size(); ++r) pooled.Insert(out.row(r));
  }
  closure = pooled.size();
  EXPECT_EQ(closure, 10u);  // 4*5/2
  (void)dump;
}

TEST(WorkerTest, LocalProgramPrintable) {
  auto setup = MakeAncestorSetup();
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  Database edb;
  WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
  const Database& local = rig.workers[0]->local_db();
  // Worker-local relations exist for both decorated predicates.
  Symbol anc = setup->anc();
  EXPECT_NE(local.Find(bundle.out_name.at(anc)), nullptr);
  EXPECT_NE(local.Find(bundle.in_name.at(anc)), nullptr);
  (void)edb;
}

// Blocks a correct sending rule never produces: one naming a predicate
// the receiver has no t_in relation for, and one for `anc` with the
// wrong arity.
std::vector<TupleBlock> MalformedBlocks(AncestorSetup* setup) {
  const Value row[3] = {1, 2, 3};
  TupleBlock unknown;
  unknown.predicate = setup->symbols.Intern("no_such_predicate");
  unknown.arity = 2;
  unknown.Append(row, 2);
  TupleBlock wrong_arity;
  wrong_arity.predicate = setup->anc();
  wrong_arity.arity = 3;
  wrong_arity.Append(row, 3);
  return {unknown, wrong_arity};
}

TEST(WorkerTest, MalformedReceivedBlockFailsStepNamingSender) {
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  for (const TupleBlock& bad : MalformedBlocks(setup.get())) {
    WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
    rig.network->channel(1, 0).SendBlock(bad);
    StatusOr<bool> stepped = rig.workers[0]->Step();
    ASSERT_FALSE(stepped.ok()) << "arity " << bad.arity;
    EXPECT_NE(stepped.status().message().find("from processor 1"),
              std::string::npos)
        << stepped.status().ToString();
    EXPECT_EQ(rig.workers[0]->stats().in_inserted, 0u);
  }
}

TEST(WorkerTest, MalformedReceivedBlockAbortsThreadedRun) {
  // The threaded loop RunParallel runs: the receiver's failure aborts
  // the detector, every peer stops, and the detector's run status (what
  // RunParallel returns) carries the receiver's diagnostic.
  auto setup = MakeAncestorSetup();
  GenChain(&setup->symbols, &setup->edb, "par", 4);
  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 2);
  for (const TupleBlock& bad : MalformedBlocks(setup.get())) {
    WorkerRig rig = WorkerRig::Create(bundle, &setup->edb);
    rig.network->channel(1, 0).SendBlock(bad);
    std::vector<Status> status(rig.workers.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < rig.workers.size(); ++i) {
      threads.emplace_back(
          [&rig, &status, i] { status[i] = rig.workers[i]->RunLoop(); });
    }
    for (std::thread& t : threads) t.join();
    Status run = rig.detector->run_status();
    ASSERT_FALSE(run.ok()) << "arity " << bad.arity;
    EXPECT_NE(run.message().find("from processor 1"), std::string::npos)
        << run.ToString();
    for (const Status& st : status) EXPECT_FALSE(st.ok());
  }
}

}  // namespace
}  // namespace pdatalog
