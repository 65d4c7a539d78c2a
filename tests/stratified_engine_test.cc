// Stratified parallel evaluation: one parallel run per SCC stratum,
// completed strata becoming extensional inputs of later ones.
#include "core/engine.h"

#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"
#include "workload/random_program.h"

namespace pdatalog {
namespace {

using testing_util::ParseOrDie;
using testing_util::ValidateOrDie;

std::vector<GeneralRuleSpec> FirstBodyVarSpecs(const Program& program,
                                               int P, uint64_t seed) {
  std::vector<GeneralRuleSpec> specs(program.rules.size());
  for (size_t r = 0; r < program.rules.size(); ++r) {
    std::vector<Symbol> vars;
    for (const Atom& atom : program.rules[r].body) {
      CollectVariables(atom, &vars);
    }
    if (!vars.empty()) specs[r].vars = {vars[0]};
    specs[r].h = DiscriminatingFunction::UniformHash(P, seed);
  }
  return specs;
}

TEST(StratifiedEngineTest, LayeredClosuresMatchSequential) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "r1(X, Y) :- e(X, Y).\n"
      "r1(X, Y) :- e(X, Z), r1(Z, Y).\n"
      "r2(X, Y) :- r1(X, Y).\n"
      "r2(X, Y) :- r1(X, Z), r2(Z, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);

  Database seq_db;
  GenChain(&symbols, &seq_db, "e", 15);
  EvalStats seq;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq).ok());

  Database edb;
  GenChain(&symbols, &edb, "e", 15);
  StatusOr<ParallelResult> result = RunParallelStratified(
      program, info, 3, FirstBodyVarSpecs(program, 3, 1), &edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const char* pred : {"r1", "r2"}) {
    EXPECT_EQ(result->output.Find(symbols.Lookup(pred))
                  ->ToSortedString(symbols),
              seq_db.Find(symbols.Lookup(pred))->ToSortedString(symbols))
        << pred;
  }
  EXPECT_EQ(result->total_firings, seq.firings);
}

TEST(StratifiedEngineTest, SingleStratumEquivalentToRunParallel) {
  SymbolTable symbols;
  Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  std::vector<GeneralRuleSpec> specs(2);
  specs[0].vars = {symbols.Intern("Y")};
  specs[1].vars = {symbols.Intern("Z")};
  for (auto& s : specs) s.h = DiscriminatingFunction::UniformHash(3, 7);

  Database edb1;
  GenTree(&symbols, &edb1, "par", 2, 5);
  StatusOr<ParallelResult> strat = RunParallelStratified(
      program, info, 3, specs, &edb1);
  ASSERT_TRUE(strat.ok());

  StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 3, specs);
  ASSERT_TRUE(bundle.ok());
  Database edb2;
  GenTree(&symbols, &edb2, "par", 2, 5);
  StatusOr<ParallelResult> flat = RunParallel(*bundle, &edb2);
  ASSERT_TRUE(flat.ok());

  EXPECT_EQ(strat->total_firings, flat->total_firings);
  EXPECT_EQ(strat->pooled_tuples, flat->pooled_tuples);
  Symbol anc = symbols.Lookup("anc");
  EXPECT_EQ(strat->output.Find(anc)->ToSortedString(symbols),
            flat->output.Find(anc)->ToSortedString(symbols));
}

TEST(StratifiedEngineTest, RandomProgramsMatchSequential) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SymbolTable symbols;
    RandomProgramOptions gen;
    gen.seed = seed;
    gen.num_derived = 3;
    StatusOr<Program> program = GenerateRandomProgram(&symbols, gen);
    ASSERT_TRUE(program.ok());
    ProgramInfo info = ValidateOrDie(*program);

    Database seq_db;
    ASSERT_TRUE(seq_db.LoadFacts(*program).ok());
    EvalStats seq;
    ASSERT_TRUE(SemiNaiveEvaluate(*program, info, &seq_db, &seq).ok());

    Database edb;
    ASSERT_TRUE(edb.LoadFacts(*program).ok());
    StatusOr<ParallelResult> result = RunParallelStratified(
        *program, info, 3, FirstBodyVarSpecs(*program, 3, seed), &edb);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    for (Symbol p : info.derived) {
      EXPECT_EQ(result->output.Find(p)->ToSortedString(symbols),
                seq_db.Find(p)->ToSortedString(symbols))
          << "seed " << seed << " pred " << symbols.Name(p);
    }
    EXPECT_LE(result->total_firings, seq.firings) << "seed " << seed;
  }
}

TEST(StratifiedEngineTest, SpecCountValidated) {
  SymbolTable symbols;
  Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Database edb;
  EXPECT_FALSE(RunParallelStratified(program, info, 2, {}, &edb).ok());
}

TEST(StratifiedEngineTest, AggregatedStatsConsistent) {
  SymbolTable symbols;
  Program program = ParseOrDie(
      "r1(X, Y) :- e(X, Y).\n"
      "r1(X, Y) :- e(X, Z), r1(Z, Y).\n"
      "r2(X, Y) :- r1(X, Y).\n"
      "r2(X, Y) :- r1(X, Z), r2(Z, Y).\n",
      &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Database edb;
  GenChain(&symbols, &edb, "e", 12);
  StatusOr<ParallelResult> result = RunParallelStratified(
      program, info, 4, FirstBodyVarSpecs(program, 4, 3), &edb);
  ASSERT_TRUE(result.ok());

  uint64_t worker_firings = 0;
  for (const WorkerStats& w : result->workers) worker_firings += w.firings;
  EXPECT_EQ(worker_firings, result->total_firings);

  uint64_t log_firings = 0;
  for (const auto& rounds : result->worker_rounds) {
    for (const RoundLog& log : rounds) log_firings += log.firings;
  }
  EXPECT_EQ(log_firings, result->total_firings);

  // Pooling time is summed over strata and is part of the total wall.
  ASSERT_EQ(result->metrics.gauges().count("run.pool_seconds"), 1u);
  EXPECT_GE(result->metrics.gauge("run.pool_seconds"), 0.0);
  EXPECT_LE(result->metrics.gauge("run.pool_seconds"),
            result->metrics.gauge("run.wall_seconds"));
}

}  // namespace
}  // namespace pdatalog
