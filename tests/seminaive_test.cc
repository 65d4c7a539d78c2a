#include "eval/seminaive.h"

#include <algorithm>
#include <string>
#include <vector>

#include "eval/naive.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/generators.h"
#include "workload/programs.h"

namespace pdatalog {
namespace {

using testing_util::Dump;
using testing_util::EvalOrDie;
using testing_util::ParseOrDie;
using testing_util::ValidateOrDie;

TEST(SemiNaiveTest, AncestorOnChain) {
  SymbolTable symbols;
  Database db = EvalOrDie(
      "par(a, b).\npar(b, c).\npar(c, d).\n"
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
      &symbols);
  EXPECT_EQ(Dump(db, symbols, "anc"),
            "(a, b)\n(a, c)\n(a, d)\n(b, c)\n(b, d)\n(c, d)\n");
}

TEST(SemiNaiveTest, EmptyBaseRelationYieldsEmptyOutput) {
  SymbolTable symbols;
  Database db = EvalOrDie(testing_util::kAncestorProgram, &symbols);
  EXPECT_EQ(Dump(db, symbols, "anc"), "");
}

TEST(SemiNaiveTest, NonRecursiveView) {
  SymbolTable symbols;
  Database db = EvalOrDie(
      "emp(alice, eng).\nemp(bob, hr).\n"
      "dept(X) :- emp(Y, X).\n",
      &symbols);
  EXPECT_EQ(Dump(db, symbols, "dept"), "(eng)\n(hr)\n");
}

TEST(SemiNaiveTest, NonLinearAncestorMatchesLinear) {
  SymbolTable symbols;
  std::string facts =
      "par(a, b).\npar(b, c).\npar(c, d).\npar(b, e).\npar(e, f).\n";
  Database linear = EvalOrDie(
      facts + "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).\n",
      &symbols);
  SymbolTable symbols2;
  Database nonlinear = EvalOrDie(
      facts + "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).\n",
      &symbols2);
  EXPECT_EQ(Dump(linear, symbols, "anc"), Dump(nonlinear, symbols2, "anc"));
}

TEST(SemiNaiveTest, MutualRecursion) {
  SymbolTable symbols;
  // even/odd distance from n0 along a chain of 4 edges.
  Database db = EvalOrDie(
      "edge(n0, n1).\nedge(n1, n2).\nedge(n2, n3).\nedge(n3, n4).\n"
      "start(n0).\n"
      "even(X) :- start(X).\n"
      "even(Y) :- odd(X), edge(X, Y).\n"
      "odd(Y) :- even(X), edge(X, Y).\n",
      &symbols);
  EXPECT_EQ(Dump(db, symbols, "even"), "(n0)\n(n2)\n(n4)\n");
  EXPECT_EQ(Dump(db, symbols, "odd"), "(n1)\n(n3)\n");
}

TEST(SemiNaiveTest, SameGeneration) {
  SymbolTable symbols;
  Database db = EvalOrDie(
      "par(c1, p).\npar(c2, p).\n"
      "par(g1, c1).\npar(g2, c2).\n"
      "sg(X, Y) :- par(X, P), par(Y, P).\n"
      "sg(X, Y) :- par(X, X1), sg(X1, Y1), par(Y, Y1).\n",
      &symbols);
  std::string out = Dump(db, symbols, "sg");
  EXPECT_NE(out.find("(c1, c2)"), std::string::npos);
  EXPECT_NE(out.find("(g1, g2)"), std::string::npos);
  EXPECT_EQ(out.find("(c1, g1)"), std::string::npos);
}

TEST(SemiNaiveTest, CycleClosureTerminates) {
  SymbolTable symbols;
  Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Database db;
  GenCycle(&symbols, &db, "par", 10);
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &db, &stats).ok());
  // Closure of a 10-cycle is complete: 100 pairs.
  EXPECT_EQ(db.Find(symbols.Lookup("anc"))->size(), 100u);
}

TEST(SemiNaiveTest, StatsAreMeaningful) {
  SymbolTable symbols;
  EvalStats stats;
  EvalOrDie(
      "par(a, b).\npar(b, c).\npar(c, d).\n"
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
      &symbols, &stats);
  // On a 3-chain: 3 exit firings + (b,c)+(b,d)+(c,d) recursive
  // derivations via distinct substitutions: a->b->c, a->b->d, b->c->d.
  EXPECT_EQ(stats.tuples_inserted, 6u);
  EXPECT_EQ(stats.firings, 6u);
  EXPECT_GE(stats.rounds, 3);
}

TEST(SemiNaiveTest, DerivationCountOnDiamond) {
  SymbolTable symbols;
  EvalStats stats;
  // Diamond: a->b, a->c, b->d, c->d. anc(a,d) derivable two ways.
  EvalOrDie(
      "par(a, b).\npar(a, c).\npar(b, d).\npar(c, d).\n"
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
      &symbols, &stats);
  EXPECT_EQ(stats.firings, 6u);          // 4 exit + 2 recursive
  EXPECT_EQ(stats.tuples_inserted, 5u);  // anc(a,d) deduplicated
}

TEST(NaiveTest, MatchesSemiNaiveOnRandomGraphs) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SymbolTable symbols;
    Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
    ProgramInfo info = ValidateOrDie(program);

    Database db_semi;
    GenRandomGraph(&symbols, &db_semi, "par", 30, 60, seed);
    EvalStats semi_stats;
    ASSERT_TRUE(
        SemiNaiveEvaluate(program, info, &db_semi, &semi_stats).ok());

    Database db_naive;
    GenRandomGraph(&symbols, &db_naive, "par", 30, 60, seed);
    EvalStats naive_stats;
    ASSERT_TRUE(NaiveEvaluate(program, info, &db_naive, &naive_stats).ok());

    EXPECT_EQ(Dump(db_semi, symbols, "anc"), Dump(db_naive, symbols, "anc"))
        << "seed " << seed;
    // Naive repeats derivations; semi-naive must not do more work.
    EXPECT_LE(semi_stats.firings, naive_stats.firings);
  }
}

TEST(SemiNaiveTest, FactsOnlyProgramIsNoOp) {
  SymbolTable symbols;
  Database db = EvalOrDie("p(a).\np(b).\n", &symbols);
  EXPECT_EQ(Dump(db, symbols, "p"), "(a)\n(b)\n");
}

TEST(SemiNaiveTest, ConstantsInRules) {
  SymbolTable symbols;
  Database db = EvalOrDie(
      "par(a, b).\npar(b, c).\npar(c, d).\n"
      "reach_from_a(Y) :- par(a, Y).\n"
      "reach_from_a(Y) :- reach_from_a(X), par(X, Y).\n",
      &symbols);
  EXPECT_EQ(Dump(db, symbols, "reach_from_a"), "(b)\n(c)\n(d)\n");
}

TEST(SemiNaiveTest, LongChainRoundsEqualDepth) {
  SymbolTable symbols;
  Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Database db;
  GenChain(&symbols, &db, "par", 50);
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &db, &stats).ok());
  EXPECT_EQ(db.Find(symbols.Lookup("anc"))->size(), 50u * 51u / 2u);
  EXPECT_GE(stats.rounds, 50);
}

TEST(SemiNaiveTest, BatchKernelEngagesOnJoinWorkloads) {
  // Every two-atom join of ancestor and the linear points-to core must
  // run through the batch kernel: no batches would mean the columnar
  // fast path silently died, and a fallback would mean a plan
  // degenerated to the scalar join. (The full points_to program's
  // three-atom rules are outside the kernel's scan->probe shape.)
  const char* kLinearPointsTo =
      "pt(V, O) :- new(V, O).\n"
      "pt(V, O) :- assign(V, W), pt(W, O).\n";
  StatusOr<NamedProgram> ancestor = FindProgram("ancestor");
  ASSERT_TRUE(ancestor.ok());
  for (const std::string& source : {ancestor->source,
                                    std::string(kLinearPointsTo)}) {
    SymbolTable symbols;
    Program program = ParseOrDie(source, &symbols);
    ProgramInfo info = ValidateOrDie(program);
    std::vector<Symbol> bases(info.base.begin(), info.base.end());
    std::sort(bases.begin(), bases.end());
    Database db;
    uint64_t seed = 1;
    for (Symbol base : bases) {
      GenRandomGraph(&symbols, &db, symbols.Name(base), 200, 400, seed++);
    }
    EvalStats stats;
    ASSERT_TRUE(SemiNaiveEvaluate(program, info, &db, &stats).ok())
        << source;
    EXPECT_GT(stats.firings, 0u) << source;
    EXPECT_GT(stats.batch_probes, 0u) << source;
    EXPECT_EQ(stats.batch_fallbacks, 0u) << source;
  }
}

}  // namespace
}  // namespace pdatalog
