// Robustness and limit tests across the frontend and evaluators: large
// programs, deep recursion, long identifiers, adversarial input.
#include <string>

#include "datalog/parser.h"
#include "core/rewrite.h"
#include "datalog/query.h"
#include "eval/seminaive.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::ParseOrDie;
using testing_util::ValidateOrDie;

TEST(RobustnessTest, ThousandRuleProgramParsesAndValidates) {
  std::string source;
  for (int i = 0; i < 1000; ++i) {
    source += "p" + std::to_string(i) + "(X) :- base(X).\n";
  }
  SymbolTable symbols;
  Program program = ParseOrDie(source, &symbols);
  EXPECT_EQ(program.rules.size(), 1000u);
  ProgramInfo info;
  EXPECT_TRUE(Validate(program, &info).ok());
  EXPECT_EQ(info.derived.size(), 1000u);
}

TEST(RobustnessTest, DeepDerivationChainEvaluates) {
  // p999 <- p998 <- ... <- p0 <- base: 1000 rules deep.
  std::string source = "p0(X) :- base(X).\n";
  for (int i = 1; i < 1000; ++i) {
    source += "p" + std::to_string(i) + "(X) :- p" +
              std::to_string(i - 1) + "(X).\n";
  }
  source += "base(k).\n";
  SymbolTable symbols;
  Program program = ParseOrDie(source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Database db;
  ASSERT_TRUE(db.LoadFacts(program).ok());
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &db, &stats).ok());
  EXPECT_EQ(db.Find(symbols.Lookup("p999"))->size(), 1u);
}

TEST(RobustnessTest, VeryLongIdentifiers) {
  std::string long_pred(2000, 'p');
  std::string long_const(2000, 'c');
  std::string source =
      long_pred + "(" + long_const + ").\n" +
      "q(X) :- " + long_pred + "(X).\n";
  SymbolTable symbols;
  Program program = ParseOrDie(source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Database db;
  ASSERT_TRUE(db.LoadFacts(program).ok());
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &db, &stats).ok());
  EXPECT_EQ(db.Find(symbols.Lookup("q"))->size(), 1u);
}

TEST(RobustnessTest, ManyArgumentsUpToLimit) {
  // Arity 32 is the compiled-rule limit; it must work end to end.
  std::string args;
  std::string vars;
  for (int i = 0; i < 32; ++i) {
    if (i > 0) {
      args += ", ";
      vars += ", ";
    }
    args += "c" + std::to_string(i);
    vars += "V" + std::to_string(i);
  }
  std::string source =
      "wide(" + args + ").\n" + "copy(" + vars + ") :- wide(" + vars +
      ").\n";
  SymbolTable symbols;
  Program program = ParseOrDie(source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Database db;
  ASSERT_TRUE(db.LoadFacts(program).ok());
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &db, &stats).ok());
  EXPECT_EQ(db.Find(symbols.Lookup("copy"))->size(), 1u);
}

TEST(RobustnessTest, ArityAbove32RejectedCleanly) {
  std::string vars;
  for (int i = 0; i < 33; ++i) {
    if (i > 0) vars += ", ";
    vars += "V" + std::to_string(i);
  }
  std::string source =
      "copy(" + vars + ") :- wide(" + vars + ").\n";
  SymbolTable symbols;
  Program program = ParseOrDie(source, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Database db;
  EvalStats stats;
  Status status = SemiNaiveEvaluate(program, info, &db, &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("arity"), std::string::npos);
}

TEST(RobustnessTest, GarbageInputsNeverCrashTheParser) {
  SymbolTable symbols;
  const char* cases[] = {
      "((((((((",       ":-:-:-",        "p(",
      "p(a,)",          ").",            "p(a) :- .",
      "p(a)q(b)",       "'unterminated", "p(a). 123abc(",
      "%only a comment", "\n\n\n",       "p(a) :- q(a), .",
  };
  for (const char* bad : cases) {
    StatusOr<Program> result = ParseProgram(bad, &symbols);
    // Some inputs are legal (comments/whitespace); none may crash, and
    // the illegal ones must produce a Status.
    if (!result.ok()) {
      EXPECT_FALSE(result.status().message().empty()) << bad;
    }
  }
}

TEST(RobustnessTest, SelfLoopEdgeTerminates) {
  SymbolTable symbols;
  Database db = testing_util::EvalOrDie(
      "par(a, a).\n"
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n",
      &symbols);
  EXPECT_EQ(db.Find(symbols.Lookup("anc"))->size(), 1u);
}

TEST(RobustnessTest, LargeClosureStress) {
  // 400-node random graph, ~2.5 edges/node: tens of thousands of
  // closure tuples through the full engine stack.
  SymbolTable symbols;
  Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  Database db;
  GenRandomGraph(&symbols, &db, "par", 400, 1000, 5);
  EvalStats stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &db, &stats).ok());
  EXPECT_GT(db.Find(symbols.Lookup("anc"))->size(), 10000u);
}

TEST(RobustnessTest, OversizedDiscriminatingSequenceRejected) {
  SymbolTable symbols;
  Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  LinearSchemeOptions options;
  // 33 repeats of Z: sequences are ordered lists, so this is legal
  // syntax but over the engine's 32-position limit.
  for (int i = 0; i < 33; ++i) {
    options.v_r.push_back(symbols.Intern("Z"));
    options.v_e.push_back(symbols.Intern("X"));
  }
  options.h = DiscriminatingFunction::UniformHash(2);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 2, options);
  EXPECT_FALSE(bundle.ok());
}

TEST(RobustnessTest, OversizedQueryRejected) {
  SymbolTable symbols;
  Database db;
  std::string query = "wide(";
  for (int i = 0; i < 33; ++i) {
    if (i > 0) query += ", ";
    query += "V" + std::to_string(i);
  }
  query += ")";
  EXPECT_FALSE(EvaluateQuery(query, &symbols, db).ok());
}

}  // namespace
}  // namespace pdatalog
