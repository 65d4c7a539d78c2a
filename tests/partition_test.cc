#include "core/partition.h"

#include "gtest/gtest.h"
#include "test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::ParseOrDie;
using testing_util::ValidateOrDie;

// Builds an Example-3-style bundle (both par occurrences fragmented).
RewriteBundle MakeFragmentingBundle(SymbolTable* symbols, int P) {
  Program program = ParseOrDie(testing_util::kAncestorProgram, symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  EXPECT_TRUE(sirup.ok());
  LinearSchemeOptions options;
  options.v_r = {symbols->Intern("Z")};
  options.v_e = {symbols->Intern("X")};
  options.h = DiscriminatingFunction::UniformHash(P);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, P, options);
  EXPECT_TRUE(bundle.ok());
  return std::move(*bundle);
}

TEST(PartitionTest, FragmentsPartitionTheRelation) {
  SymbolTable symbols;
  RewriteBundle bundle = MakeFragmentingBundle(&symbols, 4);
  Database edb;
  GenRandomGraph(&symbols, &edb, "par", 40, 120, 5);
  size_t total = edb.Find(symbols.Lookup("par"))->size();

  StatusOr<PartitionResult> result = PartitionBases(bundle, edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Two fragmented occurrences: rows split across workers twice.
  uint64_t frag_rows = 0;
  for (uint64_t n : result->fragment_rows) frag_rows += n;
  EXPECT_EQ(frag_rows, 2 * total);
  EXPECT_EQ(result->replicated_rows, 0u);

  // Per occurrence, fragments are disjoint and cover the relation.
  for (int occ = 0; occ < 2; ++occ) {
    size_t covered = 0;
    for (int w = 0; w < 4; ++w) {
      covered += result->fragments[w].at(occ)->size();
    }
    EXPECT_EQ(covered, total) << "occurrence " << occ;
  }
}

TEST(PartitionTest, FragmentRoutingMatchesFunction) {
  SymbolTable symbols;
  RewriteBundle bundle = MakeFragmentingBundle(&symbols, 3);
  Database edb;
  GenChain(&symbols, &edb, "par", 20);
  StatusOr<PartitionResult> result = PartitionBases(bundle, edb);
  ASSERT_TRUE(result.ok());

  // Occurrence 1 is the recursive rule's par(X, Z), fragmented on
  // column 1 with the rule's function.
  const BaseOccurrence& occ = bundle.base_occurrences[1];
  ASSERT_EQ(occ.access, BaseOccurrence::Access::kFragment);
  for (int w = 0; w < 3; ++w) {
    const Relation& frag = *result->fragments[w].at(1);
    for (size_t row = 0; row < frag.size(); ++row) {
      Value key = frag.row(row)[occ.positions[0]];
      EXPECT_EQ(bundle.registry->Evaluate(occ.function, &key, 1), w);
    }
  }
}

TEST(PartitionTest, ReplicatedOccurrencesGetNoFragments) {
  SymbolTable symbols;
  Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  LinearSchemeOptions options;  // Example 1: rec par replicated
  options.v_r = {symbols.Intern("Y")};
  options.v_e = {symbols.Intern("Y")};
  options.h = DiscriminatingFunction::UniformHash(2);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 2, options);
  ASSERT_TRUE(bundle.ok());

  Database edb;
  GenChain(&symbols, &edb, "par", 10);
  StatusOr<PartitionResult> result = PartitionBases(*bundle, edb);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->replicated_rows, 10u);
  // Occurrence 1 (recursive par) has no fragment entries.
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(result->fragments[w].count(1), 0u);
  }
}

TEST(PartitionTest, ArbitraryFragmentationRoundTrips) {
  SymbolTable symbols;
  Database edb;
  GenRandomGraph(&symbols, &edb, "par", 30, 80, 9);
  const Relation& par = *edb.Find(symbols.Lookup("par"));

  DiscriminatingFunction fn = MakeArbitraryFragmentation(par, 4, 123);
  // Every tuple maps into range, deterministically.
  for (size_t row = 0; row < par.size(); ++row) {
    const Tuple& t = par.row(row);
    int d1 = fn.Evaluate(t.data(), t.arity());
    int d2 = fn.Evaluate(t.data(), t.arity());
    EXPECT_EQ(d1, d2);
    EXPECT_GE(d1, 0);
    EXPECT_LT(d1, 4);
  }
  EXPECT_EQ(fn.table.size(), par.size());
}

TEST(PartitionTest, MissingBaseRelationYieldsEmptyFragments) {
  SymbolTable symbols;
  RewriteBundle bundle = MakeFragmentingBundle(&symbols, 2);
  Database edb;  // no par facts at all
  StatusOr<PartitionResult> result = PartitionBases(bundle, edb);
  ASSERT_TRUE(result.ok());
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(result->fragments[w].at(0)->size(), 0u);
    EXPECT_EQ(result->fragments[w].at(1)->size(), 0u);
  }
}

TEST(SatelliteRegressionTest, PartitionBasesRejectsOversizedSequence) {
  SymbolTable symbols;
  Program program = ParseOrDie(testing_util::kAncestorProgram, &symbols);
  ProgramInfo info = ValidateOrDie(program);
  StatusOr<LinearSirup> sirup = ExtractLinearSirup(program, info);
  ASSERT_TRUE(sirup.ok());
  LinearSchemeOptions options;
  options.v_r = {symbols.Intern("Z")};
  options.v_e = {symbols.Intern("X")};
  options.h = DiscriminatingFunction::UniformHash(2);
  StatusOr<RewriteBundle> bundle =
      RewriteLinearSirup(program, info, *sirup, 2, options);
  ASSERT_TRUE(bundle.ok());

  Database edb;
  GenChain(&symbols, &edb, "par", 5);
  // Grow the fragmented occurrences' discriminating sequences past the
  // 32-value gather buffer; PartitionBases must refuse, not overflow.
  int fragmented = 0;
  for (BaseOccurrence& occ : bundle->base_occurrences) {
    if (occ.access != BaseOccurrence::Access::kFragment) continue;
    occ.positions.assign(33, 0);
    ++fragmented;
  }
  ASSERT_GT(fragmented, 0);
  StatusOr<PartitionResult> result = PartitionBases(*bundle, edb);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("at most"), std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace pdatalog
