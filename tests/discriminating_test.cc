#include "core/discriminating.h"

#include <algorithm>

#include "gtest/gtest.h"

namespace pdatalog {
namespace {

TEST(DiscriminatingTest, UniformHashInRangeAndDeterministic) {
  DiscriminatingFunction fn = DiscriminatingFunction::UniformHash(4);
  Value vals[2] = {10, 20};
  int first = fn.Evaluate(vals, 2);
  EXPECT_GE(first, 0);
  EXPECT_LT(first, 4);
  EXPECT_EQ(fn.Evaluate(vals, 2), first);
}

TEST(DiscriminatingTest, UniformHashSpreadsValues) {
  DiscriminatingFunction fn = DiscriminatingFunction::UniformHash(4);
  int seen[4] = {0, 0, 0, 0};
  for (Value v = 0; v < 100; ++v) {
    Value vals[1] = {v};
    ++seen[fn.Evaluate(vals, 1)];
  }
  for (int i = 0; i < 4; ++i) EXPECT_GT(seen[i], 0) << "bucket " << i;
}

TEST(DiscriminatingTest, UniformHashOrderSensitive) {
  DiscriminatingFunction fn = DiscriminatingFunction::UniformHash(1000);
  Value ab[2] = {1, 2};
  Value ba[2] = {2, 1};
  EXPECT_NE(fn.Evaluate(ab, 2), fn.Evaluate(ba, 2));
}

TEST(DiscriminatingTest, SymmetricHashOrderInvariant) {
  DiscriminatingFunction fn = DiscriminatingFunction::SymmetricHash(1000);
  Value abc[3] = {5, 9, 13};
  Value cab[3] = {13, 5, 9};
  Value bca[3] = {9, 13, 5};
  EXPECT_EQ(fn.Evaluate(abc, 3), fn.Evaluate(cab, 3));
  EXPECT_EQ(fn.Evaluate(abc, 3), fn.Evaluate(bca, 3));
}

TEST(DiscriminatingTest, LinearMatchesPaperExample7Range) {
  // h(a1,a2,a3) = g(a1) - g(a2) + g(a3): range {-1, 0, 1, 2}.
  std::vector<int> values = LinearAchievableValues({1, -1, 1});
  EXPECT_EQ(values, (std::vector<int>{-1, 0, 1, 2}));
}

TEST(DiscriminatingTest, LinearEvaluateWithinAchievable) {
  DiscriminatingFunction fn = DiscriminatingFunction::Linear({1, -1, 1});
  std::vector<int> achievable = LinearAchievableValues(fn.coeffs);
  for (Value a = 0; a < 20; ++a) {
    Value vals[3] = {a, a + 1, a + 2};
    int v = fn.Evaluate(vals, 3);
    EXPECT_TRUE(std::count(achievable.begin(), achievable.end(), v));
  }
}

TEST(DiscriminatingTest, LinearGIsBinary) {
  DiscriminatingFunction fn = DiscriminatingFunction::Linear({1});
  for (Value v = 0; v < 50; ++v) {
    EXPECT_TRUE(fn.G(v) == 0 || fn.G(v) == 1);
  }
}

TEST(DiscriminatingTest, DenseRemapCoversRange) {
  DiscriminatingFunction fn =
      WithDenseRemap(DiscriminatingFunction::Linear({1, -1, 1}));
  EXPECT_EQ(fn.num_processors, 4);
  for (Value a = 0; a < 50; ++a) {
    Value vals[3] = {a, 2 * a + 1, 3 * a + 7};
    int v = fn.Evaluate(vals, 3);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 4);
  }
}

TEST(DiscriminatingTest, TableLookupUsesTableThenFallback) {
  std::unordered_map<Tuple, int, TupleHash> table;
  table.emplace(Tuple{1, 2}, 3);
  DiscriminatingFunction fn =
      DiscriminatingFunction::TableLookup(std::move(table), 4);
  Value in_table[2] = {1, 2};
  EXPECT_EQ(fn.Evaluate(in_table, 2), 3);
  Value other[2] = {9, 9};
  int v = fn.Evaluate(other, 2);
  EXPECT_GE(v, 0);
  EXPECT_LT(v, 4);
}

TEST(DiscriminatingTest, ConstantAlwaysSame) {
  DiscriminatingFunction fn = DiscriminatingFunction::Constant(2);
  Value vals[1] = {77};
  EXPECT_EQ(fn.Evaluate(vals, 1), 2);
  Value other[3] = {1, 2, 3};
  EXPECT_EQ(fn.Evaluate(other, 3), 2);
}

TEST(DiscriminatingTest, KeepOrHashExtremes) {
  // rho = 1: always the owner. rho = 0: a uniform hash.
  DiscriminatingFunction keep = DiscriminatingFunction::KeepOrHash(3, 1.0, 8);
  DiscriminatingFunction hash = DiscriminatingFunction::KeepOrHash(3, 0.0, 8);
  int owner_hits = 0;
  for (Value v = 0; v < 200; ++v) {
    Value vals[1] = {v};
    EXPECT_EQ(keep.Evaluate(vals, 1), 3);
    if (hash.Evaluate(vals, 1) == 3) ++owner_hits;
  }
  // Uniform over 8 buckets: roughly 25 of 200 land on the owner.
  EXPECT_LT(owner_hits, 80);
}

TEST(DiscriminatingTest, KeepOrHashFractionTracksRho) {
  DiscriminatingFunction fn = DiscriminatingFunction::KeepOrHash(0, 0.5, 16);
  int kept = 0;
  for (Value v = 0; v < 1000; ++v) {
    Value vals[1] = {v};
    if (fn.Evaluate(vals, 1) == 0) ++kept;
  }
  // ~50% kept (plus ~3% hash fallthrough onto processor 0).
  EXPECT_GT(kept, 400);
  EXPECT_LT(kept, 650);
}

TEST(DiscriminatingTest, KeepOrHashDecisionIndependentOfCaller) {
  // Every processor that evaluates its own h_i on the same tuple with
  // the same rho must reach consistent routing; the coin depends only
  // on the tuple.
  DiscriminatingFunction h0 = DiscriminatingFunction::KeepOrHash(0, 0.5, 4);
  DiscriminatingFunction h1 = DiscriminatingFunction::KeepOrHash(1, 0.5, 4);
  for (Value v = 0; v < 100; ++v) {
    Value vals[1] = {v};
    bool kept0 = h0.Evaluate(vals, 1) == 0;
    bool kept1 = h1.Evaluate(vals, 1) == 1;
    // Note: hash fallthrough may coincidentally hit the owner; only
    // check agreement of the keep decision itself via the forwarded
    // target equality below.
    if (!kept0 && !kept1) {
      EXPECT_EQ(h0.Evaluate(vals, 1), h1.Evaluate(vals, 1));
    }
  }
}

TEST(DiscriminatingTest, RegistryEvaluatesById) {
  DiscriminatingRegistry registry;
  int a = registry.Register(DiscriminatingFunction::Constant(1));
  int b = registry.Register(DiscriminatingFunction::Constant(2));
  Value vals[1] = {0};
  EXPECT_EQ(registry.Evaluate(a, vals, 1), 1);
  EXPECT_EQ(registry.Evaluate(b, vals, 1), 2);
  EXPECT_EQ(registry.size(), 2);
}

TEST(DiscriminatingTest, SeedChangesUniformHash) {
  DiscriminatingFunction f1 = DiscriminatingFunction::UniformHash(64, 1);
  DiscriminatingFunction f2 = DiscriminatingFunction::UniformHash(64, 2);
  int diffs = 0;
  for (Value v = 0; v < 100; ++v) {
    Value vals[1] = {v};
    if (f1.Evaluate(vals, 1) != f2.Evaluate(vals, 1)) ++diffs;
  }
  EXPECT_GT(diffs, 50);
}

TEST(SatelliteRegressionTest, LinearRemapMissReturnsZeroNotUb) {
  DiscriminatingFunction fn = DiscriminatingFunction::Linear({1, 1});
  // A remap that does not cover every achievable raw value: values that
  // miss must map to processor 0 instead of dereferencing remap.end().
  fn.remap = {{0, 0}};
  Value vals[2] = {1, 2};
  int result = fn.Evaluate(vals, 2);
  EXPECT_GE(result, 0);
  EXPECT_LE(result, 0);
}

TEST(SatelliteRegressionTest, ZeroProcessorHashKindsReturnZero) {
  DiscriminatingFunction uniform = DiscriminatingFunction::UniformHash(0);
  DiscriminatingFunction symmetric =
      DiscriminatingFunction::SymmetricHash(0);
  Value v = 99;
  EXPECT_EQ(uniform.Evaluate(&v, 1), 0);
  EXPECT_EQ(symmetric.Evaluate(&v, 1), 0);
}

}  // namespace
}  // namespace pdatalog
