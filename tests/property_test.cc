// Property-based suites: randomized data, processor counts and scheme
// choices, with the paper's theorems as the checked invariants:
//   * Theorems 1/4/5: the parallel least model equals the sequential one.
//   * Theorems 2/6:   parallel firings never exceed sequential firings.
#include "gtest/gtest.h"
#include "parallel_test_util.h"
#include "workload/generators.h"

namespace pdatalog {
namespace {

using testing_util::AncestorScheme;
using testing_util::DumpOutput;
using testing_util::MakeAncestorBundle;
using testing_util::MakeAncestorSetup;
using testing_util::SequentialAncestor;

struct PropertyCase {
  uint64_t seed;
  int processors;
  AncestorScheme scheme;
};

class AncestorPropertyTest
    : public ::testing::TestWithParam<PropertyCase> {};

std::vector<PropertyCase> MakeCases() {
  std::vector<PropertyCase> cases;
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (int P : {2, 4, 7}) {
      for (AncestorScheme scheme :
           {AncestorScheme::kExample1, AncestorScheme::kExample2,
            AncestorScheme::kExample3}) {
        cases.push_back({seed, P, scheme});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AncestorPropertyTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<PropertyCase>& info) {
      const PropertyCase& c = info.param;
      return "seed" + std::to_string(c.seed) + "p" +
             std::to_string(c.processors) + "scheme" +
             std::to_string(static_cast<int>(c.scheme));
    });

TEST_P(AncestorPropertyTest, ParallelEqualsSequentialAndNonRedundant) {
  const PropertyCase& c = GetParam();
  auto setup = MakeAncestorSetup();
  // Mix of topologies per seed.
  switch (c.seed % 3) {
    case 0:
      GenRandomGraph(&setup->symbols, &setup->edb, "par", 25, 45, c.seed);
      break;
    case 1:
      GenTree(&setup->symbols, &setup->edb, "par", 2, 5);
      break;
    default:
      GenGrid(&setup->symbols, &setup->edb, "par", 4, 4);
      break;
  }
  EvalStats seq_stats;
  std::string expected = SequentialAncestor(setup.get(), &seq_stats);

  RewriteBundle bundle =
      MakeAncestorBundle(setup.get(), c.scheme, c.processors, c.seed);
  StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(DumpOutput(*result, setup->symbols, setup->anc()), expected);
  EXPECT_LE(result->total_firings, seq_stats.firings);  // Theorem 2
  // For the Section 3 scheme the partition is exact.
  EXPECT_EQ(result->total_firings, seq_stats.firings);
}

// Same-generation with the general scheme, sweeping seeds.
class SameGenPropertyTest : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, SameGenPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST_P(SameGenPropertyTest, GeneralSchemeMatchesSequential) {
  uint64_t seed = GetParam();
  SymbolTable symbols;
  const char* source =
      "sg(X, Y) :- flat(X, Y).\n"
      "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).\n";
  Program program = testing_util::ParseOrDie(source, &symbols);
  ProgramInfo info = testing_util::ValidateOrDie(program);

  auto fill = [&](Database* db) {
    GenFlat(&symbols, db, "up", 40, 12, seed);
    GenFlat(&symbols, db, "flat", 15, 12, seed + 100);
    // down = inverted up-style edges.
    SplitMix64 rng(seed + 200);
    Relation& down = db->GetOrCreate(symbols.Intern("down"), 2);
    for (int i = 0; i < 40; ++i) {
      Value parent = symbols.Intern("p" + std::to_string(rng.NextBelow(12)));
      Value child = symbols.Intern("c" + std::to_string(rng.NextBelow(40)));
      down.Insert(Tuple{parent, child});
    }
  };

  Database seq_db;
  fill(&seq_db);
  EvalStats seq_stats;
  ASSERT_TRUE(SemiNaiveEvaluate(program, info, &seq_db, &seq_stats).ok());

  std::vector<GeneralRuleSpec> specs(2);
  specs[0].vars = {symbols.Intern("Y")};
  specs[0].h = DiscriminatingFunction::UniformHash(4, seed);
  specs[1].vars = {symbols.Intern("V")};
  specs[1].h = DiscriminatingFunction::UniformHash(4, seed);
  StatusOr<RewriteBundle> bundle = RewriteGeneral(program, info, 4, specs);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();

  Database edb;
  fill(&edb);
  StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(
      result->output.Find(symbols.Lookup("sg"))->ToSortedString(symbols),
      seq_db.Find(symbols.Lookup("sg"))->ToSortedString(symbols));
  EXPECT_LE(result->total_firings, seq_stats.firings);
}

// The trade-off spectrum, swept over rho and seeds: output invariant,
// communication monotone non-increasing in rho.
class TradeoffSweepTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

INSTANTIATE_TEST_SUITE_P(Sweep, TradeoffSweepTest,
                         ::testing::Combine(::testing::Values(7u, 8u),
                                            ::testing::Values(2, 4)));

TEST_P(TradeoffSweepTest, OutputInvariantAcrossRho) {
  auto [seed, P] = GetParam();
  std::string reference;
  uint64_t last_cross = ~0ull;
  for (double rho : {0.0, 0.3, 0.7, 1.0}) {
    auto setup = MakeAncestorSetup();
    GenRandomGraph(&setup->symbols, &setup->edb, "par", 24, 48, seed);
    TradeoffOptions options;
    options.v_r = {setup->symbols.Intern("Z")};
    options.v_e = {setup->symbols.Intern("X")};
    options.h_prime = DiscriminatingFunction::UniformHash(P, seed);
    for (int i = 0; i < P; ++i) {
      options.h_i.push_back(
          DiscriminatingFunction::KeepOrHash(i, rho, P, seed));
    }
    StatusOr<RewriteBundle> bundle = RewriteTradeoff(
        setup->program, setup->info, setup->sirup, P, options);
    ASSERT_TRUE(bundle.ok());
    StatusOr<ParallelResult> result = RunParallel(*bundle, &setup->edb);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    std::string output = DumpOutput(*result, setup->symbols, setup->anc());
    if (reference.empty()) {
      reference = output;
    } else {
      EXPECT_EQ(output, reference) << "rho=" << rho;
    }
    EXPECT_LE(result->cross_tuples, last_cross) << "rho=" << rho;
    last_cross = result->cross_tuples;
  }
  EXPECT_EQ(last_cross, 0u);  // rho = 1 end of the spectrum
}

// Determinism: the engine must produce identical stats across repeated
// runs in round-robin mode, and identical *outputs* in threaded mode.
TEST(DeterminismTest, RoundRobinStatsStable) {
  ParallelOptions options;
  options.use_threads = false;
  std::vector<uint64_t> firings;
  std::vector<uint64_t> cross;
  for (int run = 0; run < 3; ++run) {
    auto setup = MakeAncestorSetup();
    GenRandomGraph(&setup->symbols, &setup->edb, "par", 20, 40, 5);
    RewriteBundle bundle =
        MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 3);
    StatusOr<ParallelResult> result =
        RunParallel(bundle, &setup->edb, options);
    ASSERT_TRUE(result.ok());
    firings.push_back(result->total_firings);
    cross.push_back(result->cross_tuples);
  }
  EXPECT_EQ(firings[0], firings[1]);
  EXPECT_EQ(firings[1], firings[2]);
  EXPECT_EQ(cross[0], cross[1]);
  EXPECT_EQ(cross[1], cross[2]);
}

TEST(DeterminismTest, ThreadedOutputStable) {
  std::string reference;
  for (int run = 0; run < 5; ++run) {
    auto setup = MakeAncestorSetup();
    GenRandomGraph(&setup->symbols, &setup->edb, "par", 20, 40, 6);
    RewriteBundle bundle =
        MakeAncestorBundle(setup.get(), AncestorScheme::kExample3, 4);
    StatusOr<ParallelResult> result = RunParallel(bundle, &setup->edb);
    ASSERT_TRUE(result.ok());
    std::string output = DumpOutput(*result, setup->symbols, setup->anc());
    if (reference.empty()) {
      reference = output;
    } else {
      EXPECT_EQ(output, reference) << "run " << run;
    }
  }
}

}  // namespace
}  // namespace pdatalog
