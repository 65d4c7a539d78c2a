#include "cli/driver.h"

#include <fstream>
#include <sstream>

#include "gtest/gtest.h"

namespace pdatalog {
namespace {

constexpr char kAncestor[] =
    "par(a, b).  par(b, c).  par(c, d).\n"
    "anc(X, Y) :- par(X, Y).\n"
    "anc(X, Y) :- par(X, Z), anc(Z, Y).\n";

TEST(CliParseTest, Defaults) {
  StatusOr<CliOptions> options = ParseCliArgs({"prog.dl"});
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->mode, CliOptions::Mode::kParallel);
  EXPECT_EQ(options->scheme, CliOptions::Scheme::kAuto);
  EXPECT_EQ(options->processors, 4);
  EXPECT_EQ(options->program_path, "prog.dl");
}

TEST(CliParseTest, AllFlags) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--mode=seq", "--processors=7", "--scheme=example2", "--rho=0.25",
       "--seed=0x10", "--dump=anc", "--print-programs", "--stats", "p.dl"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->mode, CliOptions::Mode::kSequential);
  EXPECT_EQ(options->processors, 7);
  EXPECT_EQ(options->scheme, CliOptions::Scheme::kExample2);
  EXPECT_DOUBLE_EQ(options->rho, 0.25);
  EXPECT_EQ(options->seed, 0x10u);
  EXPECT_EQ(options->dump_predicate, "anc");
  EXPECT_TRUE(options->print_programs);
  EXPECT_TRUE(options->print_stats);
}

TEST(CliParseTest, Rejections) {
  EXPECT_FALSE(ParseCliArgs({}).ok());                      // no file
  EXPECT_FALSE(ParseCliArgs({"--mode=warp", "p.dl"}).ok()); // bad mode
  EXPECT_FALSE(ParseCliArgs({"--processors=0", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--scheme=magic", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--rho=1.5", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--nonsense", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"a.dl", "b.dl"}).ok());  // two files
  // Partitioning is fixed per run: no run-time skew flags.
  EXPECT_FALSE(ParseCliArgs({"--rebalance-skew=1.3", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--rebalance-buckets=8", "p.dl"}).ok());
  // --interactive queries an evaluation; these runs evaluate nothing.
  EXPECT_FALSE(ParseCliArgs({"--interactive", "--explain", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--interactive", "--advise", "p.dl"}).ok());
  // One fixpoint per program: no evaluation-order flags.
  StatusOr<CliOptions> removed = ParseCliArgs({"--stratified", "p.dl"});
  ASSERT_FALSE(removed.ok());
  EXPECT_NE(removed.status().message().find("unknown flag"),
            std::string::npos);
}

TEST(CliParseTest, FaultsFlag) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--faults=drop:0.1,dup:0.05,reorder:0.2,delay:0.1,polls:5",
       "--retransmit", "p.dl"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_DOUBLE_EQ(options->faults.drop, 0.1);
  EXPECT_DOUBLE_EQ(options->faults.duplicate, 0.05);
  EXPECT_DOUBLE_EQ(options->faults.reorder, 0.2);
  EXPECT_DOUBLE_EQ(options->faults.delay, 0.1);
  EXPECT_EQ(options->faults.delay_polls, 5);
  EXPECT_TRUE(options->retransmit);
  EXPECT_FALSE(ParseCliArgs({"--faults=drop", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--faults=jitter:0.1", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--faults=drop:1.5", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--faults=polls:0", "p.dl"}).ok());
}

TEST(CliParseTest, CorruptFaultKeyIsUnknown) {
  // Blocks move through shared memory; there are no frame bytes to
  // corrupt, so `corrupt` is not a fault kind.
  StatusOr<CliOptions> options =
      ParseCliArgs({"--faults=corrupt:0.1", "p.dl"});
  ASSERT_FALSE(options.ok());
  EXPECT_NE(
      options.status().message().find("unknown --faults key 'corrupt'"),
      std::string::npos)
      << options.status().ToString();
}

TEST(CliParseTest, NumericFlagsMustParseWhole) {
  // A partial, non-finite or out-of-range number is a usage error,
  // never a silently different value.
  for (const char* bad :
       {"--faults=drop:abc", "--processors=4x", "--vars=x:Y", "--rho=nan",
        "--seed=zz", "--rho=inf", "--seed=-1", "--processors= 4",
        "--processors=", "--net=1e999", "--block-tuples=8.5",
        "--trace-ring-kb=99999999999"}) {
    StatusOr<CliOptions> options = ParseCliArgs({bad, "p.dl"});
    ASSERT_FALSE(options.ok()) << bad;
    EXPECT_NE(options.status().message().find("usage:"), std::string::npos)
        << bad << ": " << options.status().ToString();
  }
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--processors=+3", "--seed=0x10", "--rho=2.5e-1", "--vars=1:Y",
       "--faults=drop:0", "p.dl"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->processors, 3);
  EXPECT_EQ(options->seed, 16u);
  EXPECT_DOUBLE_EQ(options->rho, 0.25);
  ASSERT_EQ(options->rule_vars.size(), 1u);
  EXPECT_EQ(options->rule_vars[0].first, 1);
}

TEST(CliRunTest, FaultyRunWithRetransmitStaysExact) {
  // --scheme=example3 forces real cross-processor traffic (auto would
  // pick the communication-free scheme, leaving nothing to inject on).
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--scheme=example3", "--faults=drop:0.1,dup:0.1,reorder:0.1,delay:0.1",
       "--retransmit", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
}

TEST(CliRunTest, FaultyRunWithoutRetransmitReportsTheFault) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--scheme=example3", "--faults=drop:0.4", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().message().find("channel fault"),
            std::string::npos)
      << report.status().ToString();
}

TEST(CliRunTest, SequentialReport) {
  const std::string metrics_file = testing::TempDir() + "seq-metrics.json";
  StatusOr<CliOptions> options =
      ParseCliArgs({"--mode=seq", "--metrics=" + metrics_file, "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("sequential semi-naive"), std::string::npos);
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
  std::ifstream in(metrics_file);
  std::stringstream metrics;
  metrics << in.rdbuf();
  EXPECT_NE(metrics.str().find("\"eval.rows_examined\""), std::string::npos)
      << metrics.str();
  EXPECT_NE(metrics.str().find("\"eval.batch_fallbacks\""), std::string::npos)
      << metrics.str();
}

TEST(CliRunTest, ParallelReportShowsPoolingTime) {
  const std::string metrics_file = testing::TempDir() + "par-metrics.json";
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--scheme=example3", "--metrics=" + metrics_file, "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find(" ms pooling\n"), std::string::npos) << *report;
  std::ifstream in(metrics_file);
  std::stringstream metrics;
  metrics << in.rdbuf();
  EXPECT_NE(metrics.str().find("\"run.pool_seconds\""), std::string::npos)
      << metrics.str();
}

TEST(CliRunTest, NaiveReport) {
  StatusOr<CliOptions> options = ParseCliArgs({"--mode=naive", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("sequential naive"), std::string::npos);
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
}

TEST(CliRunTest, AutoPicksTheoremThreeForAncestor) {
  StatusOr<CliOptions> options = ParseCliArgs({"p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("Theorem 3"), std::string::npos);
  EXPECT_NE(report->find("cross messages: 0"), std::string::npos);
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
}

TEST(CliRunTest, AutoFallsBackToGeneralForNonLinear) {
  StatusOr<CliOptions> options = ParseCliArgs({"p.dl"});
  ASSERT_TRUE(options.ok());
  const char* source =
      "par(a, b).  par(b, c).\n"
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- anc(X, Z), anc(Z, Y).\n";
  StatusOr<std::string> report = RunCli(*options, source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("general scheme"), std::string::npos);
  EXPECT_NE(report->find("anc: 3 tuples"), std::string::npos);
}

TEST(CliRunTest, DumpPredicate) {
  StatusOr<CliOptions> options = ParseCliArgs({"--dump=anc", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("(a, d)"), std::string::npos);
}

TEST(CliRunTest, DumpUnknownPredicate) {
  StatusOr<CliOptions> options = ParseCliArgs({"--dump=ghost", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("no such relation"), std::string::npos);
}

TEST(CliRunTest, PrintProgramsShowsConstraints) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--scheme=example3", "--processors=2", "--print-programs", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("-- processor 1 --"), std::string::npos);
  EXPECT_NE(report->find("anc_in"), std::string::npos);
  EXPECT_NE(report->find("= 1."), std::string::npos);
}

TEST(CliRunTest, TradeoffSchemeRuns) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--scheme=tradeoff", "--rho=1.0", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("cross messages: 0"), std::string::npos);
}

TEST(CliRunTest, Example2SchemeRuns) {
  StatusOr<CliOptions> options = ParseCliArgs({"--scheme=example2", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("anc: 6 tuples"), std::string::npos);
}

TEST(CliRunTest, ParseErrorPropagates) {
  StatusOr<CliOptions> options = ParseCliArgs({"p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, "anc(X :-");
  EXPECT_FALSE(report.ok());
}

TEST(CliRunTest, UnsafeProgramRejected) {
  StatusOr<CliOptions> options = ParseCliArgs({"p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, "p(X, Y) :- q(X).\n");
  EXPECT_FALSE(report.ok());
}

TEST(CliRunTest, StatsTableShown) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--stats", "--processors=2", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("proc"), std::string::npos);
  EXPECT_NE(report->find("rounds"), std::string::npos);
}

TEST(CliParseTest, BuiltinProgramFlag) {
  StatusOr<CliOptions> options = ParseCliArgs({"--program=ancestor"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(options->builtin, "ancestor");
  EXPECT_TRUE(options->program_path.empty());
}

TEST(CliParseTest, FileAndBuiltinConflict) {
  EXPECT_FALSE(ParseCliArgs({"--program=ancestor", "p.dl"}).ok());
}

TEST(CliParseTest, FactsFlag) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--facts=edge:/tmp/e.tsv", "--facts=w:x.tsv", "p.dl"});
  ASSERT_TRUE(options.ok());
  ASSERT_EQ(options->fact_files.size(), 2u);
  EXPECT_EQ(options->fact_files[0].first, "edge");
  EXPECT_EQ(options->fact_files[0].second, "/tmp/e.tsv");
  EXPECT_FALSE(ParseCliArgs({"--facts=broken", "p.dl"}).ok());
}

TEST(CliRunTest, BuiltinProgramWithInlineFacts) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--program=ancestor", "--mode=seq"});
  ASSERT_TRUE(options.ok());
  // Extra source (facts) is appended after the built-in rules.
  StatusOr<std::string> report =
      RunCli(*options, "par(a, b).\npar(b, c).\n");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("anc: 3 tuples"), std::string::npos);
}

TEST(CliRunTest, UnknownBuiltinFails) {
  StatusOr<CliOptions> options = ParseCliArgs({"--program=zzz"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, "");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(CliRunTest, MissingFactFileFails) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--program=ancestor", "--facts=par:/nonexistent/x.tsv"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, "");
  EXPECT_FALSE(report.ok());
}

TEST(CliRunTest, ExplainPrintsPlans) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--explain", "--program=ancestor"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, "");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("probe par(X, Z)"), std::string::npos) << *report;
  EXPECT_NE(report->find("delta on body atom 1"), std::string::npos);
}

TEST(CliRunTest, AdviseRanking) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--advise", "--net=8", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("advice:"), std::string::npos);
  EXPECT_NE(report->find("theorem3"), std::string::npos);
}

TEST(CliRunTest, AdviseRejectsNonLinear) {
  StatusOr<CliOptions> options = ParseCliArgs({"--advise", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(
      *options,
      "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- anc(X, Z), anc(Z, Y).\n");
  EXPECT_FALSE(report.ok());
}

TEST(CliInteractiveTest, QueryLoopAnswersAndQuits) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--interactive", "--mode=seq", "p.dl"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(options->interactive);
  std::istringstream in("anc(a, X)\nanc(zzz, W)\n\n");
  std::ostringstream out;
  Status status = RunInteractive(*options, kAncestor, in, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::string text = out.str();
  EXPECT_NE(text.find("X = d"), std::string::npos) << text;
  // Unknown constant: no bindings, loop continues to next prompt.
  EXPECT_GE(std::count(text.begin(), text.end(), '?'), 3);
}

TEST(CliInteractiveTest, MalformedQueryKeepsLooping) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--interactive", "--mode=seq", "p.dl"});
  ASSERT_TRUE(options.ok());
  std::istringstream in("anc(a,\nanc(a, X)\n");
  std::ostringstream out;
  ASSERT_TRUE(RunInteractive(*options, kAncestor, in, out).ok());
  EXPECT_NE(out.str().find("INVALID_ARGUMENT"), std::string::npos);
  EXPECT_NE(out.str().find("X = b"), std::string::npos);
}

TEST(CliInteractiveTest, ParallelModeAnswersFromItsOwnFixpoint) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--interactive", "--mode=par", "--scheme=example3", "--processors=3",
       "p.dl"});
  ASSERT_TRUE(options.ok());
  std::istringstream in("anc(a, X)\npar(b, W)\n");
  std::ostringstream out;
  Status status = RunInteractive(*options, kAncestor, in, out);
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::string text = out.str();
  // One evaluation, in the requested mode: one report, parallel.
  EXPECT_NE(text.find("mode: parallel, 3 processors"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("mode:"), text.rfind("mode:")) << text;
  // Derived (pooled) and base relations both answer.
  EXPECT_NE(text.find("X = d"), std::string::npos) << text;
  EXPECT_NE(text.find("W = c"), std::string::npos) << text;
}

TEST(CliInteractiveTest, EofEndsLoop) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--interactive", "--mode=seq", "p.dl"});
  ASSERT_TRUE(options.ok());
  std::istringstream in("");
  std::ostringstream out;
  EXPECT_TRUE(RunInteractive(*options, kAncestor, in, out).ok());
}

TEST(CliRunTest, ListPrograms) {
  StatusOr<CliOptions> options = ParseCliArgs({"--list-programs"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  StatusOr<std::string> report = RunCli(*options, "");
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("ancestor"), std::string::npos);
  EXPECT_NE(report->find("points_to"), std::string::npos);
  EXPECT_NE(report->find("[linear sirup]"), std::string::npos);
}

TEST(CliParseTest, VarsFlag) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--vars=0:Y,1:Z", "p.dl"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  ASSERT_EQ(options->rule_vars.size(), 2u);
  EXPECT_EQ(options->rule_vars[0].first, 0);
  EXPECT_EQ(options->rule_vars[0].second, "Y");
  EXPECT_EQ(options->rule_vars[1].second, "Z");
  EXPECT_FALSE(ParseCliArgs({"--vars=broken", "p.dl"}).ok());
}

TEST(CliRunTest, VarsOverrideGeneralScheme) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--scheme=general", "--vars=1:Z", "--print-programs",
       "--processors=2", "p.dl"});
  ASSERT_TRUE(options.ok());
  const char* source =
      "par(a, b).\n"
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- anc(X, Z), anc(Z, Y).\n";
  StatusOr<std::string> report = RunCli(*options, source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("h2(Z) = 0"), std::string::npos) << *report;

  // An override naming no rule, or no variable of its rule's body, is a
  // usage error rather than a silent fallback to the default scheme.
  for (const char* vars : {"--vars=99:Y", "--vars=0:Nope", "--vars=0:Z"}) {
    StatusOr<CliOptions> bad =
        ParseCliArgs({"--scheme=general", vars, "p.dl"});
    ASSERT_TRUE(bad.ok()) << vars;
    StatusOr<std::string> rejected = RunCli(*bad, source);
    ASSERT_FALSE(rejected.ok()) << vars;
    EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(rejected.status().message().find("--vars"), std::string::npos)
        << rejected.status().message();
  }
}

TEST(CliRunTest, EmbeddedQueriesAnswered) {
  StatusOr<CliOptions> options = ParseCliArgs({"--mode=seq", "p.dl"});
  ASSERT_TRUE(options.ok());
  std::string source = std::string(kAncestor) + "?- anc(a, X).\n";
  StatusOr<std::string> report = RunCli(*options, source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("?- anc(a, X)"), std::string::npos);
  EXPECT_NE(report->find("X = d"), std::string::npos);
}

TEST(CliRunTest, EmbeddedQueriesAnsweredInParallelMode) {
  StatusOr<CliOptions> options = ParseCliArgs({"p.dl"});
  ASSERT_TRUE(options.ok());
  std::string source = std::string(kAncestor) + "?- anc(b, d).\n";
  StatusOr<std::string> report = RunCli(*options, source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("true"), std::string::npos);
}

TEST(CliParseTest, ProfileAndRingFlags) {
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--profile", "--trace-ring-kb=8", "p.dl"});
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_TRUE(options->profile);
  EXPECT_TRUE(options->profile_file.empty());
  EXPECT_EQ(options->trace_ring_kb, 8);

  options = ParseCliArgs({"--profile=out.json", "p.dl"});
  ASSERT_TRUE(options.ok());
  EXPECT_TRUE(options->profile);
  EXPECT_EQ(options->profile_file, "out.json");

  EXPECT_FALSE(ParseCliArgs({"--profile=", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--trace-ring-kb=0", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--trace-ring-kb=-4", "p.dl"}).ok());
  EXPECT_FALSE(ParseCliArgs({"--trace-ring-kb=2000000", "p.dl"}).ok());
}

TEST(CliRunTest, ProfilePrintsAnalysisWithoutTraceFile) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--profile", "--processors=2", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("profile:"), std::string::npos) << *report;
  EXPECT_NE(report->find("overall skew"), std::string::npos);
  EXPECT_NE(report->find("per-worker busy/idle"), std::string::npos);
  EXPECT_NE(report->find("communication matrix"), std::string::npos);
  EXPECT_NE(report->find("critical path"), std::string::npos);
  EXPECT_NE(report->find("percentiles"), std::string::npos);
}

TEST(CliRunTest, ProfileSequentialMode) {
  StatusOr<CliOptions> options =
      ParseCliArgs({"--mode=seq", "--profile", "p.dl"});
  ASSERT_TRUE(options.ok());
  StatusOr<std::string> report = RunCli(*options, kAncestor);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("profile:"), std::string::npos) << *report;
  EXPECT_NE(report->find("1 workers"), std::string::npos);
}

TEST(CliRunTest, TinyRingWarnsAboutDrops) {
  // 1 KiB = 64 events per ring: a parallel run overflows immediately
  // and must say so instead of silently truncating the analysis.
  StatusOr<CliOptions> options = ParseCliArgs(
      {"--profile", "--trace-ring-kb=1", "--processors=4", "p.dl"});
  ASSERT_TRUE(options.ok());
  // A 40-edge chain runs ~40 rounds: far more than 64 events per ring.
  std::string source =
      "anc(X, Y) :- par(X, Y).\n"
      "anc(X, Y) :- par(X, Z), anc(Z, Y).\n";
  for (int i = 0; i < 40; ++i) {
    source += "par(n" + std::to_string(i) + ", n" +
              std::to_string(i + 1) + ").\n";
  }
  StatusOr<std::string> report = RunCli(*options, source);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("warning: trace ring overflow dropped"),
            std::string::npos)
      << *report;
}

}  // namespace
}  // namespace pdatalog
