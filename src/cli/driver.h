// Command-line driver: everything behind the `pdatalog` tool, exposed
// as a library so it is unit-testable.
//
// Usage (see tools/pdatalog.cc):
//   pdatalog [options] [program.dl]
//     --list-programs           list the built-in programs and exit
//     --program=name            use a built-in program instead of a file
//                               (see workload/programs.h, e.g. ancestor,
//                               points_to)
//     --facts=pred:file         load extensional tuples for `pred` from a
//                               tab/comma-separated file (repeatable)
//     --mode=seq|naive|par      evaluation mode (default par)
//     --processors=N            processor count (default 4)
//     --scheme=auto|example1|example2|example3|general|tradeoff
//                               parallelization scheme (default auto)
//     --rho=R                   keep-fraction for --scheme=tradeoff
//     --vars=0:Y,1:Z            discriminating variable per rule index
//                               for --scheme=general (default: first
//                               variable of each rule's first derived
//                               body atom)
//     --seed=S                  hash seed (default 0x5eed)
//     --dump=pred               print the tuples of one predicate
//     --query='anc(a, X)'       print the bindings of a query atom
//     --interactive             after evaluation, read query atoms from
//                               stdin (one per line; blank line or EOF
//                               quits) and print their bindings
//     --incremental             sequential mode only: evaluate through
//                               the incremental maintenance engine
//                               (eval/incremental.h) instead of the
//                               batch evaluator; same least model
//     --serve[=PORT]            serving mode: materialize the fixpoint
//                               once, then answer the line protocol
//                               (docs/cli.md) on stdin/stdout until EOF
//                               or `!quit`. With =PORT, additionally
//                               listen on 127.0.0.1:PORT (0 = ephemeral)
//     --serve-batch=N           serving mode: max facts absorbed per
//                               maintenance cycle (default 256)
//     --telemetry-port=P        serving mode: HTTP scrape endpoint on
//                               127.0.0.1:P (0 = ephemeral) serving
//                               GET /metrics (Prometheus text
//                               exposition) and GET /health (200/503)
//     --slow-query-ms=T         serving mode: queries at or above T ms
//                               are captured in the slow-query ring
//                               (shown by !stats and /metrics); 0 = off
//     --health-queue=N          serving mode: !health / /health flips
//                               to degraded beyond N pending updates
//                               (default 4096; 0 disables the check)
//     --health-lag-ms=M         serving mode: degraded when the oldest
//                               pending update is older than M ms
//                               (default 5000; 0 disables the check)
//     --save=dir                save all relations (input + derived) as
//                               TSV files under dir after evaluation
//     --advise                  profile candidate schemes and print a
//                               ranking instead of running one (linear
//                               sirups only); --net sets the modeled
//                               per-message cost relative to a firing
//     --net=C                   per-message cost for --advise (default 1)
//     --explain                 print the compiled access plans (full +
//                               semi-naive delta variants) and exit
//     --faults=drop:0.1,dup:0.05,reorder:0.1,delay:0.1,polls:3
//                               inject channel faults with the given
//                               per-frame probabilities (parallel mode;
//                               keys may be omitted; seeded by --seed).
//                               Without --retransmit the run *detects*
//                               losses and fails; with it, it recovers.
//     --retransmit              enable the at-least-once channel
//                               protocol (resend unacknowledged frames)
//     --block-tuples=N          flush threshold for the block channel
//                               protocol: outgoing tuples accumulate per
//                               (destination, predicate) and ship as one
//                               frame per block, flushing mid-round at N
//                               tuples (default 256; 1 = per-tuple frames)
//     --trace=FILE              write a Chrome-trace (Perfetto) JSON of
//                               per-worker phase spans (init/drain/probe/
//                               insert/flush/idle) and round
//                               instants; open at ui.perfetto.dev or
//                               chrome://tracing
//     --metrics=FILE            write the run's metrics registry (named
//                               counters, gauges, and latency/size
//                               histograms) as flat JSON
//     --profile[=FILE]          analyze the trace after the run: per-round
//                               busy/idle and skew ratios, straggler,
//                               communication matrix, critical path, and
//                               latency percentiles; printed as text and,
//                               with =FILE, also written as JSON
//     --trace-ring-kb=N         per-worker trace ring capacity in KiB
//                               (default 1024 = 64K events); raise it when
//                               the report warns about dropped events
//     --print-programs          print the rewritten per-processor programs
//     --stats                   print per-processor statistics
//
// `auto` picks the communication-free scheme of Theorem 3 when the
// dataflow graph of a linear sirup has a cycle, the paper's Example 3
// hash scheme for acyclic linear sirups, and a per-rule general scheme
// (Section 7) for everything else.
#ifndef PDATALOG_CLI_DRIVER_H_
#define PDATALOG_CLI_DRIVER_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "core/fault.h"
#include "datalog/symbol_table.h"
#include "util/status.h"

namespace pdatalog {

struct CliOptions {
  enum class Mode { kSequential, kNaive, kParallel };
  enum class Scheme {
    kAuto,
    kExample1,
    kExample2,
    kExample3,
    kGeneral,
    kTradeoff,
  };

  Mode mode = Mode::kParallel;
  Scheme scheme = Scheme::kAuto;
  int processors = 4;
  double rho = 0.5;        // tradeoff keep-fraction
  // --scheme=general overrides: rule index -> variable name.
  std::vector<std::pair<int, std::string>> rule_vars;
  uint64_t seed = 0x5eed;
  std::string dump_predicate;
  std::string query;  // single-atom query, e.g. "anc(a, X)"
  std::string save_directory;
  bool interactive = false;
  // --incremental: run the sequential one-shot through the incremental
  // maintenance engine (forces Mode::kSequential).
  bool incremental = false;
  // --serve[=PORT]: resident serving mode. serve_port -1 = stdio only;
  // [0, 65535] = also listen on 127.0.0.1 (0 picks an ephemeral port).
  bool serve = false;
  int serve_port = -1;
  int serve_batch = 256;  // --serve-batch
  // --telemetry-port=P: serving-mode HTTP scrape endpoint. -1 = off;
  // [0, 65535] listens on 127.0.0.1 (0 picks an ephemeral port).
  int telemetry_port = -1;
  // --slow-query-ms: slow-query capture threshold (0 = off).
  double slow_query_ms = 0;
  // --health-queue / --health-lag-ms: degraded thresholds. -1 = engine
  // default (see obs/telemetry.h HealthThresholds); 0 disables a check.
  int64_t health_queue = -1;
  double health_lag_ms = -1;
  bool list_programs = false;
  bool print_programs = false;
  bool print_stats = false;
  bool advise = false;
  bool explain = false;
  // --faults / --retransmit / --block-tuples (parallel mode only).
  FaultSpec faults;
  bool retransmit = false;
  int block_tuples = 256;
  // --trace / --metrics observability exports (empty = disabled).
  std::string trace_file;
  std::string metrics_file;
  // --profile[=FILE]: post-run trace analysis (text; JSON when a file
  // is given). Implies tracing even without --trace.
  bool profile = false;
  std::string profile_file;
  // --trace-ring-kb: per-worker ring capacity in KiB (0 = default).
  int trace_ring_kb = 0;
  double net_cost = 1.0;  // --advise cost model
  std::string program_path;  // informational; source is passed separately
  std::string builtin;       // name of a built-in program, if chosen
  // (predicate, file path) pairs for --facts.
  std::vector<std::pair<std::string, std::string>> fact_files;
};

// Parses tool arguments (argv[1..]). Returns an error with a usage hint
// on unknown flags or malformed values.
StatusOr<CliOptions> ParseCliArgs(const std::vector<std::string>& args);

// Runs `source` under `options` and returns the textual report the tool
// prints. Fails with the underlying error for parse/validation/engine
// problems.
StatusOr<std::string> RunCli(const CliOptions& options,
                             const std::string& source);

// The --interactive loop, separated for testability: reads one query
// atom per line from `in` and writes its bindings to `out`. A blank
// line or EOF ends the loop. Malformed queries print the error and
// continue. RunInteractive below runs it over the database of its one
// evaluation.
void QueryLoop(const class Database& db, SymbolTable* symbols,
               std::istream& in, std::ostream& out);

// Full interactive session: evaluates once, exactly as RunCli would in
// the requested mode and scheme, prints RunCli's report to `out`, then
// runs QueryLoop over that evaluation's database (base relations plus
// the derived fixpoint).
Status RunInteractive(const CliOptions& options, const std::string& source,
                      std::istream& in, std::ostream& out);

// The --serve mode: builds a resident ServerEngine (src/server/) from
// the program, optionally starts the socket listener, then runs the
// line protocol over `in`/`out` until EOF or `!quit`. Separated from
// the tool for testability.
Status RunServe(const CliOptions& options, const std::string& source,
                std::istream& in, std::ostream& out);

}  // namespace pdatalog

#endif  // PDATALOG_CLI_DRIVER_H_
