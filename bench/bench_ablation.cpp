// EXP-9 (ablations): measures the design choices DESIGN.md calls out.
//
//   A. Base-relation fragmentation (Section 3's b_k^i) on vs off:
//      same answers, same firings; fragmentation cuts the rows each
//      processor touches, chiefly in scan-driven initialization.
//   B. Greedy (most-bound-first) join ordering vs textual order: same
//      answers; greedy avoids accidental cartesian products.
#include <cstdio>

#include "bench_util.h"

using namespace pdatalog;
using bench::AncestorHarness;

namespace {

void AblateFragmentation() {
  std::printf("--- A: base fragmentation on/off (ancestor, Example 3) ---\n");
  TextTable table({"topology", "N", "fragments", "firings", "rows examined",
                   "replicated rows/proc"});
  for (const char* topology : {"chain", "random", "grid"}) {
    for (bool fragment : {true, false}) {
      const int P = 8;
      AncestorHarness h;
      Database base;
      bench::GenerateTopology(topology, &h.symbols, &base, "par", 7);
      StatusOr<RewriteBundle> bundle =
          RewriteLinearSirup(h.program, h.info, h.sirup, P, h.Example3(P));
      if (!bundle.ok()) AncestorHarness::Die("rewrite", bundle.status());
      if (!fragment) {
        // Same constraints, but every processor reads the whole base.
        for (BaseOccurrence& occ : bundle->base_occurrences) {
          occ.access = BaseOccurrence::Access::kReplicated;
        }
      }
      Database edb = h.CloneEdb(base);
      StatusOr<ParallelResult> result = RunParallel(*bundle, &edb);
      if (!result.ok()) AncestorHarness::Die("parallel", result.status());
      const ParallelResult& r = *result;
      uint64_t rows = 0;
      for (const WorkerStats& w : r.workers) rows += w.rows_examined;
      uint64_t replicated =
          fragment ? 0 : base.Find(h.par())->size();
      table.AddRow({topology, TextTable::Cell(P), fragment ? "on" : "off",
                    TextTable::Cell(r.total_firings), TextTable::Cell(rows),
                    TextTable::Cell(replicated)});
    }
  }
  table.Print();
  std::printf(
      "expected: identical firings (the h(v(r)) = i constraint already\n"
      "selects the fragment); 'off' examines more rows because the\n"
      "initialization rule scans the full replicated relation on every\n"
      "processor, and must keep a full copy per processor.\n\n");
}

void AblateJoinOrder() {
  std::printf("--- B: greedy vs textual join order ---\n");
  // The textual order hits a cartesian product: after a(X, Y), atom
  // c(W, Z) shares no variable. Greedy reorders b(Y, W) in between.
  SymbolTable symbols;
  StatusOr<Program> program = ParseProgram(
      "r(X, Z) :- a(X, Y), c(W, Z), b(Y, W).\n", &symbols);
  ProgramInfo info;
  (void)Validate(*program, &info);

  Database db_template;
  GenRandomGraph(&symbols, &db_template, "a", 60, 200, 1);
  GenRandomGraph(&symbols, &db_template, "b", 60, 200, 2);
  GenRandomGraph(&symbols, &db_template, "c", 60, 200, 3);

  TextTable table({"order", "firings", "rows examined", "ms"});
  for (bool greedy : {true, false}) {
    Database db;
    for (const auto& [pred, rel] : db_template.relations()) {
      Relation& copy = db.GetOrCreate(pred, rel->arity());
      for (size_t r = 0; r < rel->size(); ++r) copy.Insert(rel->row(r));
    }
    EvalOptions options;
    options.greedy_join_order = greedy;
    EvalStats stats;
    Stopwatch watch;
    Status status =
        SemiNaiveEvaluate(*program, info, &db, &stats, nullptr, options);
    if (!status.ok()) AncestorHarness::Die("eval", status);
    table.AddRow({greedy ? "greedy" : "textual",
                  TextTable::Cell(stats.firings),
                  TextTable::Cell(stats.rows_examined),
                  TextTable::Cell(watch.ElapsedMillis(), 2)});
  }
  table.Print();
  std::printf(
      "expected: identical firings (same semantics); the textual order\n"
      "pays for the a x c cartesian product in rows examined.\n");
}

}  // namespace

int main() {
  std::printf("EXP-9: ablations of design choices (not in the paper; they\n"
              "justify this implementation's defaults).\n\n");
  AblateFragmentation();
  AblateJoinOrder();
  return 0;
}
