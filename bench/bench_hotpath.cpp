// Hot-path before/after: the seed's evaluation substrate (node-based
// hash index keyed by materialized `Tuple`s, std::function join sink
// with a fresh binding vector per call, unordered_set tuple dedup,
// per-tuple sending-rule scan with std::find destination dedup) is
// reproduced here verbatim as the "legacy" implementation and raced
// against the production flat path on identical plans and data.
//
// Both sides run single-threaded, so the comparison is pure substrate
// throughput on any host: same semi-naive schedule, same join orders,
// same fixpoints (asserted), different storage/dispatch machinery.
// Emits BENCH_hotpath.json; exits nonzero if any fixpoint diverges.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "bench_json.h"
#include "bench_util.h"
#include "core/routing.h"

namespace pdatalog {
namespace {

// ---------------------------------------------------------------------
// Legacy substrate (the seed implementation, frozen for comparison).

class LegacyColumnIndex {
 public:
  LegacyColumnIndex(uint32_t mask, int arity) : mask_(mask) {
    for (int c = 0; c < arity; ++c) {
      if (mask & (1u << c)) key_columns_.push_back(c);
    }
  }

  Tuple MakeKey(const Tuple& row) const {
    Value buf[32];
    int n = 0;
    for (int c : key_columns_) buf[n++] = row[c];
    return Tuple(buf, n);
  }

  void Add(const Tuple& row, uint32_t row_id) {
    map_[MakeKey(row)].push_back(row_id);
  }

  const std::vector<uint32_t>* Lookup(const Tuple& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? nullptr : &it->second;
  }

  size_t built_upto = 0;

 private:
  uint32_t mask_;
  std::vector<int> key_columns_;
  std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash> map_;
};

class LegacyRelation {
 public:
  explicit LegacyRelation(int arity) : arity_(arity) {}

  bool Insert(const Tuple& t) {
    if (!dedup_.insert(t).second) return false;
    rows_.push_back(t);
    return true;
  }

  size_t size() const { return rows_.size(); }
  const Tuple& row(size_t i) const { return rows_[i]; }

  const LegacyColumnIndex& EnsureIndex(uint32_t mask) {
    auto [it, inserted] = indexes_.try_emplace(mask, mask, arity_);
    LegacyColumnIndex& index = it->second;
    for (size_t r = index.built_upto; r < rows_.size(); ++r) {
      index.Add(rows_[r], static_cast<uint32_t>(r));
    }
    index.built_upto = rows_.size();
    return index;
  }

  const LegacyColumnIndex* GetIndex(uint32_t mask) const {
    auto it = indexes_.find(mask);
    return it == indexes_.end() ? nullptr : &it->second;
  }

 private:
  int arity_;
  std::vector<Tuple> rows_;
  std::unordered_set<Tuple, TupleHash> dedup_;
  std::unordered_map<uint32_t, LegacyColumnIndex> indexes_;
};

struct LegacyInput {
  const LegacyRelation* relation = nullptr;
  size_t begin = 0;
  size_t end = 0;
};

// The seed's recursive join runner: type-erased sink, binding vector
// allocated per Execute, key Tuple materialized per probe, row ranges
// filtered with lower_bound on the per-key id vector.
class LegacyRunner {
 public:
  LegacyRunner(const CompiledRule& compiled,
               const std::vector<LegacyInput>& inputs,
               const std::function<void(const Tuple&)>& sink)
      : compiled_(compiled),
        inputs_(inputs),
        sink_(sink),
        bindings_(compiled.num_vars()) {}

  void Run() { Step(0); }

 private:
  void Step(size_t step_no) {
    if (step_no == compiled_.steps().size()) {
      Fire();
      return;
    }
    const PlanStep& step = compiled_.steps()[step_no];
    const LegacyInput& input = inputs_[step.body_index];

    if (step.index_mask != 0) {
      Value key_buf[32];
      int kn = 0;
      for (size_t c = 0; c < step.positions.size(); ++c) {
        if (!(step.index_mask & (1u << c))) continue;
        const PlanPos& pos = step.positions[c];
        key_buf[kn++] = pos.kind == PlanPos::Kind::kConst
                            ? pos.value
                            : bindings_[pos.var];
      }
      const LegacyColumnIndex* index = input.relation->GetIndex(step.index_mask);
      const std::vector<uint32_t>* ids = index->Lookup(Tuple(key_buf, kn));
      if (ids != nullptr) {
        auto it = std::lower_bound(ids->begin(), ids->end(),
                                   static_cast<uint32_t>(input.begin));
        for (; it != ids->end() && *it < input.end; ++it) {
          TryRow(step_no, step, input.relation->row(*it));
        }
      }
    } else {
      for (size_t i = input.begin; i < input.end; ++i) {
        TryRow(step_no, step, input.relation->row(i));
      }
    }
  }

  void TryRow(size_t step_no, const PlanStep& step, const Tuple& row) {
    for (size_t c = 0; c < step.positions.size(); ++c) {
      const PlanPos& pos = step.positions[c];
      switch (pos.kind) {
        case PlanPos::Kind::kConst:
          if (!(step.index_mask & (1u << c)) && row[c] != pos.value) return;
          break;
        case PlanPos::Kind::kBound:
          if (!(step.index_mask & (1u << c)) && row[c] != bindings_[pos.var])
            return;
          break;
        case PlanPos::Kind::kFree:
          bindings_[static_cast<size_t>(pos.var)] = row[c];
          break;
      }
    }
    Step(step_no + 1);
  }

  void Fire() {
    const auto& recipe = compiled_.head_recipe();
    Value buf[32];
    for (size_t c = 0; c < recipe.size(); ++c) {
      buf[c] = recipe[c].kind == PlanPos::Kind::kConst
                   ? recipe[c].value
                   : bindings_[recipe[c].var];
    }
    sink_(Tuple(buf, static_cast<int>(recipe.size())));
  }

  const CompiledRule& compiled_;
  const std::vector<LegacyInput>& inputs_;
  const std::function<void(const Tuple&)>& sink_;
  std::vector<Value> bindings_;
};

void LegacyExecute(const CompiledRule& compiled,
                   const std::vector<LegacyInput>& inputs,
                   const std::function<void(const Tuple&)>& sink) {
  LegacyRunner runner(compiled, inputs, sink);
  runner.Run();
}

// The seed's SendTuple body: re-match the pattern against each spec
// per tuple, std::find-deduplicate the destination list.
int LegacyRoute(const std::vector<SendSpec>& specs,
                const DiscriminatingRegistry& registry, int num_processors,
                const Tuple& tuple, std::vector<int>* dests) {
  int broadcasts = 0;
  for (const SendSpec& spec : specs) {
    bool match = true;
    const Atom& pat = spec.pattern;
    for (int c = 0; c < pat.arity() && match; ++c) {
      const Term& term = pat.args[c];
      if (term.is_const()) {
        if (tuple[c] != term.sym) match = false;
        continue;
      }
      for (int c2 = 0; c2 < c; ++c2) {
        if (pat.args[c2].is_var() && pat.args[c2].sym == term.sym &&
            tuple[c] != tuple[c2]) {
          match = false;
          break;
        }
      }
    }
    if (!match) continue;
    if (spec.determined) {
      Value vals[32];
      for (size_t k = 0; k < spec.var_positions.size(); ++k) {
        vals[k] = tuple[spec.var_positions[k]];
      }
      int dest = registry.Evaluate(spec.function, vals,
                                   static_cast<int>(spec.var_positions.size()));
      if (std::find(dests->begin(), dests->end(), dest) == dests->end()) {
        dests->push_back(dest);
      }
    } else {
      ++broadcasts;
      for (int j = 0; j < num_processors; ++j) {
        if (std::find(dests->begin(), dests->end(), j) == dests->end()) {
          dests->push_back(j);
        }
      }
    }
  }
  return broadcasts;
}

// ---------------------------------------------------------------------
// Workloads: one linear sirup evaluated to fixpoint on both substrates
// with the identical semi-naive schedule.

struct SirupWorkload {
  std::string name;
  CompiledRule init;    // head :- base (copies the base relation)
  CompiledRule delta;   // recursive rule, delta atom joined first
  int recursive_body_index = 1;  // position of the recursive atom
  std::vector<Tuple> base_rows;
  int base_arity = 2;
  int head_arity = 2;
};

struct RunResult {
  size_t fixpoint_size = 0;
  int rounds = 0;
  double seconds = 0;
  uint64_t batch_probes = 0;  // batch-kernel invocations (flat runs only)
};

RunResult RunLegacy(const SirupWorkload& w) {
  Stopwatch timer;
  LegacyRelation base(w.base_arity), head(w.head_arity);
  for (const Tuple& t : w.base_rows) base.Insert(t);

  LegacyInput base_full{&base, 0, base.size()};
  LegacyExecute(w.init, {base_full}, [&](const Tuple& t) { head.Insert(t); });

  for (const auto& [pred, mask] : w.delta.required_indexes()) {
    (void)pred;
    base.EnsureIndex(mask);
  }

  RunResult r;
  size_t old_end = 0;
  while (old_end < head.size()) {
    size_t frontier = head.size();
    std::vector<LegacyInput> inputs(2);
    inputs[1 - w.recursive_body_index] = base_full;
    inputs[w.recursive_body_index] = LegacyInput{&head, old_end, frontier};
    LegacyExecute(w.delta, inputs, [&](const Tuple& t) { head.Insert(t); });
    old_end = frontier;
    ++r.rounds;
  }
  r.fixpoint_size = head.size();
  r.seconds = timer.ElapsedSeconds();
  return r;
}

RunResult RunFlat(const SirupWorkload& w) {
  Stopwatch timer;
  Relation base(w.base_arity), head(w.head_arity);
  for (const Tuple& t : w.base_rows) base.Insert(t);

  JoinScratch scratch;
  ExecStats stats;
  BatchInserter inserter(&head);
  auto sink = [&inserter](const Value* values, int n) {
    inserter.Push(values, n);
  };
  std::vector<AtomInput> init_inputs = {{&base, 0, base.size()}};
  JoinExecutor::Execute(w.init, init_inputs, nullptr, sink, &stats, &scratch);
  inserter.Flush();

  for (const auto& [pred, mask] : w.delta.required_indexes()) {
    (void)pred;
    base.EnsureIndex(mask);
  }

  RunResult r;
  size_t old_end = 0;
  while (old_end < head.size()) {
    size_t frontier = head.size();
    std::vector<AtomInput> inputs(2);
    inputs[1 - w.recursive_body_index] = AtomInput{&base, 0, base.size()};
    inputs[w.recursive_body_index] = AtomInput{&head, old_end, frontier};
    JoinExecutor::Execute(w.delta, inputs, nullptr, sink, &stats, &scratch);
    inserter.Flush();
    old_end = frontier;
    ++r.rounds;
  }
  r.fixpoint_size = head.size();
  r.batch_probes = stats.batch_probes;
  r.seconds = timer.ElapsedSeconds();
  return r;
}

CompiledRule CompileOrDie(const Program& program, int rule_index,
                          int preferred_first) {
  StatusOr<CompiledRule> compiled =
      CompiledRule::Compile(program.rules[rule_index], preferred_first);
  if (!compiled.ok()) bench::AncestorHarness::Die("compile", compiled.status());
  return std::move(*compiled);
}

// anc(X, Y) :- par(X, Y).  anc(X, Y) :- par(X, Z), anc(Z, Y).
SirupWorkload AncestorWorkload(SymbolTable* symbols) {
  StatusOr<Program> program =
      ParseProgram(bench::kAncestorSource, symbols);
  if (!program.ok()) bench::AncestorHarness::Die("parse", program.status());

  Database db;
  GenRandomGraph(symbols, &db, "par", 600, 1500, /*seed=*/17);
  GenChain(symbols, &db, "par", 400);
  const Relation* par = db.Find(symbols->Intern("par"));

  SirupWorkload w;
  w.name = "ancestor";
  w.init = CompileOrDie(*program, 0, -1);
  // Delta on the recursive atom (body index 1), matching the
  // semi-naive evaluator's variant.
  w.delta = CompileOrDie(*program, 1, /*preferred_first=*/1);
  w.recursive_body_index = 1;
  for (size_t r = 0; r < par->size(); ++r) w.base_rows.push_back(par->row(r));
  return w;
}

}  // namespace
}  // namespace pdatalog

int main() {
  using namespace pdatalog;

  std::printf(
      "hot-path substrate comparison: seed (node-hash indexes, erased\n"
      "sinks, tuple-set dedup, per-tuple send scans) vs flat (open\n"
      "addressing, template sinks, view dedup, precompiled routes).\n\n");

  bench::BenchJson json("hotpath");
  bool all_match = true;
  double min_speedup = 1e9;
  uint64_t total_batch_probes = 0;

  SymbolTable symbols;
  std::vector<SirupWorkload> workloads;
  workloads.push_back(AncestorWorkload(&symbols));

  // Points-to: pt(V, O) :- new(V, O).  pt(V, O) :- assign(V, W), pt(W, O).
  // Two base relations, so it runs through its own driver: new() seeds
  // the head directly and the recursive rule joins against assign().
  {
    SymbolTable pt_symbols;
    StatusOr<Program> program = ParseProgram(
        "pt(V, O) :- new(V, O).\n"
        "pt(V, O) :- assign(V, W), pt(W, O).\n",
        &pt_symbols);
    if (!program.ok()) bench::AncestorHarness::Die("parse", program.status());

    Database db;
    // Assignment graph: scale-free-ish hubs to stress skewed keys.
    GenRandomGraph(&pt_symbols, &db, "assign", 2500, 7000, /*seed=*/23);
    GenTree(&pt_symbols, &db, "assign", 2, 10);
    const Relation* assign = db.Find(pt_symbols.Intern("assign"));

    SirupWorkload w;
    w.name = "points_to";
    w.init = CompileOrDie(*program, 0, -1);
    w.delta = CompileOrDie(*program, 1, /*preferred_first=*/1);
    w.recursive_body_index = 1;
    // new(V, O): every 7th program variable allocates one object (the
    // variable ids are the generators' interned node symbols).
    std::vector<Value> vars;
    {
      std::unordered_set<Value> seen;
      for (size_t i = 0; i < assign->size(); ++i) {
        for (Value v : assign->row(i)) {
          if (seen.insert(v).second) vars.push_back(v);
        }
      }
      std::sort(vars.begin(), vars.end());
    }
    std::vector<Tuple> news;
    for (size_t i = 0; i < vars.size(); i += 7) {
      news.push_back(Tuple{vars[i], static_cast<Value>(1000000 + i)});
    }
    auto run_pair = [&](bool flat) {
      Stopwatch timer;
      RunResult r;
      if (flat) {
        Relation assign_rel(2), pt(2);
        for (size_t i = 0; i < assign->size(); ++i)
          assign_rel.Insert(assign->row(i));
        JoinScratch scratch;
        ExecStats stats;
        BatchInserter inserter(&pt);
        auto sink = [&inserter](const Value* values, int n) {
          inserter.Push(values, n);
        };
        for (const Tuple& t : news) pt.Insert(t);
        for (const auto& [pred, mask] : w.delta.required_indexes()) {
          (void)pred;
          assign_rel.EnsureIndex(mask);
        }
        size_t old_end = 0;
        while (old_end < pt.size()) {
          size_t frontier = pt.size();
          std::vector<AtomInput> inputs = {
              {&assign_rel, 0, assign_rel.size()}, {&pt, old_end, frontier}};
          JoinExecutor::Execute(w.delta, inputs, nullptr, sink, &stats,
                                &scratch);
          inserter.Flush();
          old_end = frontier;
          ++r.rounds;
        }
        r.fixpoint_size = pt.size();
        r.batch_probes = stats.batch_probes;
      } else {
        LegacyRelation assign_rel(2), pt(2);
        for (size_t i = 0; i < assign->size(); ++i)
          assign_rel.Insert(assign->row(i));
        for (const Tuple& t : news) pt.Insert(t);
        for (const auto& [pred, mask] : w.delta.required_indexes()) {
          (void)pred;
          assign_rel.EnsureIndex(mask);
        }
        size_t old_end = 0;
        while (old_end < pt.size()) {
          size_t frontier = pt.size();
          std::vector<LegacyInput> inputs = {
              {&assign_rel, 0, assign_rel.size()}, {&pt, old_end, frontier}};
          LegacyExecute(w.delta, inputs,
                        [&](const Tuple& t) { pt.Insert(t); });
          old_end = frontier;
          ++r.rounds;
        }
        r.fixpoint_size = pt.size();
      }
      r.seconds = timer.ElapsedSeconds();
      return r;
    };

    constexpr int kReps = 3;
    RunResult legacy, flat;
    for (int rep = 0; rep < kReps; ++rep) {
      RunResult l = run_pair(false), f = run_pair(true);
      if (rep == 0 || l.seconds < legacy.seconds) legacy = l;
      if (rep == 0 || f.seconds < flat.seconds) flat = f;
    }
    bool match = legacy.fixpoint_size == flat.fixpoint_size &&
                 legacy.rounds == flat.rounds;
    all_match = all_match && match;
    double speedup = flat.seconds > 0 ? legacy.seconds / flat.seconds : 0;
    min_speedup = std::min(min_speedup, speedup);
    total_batch_probes += flat.batch_probes;
    std::printf(
        "points_to: fixpoint=%zu rounds=%d  legacy %.3fs  flat %.3fs  "
        "speedup %.2fx  fixpoints %s\n",
        flat.fixpoint_size, flat.rounds, legacy.seconds, flat.seconds,
        speedup, match ? "match" : "DIVERGE");
    json.NewRecord()
        .Set("workload", "points_to")
        .Set("impl", "legacy")
        .Set("seconds", legacy.seconds)
        .Set("fixpoint", static_cast<uint64_t>(legacy.fixpoint_size))
        .Set("rounds", legacy.rounds);
    json.NewRecord()
        .Set("workload", "points_to")
        .Set("impl", "flat")
        .Set("seconds", flat.seconds)
        .Set("fixpoint", static_cast<uint64_t>(flat.fixpoint_size))
        .Set("rounds", flat.rounds);
    json.NewRecord()
        .Set("workload", "points_to")
        .Set("speedup", speedup)
        .Set("fixpoints_match", match);
  }

  for (SirupWorkload& w : workloads) {
    constexpr int kReps = 3;
    RunResult legacy, flat;
    for (int rep = 0; rep < kReps; ++rep) {
      RunResult l = RunLegacy(w), f = RunFlat(w);
      if (rep == 0 || l.seconds < legacy.seconds) legacy = l;
      if (rep == 0 || f.seconds < flat.seconds) flat = f;
    }
    bool match = legacy.fixpoint_size == flat.fixpoint_size &&
                 legacy.rounds == flat.rounds;
    all_match = all_match && match;
    double speedup = flat.seconds > 0 ? legacy.seconds / flat.seconds : 0;
    min_speedup = std::min(min_speedup, speedup);
    total_batch_probes += flat.batch_probes;
    std::printf(
        "%s: fixpoint=%zu rounds=%d  legacy %.3fs  flat %.3fs  "
        "speedup %.2fx  fixpoints %s\n",
        w.name.c_str(), flat.fixpoint_size, flat.rounds, legacy.seconds,
        flat.seconds, speedup, match ? "match" : "DIVERGE");
    json.NewRecord()
        .Set("workload", w.name)
        .Set("impl", "legacy")
        .Set("seconds", legacy.seconds)
        .Set("fixpoint", static_cast<uint64_t>(legacy.fixpoint_size))
        .Set("rounds", legacy.rounds);
    json.NewRecord()
        .Set("workload", w.name)
        .Set("impl", "flat")
        .Set("seconds", flat.seconds)
        .Set("fixpoint", static_cast<uint64_t>(flat.fixpoint_size))
        .Set("rounds", flat.rounds);
    json.NewRecord()
        .Set("workload", w.name)
        .Set("speedup", speedup)
        .Set("fixpoints_match", match);
  }

  // Routing throughput at P=4 over a replayed stream of derived
  // tuples, in two configurations: the ancestor Example 3 rewrite's own
  // sending rules (one determined spec — the minimum work any router
  // can do) and a multi-receiver mix (two determined specs with
  // different hashes plus an undetermined broadcast spec, the shape
  // Example 2 produces).
  {
    bench::AncestorHarness h;
    constexpr int P = 4;
    StatusOr<RewriteBundle> bundle =
        RewriteLinearSirup(h.program, h.info, h.sirup, P, h.Example3(P));
    if (!bundle.ok()) bench::AncestorHarness::Die("rewrite", bundle.status());
    DiscriminatingRegistry& registry = *bundle->registry;

    std::vector<SendSpec> mixed = bundle->sends[0];
    if (!mixed.empty()) {
      SendSpec second = mixed[0];
      second.function =
          registry.Register(DiscriminatingFunction::UniformHash(P, 0xfeed));
      mixed.push_back(second);
      SendSpec broadcast = mixed[0];
      broadcast.determined = false;
      broadcast.var_positions.clear();
      mixed.push_back(broadcast);
    }

    constexpr int kTuples = 2000000;
    std::vector<Tuple> stream;
    stream.reserve(kTuples);
    for (int i = 0; i < kTuples; ++i) {
      stream.push_back(Tuple{static_cast<Value>(i % 997),
                             static_cast<Value>(i % 1013)});
    }

    struct RoutingConfig {
      const char* name;
      const std::vector<SendSpec>* specs;
    };
    for (const RoutingConfig& config :
         {RoutingConfig{"routing_p4", &bundle->sends[0]},
          RoutingConfig{"routing_p4_mixed", &mixed}}) {
      const std::vector<SendSpec>& specs = *config.specs;
      Symbol pred = specs.empty() ? h.anc() : specs[0].predicate;

      std::vector<int> dests;
      uint64_t legacy_sink = 0, flat_sink = 0;
      Stopwatch legacy_timer;
      for (const Tuple& t : stream) {
        dests.clear();
        LegacyRoute(specs, registry, P, t, &dests);
        for (int d : dests) legacy_sink += static_cast<uint64_t>(d) + 1;
      }
      double legacy_s = legacy_timer.ElapsedSeconds();

      TupleRouter router(specs, P, &registry);
      Stopwatch flat_timer;
      for (const Tuple& t : stream) {
        dests.clear();
        router.Route(pred, t, &dests);
        for (int d : dests) flat_sink += static_cast<uint64_t>(d) + 1;
      }
      double flat_s = flat_timer.ElapsedSeconds();

      bool match = legacy_sink == flat_sink;
      all_match = all_match && match;
      double speedup = flat_s > 0 ? legacy_s / flat_s : 0;
      std::printf(
          "%s(P=%d, %d tuples, %zu specs): legacy %.3fs  flat %.3fs  "
          "speedup %.2fx  destinations %s\n",
          config.name, P, kTuples, specs.size(), legacy_s, flat_s, speedup,
          match ? "match" : "DIVERGE");
      json.NewRecord()
          .Set("workload", config.name)
          .Set("impl", "legacy")
          .Set("seconds", legacy_s)
          .Set("tuples", static_cast<uint64_t>(kTuples));
      json.NewRecord()
          .Set("workload", config.name)
          .Set("impl", "flat")
          .Set("seconds", flat_s)
          .Set("tuples", static_cast<uint64_t>(kTuples));
      json.NewRecord()
          .Set("workload", config.name)
          .Set("speedup", speedup)
          .Set("destinations_match", match);
    }
  }

  json.NewRecord()
      .Set("workload", "summary")
      .Set("min_join_speedup", min_speedup)
      .Set("target_speedup", 2.0)
      .Set("batch_kernel", total_batch_probes > 0)
      .Set("batch_probes", total_batch_probes)
      .Set("all_fixpoints_match", all_match);
  json.WriteFile();

  std::printf("\nmin join-path speedup: %.2fx (target 2.0x)\n", min_speedup);
  if (!all_match) {
    std::fprintf(stderr, "FAIL: fixpoints diverged between substrates\n");
    return 1;
  }
  return 0;
}
