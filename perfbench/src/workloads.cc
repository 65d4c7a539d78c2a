#include "workloads.h"

#include <algorithm>

#include "workload/generators.h"

namespace perfbench {

using pdatalog::Database;
using pdatalog::Relation;
using pdatalog::SymbolTable;
using pdatalog::Tuple;

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  Rng rng{seed * 0x100000001b3ULL + stream};
  rng.Next();
  return rng.Next();
}

namespace {

// Seed of every input's shape (see Workload::Generate).
constexpr uint64_t kShapeSeed = 0x5eed;

// A uniformly random permutation of 0..n-1 (Fisher-Yates).
std::vector<uint32_t> Permutation(int n, Rng* rng) {
  std::vector<uint32_t> perm(static_cast<size_t>(n));
  for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  for (size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng->Below(i)]);
  }
  return perm;
}

// Synthetic points-to input in the shape examples/points_to.cpp uses:
// every fourth variable allocates one of `objects` sites, 2·vars copy
// edges, and vars/2 loads and stores through pointer variables.
void GeneratePointsToIr(SymbolTable* symbols, Database* db, int vars,
                        int objects, uint64_t seed) {
  Rng rng{seed};
  auto var = [&](uint64_t i) {
    return symbols->Intern("v" + std::to_string(i));
  };
  auto any_var = [&] { return var(rng.Below(static_cast<uint64_t>(vars))); };
  Relation& alloc = db->GetOrCreate(symbols->Intern("new"), 2);
  Relation& assign = db->GetOrCreate(symbols->Intern("assign"), 2);
  Relation& load = db->GetOrCreate(symbols->Intern("load"), 2);
  Relation& store = db->GetOrCreate(symbols->Intern("store"), 2);
  for (int i = 0; i < vars; i += 4) {
    const uint64_t object = rng.Below(static_cast<uint64_t>(objects));
    alloc.Insert(Tuple{var(static_cast<uint64_t>(i)),
                       symbols->Intern("o" + std::to_string(object))});
  }
  for (int k = 0; k < vars * 2; ++k) {
    const pdatalog::Value to = any_var();
    assign.Insert(Tuple{to, any_var()});
  }
  for (int k = 0; k < vars / 2; ++k) {
    const pdatalog::Value to = any_var();
    load.Insert(Tuple{to, any_var()});
    const pdatalog::Value pointer = any_var();
    store.Insert(Tuple{pointer, any_var()});
  }
}

Workload ClosureUniform(bool smoke) {
  Workload w;
  w.name = "closure_uniform";
  w.program = "ancestor";
  w.linear = true;
  w.input = Workload::Input::kUniformGraph;
  w.nodes = smoke ? 300 : 600;
  w.edges = 2 * w.nodes;
  w.query_predicate = "anc";
  w.key_prefix = "n";
  w.update_predicate = "par";
  w.fixed_qps = 370;  // sustained_qps 1490/s
  w.burst_facts = 1;   // 375 derived per fact, 241k rows
  w.derived = {"anc"};
  return w;
}

Workload PointsToJoin(bool smoke) {
  Workload w;
  w.name = "pointsto_join";
  w.program = "points_to";
  w.linear = false;
  w.input = Workload::Input::kPointsToIr;
  w.nodes = smoke ? 200 : 640;
  w.edges = w.nodes / 10;
  w.query_predicate = "pt";
  w.key_prefix = "v";
  w.update_predicate = "assign";
  w.fixed_qps = 3000;  // sustained_qps 12000/s
  w.burst_facts = 1;    // 44 derived per fact, 40k rows
  w.derived = {"heap_pt", "pt"};
  return w;
}

Workload ServeMix(bool smoke) {
  Workload w;
  w.name = "serve_mix";
  w.program = "ancestor";
  w.linear = true;
  w.input = Workload::Input::kZipfGraph;
  w.nodes = smoke ? 1000 : 10000;
  w.edges = 2 * w.nodes;
  w.zipf_exponent = 1.2;
  w.query_predicate = "anc";
  w.key_prefix = "n";
  w.update_predicate = "par";
  w.fixed_qps = 330;  // sustained_qps 1317/s
  w.burst_facts = 12;  // 41 derived per fact, 397k rows
  w.derived = {"anc"};
  return w;
}

}  // namespace

void Workload::Generate(SymbolTable* symbols, Database* db,
                        uint64_t seed) const {
  // The shape comes from a fixed seed; the run's seed permutes every
  // constant's number (within its n/v/o family) and the insertion
  // order. Work counts are the same on every seed, while names,
  // interned ids (so hash placement and partitions), row order, query
  // keys and update facts differ.
  SymbolTable shape_symbols;
  Database shape;
  switch (input) {
    case Input::kUniformGraph:
      pdatalog::GenRandomGraph(&shape_symbols, &shape, "par", nodes, edges,
                               kShapeSeed);
      break;
    case Input::kZipfGraph:
      pdatalog::GenZipfGraph(&shape_symbols, &shape, "par", nodes, edges,
                             zipf_exponent, kShapeSeed);
      break;
    case Input::kPointsToIr:
      GeneratePointsToIr(&shape_symbols, &shape, nodes, edges, kShapeSeed);
      break;
  }
  Rng rng{DeriveSeed(seed, kInputStream)};
  // Constant families: graph nodes n<i>, IR variables v<i>, objects o<i>.
  const std::vector<uint32_t> key_perm = Permutation(nodes, &rng);
  const std::vector<uint32_t> object_perm =
      input == Input::kPointsToIr ? Permutation(edges, &rng)
                                  : std::vector<uint32_t>{};
  // Each family is interned in numeric order first, so a constant's id
  // follows its permuted number rather than the shape's order.
  const std::pair<const std::string, const std::vector<uint32_t>*>
      families[] = {{key_prefix, &key_perm}, {"o", &object_perm}};
  for (const auto& [prefix, perm] : families) {
    for (size_t i = 0; i < perm->size(); ++i) {
      symbols->Intern(prefix + std::to_string(i));
    }
  }
  std::vector<pdatalog::Value> renamed(shape_symbols.size(), 0);
  for (pdatalog::Value id = 0; id < shape_symbols.size(); ++id) {
    const std::string& name = shape_symbols.Name(id);
    const std::vector<uint32_t>& perm = name[0] == 'o' ? object_perm : key_perm;
    const size_t number = name.size() > 1 && name[1] >= '0' && name[1] <= '9'
                              ? std::stoul(name.substr(1))
                              : perm.size();
    renamed[id] = symbols->Intern(
        number < perm.size() ? name.substr(0, 1) + std::to_string(perm[number])
                             : name);
  }
  std::vector<std::pair<std::string, const Relation*>> relations;
  for (const auto& [predicate, relation] : shape.relations()) {
    relations.emplace_back(shape_symbols.Name(predicate), relation.get());
  }
  std::sort(relations.begin(), relations.end());
  for (const auto& [name, relation] : relations) {
    // Every input relation is binary (graph edges, IR statements).
    Relation& out = db->GetOrCreate(symbols->Intern(name), relation->arity());
    const std::vector<uint32_t> order =
        Permutation(static_cast<int>(relation->size()), &rng);
    for (uint32_t row : order) {
      pdatalog::Value values[2];
      for (int c = 0; c < 2; ++c) values[c] = renamed[relation->cell(row, c)];
      out.InsertView(values, 2);
    }
  }
}

std::string Workload::UpdateFact(Rng* rng, size_t k) const {
  return update_predicate + "(u" + std::to_string(k) + ", " +
         KeyName(rng->Below(static_cast<uint64_t>(nodes))) + ").";
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "closure_uniform", "pointsto_join", "serve_mix"};
  return kNames;
}

std::optional<Workload> FindWorkload(const std::string& name, bool smoke) {
  if (name == "closure_uniform") return ClosureUniform(smoke);
  if (name == "pointsto_join") return PointsToJoin(smoke);
  if (name == "serve_mix") return ServeMix(smoke);
  return std::nullopt;
}

std::string RenderFacts(const Database& db, const SymbolTable& symbols) {
  std::vector<std::pair<std::string, const Relation*>> relations;
  for (const auto& [predicate, relation] : db.relations()) {
    relations.emplace_back(symbols.Name(predicate), relation.get());
  }
  std::sort(relations.begin(), relations.end());
  std::string out;
  for (const auto& [name, relation] : relations) {
    for (size_t r = 0; r < relation->size(); ++r) {
      out += name;
      out += '(';
      for (int c = 0; c < relation->arity(); ++c) {
        if (c > 0) out += ", ";
        out += symbols.Name(relation->cell(r, c));
      }
      out += ").\n";
    }
  }
  return out;
}

}  // namespace perfbench
