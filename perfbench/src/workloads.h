// The benchmark's workloads: which program runs over which generated
// input, and how the serving leg queries and updates it. Every input is
// a pure function of the run's --seed; the engine only ever sees the
// generated facts (README.md says why each workload exists).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "datalog/symbol_table.h"
#include "storage/database.h"

namespace perfbench {

// Stream ids for DeriveSeed: one independent random stream per use.
enum SeedStream : uint64_t {
  kInputStream = 1,
  kUpdateStream = 2,
  kQueryStream = 3,
};

// SplitMix64 (Steele et al.): the harness's own generator, so inputs
// do not change when the engine's utilities do.
struct Rng {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
};

uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

struct Workload {
  enum class Input { kUniformGraph, kZipfGraph, kPointsToIr };

  std::string name;
  std::string program;  // built-in program name (workload/programs.h)
  // Linear sirups run Example 3 (par) and Example 1 (par4_nocomm);
  // other programs run the Section 7 general scheme.
  bool linear = true;

  Input input = Input::kUniformGraph;
  int nodes = 0;  // graph vertices / IR variables
  int edges = 0;  // graph edges / IR allocation sites (objects)
  double zipf_exponent = 0;

  // Serving leg: point queries `<query_predicate>(<key>, X)` with keys
  // drawn uniformly from the first `nodes` constants, and update bursts
  // of `burst_facts` facts `<update_predicate>(u<k>, key)` that hang a
  // fresh constant u<k> above a random key (a new parent, a new variable
  // copying an existing one). Each grows the fixpoint by about the key's
  // descendants (points-to set); edges between existing constants of a
  // sparse graph could instead multiply it, and edges below a hot node
  // of the Zipf graph would add its thousands of ancestors.
  std::string query_predicate;
  std::string key_prefix;
  std::string update_predicate;
  // Offered load, frozen from measurements (README.md, "Offered
  // load"): the fixed rate of query_p50_ms is a quarter of the capacity
  // the rate ladder measured (server.sustained_qps), so the metric is
  // service time rather than queueing; a burst (one every
  // kBurstIntervalS) is the most facts that grow an engine's served
  // relation by at most 1% over its slice (server.derived_per_fact),
  // since every point query scans that relation.
  double fixed_qps = 0;
  int burst_facts = 0;

  // Derived predicates whose fixpoints are checked.
  std::vector<std::string> derived;

  // Generates the base facts for `seed` into `db`.
  void Generate(pdatalog::SymbolTable* symbols, pdatalog::Database* db,
                uint64_t seed) const;

  std::string KeyName(uint64_t key) const {
    return key_prefix + std::to_string(key);
  }
  std::string QueryText(uint64_t key) const {
    return query_predicate + "(" + KeyName(key) + ", X)";
  }
  // Update fact number `k` (program text), its key drawn from `rng`.
  std::string UpdateFact(Rng* rng, size_t k) const;
};

const std::vector<std::string>& WorkloadNames();

// The workload named `name` at full size, or shrunk for smoke tests.
std::optional<Workload> FindWorkload(const std::string& name, bool smoke);

// Renders every relation of `db` as program facts ("p(a, b).\n"),
// relations in name order, rows in insertion order.
std::string RenderFacts(const pdatalog::Database& db,
                        const pdatalog::SymbolTable& symbols);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
