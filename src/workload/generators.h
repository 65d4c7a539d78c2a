// Synthetic EDB generators for tests, examples and benches.
//
// All generators intern constants like "n17" into the given symbol
// table and insert tuples into a relation of the given database, so the
// data composes directly with parsed programs.
#ifndef PDATALOG_WORKLOAD_GENERATORS_H_
#define PDATALOG_WORKLOAD_GENERATORS_H_

#include <cstdint>
#include <string>

#include "datalog/symbol_table.h"
#include "storage/database.h"

namespace pdatalog {

// Binary-relation graph generators. Each returns the number of edges
// inserted into `db[predicate]` (arity 2).

// Path n0 -> n1 -> ... -> n_{length}. Worst case for parallel depth.
size_t GenChain(SymbolTable* symbols, Database* db,
                const std::string& predicate, int length);

// Complete `branching`-ary tree of the given depth, edges parent->child.
size_t GenTree(SymbolTable* symbols, Database* db,
               const std::string& predicate, int branching, int depth);

// Random digraph: `num_edges` distinct edges over `num_nodes` vertices
// (no self-loops). Deterministic in `seed`.
size_t GenRandomGraph(SymbolTable* symbols, Database* db,
                      const std::string& predicate, int num_nodes,
                      int num_edges, uint64_t seed);

// Directed cycle over n vertices: closure is the complete relation.
size_t GenCycle(SymbolTable* symbols, Database* db,
                const std::string& predicate, int n);

// 2-D grid, edges right and down. Many equal-length parallel paths.
size_t GenGrid(SymbolTable* symbols, Database* db,
               const std::string& predicate, int width, int height);

// Zipf-skewed digraph: `num_edges` distinct edges whose sources are
// uniform over the `num_nodes` vertices but whose targets follow a
// Zipf(exponent) rank distribution — node n0 is the hottest, n1 next,
// and so on. High in-degree concentrates recursive join work on the
// workers that own the hot join keys; this is the serving benchmarks'
// graph (perfbench's serve_mix, bench_serve) and the skewed input of the
// engine differential tests (larger exponent = sharper skew; ~1.0 is
// classic Zipf). Deterministic in `seed`.
size_t GenZipfGraph(SymbolTable* symbols, Database* db,
                    const std::string& predicate, int num_nodes,
                    int num_edges, double exponent, uint64_t seed);

// "flat" relation: arity-2 tuples (x, f(x)) pairing each of n children
// with one of `num_parents` parents at random. With GenFlat twice one
// gets classic same-generation inputs.
size_t GenFlat(SymbolTable* symbols, Database* db,
               const std::string& predicate, int n, int num_parents,
               uint64_t seed);

}  // namespace pdatalog

#endif  // PDATALOG_WORKLOAD_GENERATORS_H_
