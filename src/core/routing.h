// Precompiled tuple routing: the sending rules' per-tuple hot path.
//
// The rewriters express sending rules as `SendSpec`s. Matching a freshly
// derived tuple against them naively means re-scanning the whole spec
// list, re-deriving variable positions, and linear-searching a
// destination list for dedup — per tuple. `TupleRouter` compiles the
// specs once: grouped by predicate, with the pattern reduced to plain
// (column, constant) and (column, column) checks and the discriminating
// sequence to a flat column list, and destination dedup done with a
// round-stamped array instead of a scan.
#ifndef PDATALOG_CORE_ROUTING_H_
#define PDATALOG_CORE_ROUTING_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/discriminating.h"
#include "core/rewrite.h"
#include "storage/tuple.h"

namespace pdatalog {

class TupleRouter {
 public:
  TupleRouter() = default;

  // Compiles `specs` (one processor's sending rules). `registry` — the
  // bundle's, whose functions also check the join constraints — must
  // outlive the router.
  TupleRouter(const std::vector<SendSpec>& specs, int num_processors,
              const DiscriminatingRegistry* registry);

  // Appends the destination processors of `tuple` (predicate `pred`) to
  // `dests` — deduplicated, in first-computed order, matching the
  // sending-rule semantics of Section 3. Returns the number of
  // undetermined (broadcast) specs that matched, for stats. Not
  // thread-safe; each worker owns its router.
  int Route(Symbol pred, const Tuple& tuple, std::vector<int>* dests) {
    return Route(pred, tuple.data(), dests);
  }
  // Same, from a raw value sequence (the worker's send path routes rows
  // gathered out of the column store; no Tuple is built).
  int Route(Symbol pred, const Value* values, std::vector<int>* dests);

  // Routes `count` row-major rows in one call: one predicate lookup,
  // per-row stamped dedup. Destinations append to `dests`;
  // `offsets` receives count + 1 entries where row r's destinations are
  // dests[offsets[r] .. offsets[r+1]). Returns the total number of
  // undetermined (broadcast) spec matches across the batch.
  int RouteBatch(Symbol pred, const Value* rows, int arity, uint32_t count,
                 std::vector<int>* dests, std::vector<uint32_t>* offsets);

  // Total routes compiled (for tests).
  size_t num_routes() const { return num_routes_; }

 private:
  struct ConstCheck {
    int column;
    Value value;
  };
  struct EqCheck {
    int column;
    int earlier_column;  // must hold an equal value
  };
  struct SendRoute {
    std::vector<ConstCheck> const_checks;
    std::vector<EqCheck> eq_checks;
    bool determined = false;
    int function = -1;
    std::vector<int> var_columns;  // pattern columns of v(r), in order
  };

  bool Matches(const SendRoute& route, const Value* values) const;
  // Routes one row against the (non-null) route list, deduplicating
  // destinations with a fresh stamp. Returns broadcast-spec matches.
  int RouteRow(const std::vector<SendRoute>& routes, const Value* values,
               std::vector<int>* dests);

  int num_processors_ = 0;
  const DiscriminatingRegistry* registry_ = nullptr;
  std::unordered_map<Symbol, std::vector<SendRoute>> routes_by_pred_;
  size_t num_routes_ = 0;

  // Consecutive tuples of one round share a predicate almost always;
  // memoizing the last lookup keeps the hot loop off the hash map.
  // (A null cached_routes_ with a valid cached_pred_ caches a miss.)
  Symbol cached_pred_ = kInvalidSymbol;
  const std::vector<SendRoute>* cached_routes_ = nullptr;

  // Round-stamped destination dedup: dest_stamp_[d] == stamp_ marks d
  // as already emitted for the current tuple.
  std::vector<uint64_t> dest_stamp_;
  uint64_t stamp_ = 0;
  std::vector<Value> vals_;  // discriminating values scratch
};

}  // namespace pdatalog

#endif  // PDATALOG_CORE_ROUTING_H_
