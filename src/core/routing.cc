#include "core/routing.h"

#include <algorithm>
#include <cassert>

namespace pdatalog {

TupleRouter::TupleRouter(const std::vector<SendSpec>& specs,
                         int num_processors,
                         const DiscriminatingRegistry* registry)
    : num_processors_(num_processors), registry_(registry) {
  size_t max_vars = 0;
  for (const SendSpec& spec : specs) {
    SendRoute route;
    const Atom& pat = spec.pattern;
    for (int c = 0; c < pat.arity(); ++c) {
      const Term& term = pat.args[c];
      if (term.is_const()) {
        route.const_checks.push_back(ConstCheck{c, term.sym});
        continue;
      }
      // A repeated variable constrains the tuple to equal values at the
      // first occurrence's column.
      for (int c2 = 0; c2 < c; ++c2) {
        if (pat.args[c2].is_var() && pat.args[c2].sym == term.sym) {
          route.eq_checks.push_back(EqCheck{c, c2});
          break;
        }
      }
    }
    route.determined = spec.determined;
    route.function = spec.function;
    route.var_columns = spec.var_positions;
    max_vars = std::max(max_vars, route.var_columns.size());
    routes_by_pred_[spec.predicate].push_back(std::move(route));
    ++num_routes_;
  }
  // Sized from the specs: discriminating sequences of any length are
  // routed without a fixed-size stack buffer.
  vals_.resize(max_vars);
  dest_stamp_.assign(static_cast<size_t>(num_processors), 0);
}

bool TupleRouter::Matches(const SendRoute& route, const Value* values) const {
  for (const ConstCheck& check : route.const_checks) {
    if (values[check.column] != check.value) return false;
  }
  for (const EqCheck& check : route.eq_checks) {
    if (values[check.column] != values[check.earlier_column]) return false;
  }
  return true;
}

int TupleRouter::RouteRow(const std::vector<SendRoute>& routes,
                          const Value* values, std::vector<int>* dests) {
  if (++stamp_ == 0) {  // wrapped: every stale stamp must be cleared
    dest_stamp_.assign(dest_stamp_.size(), 0);
    stamp_ = 1;
  }
  auto add_dest = [&](int d) {
    if (dest_stamp_[d] != stamp_) {
      dest_stamp_[d] = stamp_;
      dests->push_back(d);
    }
  };

  int broadcasts = 0;
  for (const SendRoute& route : routes) {
    if (!Matches(route, values)) continue;  // cannot fire anyone's rule
    if (route.determined) {
      for (size_t k = 0; k < route.var_columns.size(); ++k) {
        vals_[k] = values[route.var_columns[k]];
      }
      int dest = registry_->Evaluate(
          route.function, vals_.data(),
          static_cast<int>(route.var_columns.size()));
      assert(dest >= 0 && dest < num_processors_);
      add_dest(dest);
    } else {
      // Example 2: the sender cannot evaluate h(v(r)); broadcast.
      ++broadcasts;
      for (int j = 0; j < num_processors_; ++j) add_dest(j);
    }
  }
  return broadcasts;
}

int TupleRouter::Route(Symbol pred, const Value* values,
                       std::vector<int>* dests) {
  if (pred != cached_pred_) {
    auto it = routes_by_pred_.find(pred);
    cached_pred_ = pred;
    cached_routes_ = it == routes_by_pred_.end() ? nullptr : &it->second;
  }
  if (cached_routes_ == nullptr) return 0;
  return RouteRow(*cached_routes_, values, dests);
}

int TupleRouter::RouteBatch(Symbol pred, const Value* rows, int arity,
                            uint32_t count, std::vector<int>* dests,
                            std::vector<uint32_t>* offsets) {
  offsets->clear();
  // One predicate lookup for the whole batch (the memo still helps the
  // next batch of the same predicate).
  if (pred != cached_pred_) {
    auto it = routes_by_pred_.find(pred);
    cached_pred_ = pred;
    cached_routes_ = it == routes_by_pred_.end() ? nullptr : &it->second;
  }
  if (cached_routes_ == nullptr) {
    offsets->assign(count + 1, static_cast<uint32_t>(dests->size()));
    return 0;
  }
  int broadcasts = 0;
  const Value* row = rows;
  for (uint32_t r = 0; r < count; ++r, row += arity) {
    offsets->push_back(static_cast<uint32_t>(dests->size()));
    broadcasts += RouteRow(*cached_routes_, row, dests);
  }
  offsets->push_back(static_cast<uint32_t>(dests->size()));
  return broadcasts;
}

}  // namespace pdatalog
