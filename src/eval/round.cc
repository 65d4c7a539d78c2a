#include "eval/round.h"

#include <algorithm>
#include <cassert>

namespace pdatalog {

SemiNaiveRound::SemiNaiveRound(
    CompiledProgram compiled,
    const std::vector<std::vector<Relation*>>& sources,
    const std::vector<Relation*>& heads, const std::vector<Relation*>& tracked,
    const ConstraintEvaluator* constraint_eval)
    : compiled_(std::make_unique<const CompiledProgram>(std::move(compiled))),
      constraint_eval_(constraint_eval) {
  for (Relation* rel : tracked) marks_.push_back(Watermark{rel});

  auto slot_of = [this](const Relation* rel) {
    for (size_t m = 0; m < marks_.size(); ++m) {
      if (marks_[m].relation == rel) return static_cast<int>(m);
    }
    return -1;
  };
  std::vector<Relation*> inserter_heads;
  auto add_variant = [&](std::vector<Variant>* out, size_t r,
                         const CompiledRule& rule, int delta_idx) {
    auto head =
        std::find(inserter_heads.begin(), inserter_heads.end(), heads[r]);
    if (head == inserter_heads.end()) {
      head = inserter_heads.insert(head, heads[r]);
      inserters_.emplace_back(heads[r]);
    }
    Variant& v = out->emplace_back(
        Variant{&rule, delta_idx,
                static_cast<int>(head - inserter_heads.begin()), {}, {}});
    for (Relation* src : sources[r]) {
      v.inputs.push_back(AtomInput{src, 0, 0});
      v.slots.push_back(slot_of(src));
    }
  };

  const auto& rules = compiled_->rules();
  for (size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].deltas.empty()) add_variant(&exits_, r, rules[r].full, -1);
    for (const auto& [delta_idx, delta_rule] : rules[r].deltas) {
      add_variant(&deltas_, r, delta_rule, delta_idx);
      assert(deltas_.back().slots[delta_idx] >= 0);
    }
    // Every source gets the indexes required_indexes() names for its
    // predicate.
    const std::vector<Atom>& body = rules[r].full.rule().body;
    for (size_t b = 0; b < body.size(); ++b) {
      for (const auto& [pred, mask] : compiled_->required_indexes()) {
        if (pred != body[b].predicate) continue;
        const int slot = slot_of(sources[r][b]);
        if (slot < 0) {
          sources[r][b]->EnsureIndex(mask);
        } else {
          tracked_indexes_.emplace_back(slot, mask);
        }
      }
    }
  }
  std::sort(tracked_indexes_.begin(), tracked_indexes_.end());
  tracked_indexes_.erase(
      std::unique(tracked_indexes_.begin(), tracked_indexes_.end()),
      tracked_indexes_.end());
}

SemiNaiveRound SemiNaiveRound::OverDatabase(
    CompiledProgram compiled, Database* db, const std::vector<Symbol>& tracked,
    const ConstraintEvaluator* constraint_eval) {
  std::vector<std::vector<Relation*>> sources;
  std::vector<Relation*> heads;
  for (const auto& variants : compiled.rules()) {
    const Rule& rule = variants.full.rule();
    heads.push_back(db->Find(rule.head.predicate));
    sources.emplace_back();
    for (const Atom& atom : rule.body) {
      sources.back().push_back(db->Find(atom.predicate));
    }
  }
  std::vector<Relation*> tracked_rels;
  for (Symbol p : tracked) tracked_rels.push_back(db->Find(p));
  return SemiNaiveRound(std::move(compiled), sources, heads, tracked_rels,
                        constraint_eval);
}

bool SemiNaiveRound::Refill(Variant& v) {
  bool empty_delta = false;
  for (size_t b = 0; b < v.inputs.size(); ++b) {
    AtomInput& in = v.inputs[b];
    if (v.slots[b] < 0) {
      in.begin = 0;
      in.end = in.relation->size();
      continue;
    }
    const Watermark& mark = marks_[v.slots[b]];
    const int i = static_cast<int>(b);
    if (i == v.delta_idx) {
      in.begin = mark.old_end;
      in.end = mark.cur_end;
      empty_delta = mark.old_end == mark.cur_end;
    } else if (i < v.delta_idx) {
      in.begin = 0;
      in.end = mark.old_end;
    } else {
      in.begin = 0;
      in.end = mark.cur_end;
    }
  }
  return !empty_delta;
}

void SemiNaiveRound::Fire(Variant& v, EvalStats* stats) {
  // Firings buffer in the head's BatchInserter and flush through
  // InsertBlock (tight hash loop + prefetched dedup probes). Flushing
  // after every Execute keeps each relation's size exact between
  // variants, as if every firing were inserted on the spot.
  BatchInserter& inserter = inserters_[v.inserter];
  ExecStats exec;
  uint64_t inserted = 0;
  JoinExecutor::Execute(
      *v.rule, v.inputs, constraint_eval_,
      [&](const Value* values, int n) { inserted += inserter.Push(values, n); },
      &exec, &scratch_);
  stats->tuples_inserted += inserted + inserter.Flush();
  stats->firings += exec.firings;
  stats->rows_examined += exec.rows_examined;
  stats->batch_probes += exec.batch_probes;
  stats->batch_fallbacks += exec.batch_fallbacks;
}

void SemiNaiveRound::FireExitRules(EvalStats* stats) {
  for (Variant& v : exits_) {
    Refill(v);
    Fire(v, stats);
  }
}

bool SemiNaiveRound::HasDelta() const {
  for (const Watermark& mark : marks_) {
    if (mark.relation->size() > mark.old_end) return true;
  }
  return false;
}

void SemiNaiveRound::RunRound(EvalStats* stats) {
  for (Watermark& mark : marks_) mark.cur_end = mark.relation->size();
  for (const auto& [slot, mask] : tracked_indexes_) {
    marks_[slot].relation->EnsureIndex(mask);
  }
  for (Variant& v : deltas_) {
    if (Refill(v)) Fire(v, stats);
  }
  for (Watermark& mark : marks_) mark.old_end = mark.cur_end;
}

}  // namespace pdatalog
