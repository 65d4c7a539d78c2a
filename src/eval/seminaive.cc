#include "eval/seminaive.h"

#include <algorithm>

#include "eval/round.h"
#include "obs/trace.h"

namespace pdatalog {

StatusOr<CompiledProgram> CompiledProgram::Compile(const Program& program,
                                                   const ProgramInfo& info,
                                                   const EvalOptions& options) {
  CompiledProgram out;
  for (const Rule& rule : program.rules) {
    RuleVariants variants{CompiledRule{}, {}};
    StatusOr<CompiledRule> full =
        CompiledRule::Compile(rule, -1, options.greedy_join_order);
    if (!full.ok()) return full.status();
    variants.full = std::move(*full);

    for (size_t i = 0; i < rule.body.size(); ++i) {
      if (!info.IsDerived(rule.body[i].predicate)) continue;
      StatusOr<CompiledRule> delta = CompiledRule::Compile(
          rule, static_cast<int>(i), options.greedy_join_order);
      if (!delta.ok()) return delta.status();
      variants.deltas.emplace_back(static_cast<int>(i), std::move(*delta));
    }

    for (const auto& req : variants.full.required_indexes()) {
      out.required_indexes_.push_back(req);
    }
    for (const auto& [_, compiled] : variants.deltas) {
      for (const auto& req : compiled.required_indexes()) {
        out.required_indexes_.push_back(req);
      }
    }
    out.rules_.push_back(std::move(variants));
  }
  std::sort(out.required_indexes_.begin(), out.required_indexes_.end());
  out.required_indexes_.erase(
      std::unique(out.required_indexes_.begin(), out.required_indexes_.end()),
      out.required_indexes_.end());
  return out;
}

Status SemiNaiveEvaluate(const Program& program, const ProgramInfo& info,
                         Database* db, EvalStats* stats,
                         const ConstraintEvaluator* constraint_eval,
                         const EvalOptions& options) {
  // Materialize every predicate's relation (base ones may be absent from
  // db if no facts were loaded; derived ones start empty).
  for (Symbol p : info.predicates) {
    db->GetOrCreate(p, info.arity.at(p));
  }

  StatusOr<CompiledProgram> compiled =
      CompiledProgram::Compile(program, info, options);
  if (!compiled.ok()) return compiled.status();
  SemiNaiveRound round = SemiNaiveRound::OverDatabase(
      std::move(*compiled), db,
      std::vector<Symbol>(info.derived.begin(), info.derived.end()),
      constraint_eval);

  // Round 0: rules without derived body atoms (exit rules) fire once.
  {
    TraceScope init(options.trace, TracePhase::kInit);
    round.FireExitRules(stats);
  }
  ++stats->rounds;

  while (round.HasDelta()) {
    if (options.trace != nullptr) {
      options.trace->Instant(TracePhase::kRound,
                             static_cast<uint32_t>(stats->rounds));
    }
    TraceScope probe(options.trace, TracePhase::kProbe,
                     static_cast<uint32_t>(stats->rounds));
    round.RunRound(stats);
    ++stats->rounds;
  }
  return Status::Ok();
}

}  // namespace pdatalog
