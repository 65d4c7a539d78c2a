#include "eval/incremental.h"

#include "obs/trace.h"

namespace pdatalog {

StatusOr<IncrementalEvaluator> IncrementalEvaluator::Create(
    const Program& program, const ProgramInfo& info,
    const EvalOptions& options) {
  // Compile with *every* predicate delta-tracked: base atoms get delta
  // variants too, so newly added facts drive rounds exactly like newly
  // derived tuples. The exit rules are then the empty-body rules.
  ProgramInfo all_delta = info;
  for (Symbol p : info.predicates) {
    all_delta.derived.insert(p);
  }
  all_delta.base.clear();
  StatusOr<CompiledProgram> compiled =
      CompiledProgram::Compile(program, all_delta, options);
  if (!compiled.ok()) return compiled.status();

  IncrementalEvaluator evaluator(&program, &info, options.trace);
  for (Symbol p : info.predicates) {
    evaluator.db_.GetOrCreate(p, info.arity.at(p));
  }
  evaluator.round_.emplace(SemiNaiveRound::OverDatabase(
      std::move(*compiled), &evaluator.db_, info.predicates, nullptr));
  return evaluator;
}

StatusOr<bool> IncrementalEvaluator::AddFact(Symbol predicate,
                                             const Tuple& tuple) {
  if (info_->IsDerived(predicate)) {
    return Status::InvalidArgument(
        "cannot add facts for derived predicate '" +
        program_->symbols->Name(predicate) + "'");
  }
  Relation* rel = db_.Find(predicate);
  if (rel == nullptr || rel->arity() != tuple.arity()) {
    return Status::InvalidArgument("unknown predicate or arity mismatch");
  }
  return rel->Insert(tuple);
}

StatusOr<EvalStats> IncrementalEvaluator::Evaluate() {
  EvalStats batch;
  // Rules with empty bodies (programmatically built fact-rules) fire
  // once, on the first Evaluate() only.
  if (first_run_) {
    first_run_ = false;
    TraceScope init(trace_, TracePhase::kInit);
    round_->FireExitRules(&batch);
  }

  // Anything appended since the last round (new facts or derived
  // tuples) is the next round's delta.
  while (round_->HasDelta()) {
    ++batch.rounds;
    const auto round_no = static_cast<uint32_t>(stats_.rounds + batch.rounds);
    if (trace_ != nullptr) trace_->Instant(TracePhase::kRound, round_no);
    TraceScope probe(trace_, TracePhase::kProbe, round_no);
    round_->RunRound(&batch);
  }

  stats_.rounds += batch.rounds;
  stats_.firings += batch.firings;
  stats_.tuples_inserted += batch.tuples_inserted;
  stats_.rows_examined += batch.rows_examined;
  stats_.batch_fallbacks += batch.batch_fallbacks;
  return batch;
}

}  // namespace pdatalog
