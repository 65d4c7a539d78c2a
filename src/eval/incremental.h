// Incremental maintenance of Datalog fixpoints under monotone updates.
//
// Positive Datalog is monotone: adding base facts can only add derived
// tuples, so a materialized fixpoint resumes with the new facts as
// deltas instead of recomputing from scratch. This generalizes the
// semi-naive delta machinery to track *every* predicate (base ones
// included): after AddFact(s), Evaluate() runs delta variants for each
// body occurrence — including base occurrences — and reaches the same
// fixpoint a batch evaluation over the union would.
#ifndef PDATALOG_EVAL_INCREMENTAL_H_
#define PDATALOG_EVAL_INCREMENTAL_H_

#include <optional>

#include "eval/round.h"

namespace pdatalog {

class IncrementalEvaluator {
 public:
  // `program`/`info` must outlive the evaluator. The database starts
  // empty; load facts with AddFact and call Evaluate. `options.trace`
  // records the same init/probe spans and round instants as
  // SemiNaiveEvaluate, on the thread that calls Evaluate;
  // `options.stratified` is ignored (maintenance runs the whole program).
  static StatusOr<IncrementalEvaluator> Create(const Program& program,
                                               const ProgramInfo& info,
                                               const EvalOptions& options = {});

  // Inserts one base tuple (deduplicated). Returns true if new.
  // It is an error to add facts for derived predicates.
  StatusOr<bool> AddFact(Symbol predicate, const Tuple& tuple);

  // Runs semi-naive rounds until the fixpoint incorporates everything
  // added since the last Evaluate(). Cumulative stats are kept in
  // stats(); the call returns the stats of this round batch only.
  StatusOr<EvalStats> Evaluate();

  const Database& db() const { return db_; }
  const Relation* Find(Symbol predicate) const { return db_.Find(predicate); }
  const EvalStats& stats() const { return stats_; }

 private:
  IncrementalEvaluator(const Program* program, const ProgramInfo* info,
                       TraceRing* trace)
      : program_(program), info_(info), trace_(trace) {}

  const Program* program_;
  const ProgramInfo* info_;
  TraceRing* trace_;
  Database db_;
  // Every predicate, base and derived, is tracked. Set by Create().
  std::optional<SemiNaiveRound> round_;
  EvalStats stats_;
  bool first_run_ = true;
};

}  // namespace pdatalog

#endif  // PDATALOG_EVAL_INCREMENTAL_H_
