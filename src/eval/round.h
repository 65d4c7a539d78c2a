// The semi-naive round kernel: SemiNaiveEvaluate, IncrementalEvaluator
// and the parallel Worker all run their rounds through this one loop.
// They differ only in where each body atom reads from, where each head
// writes to, and which relations are delta-tracked.
//
// Window policy, for the delta variant that joins tracked body
// occurrence `d` first:
//   occurrence d                  reads [old_end, cur_end)  (the delta)
//   earlier tracked occurrences   read  [0, old_end)
//   later tracked occurrences     read  [0, cur_end)
//   untracked occurrences         read  everything
// where old_end/cur_end are the tracked relation's watermarks, frozen
// when the round starts and advanced when it ends. Each ground
// substitution is thus produced in exactly one round by exactly one
// variant (Theorem 2's non-redundancy).
#ifndef PDATALOG_EVAL_ROUND_H_
#define PDATALOG_EVAL_ROUND_H_

#include <memory>
#include <vector>

#include "eval/seminaive.h"
#include "storage/database.h"

namespace pdatalog {

class SemiNaiveRound {
 public:
  // `sources[r][b]` feeds body atom b of compiled rule r and `heads[r]`
  // receives rule r's firings. `tracked` lists the relations that grow
  // between rounds; an atom is tracked iff its source is listed, which
  // must coincide with the atoms `compiled` built delta variants for.
  // The kernel builds the indexes `compiled.required_indexes()` names
  // for each source's predicate: on untracked sources here, once (they
  // must not grow afterwards), and on tracked relations at the start of
  // every round. All relations must outlive the kernel.
  SemiNaiveRound(CompiledProgram compiled,
                 const std::vector<std::vector<Relation*>>& sources,
                 const std::vector<Relation*>& heads,
                 const std::vector<Relation*>& tracked,
                 const ConstraintEvaluator* constraint_eval);

  // Every atom reads, and every head writes, its predicate's relation in
  // `db`, which must already exist; the relations of `tracked` are
  // tracked.
  static SemiNaiveRound OverDatabase(CompiledProgram compiled, Database* db,
                                     const std::vector<Symbol>& tracked,
                                     const ConstraintEvaluator* constraint_eval);

  // Fires the exit rules (rules without tracked body atoms) once over
  // their full sources. Adds firings, insertions and join work to
  // `stats`; `stats->rounds` is the caller's to count.
  void FireExitRules(EvalStats* stats);

  // Whether any tracked relation grew past its round-end watermark.
  bool HasDelta() const;

  // Runs every delta variant over this round's windows, inserting
  // firings into the heads, then advances the watermarks.
  void RunRound(EvalStats* stats);

  // Optional: surviving keys per batch-kernel probe batch.
  void set_probe_batch(Histogram* histogram) {
    scratch_.probe_batch = histogram;
  }

 private:
  struct Watermark {
    Relation* relation;
    size_t old_end = 0;
    size_t cur_end = 0;
  };
  // One executable rule variant with its inputs, built once and refilled
  // in place every round.
  struct Variant {
    const CompiledRule* rule;  // owned by compiled_
    int delta_idx;             // body index read as the delta; -1 for exits
    int inserter;              // the head's, in inserters_
    std::vector<AtomInput> inputs;
    std::vector<int> slots;  // per body atom: watermark slot, -1 untracked
  };

  // Applies the window policy to `v.inputs`; false if the delta is empty.
  bool Refill(Variant& v);
  void Fire(Variant& v, EvalStats* stats);

  // Heap-held so the variants' rule pointers survive moves.
  std::unique_ptr<const CompiledProgram> compiled_;
  std::vector<Variant> exits_;
  std::vector<Variant> deltas_;
  std::vector<Watermark> marks_;
  // (watermark slot, column mask) of every index kept on a tracked
  // relation.
  std::vector<std::pair<int, uint32_t>> tracked_indexes_;
  std::vector<BatchInserter> inserters_;  // one per head relation
  JoinScratch scratch_;
  const ConstraintEvaluator* constraint_eval_;
};

}  // namespace pdatalog

#endif  // PDATALOG_EVAL_ROUND_H_
