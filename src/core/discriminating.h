// Discriminating functions (Section 3): functions from ground instances
// of a discriminating variable sequence to processor ids.
//
// The registry owns every function used by one rewrite bundle and
// implements eval::ConstraintEvaluator so compiled rules can check
// `h(v(r)) = i` conjuncts during joins.
//
// Function kinds cover everything the paper uses:
//   * kUniformHash      — an arbitrary hash onto {0..P-1} (Examples 1, 3, 8).
//   * kSymmetricHash    — order-invariant hash; required by the
//                         communication-free construction of Theorem 3,
//                         where produced tuples carry a cyclic shift of
//                         the discriminating values.
//   * kLinear           — h(a_1..a_k) = sum_l coeffs[l] * g(a_l) with
//                         g: constants -> {0,1} (Section 5, Examples 6/7).
//                         Values may be negative; the engine maps them to
//                         dense processor indices.
//   * kTableLookup      — h defined by an arbitrary horizontal
//                         fragmentation of a base relation: h(t) = i iff
//                         t is in fragment i (Example 2, Valduriez-
//                         Khoshafian).
//   * kConstant         — h_i == i: keep everything local (Section 6,
//                         the no-communication scheme of [18]).
//   * kKeepOrHash       — keep a tuple locally with probability rho
//                         (deterministically, by tuple hash), otherwise
//                         fall through to the uniform hash. Interpolates
//                         between kConstant (rho=1) and kUniformHash
//                         (rho=0); realizes the Section 6 trade-off
//                         spectrum.
#ifndef PDATALOG_CORE_DISCRIMINATING_H_
#define PDATALOG_CORE_DISCRIMINATING_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "eval/plan.h"
#include "storage/tuple.h"
#include "util/hash.h"
#include "util/status.h"

namespace pdatalog {

struct DiscriminatingFunction {
  enum class Kind {
    kUniformHash,
    kSymmetricHash,
    kLinear,
    kTableLookup,
    kConstant,
    kKeepOrHash,
    kCustom,
  };

  Kind kind = Kind::kUniformHash;
  int num_processors = 1;  // kUniformHash/kSymmetricHash/kKeepOrHash range
  uint64_t seed = 0;       // hash salt; also salts g for kLinear

  // kLinear: per-sequence-position coefficients of g(a_l).
  std::vector<int> coeffs;

  // kTableLookup: tuple -> processor. Tuples absent from the map get
  // processor (hash % num_processors) as a total-function fallback.
  std::unordered_map<Tuple, int, TupleHash> table;

  // kConstant: the fixed result. kKeepOrHash: the local owner.
  int constant = 0;

  // kKeepOrHash: probability of keeping the tuple at `constant`.
  double keep_probability = 0.0;

  // kLinear: optional remap of raw linear values to dense processor
  // indices (see WithDenseRemap). Empty = return raw values.
  std::unordered_map<int, int> remap;

  // kCustom: arbitrary user routing policy. Must be pure (same input ->
  // same output, on every processor) and map into [0, num_processors).
  std::function<int(const Value*, int)> custom;

  static DiscriminatingFunction UniformHash(int num_processors,
                                            uint64_t seed = 0x5eed);
  static DiscriminatingFunction SymmetricHash(int num_processors,
                                              uint64_t seed = 0x5eed);
  static DiscriminatingFunction Linear(std::vector<int> coeffs,
                                       uint64_t seed = 0x5eed);
  static DiscriminatingFunction TableLookup(
      std::unordered_map<Tuple, int, TupleHash> table, int num_processors);
  static DiscriminatingFunction Constant(int value);
  static DiscriminatingFunction KeepOrHash(int owner, double keep_probability,
                                           int num_processors,
                                           uint64_t seed = 0x5eed);
  static DiscriminatingFunction Custom(
      std::function<int(const Value*, int)> fn, int num_processors);

  // The g function of kLinear: a salted hash bit of the constant.
  int G(Value v) const { return static_cast<int>(Mix64(v ^ seed) & 1); }

  int Evaluate(const Value* values, int n) const;
};

// Owns the discriminating functions of one rewrite bundle and evaluates
// hash constraints for the join executor. Thread-safe for concurrent
// Evaluate() once registration is complete.
class DiscriminatingRegistry : public ConstraintEvaluator {
 public:
  // Returns the function id used in HashConstraint::function.
  int Register(DiscriminatingFunction fn);

  const DiscriminatingFunction& function(int id) const {
    return functions_[id];
  }
  int size() const { return static_cast<int>(functions_.size()); }

  int Evaluate(int function, const Value* values, int n) const final;

 private:
  std::vector<DiscriminatingFunction> functions_;
};

// All values sum_l coeffs[l]*b_l over b in {0,1}^k, deduplicated and
// sorted ascending. These are the paper's processor ids for a linear
// discriminating function (Example 7: coeffs (1,-1,1) give {-1,0,1,2}).
std::vector<int> LinearAchievableValues(const std::vector<int>& coeffs);

// Copy of a kLinear function that maps raw values to dense indices
// 0..n-1 in ascending raw-value order, so the engine can use linear
// functions whose range includes negative values.
DiscriminatingFunction WithDenseRemap(const DiscriminatingFunction& linear);

}  // namespace pdatalog

#endif  // PDATALOG_CORE_DISCRIMINATING_H_
