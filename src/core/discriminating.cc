#include "core/discriminating.h"

#include <algorithm>
#include <cassert>

namespace pdatalog {

DiscriminatingFunction DiscriminatingFunction::UniformHash(int num_processors,
                                                           uint64_t seed) {
  DiscriminatingFunction fn;
  fn.kind = Kind::kUniformHash;
  fn.num_processors = num_processors;
  fn.seed = seed;
  return fn;
}

DiscriminatingFunction DiscriminatingFunction::SymmetricHash(
    int num_processors, uint64_t seed) {
  DiscriminatingFunction fn;
  fn.kind = Kind::kSymmetricHash;
  fn.num_processors = num_processors;
  fn.seed = seed;
  return fn;
}

DiscriminatingFunction DiscriminatingFunction::Linear(std::vector<int> coeffs,
                                                      uint64_t seed) {
  DiscriminatingFunction fn;
  fn.kind = Kind::kLinear;
  fn.coeffs = std::move(coeffs);
  fn.seed = seed;
  return fn;
}

DiscriminatingFunction DiscriminatingFunction::TableLookup(
    std::unordered_map<Tuple, int, TupleHash> table, int num_processors) {
  DiscriminatingFunction fn;
  fn.kind = Kind::kTableLookup;
  fn.table = std::move(table);
  fn.num_processors = num_processors;
  return fn;
}

DiscriminatingFunction DiscriminatingFunction::Constant(int value) {
  DiscriminatingFunction fn;
  fn.kind = Kind::kConstant;
  fn.constant = value;
  return fn;
}

DiscriminatingFunction DiscriminatingFunction::KeepOrHash(
    int owner, double keep_probability, int num_processors, uint64_t seed) {
  DiscriminatingFunction fn;
  fn.kind = Kind::kKeepOrHash;
  fn.constant = owner;
  fn.keep_probability = keep_probability;
  fn.num_processors = num_processors;
  fn.seed = seed;
  return fn;
}

DiscriminatingFunction DiscriminatingFunction::Custom(
    std::function<int(const Value*, int)> fn, int num_processors) {
  DiscriminatingFunction f;
  f.kind = Kind::kCustom;
  f.custom = std::move(fn);
  f.num_processors = num_processors;
  return f;
}

int DiscriminatingFunction::Evaluate(const Value* values, int n) const {
  switch (kind) {
    case Kind::kUniformHash: {
      if (num_processors <= 0) return 0;  // malformed; keep % defined
      uint64_t h = seed;
      for (int i = 0; i < n; ++i) h = HashCombine(h, values[i]);
      return static_cast<int>(h % static_cast<uint64_t>(num_processors));
    }
    case Kind::kSymmetricHash: {
      if (num_processors <= 0) return 0;
      // XOR of per-value mixes: invariant under permutation of the
      // sequence, as required by the Theorem 3 construction.
      uint64_t h = 0;
      for (int i = 0; i < n; ++i) h ^= Mix64(values[i] ^ seed);
      return static_cast<int>(h % static_cast<uint64_t>(num_processors));
    }
    case Kind::kLinear: {
      assert(n == static_cast<int>(coeffs.size()));
      int sum = 0;
      for (int i = 0; i < n; ++i) sum += coeffs[i] * G(values[i]);
      if (!remap.empty()) {
        auto it = remap.find(sum);
        // A raw value outside the remap means the remap was built for a
        // different coefficient vector (ValidateFunctions rejects such
        // bundles up front). Map it to processor 0 instead of
        // dereferencing remap.end() — the old debug assert was
        // undefined behavior in release builds.
        return it == remap.end() ? 0 : it->second;
      }
      return sum;
    }
    case Kind::kTableLookup: {
      auto it = table.find(Tuple(values, n));
      if (it != table.end()) return it->second;
      if (num_processors <= 0) return 0;
      uint64_t h = seed;
      for (int i = 0; i < n; ++i) h = HashCombine(h, values[i]);
      return static_cast<int>(h % static_cast<uint64_t>(num_processors));
    }
    case Kind::kConstant:
      return constant;
    case Kind::kCustom:
      assert(custom != nullptr);
      return custom(values, n);
    case Kind::kKeepOrHash: {
      // Deterministic coin from the tuple itself: every processor that
      // sees the same tuple makes the same keep/forward decision.
      if (num_processors <= 0) return 0;
      uint64_t mix = Mix64(seed);
      for (int i = 0; i < n; ++i) mix = HashCombine(mix, values[i]);
      double coin =
          static_cast<double>(mix >> 11) * (1.0 / 9007199254740992.0);
      if (coin < keep_probability) return constant;
      uint64_t u = Mix64(mix ^ 0xabcdefULL);
      return static_cast<int>(u % static_cast<uint64_t>(num_processors));
    }
  }
  return 0;
}

std::vector<int> LinearAchievableValues(const std::vector<int>& coeffs) {
  std::vector<int> values = {0};
  for (int c : coeffs) {
    size_t n = values.size();
    for (size_t i = 0; i < n; ++i) values.push_back(values[i] + c);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

DiscriminatingFunction WithDenseRemap(const DiscriminatingFunction& linear) {
  assert(linear.kind == DiscriminatingFunction::Kind::kLinear);
  DiscriminatingFunction fn = linear;
  std::vector<int> values = LinearAchievableValues(fn.coeffs);
  fn.remap.clear();
  for (size_t i = 0; i < values.size(); ++i) {
    fn.remap[values[i]] = static_cast<int>(i);
  }
  fn.num_processors = static_cast<int>(values.size());
  return fn;
}

int DiscriminatingRegistry::Register(DiscriminatingFunction fn) {
  functions_.push_back(std::move(fn));
  return static_cast<int>(functions_.size() - 1);
}

int DiscriminatingRegistry::Evaluate(int function, const Value* values,
                                     int n) const {
  assert(function >= 0 && function < size());
  return functions_[function].Evaluate(values, n);
}

}  // namespace pdatalog
