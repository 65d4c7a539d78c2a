#include "calibration.h"

#include <algorithm>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

void HostCalibration::Run() {
  constexpr int kKeys = 1 << 19;
  constexpr int kShift = 64 - 20;
  const size_t mask = table_.size() - 1;
  const uint64_t begin = NowNs();
  std::fill(table_.begin(), table_.end(), 0);
  Rng insert{0x5eed};
  for (int i = 0; i < kKeys; ++i) {
    const uint64_t key = insert.Next() | 1;
    size_t slot = (key * 0x9e3779b97f4a7c15ULL) >> kShift;
    while (table_[slot] != 0 && table_[slot] != key) slot = (slot + 1) & mask;
    table_[slot] = key;
  }
  Rng hit{0x5eed};  // replays the inserted keys
  Rng miss{0x5eed + 1};
  for (int i = 0; i < kKeys; ++i) {
    const uint64_t key = (i % 2 == 0 ? hit.Next() : miss.Next()) | 1;
    size_t slot = (key * 0x9e3779b97f4a7c15ULL) >> kShift;
    while (table_[slot] != 0 && table_[slot] != key) slot = (slot + 1) & mask;
    found_ += table_[slot] == key;
  }
  ms_.push_back(static_cast<double>(NowNs() - begin) * 1e-6);
}

double HostCalibration::Ms() const { return InterquartileMean(ms_); }

double HostCalibration::PhaseScale(size_t phase) const {
  if (ms_.empty()) return 1.0;
  const size_t before = std::min(phase, ms_.size() - 1);
  const size_t after = std::min(phase + 1, ms_.size() - 1);
  return 2 * kNominalCalibrationMs / (ms_[before] + ms_[after]);
}

}  // namespace perfbench
