// Host-speed calibration: a fixed, engine-independent kernel timed
// between the phases of a run.
//
// The hosts this benchmark runs on are shared, and their speed drifts
// by up to ±25% over minutes and flips between a fast and a slow mode
// over seconds, moving every time measured meanwhile together
// (same-round ratios such as framework_tax stay put). Each end-to-end
// time is therefore reported at a nominal host speed: scaled by
// kNominalCalibrationMs over the kernel's time around the phase it was
// measured in. The kernel only runs while no engine thread is alive, so
// a change to the engine moves its times and not the kernel's; a
// change of host speed moves both.
#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// The kernel's time on the 4-vCPU host the bounds were set on.
inline constexpr double kNominalCalibrationMs = 25.0;

class HostCalibration {
 public:
  // Runs the kernel once and records its wall time.
  void Run();
  // Interquartile mean of the recorded times, in milliseconds.
  double Ms() const;
  // Phase j of a run is what ran between kernel runs j and j+1. A time
  // measured in it, multiplied by PhaseScale(j) = kNominalCalibrationMs
  // over the mean of those two kernel times, is at nominal host speed.
  double PhaseScale(size_t phase) const;
  // Every recorded time, in run order.
  const std::vector<double>& samples_ms() const { return ms_; }

 private:
  // Insert and probe 2^19 pseudo-random keys in an open-addressing
  // table of 2^20 slots (8 MiB): the memory-bound hashing the engine's
  // joins and dedup inserts do.
  std::vector<uint64_t> table_ = std::vector<uint64_t>(std::size_t{1} << 20);
  uint64_t found_ = 0;  // keeps the probes observable
  std::vector<double> ms_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
