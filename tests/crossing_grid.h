// The (crossing backend x registration mode) grid the backend suites run
// over: SkyBridgeTest, SecurityTest and FaultRecoveryTest instantiate every
// test once per cell, so one plain ctest run covers all nine pairs.

#ifndef TESTS_CROSSING_GRID_H_
#define TESTS_CROSSING_GRID_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/skybridge/config.h"

namespace skybridge {

// One grid cell, packed into a byte: the backend in the low nibble, the
// registration mode in the high nibble. gtest prints the parameter as its raw
// bytes, so an eager cell prints exactly as the bare backend did before the
// mode axis existed and those test names stay stable.
struct CrossingCell {
  uint8_t backend : 4;
  uint8_t mode : 4;
};
static_assert(sizeof(CrossingCell) == 1);

// Eager cells first, in backend order.
inline std::vector<CrossingCell> AllCrossingCells() {
  std::vector<CrossingCell> cells;
  for (int mode = 0; mode < kNumRegistrationModes; ++mode) {
    for (int backend = 0; backend < kNumCrossingBackends; ++backend) {
      cells.push_back({static_cast<uint8_t>(backend), static_cast<uint8_t>(mode)});
    }
  }
  return cells;
}

// "eptp" for the eager cells (the paper's registration, the default), else
// "<backend>_<mode>", e.g. "mpk_lazy".
inline std::string CrossingCellName(const ::testing::TestParamInfo<CrossingCell>& info) {
  std::string name = CrossingBackendName(static_cast<CrossingBackendKind>(info.param.backend));
  const auto mode = static_cast<RegistrationMode>(info.param.mode);
  if (mode != RegistrationMode::kEager) {
    name += std::string("_") + RegistrationModeName(mode);
  }
  return name;
}

// Base fixture: GetParam() is the cell; Apply() stamps it onto a config.
class CrossingGridTest : public ::testing::TestWithParam<CrossingCell> {
 protected:
  CrossingBackendKind Backend() const {
    return static_cast<CrossingBackendKind>(GetParam().backend);
  }
  RegistrationMode Mode() const { return static_cast<RegistrationMode>(GetParam().mode); }
  bool IsEptp() const { return Backend() == CrossingBackendKind::kEptp; }
  bool IsMpk() const { return Backend() == CrossingBackendKind::kMpk; }
  bool IsSyscall() const { return Backend() == CrossingBackendKind::kSyscall; }

  void Apply(SkyBridgeConfig& config) const {
    config.crossing_backend = Backend();
    config.registration_mode = Mode();
  }
};

}  // namespace skybridge

#endif  // TESTS_CROSSING_GRID_H_
