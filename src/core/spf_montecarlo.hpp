// Monte-Carlo faults-to-failure estimation — the "experimental approach"
// BulletProof and Vicis used for their SPF numbers (paper §VIII, Table III
// footnote), applied to our router's structural model.
//
// Each trial injects faults one at a time into uniformly random distinct
// sites until the failure predicate trips, and records how many faults the
// router absorbed.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/protection.hpp"
#include "fault/fault_model.hpp"

namespace rnoc::core {

struct SpfMcConfig {
  fault::FaultGeometry geometry{5, 4};
  RouterMode mode = RouterMode::Protected;
  std::uint64_t trials = 20000;
  std::uint64_t seed = 1;
  double area_overhead = 0.31;
  /// Include correction-circuitry sites in the fault population (they are
  /// silicon too — BulletProof's SPF definition counts them).
  bool include_correction_sites = true;
};

struct SpfMcResult {
  RunningStats faults_to_failure;
  double spf = 0.0;  ///< mean faults-to-failure / (1 + area overhead).
};

/// Runs the Monte-Carlo campaign on one sample stream (deterministic for a
/// given seed and trial count, on any core count).
SpfMcResult monte_carlo_spf(const SpfMcConfig& cfg);

}  // namespace rnoc::core
