// Structural MTTF Monte Carlo — an extension cross-validating the paper's
// §VII analysis.
//
// The paper abstracts the protected router as TWO aggregate blocks (baseline
// pipeline, correction circuitry) that fail as wholes (Eq. 5). Here we
// instead sample an exponential TDDB lifetime for every individual fault
// site (weighted by its Table I/II FIT), replay the failures in time order,
// and record when the router-level failure predicate actually trips — i.e.
// the real lifetime of the protection mechanisms, including single points
// of failure (the P-select muxes) and cross-stage fault interactions the
// two-block model cannot see.
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/protection.hpp"
#include "reliability/site_fit.hpp"

namespace rnoc::rel {

struct StructuralMttfConfig {
  RouterGeometry geometry{};
  core::RouterMode mode = core::RouterMode::Protected;
  std::uint64_t trials = 20000;
  std::uint64_t seed = 1;
  OperatingPoint op{};
  /// Weibull shape of per-site lifetimes. 1.0 = exponential (constant
  /// hazard, the SOFR assumption); >1 models wear-out (TDDB hazards rise
  /// with age). Scales are chosen so each site keeps its FIT-implied mean,
  /// so the baseline MTTF is shape-invariant while redundant-pair lifetimes
  /// shrink (both halves age together).
  double weibull_shape = 1.0;
};

struct StructuralMttfResult {
  RunningStats lifetime_hours;  ///< Per-trial time to router failure.
  double total_site_fit = 0.0;  ///< SOFR over the site population.
  /// Fraction of trials whose terminal fault was an uncovered single point
  /// of failure (a P-select mux) rather than an exhausted redundancy pair.
  double single_point_fraction = 0.0;
};

/// Runs the site-level lifetime simulation on one sample stream
/// (deterministic for a given seed and trial count, on any core count).
StructuralMttfResult structural_mttf(const StructuralMttfConfig& cfg);

/// Network-level MTTF: time until the FIRST of `routers` independent routers
/// fails (the paper's motivation — "a single fault in the NoC may paralyze
/// the working of the entire chip"). For i.i.d. router lifetimes this is
/// E[min of n draws]; estimated from the same site-level simulation.
StructuralMttfResult network_structural_mttf(const StructuralMttfConfig& cfg,
                                             int routers);

}  // namespace rnoc::rel
