#include "reliability/structural_mttf.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "core/failure_predicate.hpp"

namespace rnoc::rel {
namespace {

/// Samples one site lifetime with the configured hazard shape, keeping the
/// FIT-implied mean (Weibull mean = scale * Gamma(1 + 1/shape)).
double sample_lifetime(Rng& rng, double fit, double shape) {
  const double mean_hours = kBillionHours / fit;
  if (shape == 1.0) return rng.next_exponential(1.0 / mean_hours);
  const double scale = mean_hours / std::tgamma(1.0 + 1.0 / shape);
  return rng.next_weibull(shape, scale);
}

}  // namespace

StructuralMttfResult structural_mttf(const StructuralMttfConfig& cfg) {
  require(cfg.trials > 0, "structural_mttf: need at least one trial");
  require(cfg.weibull_shape > 0.0, "structural_mttf: shape must be positive");
  const auto params = paper_calibrated_params();
  const auto sites = weighted_sites(
      cfg.geometry, params,
      cfg.mode == core::RouterMode::Protected, cfg.op);
  const fault::FaultGeometry fg{cfg.geometry.ports, cfg.geometry.vcs};

  // One sample stream, independent of the pool size, so a result (and the
  // committed goldens) never depends on the host's core count. Campaign
  // points call this from pool workers, where a nested parallel_for would
  // run inline anyway; the parallelism lives at the point level.
  Rng master(cfg.seed);
  Rng rng = master.split();
  StructuralMttfResult result;
  result.total_site_fit = total_site_fit(sites);
  std::uint64_t single = 0, total = 0;
  struct Event {
    double time_h;
    std::size_t site_index;
  };
  std::vector<Event> events(sites.size());
  for (std::uint64_t t = 0; t < cfg.trials; ++t) {
    for (std::size_t i = 0; i < sites.size(); ++i)
      events[i] = {sample_lifetime(rng, sites[i].fit, cfg.weibull_shape), i};
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.time_h < b.time_h;
    });
    fault::RouterFaultState state(fg);
    for (const Event& e : events) {
      state.inject(sites[e.site_index].site);
      if (core::router_failed(state, cfg.mode)) {
        result.lifetime_hours.add(e.time_h);
        if (sites[e.site_index].site.type == fault::SiteType::XbPSelect)
          ++single;
        ++total;
        break;
      }
    }
  }
  result.single_point_fraction =
      total ? static_cast<double>(single) / static_cast<double>(total) : 0.0;
  return result;
}

StructuralMttfResult network_structural_mttf(const StructuralMttfConfig& cfg,
                                             int routers) {
  require(routers >= 1, "network_structural_mttf: need at least one router");
  // One network trial = `routers` independent router-lifetime draws; the
  // network dies with its first router.
  Rng rng(cfg.seed ^ 0x9e77);
  const auto params = paper_calibrated_params();
  const auto sites = weighted_sites(
      cfg.geometry, params, cfg.mode == core::RouterMode::Protected, cfg.op);
  const fault::FaultGeometry fg{cfg.geometry.ports, cfg.geometry.vcs};

  StructuralMttfResult result;
  result.total_site_fit = total_site_fit(sites);

  struct Event {
    double time_h;
    std::size_t site_index;
  };
  std::vector<Event> events(sites.size());
  std::uint64_t single = 0;
  for (std::uint64_t t = 0; t < cfg.trials; ++t) {
    double network_min = 0.0;
    bool min_was_single_point = false;
    bool first = true;
    for (int r = 0; r < routers; ++r) {
      for (std::size_t i = 0; i < sites.size(); ++i)
        events[i] = {sample_lifetime(rng, sites[i].fit, cfg.weibull_shape), i};
      std::sort(events.begin(), events.end(),
                [](const Event& a, const Event& b) { return a.time_h < b.time_h; });
      fault::RouterFaultState state(fg);
      for (const Event& e : events) {
        state.inject(sites[e.site_index].site);
        if (core::router_failed(state, cfg.mode)) {
          if (first || e.time_h < network_min) {
            network_min = e.time_h;
            min_was_single_point = sites[e.site_index].site.type ==
                                   fault::SiteType::XbPSelect;
          }
          first = false;
          break;
        }
      }
    }
    result.lifetime_hours.add(network_min);
    if (min_was_single_point) ++single;
  }
  result.single_point_fraction =
      cfg.trials ? static_cast<double>(single) / static_cast<double>(cfg.trials)
                 : 0.0;
  return result;
}

}  // namespace rnoc::rel
