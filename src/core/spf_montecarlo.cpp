#include "core/spf_montecarlo.hpp"

#include <vector>

#include "common/rng.hpp"
#include "core/failure_predicate.hpp"

namespace rnoc::core {

SpfMcResult monte_carlo_spf(const SpfMcConfig& cfg) {
  require(cfg.trials > 0, "monte_carlo_spf: need at least one trial");
  const auto all_sites = fault::RouterFaultState::enumerate_sites(
      cfg.geometry, cfg.include_correction_sites &&
                        cfg.mode == RouterMode::Protected);

  // One sample stream, independent of the pool size, so a result (and the
  // committed goldens) never depends on the host's core count. Campaign
  // points call this from pool workers, where a nested parallel_for would
  // run inline anyway; the parallelism lives at the point level.
  Rng master(cfg.seed);
  Rng rng = master.split();
  RunningStats stats;
  std::vector<fault::FaultSite> order = all_sites;
  for (std::uint64_t t = 0; t < cfg.trials; ++t) {
    rng.shuffle(order);
    fault::RouterFaultState state(cfg.geometry);
    int injected = 0;
    for (const auto& site : order) {
      state.inject(site);
      ++injected;
      if (router_failed(state, cfg.mode)) break;
    }
    stats.add(static_cast<double>(injected));
  }

  SpfMcResult result;
  result.faults_to_failure = stats;
  result.spf =
      result.faults_to_failure.mean() / (1.0 + cfg.area_overhead);
  return result;
}

}  // namespace rnoc::core
