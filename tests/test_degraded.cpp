// Degraded-mode tests: router death (black-hole decommission), the drain
// barrier + online west-first reroute, and the end-to-end retry layer.
#include <gtest/gtest.h>

#include <memory>

#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "traffic/patterns.hpp"

namespace rnoc::noc {
namespace {

const fault::FaultGeometry geom{5, 4};

SimConfig base_cfg(bool degraded_enabled, SimCore core = SimCore::EventDriven) {
  SimConfig cfg;
  cfg.mesh.dims = {8, 8};
  cfg.mesh.router.mode = core::RouterMode::Baseline;
  cfg.mesh.core = core;
  cfg.warmup = 500;
  cfg.measure = 4000;
  cfg.drain_limit = 60000;
  cfg.degraded.enabled = degraded_enabled;
  return cfg;
}

SimReport run_with_deaths(int k, const SimConfig& cfg,
                          std::uint64_t plan_seed = 42) {
  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.05;
  Simulator sim(cfg, std::make_shared<traffic::SyntheticTraffic>(tc));
  if (k > 0) {
    Rng rng(plan_seed);
    sim.set_fault_plan(fault::FaultPlan::lethal(
        cfg.mesh.dims, geom, cfg.mesh.router.mode, k, cfg.warmup + 500, rng));
  }
  return sim.run();
}

TEST(DegradedMode, SurvivesRouterDeaths) {
  // The ISSUE acceptance sweep: K in {1, 2, 4} runtime deaths on an 8x8
  // uniform-traffic mesh must terminate cleanly (no deadlock), deliver
  // >= 99% of the packets between still-mutually-reachable pairs, and
  // account the rest as unreachable drops.
  std::uint64_t total_blackholed = 0;
  for (const int k : {1, 2, 4}) {
    SCOPED_TRACE("deaths=" + std::to_string(k));
    const auto rep = run_with_deaths(k, base_cfg(true));
    EXPECT_FALSE(rep.deadlock_suspected);
    EXPECT_EQ(rep.undelivered_flits, 0u);
    EXPECT_EQ(rep.degraded.router_deaths, static_cast<std::uint64_t>(k));
    EXPECT_GE(rep.degraded.reroute_epochs, 1u);
    EXPECT_GE(rep.degraded.delivery_ratio(), 0.99);
    EXPECT_LE(rep.degraded.delivery_ratio(), 1.0);
    EXPECT_EQ(rep.degraded.gave_up, 0u);
    EXPECT_LE(rep.degraded.dropped_unreachable, rep.degraded.packets_tracked);
    total_blackholed += rep.degraded.flits_blackholed;
  }
  // A single low-load death can catch an instant where nothing is in
  // flight near the victim; across the whole sweep something must be.
  EXPECT_GT(total_blackholed, 0u);
}

TEST(DegradedMode, RetransmitsRecoverSwallowedPackets) {
  // Packets in flight at the moment of death are swallowed by the dead
  // router; the end-to-end layer must detect the loss and retransmit.
  const auto rep = run_with_deaths(2, base_cfg(true));
  EXPECT_GT(rep.degraded.retransmits, 0u);
  EXPECT_GE(rep.degraded.packets_acked, 1u);
  EXPECT_GE(rep.degraded.delivery_ratio(), 0.99);
}

TEST(DegradedMode, UnreachableTrafficIsCountedNotLost) {
  // A dead router's node keeps being picked as a uniform-traffic
  // destination; those packets must be refused at the source (or dropped
  // as unreachable on timeout), never silently stuck.
  const auto rep = run_with_deaths(1, base_cfg(true));
  EXPECT_GT(rep.degraded.dropped_at_source + rep.degraded.dropped_unreachable,
            0u);
  EXPECT_FALSE(rep.deadlock_suspected);
}

TEST(DegradedMode, NoDeathsMatchesDisabledRun) {
  // With zero deaths the subsystem must be an observer only: the traffic
  // the network carries is identical to a run without it. (cycles_run may
  // differ — the enabled run waits out the final acknowledgements.)
  const auto off = run_with_deaths(0, base_cfg(false));
  const auto on = run_with_deaths(0, base_cfg(true));
  EXPECT_EQ(on.packets_sent, off.packets_sent);
  EXPECT_EQ(on.packets_received, off.packets_received);
  EXPECT_EQ(on.flits_received, off.flits_received);
  EXPECT_EQ(on.total_latency.count(), off.total_latency.count());
  EXPECT_EQ(on.total_latency.mean(), off.total_latency.mean());
  EXPECT_EQ(on.degraded.router_deaths, 0u);
  EXPECT_EQ(on.degraded.retransmits, 0u);
  EXPECT_EQ(on.degraded.dropped_at_source, 0u);
  EXPECT_DOUBLE_EQ(on.degraded.delivery_ratio(), 1.0);
  EXPECT_EQ(off.degraded.packets_tracked, 0u);  // Disabled: all zeros.
}

TEST(DegradedMode, ActiveSchedulingMatchesFullSweep) {
  // The event core must stay bit-identical to the full sweep through
  // deaths, drains, table switches and retransmissions.
  const auto sweep = run_with_deaths(2, base_cfg(true, SimCore::FullSweep));
  const auto fast = run_with_deaths(2, base_cfg(true, SimCore::EventDriven));
  EXPECT_EQ(fast.cycles_run, sweep.cycles_run);
  EXPECT_EQ(fast.packets_sent, sweep.packets_sent);
  EXPECT_EQ(fast.packets_received, sweep.packets_received);
  EXPECT_EQ(fast.flits_received, sweep.flits_received);
  EXPECT_EQ(fast.total_latency.count(), sweep.total_latency.count());
  EXPECT_EQ(fast.total_latency.mean(), sweep.total_latency.mean());
  EXPECT_EQ(fast.degraded.retransmits, sweep.degraded.retransmits);
  EXPECT_EQ(fast.degraded.packets_acked, sweep.degraded.packets_acked);
  EXPECT_EQ(fast.degraded.dropped_unreachable,
            sweep.degraded.dropped_unreachable);
  EXPECT_EQ(fast.degraded.flits_blackholed, sweep.degraded.flits_blackholed);
}

TEST(DegradedMode, ProtectedRouterToleratesBaselineLethalPlan) {
  // "Protect the router" versus "reroute around it": the same single-site
  // (RcPrimary) plan that kills a Baseline router is tolerated by the
  // Protected router's spare RC unit — no deaths, no reroute, no drops.
  auto cfg = base_cfg(true);
  cfg.mesh.router.mode = core::RouterMode::Protected;
  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.05;
  Simulator sim(cfg, std::make_shared<traffic::SyntheticTraffic>(tc));
  Rng rng(42);
  sim.set_fault_plan(fault::FaultPlan::lethal(
      cfg.mesh.dims, geom, core::RouterMode::Baseline, 2, cfg.warmup + 500,
      rng));
  const auto rep = sim.run();
  EXPECT_FALSE(rep.deadlock_suspected);
  EXPECT_EQ(rep.degraded.router_deaths, 0u);
  EXPECT_EQ(rep.degraded.reroute_epochs, 0u);
  EXPECT_EQ(rep.degraded.retransmits, 0u);
  EXPECT_DOUBLE_EQ(rep.degraded.delivery_ratio(), 1.0);
}

TEST(DegradedMode, InvalidConfigRejected) {
  // validate_degraded_config: each retransmit knob has a directed
  // rejection, checkable at config time before any Mesh exists.
  EXPECT_NO_THROW(validate_degraded_config(DegradedConfig{}));
  const auto reject = [](void (*tweak)(DegradedConfig&)) {
    DegradedConfig c;
    tweak(c);
    EXPECT_THROW(validate_degraded_config(c), std::invalid_argument);
  };
  reject([](DegradedConfig& c) { c.ack_delay = 0; });
  reject([](DegradedConfig& c) { c.retx_timeout = 0; });
  reject([](DegradedConfig& c) { c.retx_timeout_cap = c.retx_timeout - 1; });
  reject([](DegradedConfig& c) { c.backoff = 0.99; });
  reject([](DegradedConfig& c) { c.max_retries = -1; });
  reject([](DegradedConfig& c) { c.retx_window = 0; });

  // The Simulator constructor surfaces the same rejection for an enabled
  // config, so a bad campaign spec fails before a single cycle runs.
  auto cfg = base_cfg(true);
  cfg.degraded.backoff = 0.5;
  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.05;
  EXPECT_THROW(Simulator(cfg, std::make_shared<traffic::SyntheticTraffic>(tc)),
               std::invalid_argument);
}

TEST(DegradedMode, RouterDeathStatsExposedInReport) {
  const auto rep = run_with_deaths(1, base_cfg(true));
  // Swallowed flits show up both in the degraded stats and in the router
  // event counters they mirror.
  EXPECT_EQ(rep.degraded.flits_blackholed, rep.router_events.flits_swallowed);
  EXPECT_GT(rep.degraded.packets_tracked, 0u);
  EXPECT_LE(rep.degraded.packets_acked, rep.degraded.packets_tracked);
}

}  // namespace
}  // namespace rnoc::noc
