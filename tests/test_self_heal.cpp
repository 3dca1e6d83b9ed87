// Self-healing adaptive routing (degraded SelfHeal strategy): hop-by-hop
// fault-vector propagation, RC dead-port candidate filtering, the west-first
// escape VC with its install barrier, and the fragment-reclamation sweep
// that replaces the drain barrier's wholesale cleanup. The _checked variant
// of this binary repeats everything with RNOC_INVARIANTS swept each cycle,
// which proves the reclamation's credit refunds and out-of-band VC resets
// leave flow control conserved through the whole transient.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "traffic/patterns.hpp"

namespace rnoc::noc {
namespace {

const fault::FaultGeometry geom{5, 4};

SimConfig heal_cfg(DegradedStrategy strategy,
                   SimCore core = SimCore::EventDriven) {
  SimConfig cfg;
  cfg.mesh.dims = {8, 8};
  cfg.mesh.router.mode = core::RouterMode::Baseline;
  cfg.mesh.router.routing = RoutingAlgo::OddEven;
  cfg.mesh.core = core;
  cfg.warmup = 500;
  cfg.measure = 4000;
  cfg.drain_limit = 60000;
  cfg.degraded.enabled = true;
  cfg.degraded.strategy = strategy;
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

TEST(SelfHeal, SurvivesRouterDeathsWithoutFreezing) {
  // The tentpole acceptance sweep: K in {1, 2, 4, 8} runtime deaths under
  // live odd-even load. The network must keep injecting throughout (zero
  // frozen cycles — there is no drain barrier), converge the fault flood,
  // install exactly one escape-table generation, and still deliver >= 99%
  // of the tracked packets with no deadlock.
  std::uint64_t total_escapes = 0;
  for (const int k : {1, 2, 4, 8}) {
    SCOPED_TRACE("deaths=" + std::to_string(k));
    const auto rep = run_with_deaths(k, heal_cfg(DegradedStrategy::SelfHeal));
    EXPECT_FALSE(rep.deadlock_suspected);
    EXPECT_EQ(rep.undelivered_flits, 0u);
    EXPECT_EQ(rep.degraded.router_deaths, static_cast<std::uint64_t>(k));
    EXPECT_EQ(rep.degraded.frozen_cycles, 0u);
    EXPECT_GE(rep.degraded.reroute_epochs, 1u);
    EXPECT_GE(rep.degraded.delivery_ratio(), 0.99);
    EXPECT_LE(rep.degraded.delivery_ratio(), 1.0);
    EXPECT_EQ(rep.degraded.gave_up, 0u);
    total_escapes += rep.router_events.escape_reroutes;
  }
  // Some packet in the sweep must have had its whole minimal set filtered
  // and taken the west-first escape VC.
  EXPECT_GT(total_escapes, 0u);
}

TEST(SelfHeal, BeatsDrainBarrierOnAvailability) {
  // Head-to-head under the identical lethal plan: the drain strategy
  // freezes injection until the network runs empty; self-heal never stops
  // accepting traffic. Both must deliver, but only one stalls the NIs.
  for (const int k : {2, 4}) {
    SCOPED_TRACE("deaths=" + std::to_string(k));
    const auto drain =
        run_with_deaths(k, heal_cfg(DegradedStrategy::DrainReroute));
    const auto heal = run_with_deaths(k, heal_cfg(DegradedStrategy::SelfHeal));
    EXPECT_GT(drain.degraded.frozen_cycles, 0u);
    EXPECT_EQ(heal.degraded.frozen_cycles, 0u);
    EXPECT_GE(drain.degraded.delivery_ratio(), 0.99);
    EXPECT_GE(heal.degraded.delivery_ratio(), 0.99);
    EXPECT_FALSE(heal.deadlock_suspected);
  }
}

TEST(SelfHeal, NoDeathsMatchesDisabledRun) {
  // Lazy activation: until the first death the strategy must be a pure
  // observer — the traffic the network carries is bit-identical to a run
  // with the degraded subsystem disabled.
  auto off_cfg = heal_cfg(DegradedStrategy::SelfHeal);
  off_cfg.degraded.enabled = false;
  const auto off = run_with_deaths(0, off_cfg);
  const auto on = run_with_deaths(0, heal_cfg(DegradedStrategy::SelfHeal));
  EXPECT_EQ(on.packets_sent, off.packets_sent);
  EXPECT_EQ(on.packets_received, off.packets_received);
  EXPECT_EQ(on.flits_received, off.flits_received);
  EXPECT_EQ(on.total_latency.count(), off.total_latency.count());
  EXPECT_EQ(on.total_latency.mean(), off.total_latency.mean());
  EXPECT_EQ(on.router_events.escape_reroutes, 0u);
  EXPECT_EQ(on.router_events.flits_dropped, 0u);
  EXPECT_EQ(on.degraded.router_deaths, 0u);
  EXPECT_EQ(on.degraded.reroute_epochs, 0u);
  EXPECT_EQ(on.degraded.retransmits, 0u);
  EXPECT_DOUBLE_EQ(on.degraded.delivery_ratio(), 1.0);
}

TEST(SelfHeal, AllCoresBitIdenticalThroughTransient) {
  // The reconvergence transient exercises every out-of-band mutation the
  // event core must be woken for: kills, the reclamation sweep, vector
  // floods, the table install, unroutable purges and retransmissions. Both
  // stepping cores must agree bit-for-bit.
  const auto sweep =
      run_with_deaths(2, heal_cfg(DegradedStrategy::SelfHeal,
                                  SimCore::FullSweep));
  const auto fast = run_with_deaths(
      2, heal_cfg(DegradedStrategy::SelfHeal, SimCore::EventDriven));
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
  EXPECT_EQ(fast.router_events.escape_reroutes,
            sweep.router_events.escape_reroutes);
  EXPECT_EQ(fast.router_events.flits_dropped,
            sweep.router_events.flits_dropped);
}

TEST(SelfHeal, SurvivesStaggeredDeathWaves) {
  // A second wave of deaths arriving while the first flood may still be
  // converging (or its install pending) must supersede the pending
  // generation, not wedge it: the final tables cover the union dead set.
  auto cfg = heal_cfg(DegradedStrategy::SelfHeal);
  Rng rng1(7), rng2(1234);
  fault::FaultPlan plan = fault::FaultPlan::lethal(
      cfg.mesh.dims, geom, cfg.mesh.router.mode, 2, cfg.warmup + 500, rng1);
  const fault::FaultPlan second = fault::FaultPlan::lethal(
      cfg.mesh.dims, geom, cfg.mesh.router.mode, 2, cfg.warmup + 520, rng2);
  for (const auto& e : second.entries())
    plan.add(e.at, e.router, e.site, e.duration);
  std::set<NodeId> victims;
  for (const auto& e : plan.entries()) victims.insert(e.router);

  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.05;
  Simulator sim(cfg, std::make_shared<traffic::SyntheticTraffic>(tc));
  sim.set_fault_plan(plan);
  const auto rep = sim.run();
  EXPECT_FALSE(rep.deadlock_suspected);
  EXPECT_EQ(rep.undelivered_flits, 0u);
  EXPECT_EQ(rep.degraded.router_deaths, victims.size());
  EXPECT_EQ(rep.degraded.frozen_cycles, 0u);
  EXPECT_GE(rep.degraded.reroute_epochs, 1u);
  EXPECT_GE(rep.degraded.delivery_ratio(), 0.99);
  EXPECT_EQ(rep.degraded.gave_up, 0u);
}

TEST(SelfHeal, RequiresAdaptiveRoutingAndEscapeVc) {
  // The escape discipline leans on odd-even's any-subset legality and
  // needs a VC to reserve; both are validated at simulator construction.
  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.05;
  auto traffic = std::make_shared<traffic::SyntheticTraffic>(tc);

  auto xy = heal_cfg(DegradedStrategy::SelfHeal);
  xy.mesh.router.routing = RoutingAlgo::XY;
  EXPECT_THROW(Simulator(xy, traffic), std::invalid_argument);

  auto one_vc = heal_cfg(DegradedStrategy::SelfHeal);
  one_vc.mesh.router.vcs = 1;
  EXPECT_THROW(Simulator(one_vc, traffic), std::invalid_argument);

  auto vnets = heal_cfg(DegradedStrategy::SelfHeal);
  vnets.mesh.router.vnets = 2;
  EXPECT_THROW(Simulator(vnets, traffic), std::invalid_argument);
}

TEST(SelfHeal, ReclamationStatsExposedInReport) {
  // Deaths under load truncate streams; the reclamation sweep's purges show
  // up in the router event counters, and the end-to-end layer recovers the
  // reclaimed packets (delivery stays >= 99% with zero gave-ups).
  std::uint64_t total_purged = 0, total_retx = 0;
  for (const int k : {2, 4, 8}) {
    const auto rep = run_with_deaths(k, heal_cfg(DegradedStrategy::SelfHeal));
    total_purged += rep.router_events.flits_dropped;
    total_retx += rep.degraded.retransmits;
  }
  EXPECT_GT(total_purged, 0u);
  EXPECT_GT(total_retx, 0u);
}

}  // namespace
}  // namespace rnoc::noc
