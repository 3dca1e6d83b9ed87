// Directed event-core tests (PR 6): the EventDriven core against the
// FullSweep oracle under the hard combinations — faults (permanent and
// transient) falling due in the middle of the drain phase, a degraded-mode
// router death and reroute epoch switch during drain, mesh reset-and-reuse
// inside the sweep runner — plus the FaultInjector's next_due_cycle gate and
// the mesh's next_event_cycle fast-forward bound, coherence traffic on the
// event-injection path, and a faulted-router fuzz over every fault site
// type. The _checked variant of this binary repeats everything with
// RNOC_INVARIANTS swept each cycle (which includes comparing every router's
// maintained VC-state masks with masks recomputed from scratch); the
// RNOC_TRACE sampling combination lives in test_obs.cpp (traced binary).
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "noc/sweep.hpp"
#include "traffic/coherence.hpp"
#include "traffic/patterns.hpp"

namespace rnoc::noc {
namespace {

void expect_identical(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(a.total_latency.count(), b.total_latency.count());
  EXPECT_EQ(a.total_latency.mean(), b.total_latency.mean());
  EXPECT_EQ(a.total_latency.max(), b.total_latency.max());
  EXPECT_EQ(a.network_latency.mean(), b.network_latency.mean());
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_received, b.packets_received);
  EXPECT_EQ(a.flits_received, b.flits_received);
  EXPECT_EQ(a.cycles_run, b.cycles_run);
  EXPECT_EQ(a.undelivered_flits, b.undelivered_flits);
  EXPECT_EQ(a.deadlock_suspected, b.deadlock_suspected);
  EXPECT_EQ(a.router_events.flits_traversed, b.router_events.flits_traversed);
  EXPECT_EQ(a.router_events.buffer_writes, b.router_events.buffer_writes);
  EXPECT_EQ(a.router_events.rc_computations, b.router_events.rc_computations);
  EXPECT_EQ(a.router_events.va_allocations, b.router_events.va_allocations);
  EXPECT_EQ(a.router_events.blocked_vc_cycles,
            b.router_events.blocked_vc_cycles);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

// --- Faults due mid-drain ---

TEST(EventCore, FaultsDueMidDrainBitIdentical) {
  // Injection stops at warmup + measure; the flits still in flight then
  // drain over the following cycles. Faults timed into that window hit a
  // network with no injector activity — the event core must wake the
  // affected routers off the fault notification alone, and a transient's
  // expiry mid-drain must be applied at the same cycle as in the sweep.
  SimConfig cfg;
  cfg.mesh.dims = {4, 4};
  cfg.mesh.router.mode = core::RouterMode::Protected;
  cfg.warmup = 300;
  cfg.measure = 1000;
  cfg.drain_limit = 4000;
  cfg.seed = 21;
  const Cycle drain_start = cfg.warmup + cfg.measure;

  fault::FaultPlan plan;
  // Tolerated by the protected router (secondary path / spare RC), so the
  // drain completes; one transient clears again while still draining.
  plan.add(drain_start + 2, 5, {fault::SiteType::XbMux, 1, 0});
  plan.add(drain_start + 4, 9, {fault::SiteType::RcPrimary, 2, 0},
           /*duration=*/30);
  plan.add(drain_start + 6, 10, {fault::SiteType::Sa2Arbiter, 3, 0});

  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.15;
  tc.packet_size = 4;

  SimReport reports[2];
  const SimCore cores[] = {SimCore::FullSweep, SimCore::EventDriven};
  for (int i = 0; i < 2; ++i) {
    SimConfig c = cfg;
    c.mesh.core = cores[i];
    Simulator sim(c, std::make_shared<traffic::SyntheticTraffic>(tc));
    sim.set_fault_plan(plan);
    reports[i] = sim.run();
  }
  // All three faults actually landed during the drain window.
  EXPECT_EQ(reports[0].faults_injected, 3);
  EXPECT_GT(reports[0].cycles_run, drain_start + 6);
  expect_identical(reports[0], reports[1]);
}

// --- Degraded-mode epoch switch during drain ---

TEST(EventCore, DegradedDeathMidDrainBitIdentical) {
  // A router killed after injection stopped forces the degraded-mode drain
  // barrier, table rebuild and reroute epoch switch to run entirely inside
  // the drain phase, followed by end-to-end retransmissions of whatever the
  // dead router swallowed.
  SimConfig cfg;
  cfg.mesh.dims = {8, 8};
  cfg.mesh.router.mode = core::RouterMode::Baseline;
  cfg.warmup = 300;
  cfg.measure = 1200;
  cfg.drain_limit = 60000;
  cfg.seed = 13;
  cfg.degraded.enabled = true;

  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.05;

  auto run = [&](SimCore core) {
    SimConfig c = cfg;
    c.mesh.core = core;
    Simulator sim(c, std::make_shared<traffic::SyntheticTraffic>(tc));
    Rng rng(42);
    sim.set_fault_plan(fault::FaultPlan::lethal(
        c.mesh.dims, {kMeshPorts, c.mesh.router.vcs}, c.mesh.router.mode,
        /*victims=*/1, cfg.warmup + cfg.measure + 5, rng));
    return sim.run();
  };

  const SimReport sweep = run(SimCore::FullSweep);
  EXPECT_EQ(sweep.degraded.router_deaths, 1u);
  EXPECT_GE(sweep.degraded.reroute_epochs, 1u);
  const SimReport fast = run(SimCore::EventDriven);
  expect_identical(sweep, fast);
  EXPECT_EQ(fast.degraded.router_deaths, sweep.degraded.router_deaths);
  EXPECT_EQ(fast.degraded.reroute_epochs, sweep.degraded.reroute_epochs);
  EXPECT_EQ(fast.degraded.retransmits, sweep.degraded.retransmits);
  EXPECT_EQ(fast.degraded.packets_acked, sweep.degraded.packets_acked);
  EXPECT_EQ(fast.degraded.flits_blackholed, sweep.degraded.flits_blackholed);
  EXPECT_EQ(fast.degraded.dropped_unreachable,
            sweep.degraded.dropped_unreachable);
}

// --- FaultInjector::next_due_cycle gate ---

TEST(EventCore, FaultInjectorNextDueCycleGatesExactly) {
  fault::FaultPlan plan;
  plan.add(100, 3, {fault::SiteType::XbMux, 1, 0});
  plan.add(250, 2, {fault::SiteType::RcPrimary, 0, 0}, /*duration=*/60);
  fault::FaultInjector inj(plan);

  MeshConfig mc;
  mc.dims = {2, 2};
  Mesh mesh(mc);

  // Before anything is due the gate points at the first entry and apply_due
  // is a provable no-op.
  EXPECT_EQ(inj.next_due_cycle(), 100u);
  EXPECT_EQ(inj.apply_due(99, mesh), 0);
  EXPECT_EQ(inj.next_due_cycle(), 100u);
  EXPECT_EQ(mesh.router(3).faults().count(), 0);

  // First (permanent) fault lands exactly at its cycle.
  EXPECT_EQ(inj.apply_due(100, mesh), 1);
  EXPECT_EQ(mesh.router(3).faults().count(), 1);
  EXPECT_EQ(inj.next_due_cycle(), 250u);

  // The transient's injection moves the gate to its expiry, not kNever.
  EXPECT_EQ(inj.apply_due(250, mesh), 1);
  EXPECT_EQ(mesh.router(2).faults().count(), 1);
  EXPECT_EQ(inj.next_due_cycle(), 310u);
  EXPECT_FALSE(inj.done());

  // Expiry clears the transient; afterwards nothing is ever due again.
  EXPECT_EQ(inj.apply_due(309, mesh), 0);
  EXPECT_EQ(mesh.router(2).faults().count(), 1);
  EXPECT_EQ(inj.apply_due(310, mesh), 0);
  EXPECT_EQ(mesh.router(2).faults().count(), 0);
  EXPECT_EQ(inj.next_due_cycle(), kNeverCycle);
  EXPECT_TRUE(inj.done());
  // The permanent fault stays.
  EXPECT_EQ(mesh.router(3).faults().count(), 1);
}

// --- DegradedModeController::next_due_cycle stale-head compaction ---

TEST(EventCore, DegradedNextDueCycleCompactsStaleHeads) {
  // The ack/timeout heaps are lazily invalidated: delivery disarms a
  // timeout without removing its heap entry. The due-cycle gate must pop
  // such stale heads instead of reporting a deadline nothing will act on —
  // an under-jumped fast-forward would wake the event core for a provable
  // no-op cycle (or, with every head stale, keep it awake forever).
  MeshConfig mc;
  mc.dims = {2, 2};
  mc.core = SimCore::EventDriven;
  Mesh mesh(mc);
  DegradedConfig dc;
  dc.enabled = true;
  dc.ack_delay = 8;
  dc.retx_timeout = 500;
  DegradedModeController ctl(mesh, dc);
  EXPECT_EQ(ctl.next_due_cycle(), kNeverCycle);  // Nothing tracked yet.

  PacketDesc p;
  p.id = 1;
  p.src = 0;
  p.dst = 3;
  p.size_flits = 3;
  mesh.ni(0).enqueue(p);
  Cycle now = 0;
  while (ctl.next_due_cycle() == kNeverCycle && now < 100) mesh.step(now++);
  // Tail injected: the armed delivery timeout is the only pending event.
  const Cycle deadline = ctl.next_due_cycle();
  ASSERT_NE(deadline, kNeverCycle);
  EXPECT_GE(deadline, dc.retx_timeout);

  while (mesh.packets_delivered() < 1 && now < 200) mesh.step(now++);
  ASSERT_EQ(mesh.packets_delivered(), 1u);
  Flit tail;
  tail.packet = p.id;
  EXPECT_TRUE(ctl.on_delivered(tail, now));
  // Delivery disarmed the timeout; its heap head is now stale and the gate
  // must jump BACK to the ack, not report the dead deadline.
  EXPECT_EQ(ctl.next_due_cycle(), now + dc.ack_delay);

  // The ack retires the entry; with both heaps stale-or-empty the gate is
  // idle-forever, so the event core can fast-forward past the old deadline.
  ctl.step(now + dc.ack_delay);
  EXPECT_EQ(ctl.stats().packets_acked, 1u);
  EXPECT_EQ(ctl.next_due_cycle(), kNeverCycle);
}

// --- Mesh reset-and-reuse in the sweep runner ---

SweepJob sweep_job(double rate, std::uint64_t seed, bool faulted) {
  SweepJob job;
  job.cfg.mesh.dims = {4, 4};
  job.cfg.mesh.router.mode = core::RouterMode::Protected;
  job.cfg.warmup = 200;
  job.cfg.measure = 800;
  job.cfg.drain_limit = 3000;
  job.cfg.seed = seed;
  traffic::SyntheticConfig tc;
  tc.injection_rate = rate;
  job.make_traffic = [tc] {
    return std::make_shared<traffic::SyntheticTraffic>(tc);
  };
  if (faulted) {
    Rng rng(seed);
    job.faults = fault::FaultPlan::random(
        job.cfg.mesh.dims, {kMeshPorts, job.cfg.mesh.router.vcs},
        core::RouterMode::Protected, 4, job.cfg.warmup + job.cfg.measure, rng,
        /*tolerable_only=*/true);
  }
  return job;
}

TEST(EventCore, MeshReuseBitIdenticalToFreshConstruction) {
  // Same-config jobs run back-to-back on one runner reuse the cached mesh
  // via Mesh::reset_for_run; with reuse disabled every job constructs a
  // fresh mesh. Both orderings must produce byte-identical report streams,
  // including jobs that leave faults and fault-state behind for the next
  // job's reset to erase.
  std::vector<SweepJob> jobs = {
      sweep_job(0.10, 1, /*faulted=*/true),
      sweep_job(0.05, 2, /*faulted=*/false),  // same cfg shape -> mesh reused
      sweep_job(0.10, 3, /*faulted=*/true),
      sweep_job(0.10, 1, /*faulted=*/true),  // repeat of job 0
  };
  SweepRunner reuse;
  reuse.set_reuse_mesh(true);
  SweepRunner fresh;
  fresh.set_reuse_mesh(false);
  const auto a = reuse.run(jobs);
  const auto b = fresh.run(jobs);
  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(a[i], b[i]);
  }
  // Determinism across the reuse boundary: the repeated job reproduces the
  // first run exactly even though it ran on a recycled mesh.
  expect_identical(a[0], a[3]);
}

// --- next_event_cycle / idle fast-forward ---

TEST(EventCore, NextEventCycleBoundsQuiescence) {
  MeshConfig mc;
  mc.dims = {4, 4};
  mc.core = SimCore::EventDriven;
  Mesh m(mc);
  // A mesh with nothing queued is provably quiescent forever.
  m.step(0);
  EXPECT_EQ(m.next_event_cycle(), kNeverCycle);

  // Enqueuing work makes the next step a real event again.
  PacketDesc p;
  p.id = 1;
  p.src = 0;
  p.dst = 15;
  p.size_flits = 3;
  m.ni(0).enqueue(p);
  EXPECT_NE(m.next_event_cycle(), kNeverCycle);

  // Run the packet to delivery; afterwards the mesh is quiescent again.
  Cycle now = 1;
  for (; now < 200 && m.packets_delivered() < 1; ++now) m.step(now);
  EXPECT_EQ(m.packets_delivered(), 1u);
  for (Cycle c = 0; c < 3; ++c) m.step(now + c);
  EXPECT_EQ(m.next_event_cycle(), kNeverCycle);
}

TEST(EventCore, SparseTrafficBitIdenticalAcrossFastForward) {
  // At very low load the event core's idle fast-forward skips most cycles;
  // the skipped cycles must be provable no-ops, i.e. the report still
  // matches the oracle that ticked every one of them.
  SimConfig cfg;
  cfg.mesh.dims = {4, 4};
  cfg.warmup = 500;
  cfg.measure = 4000;
  cfg.drain_limit = 8000;
  cfg.seed = 3;
  traffic::SyntheticConfig tc;
  tc.injection_rate = 0.002;
  tc.packet_size = 5;

  SimReport reports[2];
  const SimCore cores[] = {SimCore::FullSweep, SimCore::EventDriven};
  for (int i = 0; i < 2; ++i) {
    SimConfig c = cfg;
    c.mesh.core = cores[i];
    Simulator sim(c, std::make_shared<traffic::SyntheticTraffic>(tc));
    reports[i] = sim.run();
  }
  EXPECT_GT(reports[0].packets_received, 0u);
  expect_identical(reports[0], reports[1]);
}

// --- Coherence traffic on the event-injection path ---

TEST(EventCore, CoherenceNextInjectionReplaysGenerate) {
  // next_injection must consume the node's RNG exactly like per-cycle
  // generate() calls and return the same packets at the same cycles.
  traffic::CoherenceConfig cc;
  cc.request_rate = 0.03;
  traffic::CoherenceTraffic model(cc);
  model.init({4, 4});
  const Cycle horizon = 3000;
  for (const NodeId node : {NodeId{0}, NodeId{9}}) {
    Rng sweep_rng(77 + static_cast<std::uint64_t>(node));
    Rng event_rng = sweep_rng;
    std::vector<std::pair<Cycle, PacketDesc>> swept, evented;
    std::vector<PacketDesc> out;
    for (Cycle c = 0; c < horizon; ++c) {
      out.clear();
      model.generate(c, node, sweep_rng, out);
      for (const PacketDesc& p : out) swept.emplace_back(c, p);
    }
    for (Cycle from = 0; from < horizon;) {
      out.clear();
      const Cycle at =
          model.next_injection(from, horizon, node, event_rng, out);
      if (at == kNeverCycle) break;
      for (const PacketDesc& p : out) evented.emplace_back(at, p);
      from = at + 1;
    }
    ASSERT_EQ(swept.size(), evented.size());
    EXPECT_GT(swept.size(), 10u);
    for (std::size_t i = 0; i < swept.size(); ++i) {
      EXPECT_EQ(swept[i].first, evented[i].first);
      EXPECT_EQ(swept[i].second.dst, evented[i].second.dst);
      EXPECT_EQ(swept[i].second.traffic_class, evented[i].second.traffic_class);
      EXPECT_EQ(swept[i].second.payload, evented[i].second.payload);
    }
    // Both streams end in the same RNG state.
    EXPECT_EQ(sweep_rng(), event_rng());
  }
}

// --- Faulted-router fuzz ---

/// A plan hitting every router SiteType on random routers and sites, at
/// random cycles: permanently (several times per type, so routers carry
/// fault combinations, and densely for the VA stage-1 arbiter sets, so
/// ports carry several and borrowers compete for lenders) and as short
/// transients that expire mid-run, leaving stale SP/FSP fields (crossbar
/// faults) and stale VA exclusions (stage-2 arbiter faults) behind in VCs
/// still holding their packets. The uncoverable P-select mux fault is only
/// injected transiently, so protected meshes keep flowing.
fault::FaultPlan fuzz_plan(const MeshDims& dims, const fault::FaultGeometry& g,
                           Cycle horizon, Rng& rng) {
  const auto sites = fault::RouterFaultState::enumerate_sites(
      g, /*include_correction=*/true);
  fault::FaultPlan plan;
  for (int t = 0; t <= static_cast<int>(fault::SiteType::XbPSelect); ++t) {
    std::vector<fault::FaultSite> of_type;
    for (const fault::FaultSite& s : sites)
      if (static_cast<int>(s.type) == t) of_type.push_back(s);
    const auto type = static_cast<fault::SiteType>(t);
    const int permanent = type == fault::SiteType::XbPSelect       ? 0
                          : type == fault::SiteType::Va1ArbiterSet ? 10
                                                                   : 3;
    for (int k = 0; k < permanent + 2; ++k) {
      const Cycle duration = k < permanent ? 0 : 10 + rng.next_below(60);
      const fault::FaultSite site = of_type[rng.next_below(of_type.size())];
      const auto router = static_cast<NodeId>(
          rng.next_below(static_cast<std::uint64_t>(dims.nodes())));
      plan.add(rng.next_below(horizon), router, site, duration);
    }
  }
  return plan;
}

struct FuzzCase {
  core::RouterMode mode;
  bool coherence;  ///< Coherence traffic (two vnets) instead of uniform.
  int vcs;
  RoutingAlgo routing;
  bool transient_only;  ///< Drop the permanent half of the fuzz plan.
};

constexpr FuzzCase kFuzzCases[] = {
    {core::RouterMode::Protected, false, 4, RoutingAlgo::XY, false},
    {core::RouterMode::Baseline, false, 4, RoutingAlgo::XY, false},
    {core::RouterMode::Protected, true, 2, RoutingAlgo::XY, false},
    {core::RouterMode::Baseline, true, 4, RoutingAlgo::XY, false},
    {core::RouterMode::Protected, false, 3, RoutingAlgo::OddEven, false},
    {core::RouterMode::Protected, false, 4, RoutingAlgo::XY, true},
};
constexpr std::uint64_t kFuzzSeeds = 3;

struct FuzzRun {
  SimReport report;
  std::vector<RouterStats> routers;
};

FuzzRun run_fuzz_case(const FuzzCase& fc, std::uint64_t seed, SimCore core) {
  SimConfig cfg;
  cfg.mesh.dims = {4, 4};
  cfg.mesh.core = core;
  cfg.mesh.router.mode = fc.mode;
  cfg.mesh.router.vcs = fc.vcs;
  cfg.mesh.router.vnets = fc.coherence ? 2 : 1;
  cfg.mesh.router.routing = fc.routing;
  cfg.mesh.router.default_winner_epoch = 4;
  cfg.warmup = 200;
  cfg.measure = 1500;
  cfg.drain_limit = 3000;
  cfg.progress_timeout = 1500;
  cfg.seed = seed;
  Rng rng(seed * 1000 + static_cast<std::uint64_t>(fc.vcs));
  fault::FaultPlan plan = fuzz_plan(
      cfg.mesh.dims, {kMeshPorts, fc.vcs, cfg.mesh.router.vnets},
      cfg.warmup + cfg.measure, rng);
  if (fc.transient_only) {
    fault::FaultPlan transients;
    for (const fault::ScheduledFault& f : plan.entries())
      if (f.duration != 0) transients.add(f.at, f.router, f.site, f.duration);
    plan = transients;
  }
  std::shared_ptr<traffic::TrafficModel> model;
  if (fc.coherence) {
    traffic::CoherenceConfig cc;
    cc.request_rate = 0.02;
    model = std::make_shared<traffic::CoherenceTraffic>(cc);
  } else {
    traffic::SyntheticConfig tc;
    tc.injection_rate = 0.15;
    tc.packet_size = 4;
    model = std::make_shared<traffic::SyntheticTraffic>(tc);
  }
  Simulator sim(cfg, model);
  sim.set_fault_plan(plan);
  FuzzRun run;
  run.report = sim.run();
  for (NodeId n = 0; n < sim.mesh().nodes(); ++n)
    run.routers.push_back(sim.mesh().router(n).stats());
  return run;
}

/// FNV-1a digest of a run's simulated outcome: report totals, latency
/// statistics and every router's event counters.
std::uint64_t digest(const FuzzRun& run) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_double = [&mix](double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  };
  const SimReport& r = run.report;
  mix(r.cycles_run);
  mix(r.packets_sent);
  mix(r.packets_received);
  mix(r.flits_received);
  mix(r.undelivered_flits);
  mix(r.deadlock_suspected ? 1 : 0);
  mix(static_cast<std::uint64_t>(r.faults_injected));
  mix(r.total_latency.count());
  mix_double(r.total_latency.mean());
  mix_double(r.total_latency.max());
  mix_double(r.network_latency.mean());
  for (const RouterStats& s : run.routers) {
    for (const std::uint64_t v :
         {s.flits_traversed, s.buffer_writes, s.va_allocations,
          s.rc_computations, s.rc_spare_uses, s.va1_borrows,
          s.va1_borrow_waits, s.va2_retries, s.sa1_bypass_grants,
          s.sa1_transfers, s.xb_secondary_traversals, s.blocked_vc_cycles,
          s.flits_swallowed, s.escape_reroutes, s.flits_dropped})
      mix(v);
  }
  return h;
}

TEST(EventCore, FaultedRouterFuzzAllCoresIdentical) {
  // Faulted routers run the same mask-gated SA/VA/RC stages as fault-free
  // ones. Both cores must agree on the report and on each router's
  // protection-mechanism counters, whatever the fault mix.
  RouterStats fired;
  for (std::uint64_t seed = 1; seed <= kFuzzSeeds; ++seed) {
    for (const FuzzCase& fc : kFuzzCases) {
      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " mode " << static_cast<int>(fc.mode)
                   << " coherence " << fc.coherence << " vcs " << fc.vcs
                   << " transient_only " << fc.transient_only);
      const FuzzRun sweep = run_fuzz_case(fc, seed, SimCore::FullSweep);
      EXPECT_GT(sweep.report.faults_injected, 0);
      const FuzzRun fast = run_fuzz_case(fc, seed, SimCore::EventDriven);
      expect_identical(sweep.report, fast.report);
      EXPECT_TRUE(sweep.report.router_events == fast.report.router_events);
      for (std::size_t n = 0; n < sweep.routers.size(); ++n)
        EXPECT_TRUE(sweep.routers[n] == fast.routers[n]) << "router " << n;
      fired.merge(sweep.report.router_events);
    }
  }
  // The fuzz reached every protection mechanism and the blocked paths.
  EXPECT_GT(fired.rc_spare_uses, 0u);
  EXPECT_GT(fired.va1_borrows, 0u);
  EXPECT_GT(fired.va1_borrow_waits, 0u);
  EXPECT_GT(fired.va2_retries, 0u);
  EXPECT_GT(fired.sa1_bypass_grants, 0u);
  EXPECT_GT(fired.sa1_transfers, 0u);
  EXPECT_GT(fired.xb_secondary_traversals, 0u);
  EXPECT_GT(fired.blocked_vc_cycles, 0u);
}

TEST(EventCore, FaultedRouterFuzzMatchesScanningReference) {
  // Cross-core identity cannot see a fault-handling slip inside the shared
  // stage functions. These digests pin each fuzz case's FullSweep outcome
  // to the one produced by the earlier scanning allocators (one full VC
  // scan per port per stage, fault checks per site), so the mask-gated
  // stages must reproduce them bit for bit.
  constexpr std::uint64_t kReference[kFuzzSeeds][std::size(kFuzzCases)] = {
      {0x7185dfb9a606b3d2ull, 0x0bd1db71b49276adull, 0x35b14a041a3ec2aeull,
       0x37d44232666f4e1full, 0x929faf06bd78bc5full, 0xfe80870fec0a5b36ull},
      {0xd22a09bd77f854b1ull, 0x36db0e2b4eb85458ull, 0xc5e77d1f30ff506aull,
       0xd08975eeed952dbfull, 0x32dabd90619b9848ull, 0x034f4a91b396ec7full},
      {0x38954df7a33c37ffull, 0x834e56c5cf1c6836ull, 0x3ee72e1cd3681372ull,
       0xe0c1d5b10dc34460ull, 0x864730d7f2a26494ull, 0x126c4d1fcb645f90ull},
  };
  for (std::uint64_t seed = 1; seed <= kFuzzSeeds; ++seed) {
    for (std::size_t i = 0; i < std::size(kFuzzCases); ++i) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " case " << i);
      EXPECT_EQ(digest(run_fuzz_case(kFuzzCases[i], seed, SimCore::FullSweep)),
                kReference[seed - 1][i]);
    }
  }
}

}  // namespace
}  // namespace rnoc::noc
