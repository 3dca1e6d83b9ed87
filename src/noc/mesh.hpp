// 2D-mesh network: routers, NIs and the links wiring them together.
//
// The mesh offers two stepping cores (MeshConfig::core):
//
//  - FullSweep: every router, every stage, every cycle, with the VC-state
//    masks the stages iterate recomputed from scratch before each stage.
//    Kept as the bit-identity oracle for the determinism tests.
//  - EventDriven (default): only routers with work (buffered flits, pending
//    switch-traversal grants, or a link delivery due this cycle) and NIs
//    with injection work are stepped; quiescent components are re-woken
//    exactly at the cycle a link event becomes takeable. One schedule
//    drives it: a ring of per-cycle bitmaps over event records, 16 per
//    router (flit and credit deliveries, NI and router wakes), on which
//    links and NIs mark their records directly. Adds per-stage event gating (link ready
//    peeks, empty-mask stage skips) and stalled-router retirement; with
//    Simulator's idle fast-forward it jumps the clock across cycles in
//    which no component can make progress. Bit-identical to the full sweep
//    (test-enforced).
//
// Both cores drive the same per-stage Router functions; EventDriven trusts
// the incrementally maintained VC-state masks.
//
// Incremental accounting: a NetCounters instance shared with every link,
// input port and NI makes flits_in_network(), packets_delivered() and
// all_injection_idle() O(1) — the simulator's per-cycle watchdog and drain
// checks no longer sweep the network.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "noc/event_ring.hpp"
#include "noc/link.hpp"
#include "noc/net_counters.hpp"
#include "noc/network_interface.hpp"
#include "noc/router.hpp"
#include "noc/routing.hpp"
#include "noc/self_heal.hpp"
#include "obs/observer.hpp"

namespace rnoc::noc {

/// Simulation core selection (see the file comment). Both produce
/// bit-identical SimReports; they differ only in how much work they skip.
enum class SimCore : std::uint8_t {
  FullSweep,    ///< Seed reference: step everything every cycle.
  EventDriven,  ///< Wake scheduling + stage gating + idle fast-forward.
};

const char* sim_core_name(SimCore core);

struct MeshConfig {
  MeshDims dims{8, 8};
  RouterConfig router{};
  Cycle link_latency = 1;
  /// Nonzero bit-upset probabilities give every link a SECDED-protected
  /// datapath (per-flit single/double upset rates; see noc/link.hpp).
  double link_single_ber = 0.0;
  double link_double_ber = 0.0;
  std::uint64_t ecc_seed = 0x5ecded;
  /// Which stepping core runs this mesh. Both cores are bit-identical;
  /// FullSweep exists as the oracle and for benchmarking.
  SimCore core = SimCore::EventDriven;
  /// Observability layer settings; only consulted in builds configured
  /// with -DRNOC_TRACE=ON (a POD, so it is embedded unconditionally).
  obs::ObsConfig obs{};

  friend bool operator==(const MeshConfig&, const MeshConfig&) = default;
};

class NocChecker;

class Mesh {
 public:
  explicit Mesh(const MeshConfig& cfg);
  ~Mesh();

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  const MeshConfig& config() const { return cfg_; }
  const MeshDims& dims() const { return cfg_.dims; }
  int nodes() const { return cfg_.dims.nodes(); }

  Router& router(NodeId n);
  const Router& router(NodeId n) const;
  NetworkInterface& ni(NodeId n);
  const NetworkInterface& ni(NodeId n) const;

  /// Advances the whole network by one cycle.
  void step(Cycle now);

 private:
  /// The EventDriven body of step(): event-record dispatch into the bitmask
  /// active sets, fused per-router stepping (stage-major in traced builds).
  void step_event_core(Cycle now);

 public:

  /// Earliest future cycle at which any network component can make
  /// progress, or kNeverCycle when the network is fully quiescent (no
  /// active component, no scheduled event record). Only meaningful for the
  /// EventDriven core, evaluated right after step(now): every cycle before
  /// the returned one is provably a network no-op, so the simulator's idle
  /// fast-forward may skip straight to it.
  Cycle next_event_cycle() const;

  /// Restores the whole network (routers, NIs, links, counters, event
  /// schedule, checker/observer state) to its just-constructed state so
  /// a fresh Simulator can run on it without reallocating anything.
  /// Validated bit-identical to fresh construction by the sweep tests.
  void reset_for_run();

  /// Installs fault-aware routing tables on every router (nullptr -> XY).
  /// The tables must outlive the mesh or the next call.
  void set_routing_tables(const FaultAwareTables* tables);

  /// Flits currently buffered in routers or in flight on links. O(1).
  int flits_in_network() const {
    return static_cast<int>(counters_.flits_in_network());
  }

  /// O(nodes + links) recount of flits_in_network(), for validating the
  /// incremental counters in tests.
  int recount_flits_in_network() const;

  /// Total packets delivered (tail ejections) across all NIs. O(1).
  std::uint64_t packets_delivered() const {
    return counters_.packets_delivered;
  }

  /// True when every NI's injection path is idle (no queued or partially
  /// sent packets). O(1).
  bool all_injection_idle() const { return counters_.active_injectors == 0; }

  /// Tells the scheduler a fault was injected into / removed from `router`
  /// so the router is re-evaluated even if currently quiescent.
  void notify_fault(NodeId router);

  // --- Degraded mode (router death + online reroute) ---

  /// Declares router `n` dead: purges its buffers with upstream credit
  /// refunds and turns it into a credit-neutral black hole (see
  /// Router::decommission). Returns false if it was already dead.
  bool kill_router(NodeId n, Cycle now);

  /// True when no link holds an in-flight flit or credit. O(links); only
  /// polled while waiting at a degraded-mode drain barrier.
  bool links_idle() const;

  /// True when some NI is mid-serialization of a packet.
  bool any_ni_sending() const;

  /// Hard reset of every router's and NI's flow-control state to power-on
  /// values (degraded-mode drain barrier). Requires an empty network:
  /// no buffered flits, idle links, no NI mid-packet.
  void reset_flow_control();

  // --- Self-healing adaptive routing (degraded SelfHeal strategy) ---

  /// Shared fault-knowledge network every router reads during RC. Inert
  /// until activate_self_heal(); the controller drives mark_dead/propagate
  /// and table installs through this reference.
  SelfHealNet& self_heal() { return self_heal_; }
  const SelfHealNet& self_heal() const { return self_heal_; }

  /// Arms the self-heal machinery (first router death): reserves logical VC
  /// `escape_vc` as the west-first escape class on every router's VC
  /// allocator and blocks every NI from injecting new packets onto it.
  void activate_self_heal(int escape_vc);

  /// True when the escape class is empty network-wide: no input VC holds or
  /// routes on logical VC `evc`, no downstream allocation, no pending
  /// crossbar grant, no in-flight link flit addressed to it, and no NI is
  /// serializing onto it. The install barrier for a new escape-table
  /// generation (routes from two generations must never mix in the class).
  bool escape_class_clear(int evc) const;

  /// Drops every packet the RC stage flagged unroutable this cycle
  /// (Router::purge_unroutable on each router) and re-primes the invariant
  /// checker's pipeline shadow. Returns the number of purged packets.
  int purge_unroutable(Cycle now);

  /// Fragment reclamation after router deaths (SelfHeal strategy, which has
  /// no drain barrier to clean truncated packets). Collects the streams the
  /// decommission purge cut mid-forward, purges their headless remainders
  /// from every live router, releases the downstream VC allocations those
  /// remainders held, arms poison filters (router input ports and the
  /// destination NIs) for remnants still in flight, and aborts any
  /// reassembly a fragment had opened. Wakes every touched router and
  /// re-primes the invariant checker. Returns the number of VCs purged.
  int reclaim_truncated(Cycle now);

  /// Routers stepped by the most recent step() call (== nodes() under
  /// FullSweep). Scheduling telemetry for benchmarks.
  int routers_stepped_last_cycle() const { return stepped_last_cycle_; }

  /// Sum of all routers' event counters.
  RouterStats aggregate_router_stats() const;

  /// Aggregate ECC-link statistics (all zeros when links are plain).
  EccLinkStats aggregate_ecc_stats() const;

#ifdef RNOC_INVARIANTS
  /// The runtime invariant checker wired across this mesh (checked builds
  /// only). Tests use it to tune the watchdog and install a throwing
  /// violation handler.
  NocChecker& invariant_checker() { return *checker_; }
#endif

#ifdef RNOC_TRACE
  /// The observability layer wired across this mesh (traced builds only):
  /// flit trace ring plus the stall-cause metrics registry.
  obs::Observer& observer() { return *observer_; }
  const obs::Observer& observer() const { return *observer_; }
#endif

  /// Total stall cycles charged to each router by the metrics registry
  /// (HeatmapMetric::StallCycles); all zeros in untraced builds.
  std::vector<std::uint64_t> stall_cycles_per_router() const;

 private:
  /// Registers one link's endpoints with the invariant checker; compiles to
  /// an empty inline call in unchecked builds. Upstream holds the credit
  /// counters, downstream the buffers; per endpoint exactly one of
  /// (router, ni) is non-null.
  void note_channel(Link* link, Router* up_router, int up_port,
                    NetworkInterface* up_ni, Router* down_router,
                    int down_port, NetworkInterface* down_ni);

  /// Event records of the event core's schedule (events_). A record
  /// encodes `router << 4 | kind` with kind `port << 1 | 0` (flit due on
  /// the router's input port), `port << 1 | 1` (credit due on its output
  /// port), kNiWake (wake the router's NI) or kRouterWake (wake the
  /// router). Draining a cycle's set bits in ascending order reproduces the
  /// full sweep's accept order — router ascending, port ascending, flit
  /// before credit — with dedup for free. Draining a delivery or a router
  /// wake marks the router active, an NI wake marks the NI active. Links
  /// and NIs schedule their records on the ring directly; fault
  /// notifications go through notify_fault. FullSweep wires no ring.
  /// Record kinds past the port records (ports use kinds 0..9).
  static constexpr std::uint32_t kNiWake = 0xE;
  static constexpr std::uint32_t kRouterWake = 0xF;
  static_assert((static_cast<std::uint32_t>(kMeshPorts - 1) << 1 | 1u) <
                    kNiWake,
                "port records must stay below the wake kinds");

  MeshConfig cfg_;
  std::vector<Router> routers_;
  std::vector<NetworkInterface> nis_;
  std::vector<Link> links_;  ///< Sized once; routers and NIs point into it.
  NetCounters counters_;
  SelfHealNet self_heal_;  ///< Shared fault-vector net (inert until armed).

  // --- Active-component scheduling state (EventDriven core) ---
  /// Active sets as bitmask words (bit b of word w = component 64w + b):
  /// set-bit iteration visits components in ascending order with no sort,
  /// no dedup byte and no compaction, and retirement is a bit clear.
  std::vector<std::uint64_t> active_router_words_;
  std::vector<std::uint64_t> active_ni_words_;
  /// The event schedule: per-cycle bitmaps over the records above, 16 per
  /// router. Every event is at most link_latency + 1 cycles past the first
  /// undrained cycle (a retransmission lands one cycle after its due
  /// cycle), so the horizon is link_latency + 2.
  EventRing events_;
  std::vector<std::uint64_t> due_words_;  ///< Per-step scratch.
  int stepped_last_cycle_ = 0;
#ifdef RNOC_INVARIANTS
  std::unique_ptr<NocChecker> checker_;
#endif
#ifdef RNOC_TRACE
  std::unique_ptr<obs::Observer> observer_;
#endif
};

}  // namespace rnoc::noc
