// The NoC router: a 4-stage (RC -> VA -> SA -> XB) virtual-channel router
// (paper §II) that can run as the unprotected baseline or as the paper's
// fault-tolerant protected router (§V), selected by RouterConfig::mode.
//
// Per simulation cycle the owning Mesh calls, in order:
//   step_accept  - buffer-write: drain arriving flits and credits
//   step_st      - switch traversal of the previous cycle's SA winners
//   step_sa      - switch allocation (with bypass / secondary-path logic)
//   step_va      - virtual-channel allocation (with arbiter sharing)
//   step_rc      - route computation (with the duplicate RC unit)
// A head flit therefore spends one cycle in each stage; with the 1-cycle
// link this gives the canonical 4-stage-pipeline hop latency.
#pragma once

#include <span>
#include <vector>

#include "core/protection.hpp"
#include "fault/fault_model.hpp"
#include "noc/crossbar.hpp"
#include "noc/input_port.hpp"
#include "noc/link.hpp"
#include "noc/router_state.hpp"
#include "noc/routing.hpp"
#include "noc/self_heal.hpp"
#include "noc/sw_allocator.hpp"
#include "noc/table_routing.hpp"
#include "noc/vc_allocator.hpp"
#include "obs/observer.hpp"

namespace rnoc::noc {

/// Routing algorithm the RC stage runs (fault-aware tables, when installed,
/// override either).
enum class RoutingAlgo {
  XY,       ///< Deterministic dimension-order (the paper's setup).
  OddEven,  ///< Minimal adaptive under the odd-even turn model.
};

/// What the RC stage decided for one head flit.
enum class RcOutcome {
  Granted,     ///< Route committed; the VC advances to VcAlloc.
  Blocked,     ///< An untolerated fault blocks the VC this cycle (retry).
  Unreachable  ///< Fault-aware tables have no path to the destination.
};

struct RouterConfig {
  int vcs = 4;       ///< Virtual channels per input port.
  int vc_depth = 4;  ///< Flit slots per VC.
  core::RouterMode mode = core::RouterMode::Protected;
  RoutingAlgo routing = RoutingAlgo::XY;
  /// Cycles each VC spends as the SA bypass path's default winner.
  Cycle default_winner_epoch = 16;
  /// Virtual networks (protocol classes). Must divide vcs evenly. Packets
  /// of traffic class c are confined to the VCs of vnet (c mod vnets).
  int vnets = 1;

  friend bool operator==(const RouterConfig&, const RouterConfig&) = default;
};

/// A packet the decommission purge cut after its head had already been
/// forwarded: a headless remainder of it lives (or is in flight) beyond
/// `out_port`. Consumed by Mesh::reclaim_truncated, the self-heal
/// controller's fragment-reclamation sweep; the drain-reroute strategy
/// ignores these (its barrier reset cleans fragments wholesale).
struct TruncatedStream {
  PacketId packet = 0;
  NodeId dst = kInvalidNode;  ///< Packet destination (NI filter arming).
  int out_port = -1;          ///< Output port the head left through.
  int out_vc = -1;            ///< Downstream VC it held (logical id).
};

class Router {
 public:
  Router(NodeId id, const MeshDims& dims, const RouterConfig& cfg);

  NodeId id() const { return id_; }
  int ports() const { return kMeshPorts; }
  int vcs() const { return cfg_.vcs; }
  const RouterConfig& config() const { return cfg_; }

  /// Wiring (done once by the Mesh). Input links deliver flits to port
  /// `port` and carry our credits upstream; output links take our flits and
  /// bring the downstream node's credits back.
  void attach_input(int port, Link* link);
  void attach_output(int port, Link* link);

  /// One function per pipeline stage, driven by every simulator core. SA,
  /// VA and RC visit only the ports/VCs set in the VC-state masks and read
  /// faults through the fault-state masks, so a faulted router runs the
  /// same masked stages as a fault-free one.
  void step_accept(Cycle now);
  void step_st(Cycle now);
  void step_sa(Cycle now);
  void step_va(Cycle now);
  void step_rc(Cycle now);

  /// FullSweep oracle: overwrites the incrementally maintained VC-state
  /// masks with masks recomputed from the VCs' states. Called before each
  /// mask-driven stage, so the oracle never depends on the upkeep the other
  /// cores rely on, and any upkeep slip shows up as a cross-core mismatch.
  void rebuild_vc_masks();

  /// The incrementally maintained VC-state masks, and the same masks
  /// recomputed from the VCs' current states (the two must always agree;
  /// the invariant checker compares them every cycle).
  const RouterVcMasks& vc_masks() const { return in_.masks(); }
  RouterVcMasks fresh_vc_masks() const { return in_.compute_masks(); }

  /// Delivery-event entry points (event core): called by the Mesh when a
  /// link's scheduled delivery cycle arrives, instead of scanning every
  /// port's links. accept_flit_due writes at most one arrived flit from
  /// input port `p`'s link straight into its VC (exactly what one
  /// step_accept visit does) and returns the link's next ready cycle
  /// afterwards, so the Mesh can reschedule when a further flit is already
  /// waiting behind the one just taken (kNeverCycle when none).
  /// drain_credits_due applies exactly the credits that have arrived on
  /// output port `p`'s return link.
  Cycle accept_flit_due(int p, Cycle now);
  void drain_credits_due(int p, Cycle now);

  /// Fused event-core cycle: runs ST -> SA -> VA -> RC (the post-accept
  /// stages; deliveries were already dispatched by the Mesh), skipping each
  /// stage whose mask is empty, and evaluates the retirement condition in
  /// one pass. Faulted and fault-free routers run the same masked stages.
  /// Returns true when the router must stay active next cycle: it holds
  /// pending work AND (grants are pending, a fault is present, or some
  /// stage made progress this cycle). A stalled fault-free router whose
  /// digest did not change is a provable no-op until the next wake. The
  /// stages only touch router-local state and push onto links whose
  /// deliveries mature next cycle, so fusing per router is
  /// order-equivalent to the sweep's stage-major order.
  bool step_cycle_event(Cycle now);

  /// Monotonic counter summarising every form of pipeline progress a
  /// fault-free router can make in a cycle (buffer writes, swallows,
  /// traversals, blocked-VC retries, VA allocations, RC computations, SA
  /// packet transfers). The event core retires a fault-free router whose
  /// digest did not change over a stepped cycle and whose ST queue is empty:
  /// every input that could un-stall it (flit, credit, fault) arrives
  /// through a wake.
  std::uint64_t progress_digest() const {
    return stats_.buffer_writes + stats_.flits_swallowed +
           stats_.flits_traversed + stats_.blocked_vc_cycles +
           stats_.va_allocations + stats_.rc_computations +
           stats_.sa1_transfers;
  }

  /// Restores the router to its just-constructed state (Mesh::reset_for_run):
  /// buffers, VC/flow-control state, arbiter pointers, stats, faults, death.
  void reset_for_run();

  fault::RouterFaultState& faults() { return faults_; }
  const fault::RouterFaultState& faults() const { return faults_; }

  /// Switches the RC stage from XY routing to fault-aware tables (network-
  /// level rerouting). Pass nullptr to return to XY. The tables must outlive
  /// the router.
  void set_routing_tables(const FaultAwareTables* tables);

  /// Wires the self-healing routing state (degraded SelfHeal strategy; set
  /// once by the Mesh). While the net is inactive the RC stage behaves
  /// exactly as without it; once activated, odd-even candidates are filtered
  /// by the local fault vector with the west-first escape VC as fallback.
  void set_self_heal(const SelfHealNet* sh) { sh_ = sh; }

  /// Arms the VA stage's escape-VC class: logical VC `evc` is granted only
  /// to packets RC flagged for the escape path, and those packets get
  /// nothing else (-1 disarms). Called at self-heal activation.
  void set_escape_vc(int evc) { va_.set_escape_vc(evc); }

  /// True when RC proved some buffered packet unroutable even via the
  /// escape tables; cleared by purge_unroutable.
  bool has_unroutable() const { return has_unroutable_; }

  /// Controller-executed drop of every unroutable packet flagged by RC:
  /// pops its buffered flits with upstream credit returns, arms the
  /// drop-until-tail filter for the in-flight remainder, and resets the VC.
  /// Returns the number of packets purged. Must run between mesh steps (the
  /// caller follows up with a checker history reset, as after a kill).
  int purge_unroutable(Cycle now);

  /// Streams the decommission purge truncated mid-forward (their heads
  /// already downstream), moved out — and thereby cleared — by the
  /// reclamation sweep. Stays empty for routers that never died.
  std::vector<TruncatedStream> take_truncated() {
    return std::move(truncated_);
  }

  /// Self-heal reclamation: purges every input VC occupied by one of the
  /// flagged packets — upstream credit refunds exactly like decommission —
  /// cancelling its pending switch grant, releasing the downstream VC it
  /// held, and arming this port's poison filter for the in-flight remnants.
  /// Each released allocation whose head already left is appended to
  /// `downstream` so the Mesh can arm the neighbour's filter too. Returns
  /// the number of VCs purged; the caller follows up with a checker history
  /// reset, as after a kill.
  int purge_poisoned(const std::vector<PacketId>& ids, Cycle now,
                     std::vector<TruncatedStream>& downstream);

  /// True once decommission() ran: the router is a dead black hole.
  bool dead() const { return dead_; }

  /// Declares the router dead (degraded mode). Cancels pending switch
  /// traversals with credit refunds, purges every buffered flit while
  /// returning its credit upstream (so neighbours' flow control stays
  /// conserved), and from then on step_accept swallows arriving flits with
  /// an immediate credit return; the pipeline stages become no-ops.
  void decommission(Cycle now);

  /// Returns all flow-control state (input VCs, output-VC credit counters,
  /// pending grants) to power-on values. Only legal at a degraded-mode
  /// drain barrier, when the network provably holds no flits and no
  /// credits are in flight.
  void reset_flow_state();

  const RouterStats& stats() const { return stats_; }
  /// View of input port `p` of this router's flat VC state.
  InputPort input_port(int p);
  const InputPort input_port(int p) const;
  OutVcState out_vc(int port, int vc) const;

  /// Switch-traversal grants issued by this cycle's SA stage, consumed by
  /// the next cycle's ST stage (invariant checking / diagnostics).
  std::span<const StGrant> pending_grants() const {
    return {st_pending_.begin(), st_pending_.end()};
  }

#ifdef RNOC_INVARIANTS
  /// Test-only corruption hook (invariant-checked builds): skews an output
  /// VC's credit counter by `delta`, so directed tests can break credit
  /// conservation and assert the NocChecker catches it.
  void test_corrupt_credit(int port, int vc, int delta) {
    out_vcs_.credits(port, vc) =
        static_cast<std::int16_t>(out_vcs_.credits(port, vc) + delta);
  }
#endif

#ifdef RNOC_TRACE
  /// Wires the observability layer (set once by the Mesh; traced builds
  /// only). Forwarded to both allocators for stall attribution.
  void set_observer(obs::Observer* o) {
    obs_ = o;
    va_.set_observer(o, id_);
    sa_.set_observer(o, id_);
  }
#endif

  /// Flits buffered across all input ports (drain/deadlock detection).
  /// O(ports): each port keeps an exact running count.
  int buffered_flits() const;

  /// True when this router must be stepped next cycle even absent new link
  /// events: it holds buffered flits (retries, blocked VCs, SA competition)
  /// or switch-traversal grants issued by the previous SA stage. "Some flit
  /// buffered" is equivalent to "some VC in Routing, VcAlloc, or non-empty
  /// Active" (a non-empty VC is never Idle: a head write leaves Idle and the
  /// tail pop returns to it), so the check is two loads instead of a walk
  /// over every input port.
  bool has_pending_work() const {
    if (!st_pending_.empty()) return true;
    const RouterVcMasks& m = in_.masks();
    return (m.routing_ports | m.vcalloc_ports | m.ready_ports) != 0;
  }

  /// Shared accounting sink for this router's input buffers (set by the
  /// Mesh); nullptr = standalone use.
  void set_counters(NetCounters* c) { in_.set_counters(c); }

 private:
  /// Shared bodies of step_accept / accept_flit_due / drain_credits_due:
  /// buffer-write (or swallow) of one arrived flit, and one output link's
  /// credit drain.
  void accept_flit(Link& l, int p, const Flit& f, Cycle now);
  void drain_credits_from(Link& l, int p, Cycle now);

  /// Route computation for one head flit, including the SP/FSP secondary
  /// path determination (paper §V-A, §V-D). Blocked = an untolerated fault
  /// stalls the VC; Unreachable = the fault-aware tables (or the self-heal
  /// escape tables) have no path. `in_phys` is the VC's physical index (the
  /// self-heal path derives its logical id for escape-class stickiness).
  RcOutcome compute_route(VirtualChannel& vc, const Flit& head, int in_port,
                          int in_phys, Cycle now);

  /// Commits output `out` into the VC's R/SP/FSP fields if the crossbar can
  /// still reach it under the current faults and mode.
  bool try_output(VirtualChannel& vc, int out);

  /// Free downstream buffer slots at `out` (the adaptive selection metric).
  int free_credits(int out) const;

  NodeId id_;
  MeshDims dims_;
  Coord coord_;  ///< This router's mesh coordinate (XY routing).
  RouterConfig cfg_;
  // Touched on every stepped cycle: kept next to the VC-state masks at the
  // front of in_.
  bool dead_ = false;
  GrantSet st_pending_;
  RouterStats stats_;
  /// Input VC state, flat: VC records, flit slab, logical maps, filters and
  /// the pipeline-state masks the SA/VA/RC stages iterate.
  VcStore in_;
  OutVcTable out_vcs_;  ///< Downstream credits and allocated sets.
  Link* in_links_[kMeshPorts]{};
  Link* out_links_[kMeshPorts]{};
  fault::RouterFaultState faults_;
  const FaultAwareTables* route_tables_ = nullptr;
  const SelfHealNet* sh_ = nullptr;
  bool has_unroutable_ = false;
  VcAllocator va_;
  SwitchAllocator sa_;
  Crossbar xb_;
  int rc_rr_[kMeshPorts]{};  ///< Per-port RC round-robin pointer over VCs.
  std::vector<TruncatedStream> truncated_;  ///< See take_truncated().
#ifdef RNOC_TRACE
  obs::Observer* obs_ = nullptr;
#endif
};

}  // namespace rnoc::noc
