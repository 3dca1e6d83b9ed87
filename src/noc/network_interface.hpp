// Network interface (NI): the traffic endpoint attached to each router's
// local port. Segments packets into flits, injects them under credit flow
// control, reassembles/ejects arriving packets and records latencies.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "noc/flit.hpp"
#include "noc/link.hpp"
#include "noc/net_counters.hpp"
#include "obs/observer.hpp"

namespace rnoc::noc {

struct NiConfig {
  int vcs = 4;       ///< VCs of the router's local input port.
  int vc_depth = 4;  ///< Credits per VC.
  int vnets = 1;     ///< Virtual networks (must divide vcs; see noc/vnet.hpp).
};

struct NiStats {
  /// Bin range of the latency histogram; latencies above clamp to the top
  /// bin, which only matters for saturated runs.
  static constexpr double kLatencyHistMax = 4096.0;
  static constexpr std::size_t kLatencyHistBins = 512;

  std::uint64_t packets_enqueued = 0;
  std::uint64_t packets_injected = 0;  ///< Head flit entered the network.
  std::uint64_t packets_received = 0;
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_received = 0;
  /// Remnants of reclaimed fragments swallowed at ejection (self-heal).
  std::uint64_t flits_dropped = 0;
  std::uint64_t queue_peak = 0;
  RunningStats total_latency;    ///< creation -> tail ejection (measured pkts).
  RunningStats network_latency;  ///< injection -> tail ejection (measured pkts).
  Histogram latency_hist{0.0, kLatencyHistMax, kLatencyHistBins};
};

class NocChecker;

class NetworkInterface {
 public:
  NetworkInterface(NodeId node, const NiConfig& cfg);

  NodeId node() const { return node_; }
  const NiConfig& config() const { return cfg_; }

  /// Free buffer credits this NI holds for logical VC `v` of the router's
  /// local input port (invariant checking / diagnostics).
  int out_vc_credits(int v) const {
    require(v >= 0 && v < cfg_.vcs, "NetworkInterface: VC out of range");
    return out_vcs_[static_cast<std::size_t>(v)].credits;
  }

  /// `to_router` carries our flits in and the router's credits back;
  /// `from_router` delivers ejected flits and carries our credits back.
  void attach(Link* to_router, Link* from_router);

  /// Queues a packet for injection. `p.src` must equal this NI's node.
  void enqueue(PacketDesc p);

  /// Packets created in [begin, end) count toward the latency statistics
  /// (warmup/drain packets are excluded).
  void set_measure_window(Cycle begin, Cycle end);

  /// Called once per cycle by the simulator: ejects arrived flits (returning
  /// credits), then injects at most one flit of the packet in flight.
  void step(Cycle now);

  /// Event-core variant of step(): bit-identical, but consults the links'
  /// ready peeks so an idle ejection path / credit channel costs a compare
  /// instead of a delivery call.
  void step_event(Cycle now);

  /// Restores the NI to its just-constructed state (Mesh::reset_for_run).
  /// Simulator-owned hooks (delivery, inject gate, sent) are cleared — the
  /// next Simulator re-wires them; mesh wiring (links, event hook, counters,
  /// checker, observer) is kept.
  void reset_for_run();

  /// Callback invoked when a packet's tail flit is ejected (used by
  /// request/response traffic models to generate replies).
  using DeliveryHook = std::function<void(const Flit& tail, Cycle now)>;
  void set_delivery_hook(DeliveryHook hook) { hook_ = std::move(hook); }

  const NiStats& stats() const { return stats_; }
  std::size_t queued_packets() const { return queue_.size(); }
  bool injection_idle() const { return queue_.empty() && !sending_; }
  /// True while a packet is partially serialized into the network.
  bool sending() const { return sending_; }
  /// Logical VC the in-flight packet serializes on (-1 when not sending).
  int current_vc() const { return current_vc_; }

  /// Self-heal escape-VC reservation: once set (>= 0) the NI never
  /// allocates logical VC `v` for a new packet — the escape class only
  /// admits in-network reroutes, so freshly injected packets keep to the
  /// adaptive VCs. -1 (default) disables the reservation.
  void set_reserved_vc(int v) { reserved_vc_ = v; }

  /// Self-heal reclamation: flits of `p` injected at or before `armed_at`
  /// — the remnants of a fragment the sweep purged, possibly still in
  /// flight on the local link — are swallowed at ejection with their credit
  /// returned, skipping reassembly and the checker. A later retransmission
  /// of the same id (injected strictly after the sweep) disarms the entry
  /// and ejects normally. Any reassembly the fragment had already opened is
  /// aborted; returns its VC so the caller can clear the checker's matching
  /// delivery track, or -1 if none was open.
  int poison_packet(PacketId p, Cycle armed_at);

  /// Degraded-mode admission gate (optional): consulted before a queued
  /// packet starts serializing. Returning false holds the whole queue —
  /// packets already in flight are unaffected. Used to freeze injection
  /// during a reroute drain and to bound the end-to-end retransmit window.
  using InjectGate = std::function<bool(const PacketDesc&)>;
  void set_inject_gate(InjectGate gate) { inject_gate_ = std::move(gate); }

  /// Callback invoked when a packet's tail flit has been injected (the
  /// packet is now fully in the network). Degraded mode arms the
  /// end-to-end delivery timeout here, not at enqueue, so queued packets
  /// cannot time out before they ever hit a wire.
  using SentHook = std::function<void(const PacketDesc& p, Cycle now)>;
  void set_sent_hook(SentHook hook) { sent_hook_ = std::move(hook); }

  /// Removes queued (not yet serializing) packets matching `pred`,
  /// keeping the shared active-injector accounting exact. Returns the
  /// number dropped. Degraded mode uses it to discard packets whose
  /// destination became unreachable at an epoch switch.
  std::size_t drop_queued_if(const std::function<bool(const PacketDesc&)>& pred);

  /// Returns VC allocation, credit counters and reassembly state to
  /// power-on values. Only legal at a degraded-mode drain barrier (no
  /// packet partially serialized, network empty); truncated reassemblies
  /// left by a mid-packet router death are discarded here.
  void reset_flow_state();

  /// Shared accounting sink (set by the Mesh); nullptr = standalone use.
  /// Tracks delivered packets and whether this NI has injection work.
  void set_counters(NetCounters* c) { counters_ = c; }

  /// Scheduling hook (set by the Mesh's event core): record `rec` is marked
  /// due at once on `ring` when a packet is enqueued on an idle NI, so the
  /// mesh can mark this NI runnable without polling all NIs.
  void set_event_ring(EventRing* ring, std::uint32_t rec) {
    event_ring_ = ring;
    event_rec_ = rec;
  }

#ifdef RNOC_INVARIANTS
  /// Invariant checker (set by the Mesh in checked builds): every ejected
  /// flit is validated against the per-VC in-order delivery invariant
  /// before the NI's own protocol checks run.
  void set_invariant_checker(NocChecker* c) { checker_ = c; }
#endif

#ifdef RNOC_TRACE
  /// Observability sink (set by the Mesh in traced builds): records the
  /// inject/eject endpoints of each sampled packet's lifecycle.
  void set_observer(obs::Observer* o) { obs_ = o; }
#endif

 private:
  struct OutVc {
    bool busy = false;  ///< Allocated to an in-flight packet (until vc_free).
    int credits = 0;
  };

  void eject(Cycle now);
  void inject(Cycle now);
  void drain_router_credits(Cycle now);
  void inject_after_credits(Cycle now);

  /// True when `f` is a poisoned remnant eject() must swallow. Disarms the
  /// matching entry on a retransmission of the same id. See poison_packet().
  bool poison_swallow(const Flit& f);

  /// One reclamation entry; see poison_packet(). Kept as a small linear
  /// vector — entries exist only between a router death and the fragment's
  /// retransmission, a handful at a time.
  struct PoisonEntry {
    PacketId packet = 0;
    Cycle armed_at = 0;
  };
  std::vector<PoisonEntry> poisoned_;

  NodeId node_;
  NiConfig cfg_;
  Link* to_router_ = nullptr;
  Link* from_router_ = nullptr;
  std::vector<OutVc> out_vcs_;
  std::vector<std::uint32_t> vnet_vcs_;  ///< Per vnet: mask of its VCs.
  std::deque<PacketDesc> queue_;

  // Packet currently being serialized into flits.
  bool sending_ = false;
  PacketDesc current_{};
  int next_seq_ = 0;
  int current_vc_ = -1;
  int reserved_vc_ = -1;  ///< Self-heal escape VC, never allocated here.
  Cycle current_injected_ = 0;

  Cycle measure_begin_ = 0;
  Cycle measure_end_ = kNeverCycle;
  NiStats stats_;
  DeliveryHook hook_;
  NetCounters* counters_ = nullptr;
  EventRing* event_ring_ = nullptr;
  std::uint32_t event_rec_ = 0;
  InjectGate inject_gate_;
  SentHook sent_hook_;
#ifdef RNOC_INVARIANTS
  NocChecker* checker_ = nullptr;
#endif
#ifdef RNOC_TRACE
  obs::Observer* obs_ = nullptr;
#endif

  /// Per-VC reassembly state for the protocol-integrity check: flits of a
  /// packet must arrive on one VC, in seq order, head first, tail last.
  struct Reassembly {
    bool active = false;
    PacketId packet = 0;
    std::uint32_t next_seq = 0;
  };
  std::vector<Reassembly> reassembly_;
};

}  // namespace rnoc::noc
