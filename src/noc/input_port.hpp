// Router input port: virtual channels with their state fields (paper §II-C),
// extended with the protection fields of the modified input port (paper
// Fig. 4) and a logical->physical VC permutation that implements the SA-stage
// VC-to-VC flit transfer (paper §V-C1) without corrupting in-flight traffic.
#pragma once

#include <cstdint>
#include <vector>

#include "noc/flit.hpp"
#include "noc/net_counters.hpp"
#include "noc/ring_buffer.hpp"

namespace rnoc::noc {

/// The 'G' state field: where the VC's current packet is in the pipeline.
enum class VcState : std::uint8_t {
  Idle,     ///< No packet allocated.
  Routing,  ///< Head flit waiting for / in the RC stage.
  VcAlloc,  ///< Waiting for / in the VA stage.
  Active,   ///< Allocated; flits compete in SA and traverse the crossbar.
};

const char* vc_state_name(VcState s);

/// One virtual channel. Fields mirror the paper's input-port state:
/// G (state), R (route), O (out_vc), P/C implied by the buffer and the
/// upstream credit counters; plus the new fields R2/VF/ID (VA arbiter
/// sharing) and SP/FSP (crossbar secondary path).
struct VirtualChannel {
  VcState state = VcState::Idle;  // 'G'
  int route = -1;                 // 'R': output port of the current packet
  int out_vc = -1;                // 'O': allocated downstream VC (logical id)
  RingBuffer<Flit> buffer;        ///< Fixed capacity vc_depth; see ring_buffer.hpp.

  // --- Correction-circuitry state fields (protected router only) ---
  int r2 = -1;      // 'R2': RC result a borrowing VC placed here
  bool vf = false;  // 'VF': this VC's arbiters are lent out this cycle
  int id = -1;      // 'ID': which sibling VC borrowed the arbiters
  int sp = -1;      // 'SP': output port to arbitrate for to use the
                    //        crossbar secondary path
  bool fsp = false; // 'FSP': secondary path must be used

  // Retry memory for a faulty stage-2 VA arbiter (paper §V-B3): the
  // downstream VC whose allocation failed and must be excluded next cycle.
  int excluded_out_vc = -1;

  // --- Self-healing routing state (inert unless the mode is active) ---
  // Identity of the resident packet, recorded at the head's buffer write.
  // Valid whenever state != Idle, even after every buffered flit has been
  // forwarded — which is exactly when the reclamation sweep needs it to
  // recognise the truncated remainder of a packet a dead router cut.
  PacketId packet = 0;
  NodeId dst = kInvalidNode;
  // The current packet must be allocated the escape VC downstream: either
  // RC's odd-even candidate filter came up empty and the packet fell back
  // onto the west-first escape path, or the packet arrived on the escape
  // class and must stay on it until delivery (Duato escape discipline).
  bool escape_route = false;
  // RC proved the destination unreachable even via the escape tables; the
  // packet is flagged for the controller-executed purge after the step.
  bool unroutable = false;

#ifdef RNOC_TRACE
  /// Cycle the current packet's head flit was buffer-written (observability:
  /// feeds the per-hop latency histogram at switch traversal).
  Cycle obs_arrived = 0;
#endif

  bool empty() const { return buffer.empty(); }

  /// Returns the VC to Idle after the tail flit departs (or on transfer).
  void reset_to_idle();

  /// Clears the borrow-request fields after a lent allocation completes.
  void clear_borrow_fields();
};

/// Per-router aggregate of the pipeline-state VC masks the allocator stages
/// iterate instead of scanning every VC of every port. Bit v of
/// `routing[p]` / `vcalloc[p]` / `ready[p]` is set iff physical VC v of port
/// p is in Routing / in VcAlloc / Active with a buffered flit. The `*_ports`
/// summaries have bit p set iff the corresponding per-port mask is non-zero,
/// so an idle stage costs one load. Owned by the Router behind a move-stable
/// allocation; each InputPort holds a sink pointer plus its port index and
/// keeps its slice exact on every VC mutation (InputPort::refresh_vc is
/// idempotent — it recomputes one VC's bits from the current state). The
/// FullSweep oracle instead recomputes the whole aggregate from scratch
/// (compute_vc_masks) before each stage.
struct RouterVcMasks {
  static constexpr int kMaxPorts = 8;
  std::uint32_t routing[kMaxPorts]{};
  std::uint32_t vcalloc[kMaxPorts]{};
  std::uint32_t ready[kMaxPorts]{};
  std::uint32_t routing_ports = 0;
  std::uint32_t vcalloc_ports = 0;
  std::uint32_t ready_ports = 0;

  friend bool operator==(const RouterVcMasks&, const RouterVcMasks&) = default;
};

/// An input port: `vcs` virtual channels of `depth` flits each, plus the
/// logical->physical VC map. Upstream nodes address VCs by *logical* id
/// (the id carried in flits and credits); the SA-stage transfer mechanism
/// re-points a logical id at a different physical buffer, so in-flight flits
/// and credits keep working after a transfer.
class InputPort {
 public:
  InputPort(int vcs, int depth);

  int vcs() const { return static_cast<int>(vcs_.size()); }
  int depth() const { return depth_; }

  VirtualChannel& vc(int phys) { return vcs_[check(phys)]; }
  const VirtualChannel& vc(int phys) const { return vcs_[check(phys)]; }

  int physical_of(int logical) const { return l2p_[check(logical)]; }
  int logical_of(int phys) const;

  /// True when the physical VC the flit's logical id maps to has space.
  bool can_accept(const Flit& f) const;

  /// Buffer-write: places the flit in the mapped physical VC; a head flit
  /// arriving at an Idle VC moves it to Routing.
  void write(const Flit& f);

  /// Pops and returns the head flit of physical VC `phys` (switch
  /// traversal). Keeps the port's flit count and shared accounting exact.
  Flit pop_front(int phys);

  /// Moves the whole packet (flits + state fields) from physical VC `from`
  /// into the empty, Idle physical VC `to`, and swaps their logical ids so
  /// that flits/credits still in flight stay consistent (paper §V-C1;
  /// 1-cycle operation, the cost is charged by the caller).
  void transfer(int from, int to);

  int buffered_flits() const { return buffered_; }

  /// Restores the port to its just-constructed state (Mesh::reset_for_run):
  /// empties every VC, resets all state fields and the logical->physical map.
  /// The caller owns the shared counters and zeroes them wholesale.
  void reset_for_run();

  /// Shared accounting sink (set by the Mesh); nullptr = standalone use.
  void set_counters(NetCounters* c) { counters_ = c; }

  /// Self-heal purge bookkeeping, keyed by *logical* VC id (the id arriving
  /// flits carry): while set, Router::accept_flit_from swallows the rest of
  /// a purged packet — flits already in flight upstream when the head was
  /// dropped — returning credits, until the tail clears the flag. Logical
  /// keying survives the SA-stage l2p permutation and VC reset.
  bool dropping(int logical) const {
    return drop_until_tail_[static_cast<std::size_t>(check(logical))] != 0;
  }
  void set_dropping(int logical) {
    drop_until_tail_[static_cast<std::size_t>(check(logical))] = 1;
  }
  void clear_dropping(int logical) {
    drop_until_tail_[static_cast<std::size_t>(check(logical))] = 0;
  }

  /// Self-heal reclamation filter, keyed by *logical* VC id: flits of
  /// `packet` that were injected at or before `armed_at` — the in-flight
  /// remnants of a fragment the reclamation sweep purged — are swallowed on
  /// arrival with their credit returned. Any other flit (a new packet, or a
  /// retransmission of the same id, which is injected strictly after the
  /// sweep) disarms the slot and is written normally, so a stale filter can
  /// never eat live traffic.
  void arm_poison(int logical, PacketId packet, Cycle armed_at) {
    poison_[static_cast<std::size_t>(check(logical))] = {packet, armed_at};
  }

  /// True when the arriving flit is a poisoned remnant the caller must
  /// swallow (returning its credit). Disarms the slot on the fragment's
  /// final possible flit or on any non-matching arrival.
  bool poison_swallow(const Flit& f) {
    PoisonSlot& slot = poison_[static_cast<std::size_t>(check(f.vc))];
    if (slot.packet == 0) return false;
    if (slot.packet == f.packet && f.injected <= slot.armed_at) {
      if (f.is_tail()) slot = PoisonSlot{};
      return true;
    }
    slot = PoisonSlot{};
    return false;
  }

  /// Wires this port's slice of the router's VC-state mask aggregate.
  /// nullptr (standalone use) disables mask maintenance.
  void set_mask_sink(RouterVcMasks* m, int port);

  /// Recomputes VC `phys`'s bits in the mask aggregate from its current
  /// state. Idempotent; a no-op without a sink. Every mutation of a VC's G
  /// field or buffer occupancy must be followed by a call for that VC.
  void refresh_vc(int phys) {
    if (masks_ == nullptr) return;
    const VirtualChannel& v = vcs_[static_cast<std::size_t>(check(phys))];
    const std::uint32_t bit = 1u << static_cast<unsigned>(phys);
    set_mask_bit(masks_->routing[port_], masks_->routing_ports, bit,
                 v.state == VcState::Routing);
    set_mask_bit(masks_->vcalloc[port_], masks_->vcalloc_ports, bit,
                 v.state == VcState::VcAlloc);
    set_mask_bit(masks_->ready[port_], masks_->ready_ports, bit,
                 v.state == VcState::Active && !v.buffer.empty());
  }

#ifdef RNOC_INVARIANTS
  /// Test-only corruption hook (invariant-checked builds): overwrites a
  /// physical VC's G field without any of the pipeline's legality checks,
  /// so directed tests can seed an illegal state transition and assert the
  /// NocChecker catches it.
  void test_set_vc_state(int phys, VcState s) {
    vcs_[static_cast<std::size_t>(check(phys))].state = s;
    refresh_vc(phys);
  }
#endif

 private:
  /// One reclamation filter slot; packet == 0 means disarmed (packet ids
  /// start at 1). See arm_poison().
  struct PoisonSlot {
    PacketId packet = 0;
    Cycle armed_at = 0;
  };

  // Inline: every allocator stage addresses VCs through this every cycle.
  int check(int v) const {
    require(v >= 0 && v < static_cast<int>(vcs_.size()),
            "InputPort: VC index out of range");
    return v;
  }

  // Sets/clears `bit` in the per-port mask and keeps the port-summary bit
  // consistent with "per-port mask non-zero".
  void set_mask_bit(std::uint32_t& mask, std::uint32_t& ports,
                    std::uint32_t bit, bool on) const {
    if (on)
      mask |= bit;
    else
      mask &= ~bit;
    if (mask != 0)
      ports |= port_bit_;
    else
      ports &= ~port_bit_;
  }

  std::vector<VirtualChannel> vcs_;
  std::vector<int> l2p_;  ///< logical -> physical VC index (a permutation)
  std::vector<std::uint8_t> drop_until_tail_;  ///< By logical id; see dropping().
  std::vector<PoisonSlot> poison_;  ///< By logical id; see arm_poison().
  int depth_;
  int buffered_ = 0;  ///< Flits across all VCs (kept exact by write/pop).
  NetCounters* counters_ = nullptr;
  RouterVcMasks* masks_ = nullptr;  ///< VC-state mask sink; see above.
  int port_ = -1;                   ///< This port's index in the sink.
  std::uint32_t port_bit_ = 0;      ///< 1 << port_, cached.
};

/// The mask aggregate of `inputs` (port p = inputs[p]) recomputed from the
/// VCs' current states, independent of any maintained sink.
RouterVcMasks compute_vc_masks(const std::vector<InputPort>& inputs);

}  // namespace rnoc::noc
