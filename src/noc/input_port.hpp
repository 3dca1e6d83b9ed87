// Router input ports: virtual channels with their state fields (paper §II-C),
// extended with the protection fields of the modified input port (paper
// Fig. 4) and a logical->physical VC permutation that implements the SA-stage
// VC-to-VC flit transfer (paper §V-C1) without corrupting in-flight traffic.
//
// Storage is flat per router (VcStore): one compact record per VC in one
// contiguous array indexed port * vcs + vc, every VC's flits in one slab,
// and the logical-id maps and arrival filters in small side arrays. An
// InputPort is a view of one port of a store (or the owner of a one-port
// store, for standalone use).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "noc/flit.hpp"
#include "noc/net_counters.hpp"
#include "noc/router_state.hpp"

namespace rnoc::noc {

/// The 'G' state field: where the VC's current packet is in the pipeline.
enum class VcState : std::uint8_t {
  Idle,     ///< No packet allocated.
  Routing,  ///< Head flit waiting for / in the RC stage.
  VcAlloc,  ///< Waiting for / in the VA stage.
  Active,   ///< Allocated; flits compete in SA and traverse the crossbar.
};

const char* vc_state_name(VcState s);

/// The flit FIFO of one VC: a fixed power-of-two window onto its store's
/// flit slab, with a head index and a count. Capacity never changes, so a
/// buffer write is one copy into a slot and never allocates.
class VcBuffer {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::size_t capacity() const { return slots_ == nullptr ? 0 : mask_ + 1u; }

  Flit& front() {
    require(count_ > 0, "VcBuffer::front: empty");
    return slots_[head_];
  }
  const Flit& front() const {
    require(count_ > 0, "VcBuffer::front: empty");
    return slots_[head_];
  }
  /// Element `i` positions behind the front (0 == front).
  const Flit& at(std::size_t i) const {
    require(i < count_, "VcBuffer::at: index out of range");
    return slots_[(head_ + i) & mask_];
  }

  void push_back(const Flit& f) {
    require(slots_ != nullptr && count_ <= mask_, "VcBuffer::push_back: full");
    slots_[(head_ + count_) & mask_] = f;
    ++count_;
  }
  void pop_front() {
    require(count_ > 0, "VcBuffer::pop_front: empty");
    head_ = static_cast<std::uint16_t>((head_ + 1) & mask_);
    --count_;
  }
  void clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  friend class VcStore;
  Flit* slots_ = nullptr;
  std::uint16_t head_ = 0;
  std::uint16_t count_ = 0;
  std::uint16_t mask_ = 0;
};

/// One virtual channel. Fields mirror the paper's input-port state:
/// G (state), R (route), O (out_vc), P/C implied by the buffer and the
/// upstream credit counters; plus the new fields R2/VF/ID (VA arbiter
/// sharing) and SP/FSP (crossbar secondary path). Port and VC ids are
/// narrow (kMaxRouterPorts ports of kMaxPortVcs VCs fit an int8).
struct VirtualChannel {
  VcState state = VcState::Idle;  // 'G'
  std::int8_t route = -1;         // 'R': output port of the current packet
  std::int8_t out_vc = -1;        // 'O': allocated downstream VC (logical id)

  // --- Correction-circuitry state fields (protected router only) ---
  std::int8_t r2 = -1;  // 'R2': RC result a borrowing VC placed here
  std::int8_t id = -1;  // 'ID': which sibling VC borrowed the arbiters
  std::int8_t sp = -1;  // 'SP': output port to arbitrate for to use the
                        //        crossbar secondary path
  // Retry memory for a faulty stage-2 VA arbiter (paper §V-B3): the
  // downstream VC whose allocation failed and must be excluded next cycle.
  std::int8_t excluded_out_vc = -1;
  bool vf = false;   // 'VF': this VC's arbiters are lent out this cycle
  bool fsp = false;  // 'FSP': secondary path must be used

  // --- Self-healing routing state (inert unless the mode is active) ---
  // The current packet must be allocated the escape VC downstream: either
  // RC's odd-even candidate filter came up empty and the packet fell back
  // onto the west-first escape path, or the packet arrived on the escape
  // class and must stay on it until delivery (Duato escape discipline).
  bool escape_route = false;
  // RC proved the destination unreachable even via the escape tables; the
  // packet is flagged for the controller-executed purge after the step.
  bool unroutable = false;

  VcBuffer buffer;  ///< Capacity >= vc_depth; see VcBuffer.

  // Identity of the resident packet, recorded at the head's buffer write.
  // Valid whenever state != Idle, even after every buffered flit has been
  // forwarded — which is exactly when the reclamation sweep needs it to
  // recognise the truncated remainder of a packet a dead router cut.
  PacketId packet = 0;
  NodeId dst = kInvalidNode;

#ifdef RNOC_TRACE
  /// Cycle the current packet's head flit was buffer-written (observability:
  /// feeds the per-hop latency histogram at switch traversal).
  Cycle obs_arrived = 0;
#endif

  bool empty() const { return buffer.empty(); }

  /// Returns the VC to Idle after the tail flit departs (or on transfer).
  void reset_to_idle();

  /// Clears the borrow-request fields after a lent allocation completes.
  void clear_borrow_fields() {
    r2 = -1;
    vf = false;
    id = -1;
  }
};

/// Per-router aggregate of the pipeline-state VC masks the allocator stages
/// iterate instead of scanning every VC of every port. Bit v of
/// `routing[p]` / `vcalloc[p]` / `ready[p]` is set iff physical VC v of port
/// p is in Routing / in VcAlloc / Active with a buffered flit. The `*_ports`
/// summaries have bit p set iff the corresponding per-port mask is non-zero,
/// so an idle stage costs one load. The VcStore keeps them exact on every VC
/// mutation (VcStore::refresh is idempotent — it recomputes one VC's bits
/// from the current state). The FullSweep oracle instead recomputes the
/// whole aggregate from scratch (VcStore::rebuild_masks) before each stage.
struct RouterVcMasks {
  std::uint32_t routing[kMaxRouterPorts]{};
  std::uint32_t vcalloc[kMaxRouterPorts]{};
  std::uint32_t ready[kMaxRouterPorts]{};
  std::uint32_t routing_ports = 0;
  std::uint32_t vcalloc_ports = 0;
  std::uint32_t ready_ports = 0;

  friend bool operator==(const RouterVcMasks&, const RouterVcMasks&) = default;
};

/// The flat VC state of `ports` input ports of `vcs` VCs, `depth` flits
/// each. Upstream nodes address VCs by *logical* id (the id carried in
/// flits and credits); the SA-stage transfer mechanism re-points a logical
/// id at a different physical buffer, so in-flight flits and credits keep
/// working after a transfer. The pipeline stages index VCs by (port,
/// physical VC) unchecked: the state masks only name existing VCs.
class VcStore {
 public:
  /// Geometry within require_router_geometry, depth within kMaxVcDepth.
  VcStore(int ports, int vcs, int depth);

  // VcBuffers point into slab_; a move keeps the slab's heap block.
  VcStore(VcStore&&) noexcept = default;
  VcStore& operator=(VcStore&&) noexcept = default;
  VcStore(const VcStore&) = delete;
  VcStore& operator=(const VcStore&) = delete;

  int ports() const { return ports_; }
  int vcs() const { return vcs_; }
  int depth() const { return depth_; }

  VirtualChannel& vc(int port, int phys) {
    return vc_[static_cast<std::size_t>(port * vcs_ + phys)];
  }
  const VirtualChannel& vc(int port, int phys) const {
    return vc_[static_cast<std::size_t>(port * vcs_ + phys)];
  }
  /// VC by flat index port * vcs + phys (the allocators' request-bit index).
  VirtualChannel& vc_at(int flat) { return vc_[static_cast<std::size_t>(flat)]; }

  int physical_of(int port, int logical) const {
    require(logical >= 0 && logical < vcs_,
            "InputPort: VC index out of range");
    return l2p_[static_cast<std::size_t>(port * vcs_ + logical)];
  }
  int logical_of(int port, int phys) const;

  /// Buffer-write: places the flit in the physical VC its logical id maps
  /// to; a head flit arriving at an Idle VC moves it to Routing.
  void write(int port, const Flit& f) {
    const int phys = physical_of(port, f.vc);
    VirtualChannel& v = vc(port, phys);
    require(static_cast<int>(v.buffer.size()) < depth_,
            "InputPort::write: buffer overflow (credit protocol violated)");
    if (f.is_head()) {
      require(v.state == VcState::Idle && v.buffer.empty(),
              "InputPort::write: head flit into a busy VC");
      v.state = VcState::Routing;
      v.packet = f.packet;
      v.dst = f.dst;
    } else {
      require(v.state != VcState::Idle,
              "InputPort::write: body/tail flit into an Idle VC");
    }
    v.buffer.push_back(f);
    ++buffered_[port];
    if (counters_) ++counters_->router_flits;
    refresh(port, phys);
  }

  /// Pops the head flit of (port, phys) and returns it in place — valid
  /// until the next write into this VC. Keeps the flit counts exact.
  Flit& pop_front(int port, int phys) {
    VirtualChannel& v = vc(port, phys);
    require(!v.buffer.empty(), "InputPort::pop_front: empty VC");
    Flit& f = v.buffer.front();
    v.buffer.pop_front();
    --buffered_[port];
    if (counters_) --counters_->router_flits;
    refresh(port, phys);
    return f;
  }

  /// Moves the whole packet (flits + state fields) from physical VC `from`
  /// into the empty, Idle physical VC `to` of `port`, and swaps their
  /// logical ids so that flits/credits still in flight stay consistent
  /// (paper §V-C1; 1-cycle operation, the cost is charged by the caller).
  /// The two VCs swap slab windows, so both keep their storage.
  void transfer(int port, int from, int to);

  int buffered_flits(int port) const {
    return buffered_[port];
  }

  /// Restores every port to its just-constructed state: empties every VC,
  /// resets all state fields, the logical->physical maps, the filters and
  /// the masks. The caller owns the shared counters and zeroes them.
  void reset_for_run();

  /// Shared accounting sink (set by the Mesh); nullptr = standalone use.
  void set_counters(NetCounters* c) { counters_ = c; }

  // --- Arrival filters, keyed by (port, logical VC id); see InputPort. ---
  bool dropping(int port, int logical) const {
    return (dropping_[port] >> static_cast<unsigned>(check(logical)) & 1u) !=
           0;
  }
  void set_dropping(int port, int logical, bool on) {
    const std::uint32_t bit = 1u << static_cast<unsigned>(check(logical));
    dropping_[port] = on ? dropping_[port] | bit : dropping_[port] & ~bit;
  }
  void arm_poison(int port, int logical, PacketId packet, Cycle armed_at) {
    poison_[static_cast<std::size_t>(port * vcs_ + check(logical))] = {
        packet, armed_at};
    poisoned_[port] |= 1u << static_cast<unsigned>(logical);
  }
  bool poison_swallow(int port, const Flit& f) {
    return (poisoned_[port] >> static_cast<unsigned>(check(f.vc)) & 1u) != 0 &&
           poison_filter(port, f);
  }

  /// The maintained VC-state masks, and the same masks recomputed from the
  /// VCs' current states (the two must always agree).
  const RouterVcMasks& masks() const { return masks_; }
  RouterVcMasks compute_masks() const;
  void rebuild_masks() { masks_ = compute_masks(); }

  /// Recomputes VC (port, phys)'s bits in the masks from its current
  /// state. Idempotent. Every mutation of a VC's G field or buffer
  /// occupancy must be followed by a call for that VC.
  void refresh(int port, int phys) {
    const VirtualChannel& v = vc(port, phys);
    const std::uint32_t bit = 1u << static_cast<unsigned>(phys);
    const std::uint32_t port_bit = 1u << static_cast<unsigned>(port);
    set_mask_bit(masks_.routing[port], masks_.routing_ports, bit, port_bit,
                 v.state == VcState::Routing);
    set_mask_bit(masks_.vcalloc[port], masks_.vcalloc_ports, bit, port_bit,
                 v.state == VcState::VcAlloc);
    set_mask_bit(masks_.ready[port], masks_.ready_ports, bit, port_bit,
                 v.state == VcState::Active && !v.buffer.empty());
  }

 private:
  /// One reclamation filter slot; packet == 0 means disarmed (packet ids
  /// start at 1). See InputPort::arm_poison().
  struct PoisonSlot {
    PacketId packet = 0;
    Cycle armed_at = 0;
  };

  int check(int v) const {
    require(v >= 0 && v < vcs_, "InputPort: VC index out of range");
    return v;
  }

  /// poison_swallow on an armed slot.
  bool poison_filter(int port, const Flit& f);

  /// Points VC (port, phys)'s buffer at its own slab window, emptied.
  void bind_window(int flat);

  // Sets/clears `bit` in a per-port mask and keeps the port-summary bit
  // consistent with "per-port mask non-zero".
  static void set_mask_bit(std::uint32_t& mask, std::uint32_t& ports,
                           std::uint32_t bit, std::uint32_t port_bit,
                           bool on) {
    mask = on ? mask | bit : mask & ~bit;
    ports = mask != 0 ? ports | port_bit : ports & ~port_bit;
  }

  int ports_;
  int vcs_;
  int depth_;
  int window_;  ///< Slab slots per VC: depth rounded up to a power of two.
  RouterVcMasks masks_;
  std::vector<VirtualChannel> vc_;   ///< [port * vcs + phys]
  std::vector<Flit> slab_;           ///< [(port * vcs + vc) * window + slot]
  std::int8_t l2p_[kMaxRouterVcs];  ///< [port * vcs + logical] -> phys
  // Arrival filters by port, bit = logical VC: drop-until-tail and armed
  // poison slots (the slot itself lives in poison_).
  std::uint32_t dropping_[kMaxRouterPorts];
  std::uint32_t poisoned_[kMaxRouterPorts];
  int buffered_[kMaxRouterPorts];   ///< Flits per port (exact).
  std::vector<PoisonSlot> poison_;  ///< [port * vcs + logical]
  NetCounters* counters_ = nullptr;
};

/// An input port: `vcs` virtual channels of `depth` flits each, plus the
/// logical->physical VC map. A view of one port of a router's VcStore, or
/// (constructed from a geometry) the owner of a standalone one-port store.
class InputPort {
 public:
  InputPort(int vcs, int depth);
  InputPort(VcStore& store, int port) : s_(&store), port_(port) {}

  int vcs() const { return s_->vcs(); }
  int depth() const { return s_->depth(); }

  VirtualChannel& vc(int phys) { return s_->vc(port_, check(phys)); }
  const VirtualChannel& vc(int phys) const {
    return s_->vc(port_, check(phys));
  }

  int physical_of(int logical) const { return s_->physical_of(port_, logical); }
  int logical_of(int phys) const { return s_->logical_of(port_, phys); }

  /// True when the physical VC the flit's logical id maps to has space.
  bool can_accept(const Flit& f) const {
    return static_cast<int>(vc(physical_of(f.vc)).buffer.size()) < depth();
  }

  /// Buffer-write; see VcStore::write.
  void write(const Flit& f) { s_->write(port_, f); }

  /// Pops and returns the head flit of physical VC `phys`.
  Flit pop_front(int phys) { return s_->pop_front(port_, check(phys)); }

  /// VC-to-VC transfer; see VcStore::transfer.
  void transfer(int from, int to) {
    s_->transfer(port_, check(from), check(to));
  }

  int buffered_flits() const { return s_->buffered_flits(port_); }

  /// Self-heal purge bookkeeping, keyed by *logical* VC id (the id arriving
  /// flits carry): while set, Router::accept_flit swallows the rest of a
  /// purged packet — flits already in flight upstream when the head was
  /// dropped — returning credits, until the tail clears the flag. Logical
  /// keying survives the SA-stage l2p permutation and VC reset.
  bool dropping(int logical) const { return s_->dropping(port_, logical); }
  void set_dropping(int logical) { s_->set_dropping(port_, logical, true); }
  void clear_dropping(int logical) { s_->set_dropping(port_, logical, false); }

  /// Self-heal reclamation filter, keyed by *logical* VC id: flits of
  /// `packet` that were injected at or before `armed_at` — the in-flight
  /// remnants of a fragment the reclamation sweep purged — are swallowed on
  /// arrival with their credit returned. Any other flit (a new packet, or a
  /// retransmission of the same id, which is injected strictly after the
  /// sweep) disarms the slot and is written normally, so a stale filter can
  /// never eat live traffic.
  void arm_poison(int logical, PacketId packet, Cycle armed_at) {
    s_->arm_poison(port_, logical, packet, armed_at);
  }

  /// True when the arriving flit is a poisoned remnant the caller must
  /// swallow (returning its credit). Disarms the slot on the fragment's
  /// final possible flit or on any non-matching arrival.
  bool poison_swallow(const Flit& f) { return s_->poison_swallow(port_, f); }

  /// Recomputes VC `phys`'s bits in the store's masks; see VcStore::refresh.
  void refresh_vc(int phys) { s_->refresh(port_, check(phys)); }

#ifdef RNOC_INVARIANTS
  /// Test-only corruption hook (invariant-checked builds): overwrites a
  /// physical VC's G field without any of the pipeline's legality checks,
  /// so directed tests can seed an illegal state transition and assert the
  /// NocChecker catches it.
  void test_set_vc_state(int phys, VcState s) {
    vc(phys).state = s;
    refresh_vc(phys);
  }
#endif

 private:
  int check(int v) const {
    require(v >= 0 && v < s_->vcs(), "InputPort: VC index out of range");
    return v;
  }

  std::unique_ptr<VcStore> own_;  ///< Set only for a standalone port.
  VcStore* s_;
  int port_ = 0;
};

}  // namespace rnoc::noc
