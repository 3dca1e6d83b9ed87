// Two-stage separable virtual-channel allocator (paper §II-B2, Fig. 3a) with
// the paper's fault-tolerance extensions (§V-B): stage-1 arbiter-set sharing
// between VCs of an input port, and stage-2 reallocation retry. One
// mask-gated step() serves fault-free and faulted routers.
#pragma once

#include <cstdint>
#include <vector>

#include "core/protection.hpp"
#include "fault/fault_model.hpp"
#include "noc/arbiter.hpp"
#include "noc/input_port.hpp"
#include "noc/router_state.hpp"
#include "noc/vnet.hpp"
#include "obs/observer.hpp"

namespace rnoc::noc {

class VcAllocator {
 public:
  VcAllocator(int ports, int vcs, core::RouterMode mode, int vnets = 1);

  /// Runs one VA cycle: input VCs in VcAlloc state try to obtain an empty
  /// downstream VC at their routed output port. Winners move to Active and
  /// get `out_vc` set, and the downstream VC is marked allocated in `out`.
  /// `now` only timestamps observability records; allocation itself is
  /// time-free.
  ///
  /// Stage 1 visits only the VCs set in the store's vcalloc masks,
  /// ascending, and arbitrates on bitmasks; a VC whose arbiter set is dead
  /// (fault-state mask) borrows a sibling's. Stage 2 visits only the
  /// proposed (out_port, out_vc) pairs, ascending; a dead stage-2 arbiter
  /// fails its requesters into a retry against another downstream VC.
  /// Every core drives this one function; the FullSweep oracle rebuilds the
  /// masks from scratch first.
  void step(Cycle now, VcStore& in, OutVcTable& out,
            const fault::RouterFaultState& faults, RouterStats& stats);

  /// Resets arbiter pointers (Mesh::reset_for_run).
  void reset_for_run();

  /// Self-heal escape-VC discipline: once set (>= 0), downstream VC `evc` is
  /// granted only to VCs whose route is an escape route, and escape routes
  /// are granted only `evc` — the escape class stays a self-contained
  /// west-first network. -1 (default) disables the partition entirely.
  void set_escape_vc(int evc) { escape_vc_ = evc; }

  /// Stage-1 arbiter of input VC (port, vc); exposed for tests.
  RoundRobinArbiter& stage1(int port, int vc);
  /// Stage-2 arbiter of downstream VC (out_port, vc); exposed for tests.
  RoundRobinArbiter& stage2(int out_port, int vc);

#ifdef RNOC_TRACE
  /// Observability sink for VA stall attribution (set by the owning Router).
  void set_observer(obs::Observer* o, NodeId router) {
    obs_ = o;
    router_ = router;
  }
#endif

 private:
  /// Arbiter set for input VC `v` whose own set is dead: borrows the first
  /// sibling set in `lenders` (healthy, not yet taken this cycle, owner Idle
  /// or Active) after `v` in round-robin order, posting the request into the
  /// lender's R2/VF/ID fields (paper §V-B1). Returns the lender, or -1 when
  /// the VC must wait this cycle.
  int borrow_arbiter_set(VcStore& in, int p, int v, std::uint32_t lenders,
                         RouterStats& stats);

  int ports_;
  int vcs_;
  core::RouterMode mode_;
  int vnets_;
  int escape_vc_ = -1;  ///< Reserved downstream VC for escape routes.
  std::uint32_t vnet_vcs_[kMaxPortVcs]{};  ///< Per vnet: mask of its VCs.
  std::vector<RoundRobinArbiter> stage1_;  ///< [port * vcs + vc]
  std::vector<RoundRobinArbiter> stage2_;  ///< [out_port * vcs + vc]

  /// Per (out_port * vcs + out_vc): the input VCs (bit in_port * vcs +
  /// in_vc) proposing that downstream VC this cycle. Scratch reused across
  /// step() calls; entries are only valid for the cycle's proposed pairs.
  std::uint64_t pair_req_[kMaxRouterVcs]{};
  /// Port and VC of flat index port * vcs + vc (spares a division per
  /// decoded request bit).
  std::uint8_t port_of_[kMaxRouterVcs]{};
  std::uint8_t vc_of_[kMaxRouterVcs]{};
#ifdef RNOC_TRACE
  obs::Observer* obs_ = nullptr;
  NodeId router_ = kInvalidNode;
#endif
};

}  // namespace rnoc::noc
