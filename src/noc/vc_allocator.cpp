#include "noc/vc_allocator.hpp"

#include <bit>

namespace rnoc::noc {

VcAllocator::VcAllocator(int ports, int vcs, core::RouterMode mode, int vnets)
    : ports_(ports), vcs_(vcs), mode_(mode), vnets_(vnets) {
  require_router_geometry(ports, vcs);
  require(vnets >= 1 && vcs % vnets == 0,
          "VcAllocator: vcs must divide evenly into vnets");
  for (int n = 0; n < vnets; ++n) {
    std::uint32_t m = 0;
    for (int u = 0; u < vcs; ++u)
      if (vnet_of_vc(u, vcs, vnets) == n) m |= 1u << static_cast<unsigned>(u);
    vnet_vcs_[n] = m;
  }
  stage1_.reserve(static_cast<std::size_t>(ports * vcs));
  stage2_.reserve(static_cast<std::size_t>(ports * vcs));
  for (int i = 0; i < ports * vcs; ++i) {
    stage1_.emplace_back(vcs);          // choose among downstream VCs
    stage2_.emplace_back(ports * vcs);  // choose among requesting input VCs
  }
  for (int i = 0; i < ports * vcs; ++i) {
    port_of_[i] = static_cast<std::uint8_t>(i / vcs);
    vc_of_[i] = static_cast<std::uint8_t>(i % vcs);
  }
}

RoundRobinArbiter& VcAllocator::stage1(int port, int vc) {
  return stage1_[static_cast<std::size_t>(port * vcs_ + vc)];
}

RoundRobinArbiter& VcAllocator::stage2(int out_port, int vc) {
  return stage2_[static_cast<std::size_t>(out_port * vcs_ + vc)];
}

int VcAllocator::borrow_arbiter_set(VcStore& in, int p, int v,
                                    std::uint32_t lenders, RouterStats& stats) {
  if (mode_ == core::RouterMode::Baseline) {
    // No sharing circuitry: the head flit is blocked at this VC.
    ++stats.blocked_vc_cycles;
    return -1;
  }
  // Paper §V-B1: scan the G fields of the sibling VCs and borrow the arbiter
  // set of the first one that is Idle or in switch-allocation (Active) state.
  // A sibling that is itself in the VA stage this cycle (Scenario 2), or a
  // set already lent out, makes the borrower wait one cycle.
  if (lenders == 0) {
    ++stats.va1_borrow_waits;
    ++stats.blocked_vc_cycles;
    return -1;
  }
  // Round-robin order after v: the lenders above v first, then wrap.
  const std::uint32_t above =
      lenders & ~((std::uint32_t{2} << static_cast<unsigned>(v)) - 1);
  const int w = std::countr_zero(above != 0 ? above : lenders);
  // Post the borrow request into the lender's R2/VF/ID fields.
  VirtualChannel& lender = in.vc(p, w);
  lender.r2 = in.vc(p, v).route;
  lender.vf = true;
  lender.id = static_cast<std::int8_t>(v);
  ++stats.va1_borrows;
  return w;
}

void VcAllocator::step(Cycle now, VcStore& in, OutVcTable& out,
                       const fault::RouterFaultState& faults,
                       RouterStats& stats) {
  (void)now;
  const RouterVcMasks& masks = in.masks();
  if (masks.vcalloc_ports == 0) return;
  // Proposed (out_port, out_vc) pairs, by key out_port * vcs + out_vc; each
  // pair's requesting input VCs (bit in_port * vcs + in_vc) sit in
  // pair_req_, lazily cleared on a pair's first proposal this cycle.
  std::uint64_t pairs = 0;
  const std::uint64_t borrows_before = stats.va1_borrows;
  const bool faulted = faults.count() != 0;
  const std::uint32_t all_vcs =
      (std::uint32_t{2} << static_cast<unsigned>(vcs_ - 1)) - 1;

  // --- Stage 1: each VcAlloc-state VC proposes one empty downstream VC.
  // The state masks are exact (bit v of vcalloc[p] <=> VC v of port p is in
  // VcAlloc) and stage 1 changes no VC state, so iterating their set bits
  // ascending visits exactly the VCs in VcAlloc, in port/VC order. ---
  for (std::uint32_t pm = masks.vcalloc_ports; pm != 0; pm &= pm - 1) {
    const int p = std::countr_zero(pm);
    const std::uint32_t vcalloc = masks.vcalloc[p];
    const std::uint32_t dead =
        faulted ? faults.vc_mask(fault::SiteType::Va1ArbiterSet, p) : 0;
    // Arbiter sets taken this cycle: VCs in VcAlloc with healthy sets
    // implicitly occupy their own; a borrow takes the lender's.
    std::uint32_t used = vcalloc & ~dead;
    // Siblings whose set could be lent: healthy, owner Idle or Active.
    const std::uint32_t lendable =
        all_vcs & ~dead & ~(masks.routing[p] | vcalloc);
    for (std::uint32_t vm = vcalloc; vm != 0; vm &= vm - 1) {
      const int v = std::countr_zero(vm);
      VirtualChannel& vc = in.vc(p, v);
#ifdef RNOC_TRACE
      if (obs_) obs_->metrics().add_request(router_, obs::Stage::Va);
#endif
      int set_owner = v;
      if (dead >> static_cast<unsigned>(v) & 1u) {
        set_owner = borrow_arbiter_set(in, p, v, lendable & ~used, stats);
        if (set_owner < 0) {
#ifdef RNOC_TRACE
          // Baseline arbiter-set fault or borrow wait: the fault (not
          // congestion or arbitration) cost this VC the cycle.
          if (obs_) {
            obs_->metrics().add_stall(router_, obs::Stage::Va,
                                      obs::StallCause::FaultBlocked);
            obs_->on_event(obs::EventKind::FaultBlock, now,
                           vc.buffer.front().packet, router_, p, v);
          }
#endif
          continue;
        }
        used |= 1u << static_cast<unsigned>(set_owner);
      }

      const int r = vc.route;
      require(!vc.buffer.empty() && vc.buffer.front().is_head(),
              "VcAllocator: VcAlloc state without a head flit");
      // Downstream VCs this packet may take: free, of its class's vnet, and
      // on the right side of the escape-VC partition (the reserved VC only
      // for escape routes, escape routes only onto the reserved VC).
      std::uint32_t allowed =
          vnets_ == 1 ? vnet_vcs_[0]
                      : vnet_vcs_[static_cast<std::size_t>(vnet_of_class(
                            vc.buffer.front().traffic_class, vnets_))];
      if (escape_vc_ >= 0) {
        const std::uint32_t escape_bit =
            1u << static_cast<unsigned>(escape_vc_);
        allowed &= vc.escape_route ? escape_bit : ~escape_bit;
      }
      allowed &= ~out.allocated(r);
      const int ex = vc.excluded_out_vc;
      std::uint32_t cand =
          ex >= 0 ? allowed & ~(1u << static_cast<unsigned>(ex)) : allowed;
      if (cand == 0 && ex >= 0 && (allowed >> static_cast<unsigned>(ex) & 1u)) {
        // The exclusion memory must never starve the VC outright: when the
        // excluded downstream VC is the only remaining candidate (e.g. one
        // VC per vnet), forget the exclusion and retry it — pointless while
        // the stage-2 arbiter fault persists, but self-healing the moment a
        // transient fault expires.
        vc.excluded_out_vc = -1;
        cand = 1u << static_cast<unsigned>(ex);
      }
      if (cand == 0) {
#ifdef RNOC_TRACE
        // No empty downstream VC: ordinary congestion.
        if (obs_)
          obs_->metrics().add_stall(router_, obs::Stage::Va,
                                    obs::StallCause::NoCredit);
#endif
        continue;
      }
      const int key = r * vcs_ + stage1(p, set_owner).arbitrate_mask(cand);
      const std::uint64_t key_bit = std::uint64_t{1}
                                    << static_cast<unsigned>(key);
      if ((pairs & key_bit) == 0) {
        pairs |= key_bit;
        pair_req_[key] = 0;
      }
      pair_req_[key] |=
          std::uint64_t{1} << static_cast<unsigned>(p * vcs_ + v);
    }
  }

  // --- Stage 2: one arbiter per proposed downstream VC, (r, u) ascending.
  // A pair's requesters are visited in (in_port, in_vc) order, the order
  // stage 1 proposed them in. ---
#ifdef RNOC_TRACE
  std::uint64_t proposed = 0;  // Input VCs that made a proposal.
  std::uint64_t blocked = 0;   // ... whose stall a stage-2 fault explains.
#endif
  for (; pairs != 0; pairs &= pairs - 1) {
    const int key = std::countr_zero(pairs);
    const int r = port_of_[key];
    const int u = vc_of_[key];
    const std::uint64_t req = pair_req_[key];
#ifdef RNOC_TRACE
    proposed |= req;
#endif
    if (faulted && (faults.vc_mask(fault::SiteType::Va2Arbiter, r) >>
                        static_cast<unsigned>(u) &
                    1u)) {
      // Paper §V-B3: the allocation fails; requesters recompute next cycle
      // against a different downstream VC (+1 cycle, no extra circuitry).
      for (std::uint64_t m = req; m != 0; m &= m - 1) {
        const int req_in = std::countr_zero(m);
        VirtualChannel& vc = in.vc_at(req_in);
        vc.excluded_out_vc = static_cast<std::int8_t>(u);
        ++stats.va2_retries;
#ifdef RNOC_TRACE
        if (obs_) {
          obs_->metrics().add_stall(router_, obs::Stage::Va,
                                    obs::StallCause::FaultBlocked);
          obs_->on_event(obs::EventKind::FaultBlock, now,
                         vc.buffer.front().packet, router_, req_in / vcs_,
                         req_in % vcs_);
        }
#endif
      }
#ifdef RNOC_TRACE
      blocked |= req;
#endif
      continue;
    }
    const int winner = stage2_[static_cast<std::size_t>(key)]
                           .arbitrate_mask(req);
    const int wp = port_of_[winner];
    const int wv = vc_of_[winner];
    VirtualChannel& vc = in.vc(wp, wv);
    vc.out_vc = static_cast<std::int8_t>(u);
    vc.state = VcState::Active;
    vc.excluded_out_vc = -1;
    in.refresh(wp, wv);
    out.set_allocated(r, u, true);
    ++stats.va_allocations;
#ifdef RNOC_TRACE
    if (obs_) {
      obs_->metrics().add_grant(router_, obs::Stage::Va);
      obs_->on_event(obs::EventKind::Va, now, vc.buffer.front().packet,
                     router_, wp, wv);
    }
#endif
  }
#ifdef RNOC_TRACE
  // Proposals that were not fault-blocked and did not end Active lost a
  // stage-1 or stage-2 arbitration to another VC.
  if (obs_) {
    for (std::uint64_t m = proposed & ~blocked; m != 0; m &= m - 1) {
      if (in.vc_at(std::countr_zero(m)).state != VcState::Active)
        obs_->metrics().add_stall(router_, obs::Stage::Va,
                                  obs::StallCause::LostVa);
    }
  }
#endif

  // Borrow-request fields are per-cycle markers: the VA unit resets them
  // after the allocation attempt completes (paper §V-B2). They are only
  // ever posted by a successful borrow, so the sweep runs only then.
  if (stats.va1_borrows != borrows_before) {
    for (int i = 0; i < ports_ * vcs_; ++i) in.vc_at(i).clear_borrow_fields();
  }
}

void VcAllocator::reset_for_run() {
  for (auto& a : stage1_) a.set_pointer(0);
  for (auto& a : stage2_) a.set_pointer(0);
  escape_vc_ = -1;  // Self-heal re-arms lazily at the next run's first death.
}

}  // namespace rnoc::noc
