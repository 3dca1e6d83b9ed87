#include "noc/sw_allocator.hpp"

#include <algorithm>
#include <bit>

namespace rnoc::noc {

SwitchAllocator::SwitchAllocator(int ports, int vcs, core::RouterMode mode,
                                 Cycle default_winner_epoch)
    : ports_(ports), vcs_(vcs), mode_(mode), epoch_(default_winner_epoch) {
  require(ports >= 1 && vcs >= 1, "SwitchAllocator: bad geometry");
  require(default_winner_epoch >= 1, "SwitchAllocator: epoch must be >= 1");
  for (int p = 0; p < ports; ++p) {
    stage1_.emplace_back(vcs);
    stage2_.emplace_back(ports);
  }
  require_router_geometry(ports, vcs);
#ifdef RNOC_TRACE
  obs_pending_.resize(static_cast<std::size_t>(ports * vcs), 0);
#endif
}

#ifdef RNOC_TRACE
void SwitchAllocator::obs_flush_pending() {
  if (obs_npending_ == 0) return;
  for (auto& pend : obs_pending_) {
    if (!pend) continue;
    pend = 0;
    if (obs_)
      obs_->metrics().add_stall(router_, obs::Stage::Sa,
                                obs::StallCause::LostSa);
  }
  obs_npending_ = 0;
}
#endif

int SwitchAllocator::default_winner(Cycle now) const {
  return static_cast<int>((now / epoch_) % static_cast<Cycle>(vcs_));
}

RoundRobinArbiter& SwitchAllocator::stage1(int port) {
  return stage1_[static_cast<std::size_t>(port)];
}

RoundRobinArbiter& SwitchAllocator::stage2(int out_port) {
  return stage2_[static_cast<std::size_t>(out_port)];
}

bool SwitchAllocator::crossbar_path_ok(
    VirtualChannel& vc, const fault::RouterFaultState& faults) const {
  using fault::SiteType;
  const unsigned out = static_cast<unsigned>(vc.route);
  // A mux is unusable when it or its stage-2 arbiter is dead.
  const std::uint32_t mux_dead = faults.port_mask(SiteType::XbMux) |
                                 faults.port_mask(SiteType::Sa2Arbiter);
  const bool primary_ok = (mux_dead >> out & 1u) == 0;
  if (mode_ == core::RouterMode::Baseline) {
    // The generic crossbar has exactly one path per output port.
    return primary_ok;
  }
  // Every flit leaves through the output-select mux P_out; its fault is
  // uncoverable (paper §VIII-D).
  if (faults.port_mask(SiteType::XbPSelect) >> out & 1u) return false;
  if (!vc.fsp && primary_ok) return true;
  // Need (or already committed to) the secondary path. The RC unit normally
  // sets SP/FSP (paper §V-D); a fault that appears after RC ran is resolved
  // here the same way.
  const int sec = core::secondary_mux_for_output(vc.route, ports_);
  const bool secondary_ok =
      ((mux_dead | faults.port_mask(SiteType::XbDemux)) >>
           static_cast<unsigned>(sec) &
       1u) == 0;
  if (!secondary_ok) {
    // Fall back to the primary path if it still works (e.g. stale FSP from
    // a fault combination that no longer lets the secondary work).
    if (primary_ok) {
      vc.sp = -1;
      vc.fsp = false;
      return true;
    }
    return false;
  }
  vc.sp = sec;
  vc.fsp = true;
  return true;
}

int SwitchAllocator::bypass_stage1(Cycle now, VcStore& in, int p,
                                   std::uint64_t ready, std::uint32_t occupied,
                                   const fault::RouterFaultState& faults,
                                   RouterStats& stats) {
  const std::uint32_t bypass_dead =
      faults.port_mask(fault::SiteType::Sa1Bypass);
  if (mode_ == core::RouterMode::Baseline ||
      (bypass_dead >> static_cast<unsigned>(p) & 1u)) {
    // No (working) bypass: every ready VC is stuck at switch allocation.
    for (; ready != 0; ready &= ready - 1) {
      ++stats.blocked_vc_cycles;
#ifdef RNOC_TRACE
      const int v = std::countr_zero(ready);
      obs_pending_[static_cast<std::size_t>(p * vcs_ + v)] = 0;
      --obs_npending_;
      if (obs_) {
        obs_->metrics().add_stall(router_, obs::Stage::Sa,
                                  obs::StallCause::FaultBlocked);
        obs_->on_event(obs::EventKind::FaultBlock, now,
                       in.vc(p, v).buffer.front().packet, router_, p, v);
      }
#endif
    }
    return -1;
  }
  // Bypass path (paper §V-C1): the rotating default winner is granted
  // without arbitration. If the default winner VC is empty while another
  // VC of this port holds flits, the packet (flits + state fields) of the
  // lowest such VC is transferred into it, costing this cycle.
  const int d = default_winner(now);
  if (ready >> static_cast<unsigned>(d) & 1u) {
    ++stats.sa1_bypass_grants;
    return d;
  }
  const VirtualChannel& dvc = in.vc(p, d);
  if (dvc.state == VcState::Idle && dvc.empty()) {
    // `occupied` is never empty (the port has ready-mask bits) and never
    // holds the Idle default winner.
    in.transfer(p, std::countr_zero(occupied), d);
    ++stats.sa1_transfers;
  }
  // Default winner not ready: no grant this cycle.
  return -1;
}

void SwitchAllocator::step(Cycle now, VcStore& in, OutVcTable& out,
                           const fault::RouterFaultState& faults,
                           RouterStats& stats, GrantSet& grants) {
  grants.clear();
  const RouterVcMasks& masks = in.masks();
  // The state masks are exact (bit v of ready[p] <=> VC v of port p is
  // Active with a buffered flit), so iterating their set bits ascending
  // visits exactly the VCs that can request, in port/VC order. A port with
  // no such VC has no readiness, no bypass grant and no transferable
  // packet, so skipping it is exact. Mux request slots are lazily cleared
  // on first use, so a cycle's cost never includes ports that requested
  // nothing.
  if (masks.ready_ports == 0) return;
  const bool faulted = faults.count() != 0;
  const std::uint32_t sa1_dead =
      faulted ? faults.port_mask(fault::SiteType::Sa1Arbiter) : 0;
  // Outputs whose primary crossbar path is out (dead mux or stage-2
  // arbiter; on the protected router also a dead output select). A VC
  // routed elsewhere and not committed to its secondary path passes
  // crossbar_path_ok unchanged, so only the others take the full check.
  const std::uint32_t primary_bad =
      !faulted ? 0
               : faults.port_mask(fault::SiteType::XbMux) |
                     faults.port_mask(fault::SiteType::Sa2Arbiter) |
                     (mode_ == core::RouterMode::Protected
                          ? faults.port_mask(fault::SiteType::XbPSelect)
                          : 0);
  std::uint32_t mux_mask = 0;

  // --- Stage 1: one winning VC per input port. ---
  for (std::uint32_t pm = masks.ready_ports; pm != 0; pm &= pm - 1) {
    const int p = std::countr_zero(pm);
    const std::uint32_t occupied = masks.ready[p];
    std::uint64_t ready = 0;
    for (std::uint32_t vm = occupied; vm != 0; vm &= vm - 1) {
      const int v = std::countr_zero(vm);
      VirtualChannel& vc = in.vc(p, v);
#ifdef RNOC_TRACE
      if (obs_) obs_->metrics().add_request(router_, obs::Stage::Sa);
#endif
      if (out.credits(vc.route, vc.out_vc) <= 0) {
#ifdef RNOC_TRACE
        // Ordinary credit stall.
        if (obs_)
          obs_->metrics().add_stall(router_, obs::Stage::Sa,
                                    obs::StallCause::NoCredit);
#endif
        continue;
      }
      // Fault-free, the path always works: a stale FSP from an expired
      // transient fault is honoured by the fsp ? sp : route mux selection,
      // exactly as the full evaluation would re-derive it.
      if (faulted &&
          (vc.fsp || (primary_bad >> static_cast<unsigned>(vc.route) & 1u)) &&
          !crossbar_path_ok(vc, faults)) {
        ++stats.blocked_vc_cycles;
#ifdef RNOC_TRACE
        if (obs_) {
          obs_->metrics().add_stall(router_, obs::Stage::Sa,
                                    obs::StallCause::FaultBlocked);
          obs_->on_event(obs::EventKind::FaultBlock, now,
                         vc.buffer.front().packet, router_, p, v);
        }
#endif
        continue;
      }
      ready |= std::uint64_t{1} << static_cast<unsigned>(v);
#ifdef RNOC_TRACE
      if (!obs_pending_[static_cast<std::size_t>(p * vcs_ + v)]) {
        obs_pending_[static_cast<std::size_t>(p * vcs_ + v)] = 1;
        ++obs_npending_;
      }
#endif
    }
    int w = -1;
    if ((sa1_dead >> static_cast<unsigned>(p) & 1u) == 0) {
      if (ready != 0) w = stage1(p).arbitrate_mask(ready);
    } else {
      w = bypass_stage1(now, in, p, ready, occupied, faults, stats);
    }
    if (w < 0) continue;
    w1_[p] = w;
    const VirtualChannel& vc = in.vc(p, w);
    const int m = vc.fsp ? vc.sp : vc.route;
    if ((mux_mask >> static_cast<unsigned>(m) & 1u) == 0) {
      mux_mask |= 1u << static_cast<unsigned>(m);
      mux_req_[m] = 0;
    }
    mux_req_[m] |= std::uint64_t{1} << static_cast<unsigned>(p);
  }
  // A dead stage-2 arbiter grants nothing; its requesters lose the cycle.
  if (faulted)
    mux_mask &= ~faults.port_mask(fault::SiteType::Sa2Arbiter);

  // --- Stage 2: one grant per requested output mux, ascending. ---
  for (; mux_mask != 0; mux_mask &= mux_mask - 1) {
    const int m = std::countr_zero(mux_mask);
    const int g = stage2(m).arbitrate_mask(mux_req_[m]);
    const int v = w1_[g];
    const VirtualChannel& vc = in.vc(g, v);
    grants.push(g, v, vc.route, m, vc.out_vc);
    --out.credits(vc.route, vc.out_vc);
    if (m != vc.route) ++stats.xb_secondary_traversals;
#ifdef RNOC_TRACE
    if (obs_pending_[static_cast<std::size_t>(g * vcs_ + v)]) {
      obs_pending_[static_cast<std::size_t>(g * vcs_ + v)] = 0;
      --obs_npending_;
    }
    if (obs_) {
      obs_->metrics().add_grant(router_, obs::Stage::Sa);
      if (vc.buffer.front().is_head())
        obs_->on_event(obs::EventKind::Sa, now, vc.buffer.front().packet,
                       router_, g, v);
    }
#endif
  }
#ifdef RNOC_TRACE
  obs_flush_pending();
#endif
}

void SwitchAllocator::reset_for_run() {
  for (auto& a : stage1_) a.set_pointer(0);
  for (auto& a : stage2_) a.set_pointer(0);
#ifdef RNOC_TRACE
  std::fill(obs_pending_.begin(), obs_pending_.end(), 0);
  obs_npending_ = 0;
#endif
}

}  // namespace rnoc::noc
