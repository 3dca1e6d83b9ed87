#include "noc/router.hpp"

#include <algorithm>
#include <bit>

namespace rnoc::noc {

Router::Router(NodeId id, const MeshDims& dims, const RouterConfig& cfg)
    : id_(id),
      dims_(dims),
      cfg_(cfg),
      // The allocators arbitrate on bitmasks: VA stage 2 packs every input
      // VC of the router into one 64-bit request mask, so the VC store
      // rejects more than 12 VCs per port.
      in_(kMeshPorts, cfg.vcs, cfg.vc_depth),
      out_vcs_(kMeshPorts, cfg.vcs, cfg.vc_depth),
      faults_({kMeshPorts, cfg.vcs, cfg.vnets}),
      va_(kMeshPorts, cfg.vcs, cfg.mode, cfg.vnets),
      sa_(kMeshPorts, cfg.vcs, cfg.mode, cfg.default_winner_epoch),
      xb_(kMeshPorts, cfg.mode) {
  require(id >= 0 && id < dims.nodes(), "Router: id outside mesh");
  coord_ = dims.coord_of(id);
}

void Router::attach_input(int port, Link* link) {
  require(port >= 0 && port < kMeshPorts, "Router::attach_input: bad port");
  in_links_[port] = link;
}

void Router::attach_output(int port, Link* link) {
  require(port >= 0 && port < kMeshPorts, "Router::attach_output: bad port");
  out_links_[port] = link;
}

void Router::set_routing_tables(const FaultAwareTables* tables) {
  route_tables_ = tables;
}

void Router::decommission(Cycle now) {
  if (dead_) return;
  dead_ = true;
  // Cancel pending switch traversals: SA already consumed a downstream
  // credit for each grant, and the flit will never be sent, so refund it.
  for (const StGrant& g : st_pending_) ++out_vcs_.credits(g.out_port, g.out_vc);
  st_pending_.clear();
  // Purge every buffered flit, returning its credit upstream (naming the
  // logical VC the upstream targeted) so neighbour flow control stays
  // conserved. A purged mid-packet leaves a truncated fragment downstream;
  // the drain barrier cleans those up wholesale, while the self-heal
  // strategy consumes the truncated_ record below for a targeted
  // reclamation sweep (it has no barrier).
  for (int p = 0; p < kMeshPorts; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      VirtualChannel& vc = in_.vc(p, v);
      // The head is already beyond this router exactly when the VC reached
      // Active and the head is no longer at the buffer front (Routing and
      // VcAlloc hold it at the front; an empty Active VC forwarded it all).
      if (vc.state == VcState::Active &&
          (vc.buffer.empty() || !vc.buffer.front().is_head()))
        truncated_.push_back({vc.packet, vc.dst, vc.route, vc.out_vc});
      while (!vc.buffer.empty()) {
        const Flit& f = in_.pop_front(p, v);
        if (Link* l = in_links_[p]) l->push_credit({f.vc, f.is_tail()}, now);
        ++stats_.flits_swallowed;
      }
      vc.reset_to_idle();
      in_.refresh(p, v);
    }
  }
}

int Router::purge_unroutable(Cycle now) {
  if (!has_unroutable_) return 0;
  has_unroutable_ = false;
  int purged = 0;
  for (int p = 0; p < kMeshPorts; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      VirtualChannel& vc = in_.vc(p, v);
      if (!vc.unroutable) continue;
      require(vc.state == VcState::Routing,
              "Router::purge_unroutable: flagged VC left Routing");
      // Drop the buffered flits with upstream credit returns (naming the
      // logical VC the upstream targeted, exactly like decommission). If
      // the tail has not arrived yet, arm the drop filter so the in-flight
      // remainder is swallowed on arrival.
      bool tail_seen = false;
      while (!vc.buffer.empty()) {
        const Flit& f = in_.pop_front(p, v);
        tail_seen = f.is_tail();
        if (Link* l = in_links_[p]) l->push_credit({f.vc, f.is_tail()}, now);
        ++stats_.flits_dropped;
      }
      if (!tail_seen) in_.set_dropping(p, in_.logical_of(p, v), true);
      vc.reset_to_idle();
      in_.refresh(p, v);
      ++purged;
    }
  }
  return purged;
}

int Router::purge_poisoned(const std::vector<PacketId>& ids, Cycle now,
                           std::vector<TruncatedStream>& downstream) {
  int purged = 0;
  for (int p = 0; p < kMeshPorts; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      VirtualChannel& vc = in_.vc(p, v);
      if (vc.state == VcState::Idle) continue;
      if (std::find(ids.begin(), ids.end(), vc.packet) == ids.end()) continue;
      if (vc.state == VcState::Active) {
        // Cancel the fragment's pending switch grant (SA consumed a
        // downstream credit for it) and release the downstream VC it holds
        // — its vc_free can never arrive, the tail died at the dead router.
        for (int g = 0; g < st_pending_.size();) {
          const StGrant& sg = st_pending_[g];
          if (sg.in_port == p && sg.in_vc == v) {
            ++out_vcs_.credits(sg.out_port, sg.out_vc);
            st_pending_.erase(g);
          } else {
            ++g;
          }
        }
        out_vcs_.set_allocated(vc.route, vc.out_vc, false);
        if (vc.buffer.empty() || !vc.buffer.front().is_head())
          downstream.push_back({vc.packet, vc.dst, vc.route, vc.out_vc});
      }
      while (!vc.buffer.empty()) {
        const Flit& f = in_.pop_front(p, v);
        if (Link* l = in_links_[p]) l->push_credit({f.vc, f.is_tail()}, now);
        ++stats_.flits_dropped;
      }
      // Anything of this fragment still in flight from upstream (itself a
      // purged chain node, or the dead router) lands in the poison filter.
      in_.arm_poison(p, in_.logical_of(p, v), vc.packet, now);
      vc.reset_to_idle();
      in_.refresh(p, v);
      ++purged;
    }
  }
  return purged;
}

void Router::reset_flow_state() {
  for (int p = 0; p < kMeshPorts; ++p) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      VirtualChannel& vc = in_.vc(p, v);
      require(vc.buffer.empty(),
              "Router::reset_flow_state: network not drained");
      vc.reset_to_idle();
      in_.refresh(p, v);
    }
  }
  out_vcs_.reset();
  st_pending_.clear();
}

InputPort Router::input_port(int p) {
  require(p >= 0 && p < kMeshPorts, "Router::input_port: bad port");
  return InputPort(in_, p);
}

const InputPort Router::input_port(int p) const {
  require(p >= 0 && p < kMeshPorts, "Router::input_port: bad port");
  // The view is returned const: only read access escapes.
  return InputPort(const_cast<VcStore&>(in_), p);
}

OutVcState Router::out_vc(int port, int vc) const {
  require(port >= 0 && port < kMeshPorts && vc >= 0 && vc < cfg_.vcs,
          "Router::out_vc: out of range");
  return out_vcs_.get(port, vc);
}

int Router::buffered_flits() const {
  int n = 0;
  for (int p = 0; p < kMeshPorts; ++p) n += in_.buffered_flits(p);
  return n;
}

void Router::accept_flit(Link& l, int p, const Flit& f, Cycle now) {
  if (dead_) {
    // Black hole: swallow the flit but return its credit at once, so
    // the upstream neighbour's flow control stays conserved.
    l.push_credit({f.vc, f.is_tail()}, now);
    ++stats_.flits_swallowed;
  } else if (in_.dropping(p, f.vc)) {
    // Remainder of a packet purge_unroutable dropped: the head is gone, so
    // swallow the stragglers with an immediate credit; the tail closes the
    // filter and frees the upstream VC (its credit carries vc_free).
    l.push_credit({f.vc, f.is_tail()}, now);
    if (f.is_tail()) in_.set_dropping(p, f.vc, false);
    ++stats_.flits_dropped;
  } else if (in_.poison_swallow(p, f)) {
    // In-flight remnant of a fragment the reclamation sweep purged. No tail
    // will ever close this stream (it died at the dead router), so the
    // upstream allocation was released by the sweep itself; the credit here
    // only refunds the buffer slot.
    l.push_credit({f.vc, f.is_tail()}, now);
    ++stats_.flits_dropped;
  } else {
    in_.write(p, f);
    ++stats_.buffer_writes;
#ifdef RNOC_TRACE
    if (obs_ && f.is_head()) {
      const int phys = in_.physical_of(p, f.vc);
      in_.vc(p, phys).obs_arrived = now;
      obs_->on_event(obs::EventKind::BufWrite, now, f.packet, id_, p, phys);
    }
#endif
  }
}

void Router::drain_credits_from(Link& l, int p, Cycle now) {
  l.drain_credits(now, [&](const Credit& c) {
    std::int16_t& credits = out_vcs_.credits(p, c.vc);
    ++credits;
    require(credits <= cfg_.vc_depth,
            "Router: credit overflow (protocol violation)");
    if (c.vc_free) out_vcs_.set_allocated(p, c.vc, false);
  });
}

void Router::step_accept(Cycle now) {
  for (int p = 0; p < kMeshPorts; ++p) {
    if (Link* l = in_links_[p])
      if (const Flit* f = l->arrive(now)) accept_flit(*l, p, *f, now);
    if (Link* l = out_links_[p]) drain_credits_from(*l, p, now);
  }
}

Cycle Router::accept_flit_due(int p, Cycle now) {
  Link* l = in_links_[p];
  if (l == nullptr) return kNeverCycle;
  // A spurious delivery (an already-taken or retimed flit) finds nothing
  // due and has no side effects: the ECC error roll only happens on an
  // actual delivery. So this is bit-identical to step_accept.
  if (const Flit* f = l->arrive(now)) accept_flit(*l, p, *f, now);
  return l->next_flit_ready();
}

void Router::drain_credits_due(int p, Cycle now) {
  if (Link* l = out_links_[p]) drain_credits_from(*l, p, now);
}

bool Router::step_cycle_event(Cycle now) {
  if (dead_) return false;
  // Each stage runs only when its mask says some VC is in that stage (the
  // stages early-return on empty masks, so the skip is exact), and
  // `progressed` tracks whether any stage did something this cycle without
  // summing the stats digest:
  //  - pending ST grants always traverse when fault-free (can_traverse is
  //    identically true), so entering ST with grants is progress;
  //  - SA progress is visible as new grants in st_pending_;
  //  - VA progress means va_allocations moved (an allocation also needs a
  //    downstream VC, so a non-empty mask alone does not imply progress);
  //  - a non-empty routing mask guarantees RC serves at least one VC
  //    (compute_route always counts as progress, Granted or not — a
  //    Blocked/Unreachable retry repeats every cycle, like the sweep).
  bool progressed = !st_pending_.empty();
  if (progressed) step_st(now);
  const RouterVcMasks& masks = in_.masks();
  if (masks.ready_ports != 0) step_sa(now);
  if (masks.vcalloc_ports != 0) {
    const std::uint64_t va_before = stats_.va_allocations;
    step_va(now);
    progressed |= stats_.va_allocations != va_before;
  }
  if (masks.routing_ports != 0) {
    step_rc(now);
    progressed = true;
  }
  // Faulty routers never stall-retire: they are re-evaluated every cycle
  // while they hold work, exactly like the stage-major path. Over-staying is
  // always bit-identical — the stages are idempotent no-ops on a stalled
  // router. A fault-free router retires (return false) exactly when the
  // digest comparison would have found zero progress: a stalled router
  // whose every un-stalling input (flit, credit, fault) arrives through a
  // wake or delivery.
  if (faults_.count() != 0 || !st_pending_.empty()) return has_pending_work();
  return progressed && has_pending_work();
}

void Router::step_st(Cycle now) {
  if (dead_ || st_pending_.empty()) return;
  for (const StGrant& g : st_pending_) {
    VirtualChannel& vc = in_.vc(g.in_port, g.in_vc);
    require(!vc.buffer.empty(), "Router::step_st: granted VC has no flit");

#ifdef RNOC_TRACE
    if (obs_) obs_->metrics().add_request(id_, obs::Stage::St);
#endif
    if (!xb_.can_traverse(g, faults_)) {
      // A fault struck between SA and ST: cancel the traversal, refund the
      // credit; the flit re-arbitrates with the fault now visible.
      ++out_vcs_.credits(g.out_port, g.out_vc);
      ++stats_.blocked_vc_cycles;
#ifdef RNOC_TRACE
      if (obs_) {
        obs_->metrics().add_stall(id_, obs::Stage::St,
                                  obs::StallCause::FaultBlocked);
        obs_->on_event(obs::EventKind::FaultBlock, now,
                       vc.buffer.front().packet, id_, g.in_port, g.in_vc);
      }
#endif
      continue;
    }

#ifdef RNOC_TRACE
    if (obs_) {
      obs_->metrics().add_grant(id_, obs::Stage::St);
      if (vc.buffer.front().is_head()) {
        obs_->metrics().add_hop_latency(now - vc.obs_arrived);
        obs_->on_event(obs::EventKind::St, now, vc.buffer.front().packet, id_,
                       g.in_port, g.in_vc);
      }
    }
#endif
    // The flit leaves from its slab slot: credit upstream, rename to the
    // downstream VC in place, and push.
    Flit& f = in_.pop_front(g.in_port, g.in_vc);
    if (Link* l = in_links_[g.in_port]) l->push_credit({f.vc, f.is_tail()}, now);
    f.vc = vc.out_vc;
    if (f.is_tail()) {
      vc.reset_to_idle();
      in_.refresh(g.in_port, g.in_vc);
    }
    Link* out = out_links_[g.out_port];
    require(out != nullptr, "Router::step_st: unwired output port");
    out->push_flit(f, now);
    ++stats_.flits_traversed;
  }
  st_pending_.clear();
}

void Router::step_sa(Cycle now) {
  if (dead_) return;
  sa_.step(now, in_, out_vcs_, faults_, stats_, st_pending_);
}

void Router::step_va(Cycle now) {
  if (dead_) return;
  va_.step(now, in_, out_vcs_, faults_, stats_);
}

void Router::rebuild_vc_masks() { in_.rebuild_masks(); }

int Router::free_credits(int out) const {
  int total = 0;
  for (int v = 0; v < cfg_.vcs; ++v) total += out_vcs_.credits(out, v);
  return total;
}

bool Router::try_output(VirtualChannel& vc, int out) {
  using fault::SiteType;
  vc.route = out;
  vc.sp = -1;
  vc.fsp = false;
  if (faults_.count() == 0) return true;  // Primary path trivially works.
  // A mux is unusable when it or its stage-2 arbiter is dead.
  const std::uint32_t mux_dead = faults_.port_mask(SiteType::XbMux) |
                                 faults_.port_mask(SiteType::Sa2Arbiter);
  const bool primary_ok = (mux_dead >> static_cast<unsigned>(out) & 1u) == 0;
  if (cfg_.mode != core::RouterMode::Protected) return primary_ok;
  if (faults_.port_mask(SiteType::XbPSelect) >> static_cast<unsigned>(out) & 1u)
    return false;
  if (primary_ok) return true;
  // Secondary-path determination (paper §V-D): if the regular path to `out`
  // is unreachable, point SP at the neighbouring mux and set FSP.
  const int sec = core::secondary_mux_for_output(out, kMeshPorts);
  if ((mux_dead | faults_.port_mask(SiteType::XbDemux)) >>
          static_cast<unsigned>(sec) &
      1u)
    return false;
  vc.sp = sec;
  vc.fsp = true;
  return true;
}

RcOutcome Router::compute_route(VirtualChannel& vc, const Flit& head,
                                int in_port, int in_phys, Cycle now) {
  (void)in_phys;
  (void)now;  // Consumed by the self-heal path / traced builds only.
  using fault::SiteType;
  // Select a working RC unit for this input port (paper §V-A).
  const unsigned port_bit = 1u << static_cast<unsigned>(in_port);
  if (faults_.port_mask(SiteType::RcPrimary) & port_bit) {
    if (cfg_.mode == core::RouterMode::Baseline ||
        (faults_.port_mask(SiteType::RcSpare) & port_bit))
      return RcOutcome::Blocked;
    ++stats_.rc_spare_uses;
  }
  ++stats_.rc_computations;

  // Candidate outputs: one for deterministic routing, possibly several for
  // adaptive odd-even. Fixed-size scratch — RC runs once per port per cycle,
  // so a heap allocation here is pure overhead.
  int candidates[kMeshPorts];
  int ncand = 0;
  if (route_tables_) {
    const int out = route_tables_->next_port(id_, head.dst);
    if (out < 0)  // a dead router partitioned the mesh
      return RcOutcome::Unreachable;
    candidates[ncand++] = out;
  } else if (cfg_.routing == RoutingAlgo::OddEven) {
    ncand = odd_even_candidates(dims_, id_, head.src, head.dst, candidates);
    bool escape = false;
    if (sh_ != nullptr && sh_->active()) {
      const FaultAwareTables* esc = sh_->escape_tables();
      const bool on_escape_vc =
          in_.logical_of(in_port, in_phys) == sh_->escape_vc();
      if (on_escape_vc && esc != nullptr) {
        // Escape discipline (Duato): a packet that arrived on the escape VC
        // stays on the west-first escape network until delivery. While a
        // newer table generation awaits install (frozen), continuations
        // keep using the installed one — single-generation paths are safe.
        const int out = esc->next_port(id_, head.dst);
        if (out < 0) {
          // Even west-first cannot reach the destination from here: flag
          // the packet for the controller's purge after this step (the
          // end-to-end layer retransmits it over a fresh adaptive route).
          vc.unroutable = true;
          has_unroutable_ = true;
          return RcOutcome::Unreachable;
        }
        candidates[0] = out;
        ncand = 1;
        escape = true;
      } else if (!on_escape_vc && !sh_->dead(head.dst)) {
        // Filter ports this router knows lead into a dead neighbour. Any
        // subset of odd-even candidates stays turn-model legal, so the
        // filtered set needs no re-legalisation.
        const std::uint8_t dp = sh_->dead_ports(id_);
        int kept = 0;
        for (int i = 0; i < ncand; ++i)
          if ((dp >> static_cast<unsigned>(candidates[i]) & 1u) == 0)
            candidates[kept++] = candidates[i];
        if (kept > 0) {
          ncand = kept;
        } else {
          // Every minimal direction is known faulty: divert onto the
          // west-first escape VC. Before the first table generation exists,
          // waiting here can deadlock against the install itself — this
          // packet's own tail may be a pre-activation resident of the
          // escape class whose drain the install waits for — so purge it
          // for end-to-end retransmission instead. Once a generation is
          // installed, escape packets always progress on it, the class
          // reliably drains, and waiting out a pending generation (frozen)
          // is safe; mixing routes of two west-first generations could
          // compose a forbidden turn, so new entrants must wait it out.
          if (esc == nullptr) {
            vc.unroutable = true;
            has_unroutable_ = true;
            return RcOutcome::Unreachable;
          }
          if (sh_->frozen()) return RcOutcome::Blocked;
          const int out = esc->next_port(id_, head.dst);
          if (out < 0) {
            vc.unroutable = true;
            has_unroutable_ = true;
            return RcOutcome::Unreachable;
          }
          candidates[0] = out;
          ncand = 1;
          escape = true;
          ++stats_.escape_reroutes;
#ifdef RNOC_TRACE
          if (obs_)
            obs_->on_event(obs::EventKind::SelfHealReroute, now, head.packet,
                           id_, in_port, in_phys);
#endif
        }
      }
      // A dead destination keeps the unfiltered minimal set: the packet
      // black-holes at the dead router with credits returned, and the
      // end-to-end layer then accounts the pair unreachable. An escape-VC
      // arrival before the first table install is a pre-activation
      // adaptive packet: it keeps the unfiltered set and vacates the class
      // (the VA filter hands it a regular VC downstream).
    }
    vc.escape_route = escape;
    // Adaptive selection: prefer the candidate with the most free
    // downstream buffer space (congestion look-ahead). Stable insertion
    // sort over <= kMeshPorts entries.
    for (int i = 1; i < ncand; ++i) {
      const int cand = candidates[i];
      const int credit = free_credits(cand);
      int j = i;
      while (j > 0 && free_credits(candidates[j - 1]) < credit) {
        candidates[j] = candidates[j - 1];
        --j;
      }
      candidates[j] = cand;
    }
  } else {
    candidates[ncand++] = xy_route(coord_, dims_.coord_of(head.dst));
  }

  // Commit the first candidate whose crossbar path works; adaptivity thus
  // doubles as fault avoidance when an alternative minimal direction exists.
  for (int i = 0; i < ncand; ++i)
    if (try_output(vc, candidates[i])) return RcOutcome::Granted;
  vc.route = candidates[0];  // blocked; keep a stable R field
  vc.sp = -1;
  vc.fsp = false;
  return RcOutcome::Blocked;
}

void Router::step_rc(Cycle now) {
  if (dead_) return;
  // One RC computation per input port per cycle (one RC unit per port),
  // round-robin over the VCs waiting in Routing state. A port with no
  // Routing VC does nothing (the round-robin pointer only moves when a VC
  // is served), so only ports in the routing mask are visited.
  for (std::uint32_t pm = in_.masks().routing_ports; pm != 0; pm &= pm - 1) {
    const int p = std::countr_zero(pm);
    int& ptr = rc_rr_[p];
#ifdef RNOC_TRACE
    if (obs_) {
      const int routing_vcs = std::popcount(in_.masks().routing[p]);
      obs_->metrics().add_request(id_, obs::Stage::Rc,
                                  static_cast<std::uint64_t>(routing_vcs));
      // The single per-port RC unit serves exactly one VC; the rest never
      // reach it this cycle.
      if (routing_vcs > 1)
        obs_->metrics().add_stall(id_, obs::Stage::Rc,
                                  obs::StallCause::Starved,
                                  static_cast<std::uint64_t>(routing_vcs - 1));
    }
#endif
    for (int i = 0; i < cfg_.vcs; ++i) {
      int v = ptr + i;
      if (v >= cfg_.vcs) v -= cfg_.vcs;
      VirtualChannel& vc = in_.vc(p, v);
      if (vc.state != VcState::Routing) continue;
      require(!vc.buffer.empty() && vc.buffer.front().is_head(),
              "Router::step_rc: Routing VC without a head flit");
      const RcOutcome outcome = compute_route(vc, vc.buffer.front(), p, v, now);
      if (outcome == RcOutcome::Granted) {
        vc.state = VcState::VcAlloc;
        in_.refresh(p, v);
#ifdef RNOC_TRACE
        if (obs_) {
          obs_->metrics().add_grant(id_, obs::Stage::Rc);
          obs_->on_event(obs::EventKind::Rc, now, vc.buffer.front().packet,
                         id_, p, v);
        }
#endif
      } else {
        ++stats_.blocked_vc_cycles;
#ifdef RNOC_TRACE
        if (obs_) {
          obs_->metrics().add_stall(id_, obs::Stage::Rc,
                                    outcome == RcOutcome::Unreachable
                                        ? obs::StallCause::RouterDead
                                        : obs::StallCause::FaultBlocked);
          obs_->on_event(obs::EventKind::FaultBlock, now,
                         vc.buffer.front().packet, id_, p, v);
        }
#endif
      }
      ptr = v + 1 == cfg_.vcs ? 0 : v + 1;
      break;
    }
  }
}

void Router::reset_for_run() {
  in_.reset_for_run();
  out_vcs_.reset();
  faults_ = fault::RouterFaultState({kMeshPorts, cfg_.vcs, cfg_.vnets});
  route_tables_ = nullptr;
  has_unroutable_ = false;
  va_.reset_for_run();
  sa_.reset_for_run();
  std::fill(std::begin(rc_rr_), std::end(rc_rr_), 0);
  st_pending_.clear();
  truncated_.clear();
  stats_ = RouterStats{};
  dead_ = false;
}

}  // namespace rnoc::noc
