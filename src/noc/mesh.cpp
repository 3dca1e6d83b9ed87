#include "noc/mesh.hpp"

#include <algorithm>
#include <bit>

#ifdef RNOC_INVARIANTS
#include "noc/invariants.hpp"
#endif

namespace rnoc::noc {

const char* sim_core_name(SimCore core) {
  switch (core) {
    case SimCore::FullSweep: return "full_sweep";
    case SimCore::EventDriven: return "event";
  }
  unreachable("sim_core_name: unhandled SimCore");
}

Mesh::~Mesh() = default;

void Mesh::note_channel(Link* link, Router* up_router, int up_port,
                        NetworkInterface* up_ni, Router* down_router,
                        int down_port, NetworkInterface* down_ni) {
#ifdef RNOC_INVARIANTS
  NocChecker::Channel ch;
  ch.link = link;
  ch.up_router = up_router;
  ch.up_port = up_port;
  ch.up_ni = up_ni;
  ch.down_router = down_router;
  ch.down_port = down_port;
  ch.down_ni = down_ni;
  checker_->add_channel(ch);
#else
  (void)link;
  (void)up_router;
  (void)up_port;
  (void)up_ni;
  (void)down_router;
  (void)down_port;
  (void)down_ni;
#endif
}

Mesh::Mesh(const MeshConfig& cfg)
    : cfg_(cfg),
      self_heal_(cfg.dims),
      events_(static_cast<std::size_t>(cfg.dims.nodes()) * 16,
              cfg.link_latency + 2) {
  require(cfg.dims.x >= 2 && cfg.dims.y >= 2, "Mesh: need at least 2x2");
  const int n = cfg.dims.nodes();
  routers_.reserve(static_cast<std::size_t>(n));
  nis_.reserve(static_cast<std::size_t>(n));
  const NiConfig ni_cfg{cfg.router.vcs, cfg.router.vc_depth,
                        cfg.router.vnets};
  for (NodeId i = 0; i < n; ++i) {
    routers_.emplace_back(i, cfg.dims, cfg.router);
    nis_.emplace_back(i, ni_cfg);
  }
  active_router_words_.assign(static_cast<std::size_t>(n + 63) / 64, 0);
  active_ni_words_.assign(static_cast<std::size_t>(n + 63) / 64, 0);
  require(cfg.link_latency >= 1, "Mesh: link latency must be >= 1");
  due_words_.assign(events_.words(), 0);
  EventRing* ring = cfg.core == SimCore::EventDriven ? &events_ : nullptr;

#ifdef RNOC_INVARIANTS
  checker_ = std::make_unique<NocChecker>();
  checker_->set_mesh(this);
#endif
#ifdef RNOC_TRACE
  observer_ = std::make_unique<obs::Observer>(n, kMeshPorts, cfg.router.vcs,
                                              cfg.obs);
#endif

  for (NodeId i = 0; i < n; ++i) {
    routers_[static_cast<std::size_t>(i)].set_counters(&counters_);
    routers_[static_cast<std::size_t>(i)].set_self_heal(&self_heal_);
    NetworkInterface& ni = nis_[static_cast<std::size_t>(i)];
    ni.set_counters(&counters_);
    ni.set_event_ring(ring, static_cast<std::uint32_t>(i) << 4 | kNiWake);
#ifdef RNOC_INVARIANTS
    checker_->add_router(&routers_[static_cast<std::size_t>(i)]);
    checker_->add_ni(&ni);
    ni.set_invariant_checker(checker_.get());
#endif
#ifdef RNOC_TRACE
    routers_[static_cast<std::size_t>(i)].set_observer(observer_.get());
    ni.set_observer(observer_.get());
#endif
  }

  const bool ecc = cfg.link_single_ber > 0.0 || cfg.link_double_ber > 0.0;
  std::uint64_t link_seed = cfg.ecc_seed;
  // Two links per NI and per adjacent router pair; reserved up front so
  // the routers' and NIs' link pointers stay valid.
  links_.reserve(static_cast<std::size_t>(
      2 * n + 2 * ((cfg.dims.x - 1) * cfg.dims.y +
                   cfg.dims.x * (cfg.dims.y - 1))));
  // Each link notifies the consumer of its flits at the flit's arrival cycle
  // and the consumer of its credits at the credit's arrival cycle; those
  // are different components (flits flow downstream, credits upstream).
  // When the consumer is a router (port >= 0) the record is a delivery —
  // the event core dispatches those instead of scanning every active
  // router's links; NIs gate their own link peeks in step_event, so a wake
  // record (kNiWake) suffices for them.
  auto make_link = [&](int flit_sink, int flit_port, int credit_sink,
                       int credit_port) -> Link* {
    require(links_.size() < links_.capacity(), "Mesh: link count mismatch");
    links_.emplace_back(cfg.link_latency,
                        ecc ? LinkEcc{cfg.link_single_ber, cfg.link_double_ber,
                                      ++link_seed}
                            : LinkEcc{});
    Link* l = &links_.back();
    l->set_counters(&counters_);
#ifdef RNOC_TRACE
    // Retransmit instants are charged to the flit consumer's node so they
    // show up on that router's timeline next to the stall they cause.
    l->set_observer(observer_.get(), flit_sink < n ? flit_sink : flit_sink - n);
#endif
    const std::uint32_t frec =
        flit_port >= 0
            ? static_cast<std::uint32_t>(flit_sink) << 4 |
                  static_cast<std::uint32_t>(flit_port) << 1
            : static_cast<std::uint32_t>(flit_sink - n) << 4 | kNiWake;
    const std::uint32_t crec =
        credit_port >= 0
            ? static_cast<std::uint32_t>(credit_sink) << 4 |
                  static_cast<std::uint32_t>(credit_port) << 1 | 1u
            : static_cast<std::uint32_t>(credit_sink - n) << 4 | kNiWake;
    l->set_event_ring(ring, frec, crec);
    return l;
  };

  // NI <-> router local-port links.
  for (NodeId i = 0; i < n; ++i) {
    Router& r = routers_[static_cast<std::size_t>(i)];
    NetworkInterface& ni = nis_[static_cast<std::size_t>(i)];
    // NI -> router (flits), router -> NI (credits).
    Link* inj = make_link(/*flit_sink=*/i, port_of(Direction::Local),
                          /*credit_sink=*/n + i, -1);
    // router -> NI (flits), NI -> router (credits).
    Link* ej = make_link(/*flit_sink=*/n + i, -1,
                         /*credit_sink=*/i, port_of(Direction::Local));
    r.attach_input(port_of(Direction::Local), inj);
    r.attach_output(port_of(Direction::Local), ej);
    ni.attach(inj, ej);
    note_channel(inj, nullptr, -1, &ni, &r, port_of(Direction::Local),
                 nullptr);
    note_channel(ej, &r, port_of(Direction::Local), nullptr, nullptr, -1,
                 &ni);
  }

  // Inter-router links: for each node, wire East and South neighbours (the
  // reverse directions are wired from the neighbour's perspective).
  for (NodeId i = 0; i < n; ++i) {
    const Coord c = cfg.dims.coord_of(i);
    if (c.x + 1 < cfg.dims.x) {
      const NodeId e = cfg.dims.node_of({c.x + 1, c.y});
      Router& ri = routers_[static_cast<std::size_t>(i)];
      Router& re = routers_[static_cast<std::size_t>(e)];
      // i -> e: flits land on e's West input; credits return to i's East
      // output. The reverse link mirrors both.
      Link* right = make_link(/*flit_sink=*/e, port_of(Direction::West),
                              /*credit_sink=*/i, port_of(Direction::East));
      Link* left = make_link(/*flit_sink=*/i, port_of(Direction::East),
                             /*credit_sink=*/e, port_of(Direction::West));
      ri.attach_output(port_of(Direction::East), right);
      re.attach_input(port_of(Direction::West), right);
      re.attach_output(port_of(Direction::West), left);
      ri.attach_input(port_of(Direction::East), left);
      note_channel(right, &ri, port_of(Direction::East), nullptr, &re,
                   port_of(Direction::West), nullptr);
      note_channel(left, &re, port_of(Direction::West), nullptr, &ri,
                   port_of(Direction::East), nullptr);
    }
    if (c.y + 1 < cfg.dims.y) {
      const NodeId s = cfg.dims.node_of({c.x, c.y + 1});
      Router& ri = routers_[static_cast<std::size_t>(i)];
      Router& rs = routers_[static_cast<std::size_t>(s)];
      // i -> s: flits land on s's North input; credits return to i's South
      // output. The reverse link mirrors both.
      Link* down = make_link(/*flit_sink=*/s, port_of(Direction::North),
                             /*credit_sink=*/i, port_of(Direction::South));
      Link* up = make_link(/*flit_sink=*/i, port_of(Direction::South),
                           /*credit_sink=*/s, port_of(Direction::North));
      ri.attach_output(port_of(Direction::South), down);
      rs.attach_input(port_of(Direction::North), down);
      rs.attach_output(port_of(Direction::North), up);
      ri.attach_input(port_of(Direction::South), up);
      note_channel(down, &ri, port_of(Direction::South), nullptr, &rs,
                   port_of(Direction::North), nullptr);
      note_channel(up, &rs, port_of(Direction::North), nullptr, &ri,
                   port_of(Direction::South), nullptr);
    }
  }
}

Router& Mesh::router(NodeId n) {
  require(n >= 0 && n < nodes(), "Mesh::router: node out of range");
  return routers_[static_cast<std::size_t>(n)];
}

const Router& Mesh::router(NodeId n) const {
  require(n >= 0 && n < nodes(), "Mesh::router: node out of range");
  return routers_[static_cast<std::size_t>(n)];
}

NetworkInterface& Mesh::ni(NodeId n) {
  require(n >= 0 && n < nodes(), "Mesh::ni: node out of range");
  return nis_[static_cast<std::size_t>(n)];
}

const NetworkInterface& Mesh::ni(NodeId n) const {
  require(n >= 0 && n < nodes(), "Mesh::ni: node out of range");
  return nis_[static_cast<std::size_t>(n)];
}

void Mesh::set_routing_tables(const FaultAwareTables* tables) {
  for (auto& r : routers_) r.set_routing_tables(tables);
}

void Mesh::notify_fault(NodeId router) {
  require(router >= 0 && router < nodes(), "Mesh::notify_fault: bad node");
  if (cfg_.core == SimCore::FullSweep) return;  // Steps everything anyway.
  events_.schedule(static_cast<std::uint32_t>(router) << 4 | kRouterWake, 0);
}

bool Mesh::kill_router(NodeId n, Cycle now) {
  require(n >= 0 && n < nodes(), "Mesh::kill_router: node out of range");
  Router& r = routers_[static_cast<std::size_t>(n)];
  if (r.dead()) return false;
  r.decommission(now);
#ifdef RNOC_INVARIANTS
  // The purge moved VCs to Idle outside the pipeline's legal transitions;
  // re-prime the checker's shadow. Delivery tracks stay: packets still in
  // flight past the dead router must keep validating in order.
  checker_->reset_history(/*clear_delivery_tracks=*/false);
#endif
  // The decommission refunds woke the upstream credit consumers via the
  // link event hooks; wake the dead router itself so it swallows anything
  // already heading its way.
  notify_fault(n);
  return true;
}

void Mesh::activate_self_heal(int escape_vc) {
  require(escape_vc >= 0 && escape_vc < cfg_.router.vcs,
          "Mesh::activate_self_heal: escape VC out of range");
  self_heal_.activate(escape_vc);
  for (auto& r : routers_) r.set_escape_vc(escape_vc);
  for (auto& ni : nis_) ni.set_reserved_vc(escape_vc);
}

bool Mesh::escape_class_clear(int evc) const {
  require(evc >= 0 && evc < cfg_.router.vcs,
          "Mesh::escape_class_clear: VC out of range");
  for (const auto& r : routers_) {
    // A dead router is inert corpse state: decommission drained its buffers
    // and it will never emit another flit, but its own downstream-allocation
    // bits stay stale forever (returned credits are not processed by a
    // corpse). It cannot contribute an old-generation escape route, so it
    // does not gate the install.
    if (r.dead()) continue;
    for (int p = 0; p < kMeshPorts; ++p) {
      const InputPort& ip = r.input_port(p);
      const VirtualChannel& vc = ip.vc(ip.physical_of(evc));
      if (vc.state != VcState::Idle || !vc.buffer.empty()) return false;
      if (r.out_vc(p, evc).allocated) return false;
    }
    for (const StGrant& g : r.pending_grants())
      if (g.out_vc == evc) return false;
  }
  bool clear = true;
  for (const Link& l : links_) {
    if (!clear) break;
    l.for_each_flit([&](const Flit& f) {
      if (f.vc == evc) clear = false;
    });
  }
  if (!clear) return false;
  for (const auto& ni : nis_)
    if (ni.current_vc() == evc) return false;
  return true;
}

int Mesh::purge_unroutable(Cycle now) {
  int purged = 0;
  for (auto& r : routers_) purged += r.purge_unroutable(now);
#ifdef RNOC_INVARIANTS
  // The purge moved Routing VCs back to Idle outside the pipeline's legal
  // transitions; re-prime the checker's shadow. Delivery tracks stay — the
  // purged packets are retransmitted end-to-end under fresh ids.
  if (purged > 0) checker_->reset_history(/*clear_delivery_tracks=*/false);
#endif
  return purged;
}

int Mesh::reclaim_truncated(Cycle now) {
  // Streams the just-decommissioned routers cut mid-forward: their headless
  // remainders wedge a VC at every router they touch (the tail that would
  // free each hop died in the purge), so without a drain barrier they must
  // be reclaimed explicitly.
  std::vector<PacketId> ids;
  std::vector<std::pair<NodeId, TruncatedStream>> arm;
  for (NodeId n = 0; n < nodes(); ++n) {
    Router& r = routers_[static_cast<std::size_t>(n)];
    if (!r.dead()) continue;
    for (const TruncatedStream& t : r.take_truncated()) {
      ids.push_back(t.packet);
      arm.push_back({n, t});
    }
  }
  if (ids.empty()) return 0;

  // Purge every live VC the fragments occupy. Each chain node whose head
  // had already moved on reports the link to its successor, so together
  // with the dead routers' own records the filters cover remnants in
  // flight anywhere along the chain — including a head that left its VC
  // but has not landed downstream yet.
  int purged = 0;
  std::vector<TruncatedStream> downstream;
  for (NodeId n = 0; n < nodes(); ++n) {
    Router& r = routers_[static_cast<std::size_t>(n)];
    if (r.dead()) continue;
    downstream.clear();
    const int k = r.purge_poisoned(ids, now, downstream);
    if (k == 0) continue;
    purged += k;
    notify_fault(n);  // State changed out-of-band: re-run the router.
    for (const TruncatedStream& t : downstream) arm.push_back({n, t});
  }

  // Successor-side filters, one per released downstream allocation.
  for (const auto& [from, t] : arm) {
    if (t.out_port == port_of(Direction::Local)) continue;  // NI: below.
    const Coord c = cfg_.dims.coord_of(from);
    Coord nc = c;
    switch (direction_of(t.out_port)) {
      case Direction::North: --nc.y; break;
      case Direction::East: ++nc.x; break;
      case Direction::South: ++nc.y; break;
      case Direction::West: --nc.x; break;
      case Direction::Local: break;  // Excluded above.
    }
    require(cfg_.dims.contains(nc),
            "Mesh::reclaim_truncated: truncated stream left the mesh");
    const NodeId nb = cfg_.dims.node_of(nc);
    Router& dr = routers_[static_cast<std::size_t>(nb)];
    if (dr.dead()) continue;  // The black hole swallows remnants anyway.
    dr.input_port(opposite_port(t.out_port))
        .arm_poison(t.out_vc, t.packet, now);
    notify_fault(nb);
  }

  // Destination-NI filters: a fragment's flits only ever eject at its
  // packet's destination. Abort any reassembly it already opened there and
  // drop the checker's matching in-order expectation with it (the eventual
  // retransmission re-delivers from seq 0).
  for (const auto& [from, t] : arm) {
    (void)from;
    const int aborted_vc =
        nis_[static_cast<std::size_t>(t.dst)].poison_packet(t.packet, now);
#ifdef RNOC_INVARIANTS
    if (aborted_vc >= 0) checker_->clear_delivery_track(t.dst, aborted_vc);
#else
    (void)aborted_vc;
#endif
  }

#ifdef RNOC_INVARIANTS
  // The purge moved VCs to Idle outside the pipeline's legal transitions;
  // re-prime the checker's shadow (delivery tracks were handled above).
  if (purged > 0) checker_->reset_history(/*clear_delivery_tracks=*/false);
#endif
  return purged;
}

bool Mesh::links_idle() const {
  for (const Link& l : links_)
    if (!l.idle()) return false;
  return true;
}

bool Mesh::any_ni_sending() const {
  for (const auto& ni : nis_)
    if (ni.sending()) return true;
  return false;
}

void Mesh::reset_flow_control() {
  require(counters_.flits_in_network() == 0 && links_idle() &&
              !any_ni_sending(),
          "Mesh::reset_flow_control: network not drained");
  for (auto& r : routers_) r.reset_flow_state();
  for (auto& ni : nis_) ni.reset_flow_state();
#ifdef RNOC_INVARIANTS
  // Truncated reassemblies left by mid-packet deaths are gone with the
  // reset; the checker's delivery expectations must go with them.
  checker_->reset_history(/*clear_delivery_tracks=*/true);
#endif
}

void Mesh::step(Cycle now) {
  if (cfg_.core == SimCore::FullSweep) {
    // The oracle: every router, every stage, every cycle, each mask-driven
    // stage on VC-state masks recomputed from scratch.
    for (auto& r : routers_) r.step_accept(now);
    for (auto& r : routers_) r.step_st(now);
    for (auto& r : routers_) {
      r.rebuild_vc_masks();
      r.step_sa(now);
    }
    for (auto& r : routers_) {
      r.rebuild_vc_masks();
      r.step_va(now);
    }
    for (auto& r : routers_) {
      r.rebuild_vc_masks();
      r.step_rc(now);
    }
    for (auto& ni : nis_) ni.step(now);
    stepped_last_cycle_ = nodes();
#ifdef RNOC_INVARIANTS
    checker_->on_cycle_end(now);
#endif
    return;
  }
  step_event_core(now);
}

void Mesh::step_event_core(Cycle now) {
  // Collect the records due this step: everything overdue, plus the
  // slots of all cycles up to `now`. Slots of cycles skipped by the idle
  // fast-forward are provably empty: a pending record bounds
  // next_event_cycle(). A record that turns overdue during this step waits
  // for the next one.
  events_.collect(now, due_words_);

  // Accept stage: dispatch exactly the due records instead of scanning
  // every active router's links. Ascending set-bit iteration reproduces the
  // full sweep's order (router asc, port asc, flit before credit) and the
  // bitmap collapses duplicates (the sweep takes at most one flit per port
  // per cycle, while a record can be queued twice for the same cycle: the
  // original arrival notification plus a reschedule). Every router record
  // marks its router active, so deliveries need no companion wake; wake
  // records only mark. When a further flit is already takeable behind the
  // one just taken — an ECC retransmission colliding with the next
  // in-flight flit — it is re-delivered next cycle, again matching the
  // one-per-cycle sweep.
  for (std::size_t w = 0; w < due_words_.size(); ++w) {
    std::uint64_t bits = due_words_[w];
    if (bits == 0) continue;
    due_words_[w] = 0;
    const std::uint32_t rbase = static_cast<std::uint32_t>(w) << 6;
    do {
      const std::uint32_t rec =
          rbase + static_cast<std::uint32_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const std::size_t r = rec >> 4;
      const std::uint32_t kind = rec & 0xFu;
      if (kind == kNiWake) {
        active_ni_words_[r >> 6] |= std::uint64_t{1} << (r & 63u);
        continue;
      }
      active_router_words_[r >> 6] |= std::uint64_t{1} << (r & 63u);
      if (kind == kRouterWake) continue;
      Router& rt = routers_[r];
      const int p = static_cast<int>(kind >> 1);
      if (kind & 1u) {
        rt.drain_credits_due(p, now);
      } else if (rt.accept_flit_due(p, now) <= now) {
        events_.schedule(rec, now + 1);
      }
    } while (bits != 0);
  }

  int stepped = 0;
#ifndef RNOC_TRACE
  // Fused per-router pass: each active router runs its whole post-accept
  // cycle (ST -> SA -> VA -> RC) and its retirement check in one visit.
  // Legal because the stages only touch router-local state — link pushes
  // mature next cycle and were all dispatched above — so per-router order
  // equals the sweep's stage-major order. Retirement (Router::
  // step_cycle_event) drops *stalled* fault-free routers: buffered flits
  // but no pending ST grants and no digest progress. Every future change
  // to such a router arrives through an event record (flit or credit
  // delivery, fault notification), and until one fires, stepping it would
  // repeat the exact same no-op.
  for (std::size_t w = 0; w < active_router_words_.size(); ++w) {
    std::uint64_t bits = active_router_words_[w];
    if (bits == 0) continue;
    std::uint64_t keep_bits = bits;
    const int base = static_cast<int>(w) << 6;
    do {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      ++stepped;
      if (!routers_[static_cast<std::size_t>(base + b)].step_cycle_event(now))
        keep_bits &= ~(std::uint64_t{1} << static_cast<unsigned>(b));
    } while (bits != 0);
    active_router_words_[w] = keep_bits;
  }
#else
  // Traced builds keep the stage-major order (cross-router trace-event
  // ordering within a cycle matches the sweep) and keep stepping stalled
  // routers: their per-cycle NoCredit / LostSa / LostVa stall metrics must
  // accrue every cycle, so retirement is has_pending_work() only.
  const auto for_each_active = [&](auto&& fn) {
    for (std::size_t w = 0; w < active_router_words_.size(); ++w) {
      std::uint64_t bits = active_router_words_[w];
      const int base = static_cast<int>(w) << 6;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        fn(routers_[static_cast<std::size_t>(base + b)]);
      }
    }
  };
  for_each_active([&](Router& r) { r.step_st(now); });
  for_each_active([&](Router& r) { r.step_sa(now); });
  for_each_active([&](Router& r) { r.step_va(now); });
  for_each_active([&](Router& r) { r.step_rc(now); });
  for (std::size_t w = 0; w < active_router_words_.size(); ++w) {
    std::uint64_t bits = active_router_words_[w];
    if (bits == 0) continue;
    std::uint64_t keep_bits = bits;
    const int base = static_cast<int>(w) << 6;
    do {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      ++stepped;
      if (!routers_[static_cast<std::size_t>(base + b)].has_pending_work())
        keep_bits &= ~(std::uint64_t{1} << static_cast<unsigned>(b));
    } while (bits != 0);
    active_router_words_[w] = keep_bits;
  }
#endif
  stepped_last_cycle_ = stepped;

  for (std::size_t w = 0; w < active_ni_words_.size(); ++w) {
    std::uint64_t bits = active_ni_words_[w];
    if (bits == 0) continue;
    std::uint64_t keep_bits = bits;
    const int base = static_cast<int>(w) << 6;
    do {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      NetworkInterface& ni = nis_[static_cast<std::size_t>(base + b)];
      ni.step_event(now);
      if (ni.injection_idle())
        keep_bits &= ~(std::uint64_t{1} << static_cast<unsigned>(b));
    } while (bits != 0);
    active_ni_words_[w] = keep_bits;
  }
#ifdef RNOC_INVARIANTS
  checker_->on_cycle_end(now);
#endif
}

Cycle Mesh::next_event_cycle() const {
  std::uint64_t any = 0;
  for (const std::uint64_t w : active_router_words_) any |= w;
  for (const std::uint64_t w : active_ni_words_) any |= w;
  if (any != 0) return events_.next_drain();
  // No active component: the next possible change is the earliest
  // scheduled (or overdue) record.
  return events_.next_cycle();
}

void Mesh::reset_for_run() {
  for (auto& r : routers_) r.reset_for_run();
  for (auto& ni : nis_) ni.reset_for_run();
  for (Link& l : links_) l.reset_for_run();
  self_heal_.reset();
  counters_ = NetCounters{};
  std::fill(active_router_words_.begin(), active_router_words_.end(), 0);
  std::fill(active_ni_words_.begin(), active_ni_words_.end(), 0);
  events_.reset();
  std::fill(due_words_.begin(), due_words_.end(), 0);
  stepped_last_cycle_ = 0;
#ifdef RNOC_INVARIANTS
  checker_->reset_history(/*clear_delivery_tracks=*/true);
#endif
#ifdef RNOC_TRACE
  // The observer accumulates a whole run's trace and metrics; a fresh run
  // needs a fresh one, re-wired everywhere the constructor wired it.
  observer_ = std::make_unique<obs::Observer>(nodes(), kMeshPorts,
                                              cfg_.router.vcs, cfg_.obs);
  for (NodeId i = 0; i < nodes(); ++i) {
    routers_[static_cast<std::size_t>(i)].set_observer(observer_.get());
    nis_[static_cast<std::size_t>(i)].set_observer(observer_.get());
  }
  for (Link& l : links_) l.set_observer(observer_.get(), l.obs_node());
#endif
}

int Mesh::recount_flits_in_network() const {
  int n = 0;
  for (const auto& r : routers_) n += r.buffered_flits();
  for (const Link& l : links_) n += l.flits_in_flight();
  return n;
}

RouterStats Mesh::aggregate_router_stats() const {
  RouterStats s;
  for (const auto& r : routers_) s.merge(r.stats());
  return s;
}

std::vector<std::uint64_t> Mesh::stall_cycles_per_router() const {
#ifdef RNOC_TRACE
  return observer_->metrics().stall_cycles_per_router();
#else
  return std::vector<std::uint64_t>(static_cast<std::size_t>(nodes()), 0);
#endif
}

EccLinkStats Mesh::aggregate_ecc_stats() const {
  EccLinkStats s;
  for (const Link& l : links_) {
    s.flits_delivered += l.stats().flits_delivered;
    s.corrected_singles += l.stats().corrected_singles;
    s.retransmissions += l.stats().retransmissions;
  }
  return s;
}

}  // namespace rnoc::noc
