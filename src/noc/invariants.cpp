#include "noc/invariants.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/protection.hpp"
#include "noc/link.hpp"
#include "noc/mesh.hpp"
#include "noc/network_interface.hpp"
#include "noc/router.hpp"

namespace rnoc::noc {

namespace {

/// Legal one-cycle VC state transitions, observed cycle end to cycle end.
/// Within one mesh step the stages run accept, ST, SA, VA, RC — so a head
/// flit arriving at an Idle VC is routed the same cycle (Idle -> VcAlloc),
/// while VA and SA each take a full cycle. Self-transitions are always
/// legal (stalls). Transfers (paper §V-C1) are invisible here because the
/// shadow tracks *logical* VC ids and a transfer swaps the logical map
/// together with the packet.
bool legal_transition(VcState from, VcState to) {
  if (from == to) return true;
  switch (from) {
    case VcState::Idle:
      return to == VcState::Routing || to == VcState::VcAlloc;
    case VcState::Routing:
      return to == VcState::VcAlloc;
    case VcState::VcAlloc:
      return to == VcState::Active;
    case VcState::Active:
      return to == VcState::Idle;
  }
  return false;
}

}  // namespace

NocChecker::NocChecker() : NocChecker(Config{}) {}

NocChecker::NocChecker(Config cfg) : cfg_(cfg) {
  require(cfg_.check_interval >= 1, "NocChecker: check_interval must be >= 1");
  require(cfg_.stall_limit >= 1, "NocChecker: stall_limit must be >= 1");
}

NocChecker::Handler NocChecker::throwing_handler() {
  return [](const InvariantViolation& v) {
    throw InvariantViolationError(v);
  };
}

void NocChecker::add_router(const Router* r) {
  RouterEntry e;
  e.router = r;
  const std::size_t slots =
      static_cast<std::size_t>(r->ports()) * static_cast<std::size_t>(r->vcs());
  e.shadow.assign(slots, VcShadow{});
  e.watch.assign(slots, WatchSlot{});
  routers_.push_back(std::move(e));
}

void NocChecker::add_ni(const NetworkInterface* ni) {
  NiEntry e;
  e.ni = ni;
  e.tracks.assign(static_cast<std::size_t>(ni->config().vcs), SeqTrack{});
  nis_.push_back(std::move(e));
}

void NocChecker::add_channel(const Channel& ch) {
  require(ch.link != nullptr, "NocChecker: channel without a link");
  require((ch.up_router != nullptr) != (ch.up_ni != nullptr),
          "NocChecker: channel needs exactly one upstream endpoint");
  require((ch.down_router != nullptr) != (ch.down_ni != nullptr),
          "NocChecker: channel needs exactly one downstream endpoint");
  channels_.push_back(ch);
}

void NocChecker::unreachable_after_handler(const InvariantViolation& v) {
  // The installed handler returned normally; a violated network cannot be
  // trusted to keep simulating, so this path always terminates.
  std::fprintf(stderr, "rnoc invariant violation: %s\n", v.message.c_str());
  std::abort();
}

void NocChecker::fail(const char* kind, Cycle cycle, NodeId router, int port,
                      int vc, const std::string& detail) {
  InvariantViolation v;
  v.kind = kind;
  v.cycle = cycle;
  v.router = router;
  v.port = port;
  v.vc = vc;
  std::ostringstream os;
  os << "NoC invariant violated [" << kind << "] cycle=" << cycle;
  if (router != kInvalidNode) os << " router=" << router;
  if (port >= 0) os << " port=" << port;
  if (vc >= 0) os << " vc=" << vc;
  os << ": " << detail;
  v.message = os.str();
  if (handler_) {
    handler_(v);
    unreachable_after_handler(v);
  }
  std::fprintf(stderr, "%s\n", v.message.c_str());
  std::abort();
}

void NocChecker::on_cycle_end(Cycle now) {
  if (cfg_.check_interval > 1 && now % cfg_.check_interval != 0) return;
  run_sweep(now);
}

void NocChecker::on_run_end(Cycle now) { run_sweep(now); }

void NocChecker::reset_history(bool clear_delivery_tracks) {
  shadow_primed_ = false;
  for (RouterEntry& e : routers_) {
    for (auto& s : e.shadow) s = VcShadow{};
    for (auto& w : e.watch) w = WatchSlot{};
  }
  if (clear_delivery_tracks)
    for (NiEntry& e : nis_)
      for (auto& t : e.tracks) t = SeqTrack{};
}

void NocChecker::clear_delivery_track(NodeId node, int vc) {
  for (NiEntry& e : nis_) {
    if (e.ni->node() != node) continue;
    require(vc >= 0 && vc < static_cast<int>(e.tracks.size()),
            "NocChecker::clear_delivery_track: VC out of range");
    e.tracks[static_cast<std::size_t>(vc)] = SeqTrack{};
    return;
  }
}

void NocChecker::run_sweep(Cycle now) {
  check_channels(now);
  check_router_states(now);
  check_grants(now);
  check_counters(now);
  shadow_primed_ = true;
  ++sweeps_run_;
}

void NocChecker::check_channels(Cycle now) {
  for (const Channel& ch : channels_) {
    const NodeId at = ch.up_router    ? ch.up_router->id()
                      : ch.down_router ? ch.down_router->id()
                                       : ch.up_ni->node();
    const int vcs = ch.down_router ? ch.down_router->vcs()
                                   : ch.up_router->config().vcs;
    const int depth = ch.down_router
                          ? ch.down_router->input_port(ch.down_port).depth()
                          : ch.up_router->config().vc_depth;
    for (int v = 0; v < vcs; ++v) {
      // Upstream credit counter for logical downstream VC v.
      int credits = 0;
      if (ch.up_router) {
        credits = ch.up_router->out_vc(ch.up_port, v).credits;
      } else {
        credits = ch.up_ni->out_vc_credits(v);
      }
      // Credits consumed by SA grants whose flit has not yet traversed.
      int pending = 0;
      if (ch.up_router) {
        for (const StGrant& g : ch.up_router->pending_grants())
          if (g.out_port == ch.up_port && g.out_vc == v) ++pending;
      }
      // Flits in flight toward the downstream buffer.
      int in_flight = 0;
      ch.link->for_each_flit([&](const Flit& f) {
        if (f.vc == v) ++in_flight;
      });
      // Flits sitting in the downstream buffer (an NI consumes instantly).
      int occupancy = 0;
      if (ch.down_router) {
        const InputPort& ip = ch.down_router->input_port(ch.down_port);
        occupancy =
            static_cast<int>(ip.vc(ip.physical_of(v)).buffer.size());
      }
      // Credits riding back upstream.
      int returning = 0;
      ch.link->for_each_credit([&](const Credit& c) {
        if (c.vc == v) ++returning;
      });
      const int total = credits + pending + in_flight + occupancy + returning;
      if (total != depth) {
        std::ostringstream os;
        os << "credit conservation broken on "
           << (ch.up_router ? "router" : "NI") << "->"
           << (ch.down_router ? "router" : "NI") << " channel: credits="
           << credits << " pending_grants=" << pending << " in_flight="
           << in_flight << " occupancy=" << occupancy << " returning="
           << returning << " sum=" << total << " != depth=" << depth;
        fail("credit-conservation", now, at,
             ch.up_router ? ch.up_port : ch.down_port, v, os.str());
      }
    }
  }
}

void NocChecker::check_router_states(Cycle now) {
  for (RouterEntry& e : routers_) {
    const Router& r = *e.router;
    const int vcs = r.vcs();
    if (!(r.vc_masks() == r.fresh_vc_masks()))
      fail("vc-masks", now, r.id(), -1, -1,
           "maintained VC-state masks differ from the VCs' states");
    for (int p = 0; p < r.ports(); ++p) {
      const InputPort& ip = r.input_port(p);
      for (int v = 0; v < vcs; ++v) {
        const std::size_t slot = static_cast<std::size_t>(p * vcs + v);

        // State legality, tracked per logical VC id.
        const VirtualChannel& lvc = ip.vc(ip.physical_of(v));
        const auto cur = lvc.state;
        if (shadow_primed_) {
          const auto prev = static_cast<VcState>(e.shadow[slot].state);
          if (!legal_transition(prev, cur))
            fail("vc-state", now, r.id(), p, v,
                 std::string("illegal G-field transition ") +
                     vc_state_name(prev) + " -> " + vc_state_name(cur));
        }
        e.shadow[slot].state = static_cast<std::uint8_t>(cur);
        if ((cur == VcState::Routing || cur == VcState::VcAlloc) &&
            (lvc.buffer.empty() || !lvc.buffer.front().is_head()))
          fail("vc-state", now, r.id(), p, v,
               std::string(vc_state_name(cur)) +
                   " VC without a head flit at the buffer front");

        // Starvation watchdog, tracked per physical VC (buffer identity).
        const VirtualChannel& pvc = ip.vc(v);
        WatchSlot& w = e.watch[slot];
        const bool empty = pvc.buffer.empty();
        const PacketId fp = empty ? 0 : pvc.buffer.front().packet;
        const std::uint32_t fs = empty ? 0 : pvc.buffer.front().seq;
        if (empty || fp != w.front_packet || fs != w.front_seq ||
            pvc.buffer.size() != w.occupancy ||
            static_cast<std::uint8_t>(pvc.state) != w.state) {
          w.front_packet = fp;
          w.front_seq = fs;
          w.occupancy = pvc.buffer.size();
          w.state = static_cast<std::uint8_t>(pvc.state);
          w.last_change = now;
        } else if (now - w.last_change > cfg_.stall_limit) {
          std::ostringstream os;
          os << "flit of packet " << fp << " (seq " << fs
             << ") stalled with no progress since cycle " << w.last_change
             << " (state " << vc_state_name(pvc.state)
             << ", occupancy " << pvc.buffer.size() << ")";
          fail("starvation-watchdog", now, r.id(), p, v, os.str());
        }
      }
    }
  }
}

void NocChecker::check_grants(Cycle now) {
  // kMeshPorts-sized scratch; routers are registered with ports() == 5.
  bool in_used[kMeshPorts];
  bool out_used[kMeshPorts];
  bool mux_used[kMeshPorts];
  for (RouterEntry& e : routers_) {
    const Router& r = *e.router;
    const auto& grants = r.pending_grants();
    if (grants.empty()) continue;
    for (int i = 0; i < kMeshPorts; ++i)
      in_used[i] = out_used[i] = mux_used[i] = false;
    for (const StGrant& g : grants) {
      if (g.in_port < 0 || g.in_port >= r.ports() || g.out_port < 0 ||
          g.out_port >= r.ports() || g.mux < 0 || g.mux >= r.ports() ||
          g.in_vc < 0 || g.in_vc >= r.vcs() || g.out_vc < 0 ||
          g.out_vc >= r.vcs())
        fail("sa-grant", now, r.id(), g.in_port, g.in_vc,
             "grant indices out of range");
      if (in_used[g.in_port])
        fail("sa-grant", now, r.id(), g.in_port, g.in_vc,
             "two grants issued to one input port in a single cycle");
      if (out_used[g.out_port])
        fail("sa-grant", now, r.id(), g.out_port, g.out_vc,
             "two grants issued for one output port in a single cycle");
      if (mux_used[g.mux])
        fail("sa-grant", now, r.id(), g.mux, g.out_vc,
             "two grants traverse one crossbar mux in a single cycle");
      in_used[g.in_port] = out_used[g.out_port] = mux_used[g.mux] = true;
      if (g.mux != g.out_port &&
          g.mux != core::secondary_mux_for_output(g.out_port, r.ports()))
        fail("sa-grant", now, r.id(), g.out_port, g.out_vc,
             "grant mux is neither the primary nor the secondary path");
      const VirtualChannel& vc = r.input_port(g.in_port).vc(g.in_vc);
      if (vc.buffer.empty())
        fail("sa-grant", now, r.id(), g.in_port, g.in_vc,
             "grant issued to an empty VC");
      if (vc.state != VcState::Active)
        fail("sa-grant", now, r.id(), g.in_port, g.in_vc,
             std::string("grant issued to a VC in state ") +
                 vc_state_name(vc.state));
      if (vc.route != g.out_port || vc.out_vc != g.out_vc)
        fail("sa-grant", now, r.id(), g.in_port, g.in_vc,
             "grant disagrees with the VC's R/O fields");
      if (!r.out_vc(g.out_port, g.out_vc).allocated)
        fail("sa-grant", now, r.id(), g.out_port, g.out_vc,
             "grant targets a downstream VC that is not allocated");
    }
  }
}

void NocChecker::check_counters(Cycle now) {
  if (!mesh_) return;
  const int incremental = mesh_->flits_in_network();
  const int recount = mesh_->recount_flits_in_network();
  if (incremental != recount) {
    std::ostringstream os;
    os << "incremental NetCounters report " << incremental
       << " flits in the network but a full recount finds " << recount
       << " (a flit was dropped, duplicated or double-counted)";
    fail("flit-conservation", now, kInvalidNode, -1, -1, os.str());
  }
}

void NocChecker::on_ejected(NodeId node, const Flit& f, Cycle now) {
  for (NiEntry& e : nis_) {
    if (e.ni->node() != node) continue;
    if (f.vc < 0 || f.vc >= static_cast<int>(e.tracks.size()))
      fail("in-order-delivery", now, node, -1, f.vc,
           "ejected flit names a VC outside the NI's range");
    SeqTrack& t = e.tracks[static_cast<std::size_t>(f.vc)];
    if (f.is_head()) {
      if (t.active)
        fail("in-order-delivery", now, node, -1, f.vc,
             "head flit ejected while another packet is still open");
      t.active = true;
      t.packet = f.packet;
      t.next_seq = 0;
    }
    if (!t.active || t.packet != f.packet)
      fail("in-order-delivery", now, node, -1, f.vc,
           "flit of a foreign packet interleaved into an open packet");
    if (t.next_seq != f.seq) {
      std::ostringstream os;
      os << "flit of packet " << f.packet << " ejected out of order (seq "
         << f.seq << ", expected " << t.next_seq << ")";
      fail("in-order-delivery", now, node, -1, f.vc, os.str());
    }
    ++t.next_seq;
    if (f.is_tail()) {
      if (t.next_seq != f.size)
        fail("in-order-delivery", now, node, -1, f.vc,
             "tail flit ejected before the packet was complete");
      t = SeqTrack{};
    }
    return;
  }
}

}  // namespace rnoc::noc
