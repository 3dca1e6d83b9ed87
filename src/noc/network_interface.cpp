#include "noc/network_interface.hpp"

#include <algorithm>

#include "common/types.hpp"
#ifdef RNOC_INVARIANTS
#include "noc/invariants.hpp"
#endif
#include "noc/router_state.hpp"
#include "noc/vnet.hpp"

namespace rnoc::noc {

NetworkInterface::NetworkInterface(NodeId node, const NiConfig& cfg)
    : node_(node), cfg_(cfg) {
  require(cfg.vcs >= 1 && cfg.vcs <= kMaxPortVcs && cfg.vc_depth >= 1,
          "NetworkInterface: bad config");
  require(cfg.vnets >= 1 && cfg.vcs % cfg.vnets == 0,
          "NetworkInterface: vcs must divide evenly into vnets");
  out_vcs_.assign(static_cast<std::size_t>(cfg.vcs),
                  OutVc{false, cfg.vc_depth});
  reassembly_.assign(static_cast<std::size_t>(cfg.vcs), Reassembly{});
  vnet_vcs_.assign(static_cast<std::size_t>(cfg.vnets), 0);
  for (int v = 0; v < cfg.vcs; ++v)
    vnet_vcs_[static_cast<std::size_t>(vnet_of_vc(v, cfg.vcs, cfg.vnets))] |=
        1u << static_cast<unsigned>(v);
}

void NetworkInterface::attach(Link* to_router, Link* from_router) {
  to_router_ = to_router;
  from_router_ = from_router;
}

void NetworkInterface::enqueue(PacketDesc p) {
  require(p.src == node_, "NetworkInterface::enqueue: src mismatch");
  require(p.dst != node_, "NetworkInterface::enqueue: self-addressed packet");
  require(p.size_flits >= 1, "NetworkInterface::enqueue: empty packet");
  const bool was_idle = injection_idle();
  queue_.push_back(p);
  ++stats_.packets_enqueued;
  stats_.queue_peak = std::max<std::uint64_t>(stats_.queue_peak, queue_.size());
  if (was_idle) {
    if (counters_) ++counters_->active_injectors;
    if (event_ring_ != nullptr) event_ring_->schedule(event_rec_, 0);
  }
}

void NetworkInterface::set_measure_window(Cycle begin, Cycle end) {
  measure_begin_ = begin;
  measure_end_ = end;
}

void NetworkInterface::step(Cycle now) {
  eject(now);
  inject(now);
}

void NetworkInterface::step_event(Cycle now) {
  // Identical to step(): eject and the credit drain are no-ops when the
  // link peeks lie in the future, so gating them is exact.
  if (from_router_ != nullptr && from_router_->next_flit_ready() <= now)
    eject(now);
  if (to_router_ == nullptr) return;
  if (to_router_->next_credit_ready() <= now) drain_router_credits(now);
  inject_after_credits(now);
}

void NetworkInterface::eject(Cycle now) {
  if (from_router_ == nullptr) return;
  while (const Flit* f = from_router_->arrive(now)) {
    if (!poisoned_.empty() && poison_swallow(*f)) {
      // Remnant of a reclaimed fragment: return the credit and vanish —
      // reassembly and the checker never learn it existed (the sweep
      // already cleared their state for this packet).
      from_router_->push_credit({f->vc, f->is_tail()}, now);
      ++stats_.flits_dropped;
      continue;
    }
    ++stats_.flits_received;
#ifdef RNOC_INVARIANTS
    // Checker first, so a delivery-order violation is reported with full
    // cycle/node/VC context instead of the bare require() below.
    if (checker_) checker_->on_ejected(node_, *f, now);
#endif
    // Protocol-integrity check: one packet per VC, flits in order, head
    // first, tail last. A violation means the network corrupted, dropped or
    // duplicated a flit — fail loudly instead of producing silent garbage.
    Reassembly& re = reassembly_[static_cast<std::size_t>(f->vc)];
    if (f->is_head()) {
      require(!re.active,
              "NetworkInterface: head flit interleaved into an open packet");
      re.active = true;
      re.packet = f->packet;
      re.next_seq = 0;
    }
    require(re.active && re.packet == f->packet && re.next_seq == f->seq,
            "NetworkInterface: out-of-order or foreign flit in packet");
    ++re.next_seq;
    if (f->is_tail()) {
      require(re.next_seq == f->size,
              "NetworkInterface: tail arrived before all flits");
      re = Reassembly{};
    }
    // Infinite-sink model: consume immediately, return the credit at once.
    from_router_->push_credit({f->vc, f->is_tail()}, now);
    if (f->is_tail()) {
      ++stats_.packets_received;
      if (counters_) ++counters_->packets_delivered;
#ifdef RNOC_TRACE
      if (obs_)
        obs_->on_event(obs::EventKind::Eject, now, f->packet, node_, -1,
                       f->vc);
#endif
      if (f->created >= measure_begin_ && f->created < measure_end_) {
        const double total = static_cast<double>(now - f->created);
        stats_.total_latency.add(total);
        stats_.network_latency.add(static_cast<double>(now - f->injected));
        stats_.latency_hist.add(total);
      }
      if (hook_) hook_(*f, now);
    }
  }
}

void NetworkInterface::inject(Cycle now) {
  if (to_router_ == nullptr) return;
  drain_router_credits(now);
  inject_after_credits(now);
}

/// Drains credits from the router's local input port.
void NetworkInterface::drain_router_credits(Cycle now) {
  to_router_->drain_credits(now, [&](const Credit& c) {
    OutVc& vc = out_vcs_[static_cast<std::size_t>(c.vc)];
    ++vc.credits;
    require(vc.credits <= cfg_.vc_depth,
            "NetworkInterface: credit overflow (protocol violation)");
    if (c.vc_free) vc.busy = false;
  });
}

void NetworkInterface::inject_after_credits(Cycle now) {
  if (!sending_) {
    if (queue_.empty()) return;
    if (inject_gate_ && !inject_gate_(queue_.front())) return;
    // Allocate a free VC of the router's local input port for the next
    // packet (the NI plays the upstream router's VA role for this port),
    // restricted to the packet's virtual network.
    const std::uint32_t allowed =
        cfg_.vnets == 1
            ? vnet_vcs_[0]
            : vnet_vcs_[static_cast<std::size_t>(vnet_of_class(
                  queue_.front().traffic_class, cfg_.vnets))];
    int vc = -1;
    for (int v = 0; v < cfg_.vcs; ++v) {
      if (v == reserved_vc_ || (allowed >> static_cast<unsigned>(v) & 1u) == 0)
        continue;
      const auto& ov = out_vcs_[static_cast<std::size_t>(v)];
      if (!ov.busy && ov.credits > 0) {
        vc = v;
        break;
      }
    }
    if (vc < 0) return;
    current_ = queue_.front();
    queue_.pop_front();
    sending_ = true;
    next_seq_ = 0;
    current_vc_ = vc;
    current_injected_ = now;
    out_vcs_[static_cast<std::size_t>(vc)].busy = true;
  }

  auto& ov = out_vcs_[static_cast<std::size_t>(current_vc_)];
  if (ov.credits <= 0) return;

  Flit f;
  f.packet = current_.id;
  f.src = current_.src;
  f.dst = current_.dst;
  f.seq = static_cast<std::uint16_t>(next_seq_);
  f.size = static_cast<std::uint16_t>(current_.size_flits);
  f.traffic_class = current_.traffic_class;
  f.vc = static_cast<std::int16_t>(current_vc_);
  f.created = current_.created;
  f.injected = current_injected_;
  f.payload = current_.payload;
  const bool is_head = next_seq_ == 0;
  const bool is_tail = next_seq_ == current_.size_flits - 1;
  f.type = is_head && is_tail ? FlitType::HeadTail
           : is_head          ? FlitType::Head
           : is_tail          ? FlitType::Tail
                              : FlitType::Body;
  to_router_->push_flit(f, now);
  --ov.credits;
  ++stats_.flits_injected;
  ++next_seq_;
  if (is_head) {
    ++stats_.packets_injected;
#ifdef RNOC_TRACE
    if (obs_)
      obs_->on_event(obs::EventKind::Inject, now, f.packet, node_, -1,
                     current_vc_);
#endif
  }
  if (is_tail) {
    if (sent_hook_) sent_hook_(current_, now);
    sending_ = false;
    current_vc_ = -1;
    if (counters_ && queue_.empty()) --counters_->active_injectors;
  }
}

bool NetworkInterface::poison_swallow(const Flit& f) {
  for (std::size_t i = 0; i < poisoned_.size(); ++i) {
    if (poisoned_[i].packet != f.packet) continue;
    if (f.injected <= poisoned_[i].armed_at) return true;
    // A retransmission of the reclaimed packet: disarm and eject normally.
    poisoned_[i] = poisoned_.back();
    poisoned_.pop_back();
    return false;
  }
  return false;
}

int NetworkInterface::poison_packet(PacketId p, Cycle armed_at) {
  bool found = false;
  for (auto& e : poisoned_) {
    if (e.packet != p) continue;
    e.armed_at = armed_at;  // Re-truncated after a retransmission.
    found = true;
    break;
  }
  if (!found) poisoned_.push_back({p, armed_at});
  for (int v = 0; v < cfg_.vcs; ++v) {
    Reassembly& re = reassembly_[static_cast<std::size_t>(v)];
    if (re.active && re.packet == p) {
      re = Reassembly{};
      return v;
    }
  }
  return -1;
}

std::size_t NetworkInterface::drop_queued_if(
    const std::function<bool(const PacketDesc&)>& pred) {
  const bool was_idle = injection_idle();
  const auto it = std::remove_if(queue_.begin(), queue_.end(), pred);
  const auto dropped = static_cast<std::size_t>(queue_.end() - it);
  queue_.erase(it, queue_.end());
  if (!was_idle && injection_idle() && counters_)
    --counters_->active_injectors;
  return dropped;
}

void NetworkInterface::reset_flow_state() {
  require(!sending_,
          "NetworkInterface::reset_flow_state: packet partially injected");
  for (auto& ov : out_vcs_) ov = OutVc{false, cfg_.vc_depth};
  for (auto& re : reassembly_) re = Reassembly{};
  poisoned_.clear();
}

void NetworkInterface::reset_for_run() {
  for (auto& ov : out_vcs_) ov = OutVc{false, cfg_.vc_depth};
  for (auto& re : reassembly_) re = Reassembly{};
  poisoned_.clear();
  queue_.clear();
  sending_ = false;
  current_ = PacketDesc{};
  next_seq_ = 0;
  current_vc_ = -1;
  reserved_vc_ = -1;
  current_injected_ = 0;
  measure_begin_ = 0;
  measure_end_ = kNeverCycle;
  stats_ = NiStats{};
  hook_ = nullptr;
  inject_gate_ = nullptr;
  sent_hook_ = nullptr;
}

}  // namespace rnoc::noc
