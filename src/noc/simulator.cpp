#include "noc/simulator.hpp"

#include <algorithm>

#ifdef RNOC_INVARIANTS
#include "noc/invariants.hpp"
#endif

namespace rnoc::noc {

Simulator::Simulator(const SimConfig& cfg,
                     std::shared_ptr<traffic::TrafficModel> traffic)
    : Simulator(cfg, std::move(traffic), std::make_unique<Mesh>(cfg.mesh),
                nullptr) {}

Simulator::Simulator(const SimConfig& cfg,
                     std::shared_ptr<traffic::TrafficModel> traffic,
                     Mesh& mesh)
    : Simulator(cfg, std::move(traffic), nullptr, &mesh) {}

Simulator::Simulator(const SimConfig& cfg,
                     std::shared_ptr<traffic::TrafficModel> traffic,
                     std::unique_ptr<Mesh> owned, Mesh* external)
    : cfg_(cfg),
      traffic_(std::move(traffic)),
      owned_mesh_(std::move(owned)),
      mesh_(owned_mesh_ ? *owned_mesh_ : *external),
      injector_(fault::FaultPlan{}),
      resp_rng_(cfg.seed ^ 0xabcdef12345ull),
      occupancy_(cfg.mesh.dims.nodes()) {
  require(traffic_ != nullptr, "Simulator: traffic model required");
  require(owned_mesh_ != nullptr || external != nullptr,
          "Simulator: no mesh");
  require(mesh_.config() == cfg_.mesh,
          "Simulator: external mesh was built from a different MeshConfig");
  traffic_->init(cfg_.mesh.dims);
  if (cfg_.degraded.enabled)
    degraded_ = std::make_unique<DegradedModeController>(mesh_, cfg_.degraded);
  Rng master(cfg_.seed);
  node_rngs_.reserve(static_cast<std::size_t>(mesh_.nodes()));
  for (int i = 0; i < mesh_.nodes(); ++i) node_rngs_.push_back(master.split());

  const Cycle mbegin = cfg_.warmup;
  const Cycle mend = cfg_.warmup + cfg_.measure;
  for (NodeId n = 0; n < mesh_.nodes(); ++n) {
    NetworkInterface& ni = mesh_.ni(n);
    ni.set_measure_window(mbegin, mend);
    ni.set_delivery_hook([this, n](const Flit& tail, Cycle now) {
      // The reliability layer sees every delivery first; a duplicate from a
      // retransmission is acknowledged but hidden from the traffic model.
      if (degraded_ && !degraded_->on_delivered(tail, now)) return;
      responses_.clear();
      traffic_->on_delivered(tail, n, now, resp_rng_, responses_);
      for (auto& r : responses_)
        pending_responses_.push(std::max(r.ready, now + 1), std::move(r));
    });
  }
}

void Simulator::set_fault_plan(fault::FaultPlan plan) {
  require(!ran_, "Simulator::set_fault_plan: simulation already ran");
  injector_ = fault::FaultInjector(std::move(plan));
}

void Simulator::release_responses(Cycle now) {
  while (pending_responses_.next_cycle() <= now) {
    traffic::Response r = pending_responses_.pop();
    r.desc.id = next_packet_id_++;
    r.desc.created = now;
    r.desc.src = r.node;
    if (r.desc.dst == r.node) continue;  // Degenerate self-reply: drop.
    if (degraded_ && !degraded_->admit(r.desc)) continue;
    mesh_.ni(r.node).enqueue(r.desc);
  }
}

void Simulator::schedule_injection(NodeId node, Cycle from, Cycle source_end) {
  if (from >= source_end) return;
  auto& pending = pending_inj_[static_cast<std::size_t>(node)];
  const Cycle at = traffic_->next_injection(
      from, source_end, node, node_rngs_[static_cast<std::size_t>(node)],
      pending);
  if (at == kNeverCycle) return;
  traffic_events_.push(at, static_cast<std::uint64_t>(node), node);
}

SimReport Simulator::run() {
  require(!ran_, "Simulator::run: one-shot; construct a new Simulator");
  ran_ = true;
  const Cycle source_end = cfg_.warmup + cfg_.measure;
  const Cycle hard_end = source_end + cfg_.drain_limit;

  SimReport rep;
  std::uint64_t last_received = 0;
  Cycle last_progress = 0;
  std::vector<PacketDesc> created;

  // The FullSweep oracle steps every cycle and draws every node's traffic
  // per cycle. The event core fast-forwards the clock, and traffic models
  // that replay their RNG draws exactly (synthetic patterns) let it jump
  // straight to each node's next injection; anything else is swept per
  // cycle while sources run, and the clock only fast-forwards once the
  // source window closes.
  const bool fast_forward = cfg_.mesh.core == SimCore::EventDriven;
  const bool event_traffic =
      fast_forward && traffic_->supports_event_injection();
  if (event_traffic) {
    pending_inj_.assign(static_cast<std::size_t>(mesh_.nodes()), {});
    for (NodeId n = 0; n < mesh_.nodes(); ++n)
      schedule_injection(n, 0, source_end);
  }

  Cycle now = 0;
  while (now < hard_end) {
    if (injector_.next_due_cycle() <= now) {
      const int fresh_faults = injector_.apply_due(now, mesh_);
      if (degraded_ && fresh_faults > 0) degraded_->on_faults_injected(now);
    }
    if (now < source_end) {
      if (event_traffic) {
        while (traffic_events_.next_cycle() <= now) {
          const NodeId n = traffic_events_.pop();
          auto& pending = pending_inj_[static_cast<std::size_t>(n)];
          for (PacketDesc& p : pending) {
            p.id = next_packet_id_++;
            p.src = n;
            p.created = now;
            if (p.dst == n) continue;
            if (degraded_ && !degraded_->admit(p)) continue;
            mesh_.ni(n).enqueue(p);
          }
          pending.clear();
          schedule_injection(n, now + 1, source_end);
        }
      } else {
        for (NodeId n = 0; n < mesh_.nodes(); ++n) {
          created.clear();
          traffic_->generate(now, n, node_rngs_[static_cast<std::size_t>(n)],
                             created);
          for (PacketDesc& p : created) {
            p.id = next_packet_id_++;
            p.src = n;
            p.created = now;
            if (p.dst == n) continue;
            if (degraded_ && !degraded_->admit(p)) continue;
            mesh_.ni(n).enqueue(p);
          }
        }
      }
    }
    release_responses(now);
    mesh_.step(now);
    if (degraded_) degraded_->step(now);
    if (cfg_.telemetry_interval > 0 && now % cfg_.telemetry_interval == 0)
      occupancy_.sample(mesh_);

    // Progress watchdog (all checks O(1) via the mesh's running counters).
    // Fast-forwarded cycles cannot deliver packets, so last_progress
    // evolves as under the per-cycle sweep.
    const std::uint64_t received = mesh_.packets_delivered();
    if (received != last_received) {
      last_received = received;
      last_progress = now;
    } else if (now - last_progress >= cfg_.progress_timeout) {
      if (mesh_.flits_in_network() > 0 || !mesh_.all_injection_idle()) {
        rep.deadlock_suspected = true;
        ++now;
        break;
      }
      last_progress = now;  // Genuinely idle: nothing to deliver.
    }

    // Early exit once drained (and, in degraded mode, once every tracked
    // packet is acknowledged or dropped — a pending retransmission keeps
    // the run alive even with an empty network).
    if (now >= source_end && pending_responses_.empty() &&
        mesh_.flits_in_network() == 0 && mesh_.all_injection_idle() &&
        (!degraded_ || degraded_->quiescent())) {
      ++now;
      break;
    }

    Cycle target = now + 1;
    if (fast_forward) {
      // Idle fast-forward: jump to the earliest cycle at which the loop
      // body can differ from a no-op. Every candidate below is exact — a
      // gated call before its due cycle does nothing — so skipped cycles
      // are provably identical to the sweep stepping them.
      target = mesh_.next_event_cycle();
      target = std::min(target, injector_.next_due_cycle());
      target = std::min(target, pending_responses_.next_cycle());
      if (degraded_) target = std::min(target, degraded_->next_due_cycle());
      if (now < source_end) {
        if (event_traffic) {
          target = std::min(target, traffic_events_.next_cycle());
          // The cycle the source window closes flips early-exit
          // eligibility; step it even if no event lands there.
          target = std::min(target, source_end);
        } else {
          target = now + 1;  // Per-cycle generate() draws cannot be skipped.
        }
      }
      if (cfg_.telemetry_interval > 0)
        target = std::min(target, (now / cfg_.telemetry_interval + 1) *
                                      cfg_.telemetry_interval);
      // The watchdog check runs live at its trigger cycle.
      target = std::min(target, last_progress + cfg_.progress_timeout);
    }
    now = std::max(now + 1, std::min(target, hard_end));
  }

  finish_report(rep, now);
  return rep;
}

void Simulator::finish_report(SimReport& rep, Cycle end) {
  rep.cycles_run = end;
#ifdef RNOC_INVARIANTS
  // Final sweep over the drained (or deadlocked) network regardless of the
  // checker's cycle cadence, so every run ends invariant-validated.
  mesh_.invariant_checker().on_run_end(end);
#endif
  for (NodeId n = 0; n < mesh_.nodes(); ++n) {
    const NiStats& s = mesh_.ni(n).stats();
    rep.total_latency.merge(s.total_latency);
    rep.network_latency.merge(s.network_latency);
    rep.latency_hist.merge(s.latency_hist);
    rep.packets_received += s.packets_received;
    rep.flits_received += s.flits_received;
    rep.packets_sent += s.packets_injected;
  }
  rep.undelivered_flits = static_cast<std::uint64_t>(mesh_.flits_in_network());
  rep.throughput_flits_node_cycle =
      cfg_.measure > 0
          ? static_cast<double>(rep.flits_received) /
                (static_cast<double>(mesh_.nodes()) *
                 static_cast<double>(cfg_.measure))
          : 0.0;
  rep.router_events = mesh_.aggregate_router_stats();
  rep.energy = account_energy(
      cfg_.energy, rep.router_events,
      static_cast<std::uint64_t>(mesh_.nodes()) * rep.cycles_run,
      cfg_.mesh.router.mode == core::RouterMode::Protected);
  rep.faults_injected = injector_.injected();
  if (degraded_) {
    rep.degraded = degraded_->stats();
    rep.degraded.flits_blackholed = rep.router_events.flits_swallowed;
  }
}

}  // namespace rnoc::noc
