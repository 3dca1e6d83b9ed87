// End-to-end simulation driver: mesh + NIs + traffic + fault injection,
// with warmup / measurement / drain phases and a no-progress watchdog.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "fault/fault_injector.hpp"
#include "noc/degraded.hpp"
#include "noc/energy.hpp"
#include "noc/event_queue.hpp"
#include "noc/mesh.hpp"
#include "noc/telemetry.hpp"
#include "traffic/patterns.hpp"

namespace rnoc::noc {

struct SimConfig {
  MeshConfig mesh{};
  Cycle warmup = 5000;        ///< Cycles before measurement starts.
  Cycle measure = 30000;      ///< Measurement window length.
  Cycle drain_limit = 30000;  ///< Max extra cycles to let traffic drain.
  std::uint64_t seed = 1;
  /// If no flit is ejected anywhere for this many cycles while traffic is
  /// in flight, the run is flagged as deadlocked and stopped.
  Cycle progress_timeout = 20000;
  /// Per-event energy model used for the report's energy section.
  EnergyModel energy{};
  /// Buffer-occupancy sampling interval in cycles (0 = telemetry off).
  Cycle telemetry_interval = 0;
  /// Degraded-mode subsystem (router death -> online reroute -> end-to-end
  /// retry). Disabled by default: the fault-free fast path is untouched and
  /// bit-identical to pre-degraded builds.
  DegradedConfig degraded{};
};

struct SimReport {
  RunningStats total_latency;    ///< creation -> delivery, measured packets.
  RunningStats network_latency;  ///< injection -> delivery.
  Histogram latency_hist{0.0, NiStats::kLatencyHistMax,
                         NiStats::kLatencyHistBins};
  std::uint64_t packets_sent = 0;      ///< Injected during measurement phase.
  std::uint64_t packets_received = 0;  ///< All deliveries over the whole run.
  std::uint64_t flits_received = 0;
  double throughput_flits_node_cycle = 0.0;
  bool deadlock_suspected = false;
  std::uint64_t undelivered_flits = 0;  ///< Left in network at the end.
  Cycle cycles_run = 0;
  RouterStats router_events;
  EnergyReport energy;
  int faults_injected = 0;
  /// Degraded-mode accounting (all zeros when the subsystem is disabled).
  DegradedStats degraded;

  double avg_total_latency() const { return total_latency.mean(); }
  double avg_network_latency() const { return network_latency.mean(); }
  double latency_percentile(double q) const { return latency_hist.quantile(q); }
};

class Simulator {
 public:
  Simulator(const SimConfig& cfg,
            std::shared_ptr<traffic::TrafficModel> traffic);

  /// Runs on an externally owned mesh (e.g. a SweepRunner's cached mesh,
  /// restored via Mesh::reset_for_run). `mesh.config()` must equal
  /// `cfg.mesh`; the mesh must be in its just-constructed state.
  Simulator(const SimConfig& cfg,
            std::shared_ptr<traffic::TrafficModel> traffic, Mesh& mesh);

  /// Schedules permanent faults (must be called before run()).
  void set_fault_plan(fault::FaultPlan plan);

  /// Runs warmup + measurement + drain and returns the report. One-shot.
  /// One loop serves both cores (SimConfig::mesh.core): FullSweep steps
  /// every cycle and draws traffic per node per cycle; EventDriven also
  /// injects from per-node events where the traffic model allows and
  /// fast-forwards the clock across provably idle stretches. Both return
  /// bit-identical reports (test-enforced).
  SimReport run();

  Mesh& mesh() { return mesh_; }
  const SimConfig& config() const { return cfg_; }

  /// Degraded-mode controller (nullptr unless SimConfig::degraded.enabled).
  const DegradedModeController* degraded_controller() const {
    return degraded_.get();
  }

  /// Occupancy telemetry gathered during run(); empty (0 samples) unless
  /// SimConfig::telemetry_interval was set.
  const OccupancySampler& occupancy() const { return occupancy_; }

 private:
  Simulator(const SimConfig& cfg,
            std::shared_ptr<traffic::TrafficModel> traffic,
            std::unique_ptr<Mesh> owned, Mesh* external);

  void finish_report(SimReport& rep, Cycle end);
  void release_responses(Cycle now);
  /// Event traffic: scans `node`'s source from `from` (exclusive horizon
  /// `source_end`) and queues its next injection cycle, packets parked in
  /// pending_inj_ until the clock reaches it.
  void schedule_injection(NodeId node, Cycle from, Cycle source_end);

  SimConfig cfg_;
  std::shared_ptr<traffic::TrafficModel> traffic_;
  std::unique_ptr<Mesh> owned_mesh_;  ///< Null when running on an external mesh.
  Mesh& mesh_;
  fault::FaultInjector injector_;
  std::vector<Rng> node_rngs_;
  Rng resp_rng_;
  /// Responses waiting for their ready cycle, FIFO among equal ready
  /// cycles (EventQueue's seq tie-break), so runs reproduce across
  /// standard libraries.
  EventQueue<traffic::Response> pending_responses_;
  /// Scratch the delivery hook hands to the traffic model, reused across
  /// deliveries so a delivered tail allocates nothing.
  std::vector<traffic::Response> responses_;
  /// Event core: per-node next-injection events, tie-broken by node id so
  /// same-cycle injections enqueue in the sweep's ascending-node order.
  EventQueue<NodeId> traffic_events_;
  std::vector<std::vector<PacketDesc>> pending_inj_;
  PacketId next_packet_id_ = 1;
  OccupancySampler occupancy_;
  std::unique_ptr<DegradedModeController> degraded_;
  bool ran_ = false;
};

}  // namespace rnoc::noc
