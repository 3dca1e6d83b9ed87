// rnoc_sim — command-line front end to the simulator.
//
// Examples:
//   rnoc_sim                                   # 8x8, uniform 0.1, protected
//   rnoc_sim --traffic ocean --faults 64
//   rnoc_sim --traffic uniform --rate 0.15 --mode baseline --faults 4
//   rnoc_sim --mesh 4x4 --vcs 2 --traffic transpose --rate 0.08
//   rnoc_sim --traffic canneal --faults 128 --fit-weighted
//   rnoc_sim --transients 200 --transient-duration 50
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/options.hpp"
#include "fault/fault_injector.hpp"
#include "noc/simulator.hpp"
#include "noc/telemetry.hpp"
#include "reliability/site_fit.hpp"
#include "traffic/app_profiles.hpp"
#include "traffic/bursty.hpp"
#include "traffic/patterns.hpp"

using namespace rnoc;

namespace {

const std::set<std::string> kKeys = {
    "mesh",     "vcs",     "depth",   "mode",        "traffic",
    "rate",     "packet",  "warmup",  "measure",     "drain",
    "faults",   "seed",    "fit-weighted", "transients",
    "transient-duration", "routing", "vnets", "trace-out",
    "trace-sample", "metrics-out", "heatmap", "help"};

void usage() {
  std::printf(
      "rnoc_sim — cycle-accurate reliable-NoC simulator\n\n"
      "  --mesh WxH            mesh size (default 8x8)\n"
      "  --vcs N               virtual channels per port (default 4, max 12)\n"
      "  --depth N             flits per VC buffer (default 4, max 32767)\n"
      "  --mode M              protected | baseline (default protected)\n"
      "  --routing R           xy | oddeven (default xy)\n"
      "  --vnets N             virtual networks (default 1; must divide vcs)\n"
      "  --traffic T           uniform|transpose|bitcomp|tornado|neighbor|hotspot\n"
      "                        |bursty, or a SPLASH-2/PARSEC benchmark (e.g. ocean)\n"
      "  --rate R              injection rate, flits/node/cycle (synthetic only)\n"
      "  --packet N            packet size in flits (synthetic only, default 5)\n"
      "  --warmup/measure/drain N   phase lengths in cycles\n"
      "  --faults N            permanent faults injected during warmup\n"
      "  --fit-weighted        draw fault sites proportional to their FIT\n"
      "  --transients N        transient faults over the whole run (extension)\n"
      "  --transient-duration N  cycles each transient lasts (default 100)\n"
      "  --seed S              RNG seed (default 1)\n"
      "  --trace-out FILE      write a Chrome trace-event JSON timeline\n"
      "                        (load in ui.perfetto.dev; needs -DRNOC_TRACE=ON)\n"
      "  --trace-sample N      trace packets with id %% N == 0 (default 1)\n"
      "  --metrics-out FILE    write the stall-cause metrics snapshot as JSON\n"
      "  --heatmap             print per-router heatmaps after the run\n");
}

std::shared_ptr<traffic::TrafficModel> build_traffic(const Options& opt) {
  const std::string name = opt.get("traffic", "uniform");
  const std::map<std::string, traffic::Pattern> synth = {
      {"uniform", traffic::Pattern::UniformRandom},
      {"transpose", traffic::Pattern::Transpose},
      {"bitcomp", traffic::Pattern::BitComplement},
      {"tornado", traffic::Pattern::Tornado},
      {"neighbor", traffic::Pattern::Neighbor},
      {"hotspot", traffic::Pattern::Hotspot},
  };
  const auto it = synth.find(name);
  if (it != synth.end()) {
    traffic::SyntheticConfig tc;
    tc.pattern = it->second;
    tc.injection_rate = opt.get_double("rate", 0.10);
    tc.packet_size = static_cast<int>(opt.get_int("packet", 5));
    if (tc.pattern == traffic::Pattern::Hotspot) tc.hotspots = {27, 36};
    return std::make_shared<traffic::SyntheticTraffic>(tc);
  }
  if (name == "bursty") {
    traffic::BurstyConfig bc;
    // Interpret --rate as the long-run mean load at a 1:3 on/off split.
    const double mean = opt.get_double("rate", 0.10);
    bc.mean_on = 60;
    bc.mean_off = 180;
    bc.burst_rate = std::min(1.0, mean * 4.0);
    bc.packet_size = static_cast<int>(opt.get_int("packet", 5));
    return std::make_shared<traffic::BurstyTraffic>(bc);
  }
  return traffic::make_traffic(traffic::find_profile(name));
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt(argc, argv, kKeys);
    if (opt.has("help")) {
      usage();
      return 0;
    }

    noc::SimConfig cfg;
    const std::string mesh = opt.get("mesh", "8x8");
    const auto x = mesh.find('x');
    require(x != std::string::npos, "--mesh expects WxH, e.g. 8x8");
    cfg.mesh.dims.x = std::atoi(mesh.substr(0, x).c_str());
    cfg.mesh.dims.y = std::atoi(mesh.substr(x + 1).c_str());
    cfg.mesh.router.vcs = static_cast<int>(opt.get_int("vcs", 4));
    cfg.mesh.router.vc_depth = static_cast<int>(opt.get_int("depth", 4));
    const std::string mode = opt.get("mode", "protected");
    require(mode == "protected" || mode == "baseline",
            "--mode must be 'protected' or 'baseline'");
    cfg.mesh.router.mode = mode == "protected" ? core::RouterMode::Protected
                                               : core::RouterMode::Baseline;
    const std::string routing = opt.get("routing", "xy");
    require(routing == "xy" || routing == "oddeven",
            "--routing must be 'xy' or 'oddeven'");
    cfg.mesh.router.routing = routing == "xy" ? noc::RoutingAlgo::XY
                                              : noc::RoutingAlgo::OddEven;
    cfg.mesh.router.vnets = static_cast<int>(opt.get_int("vnets", 1));
    cfg.warmup = static_cast<Cycle>(opt.get_int("warmup", 3000));
    cfg.measure = static_cast<Cycle>(opt.get_int("measure", 10000));
    cfg.drain_limit = static_cast<Cycle>(opt.get_int("drain", 20000));
    cfg.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));

    const std::string trace_out = opt.get("trace-out", "");
    const std::string metrics_out = opt.get("metrics-out", "");
    const auto trace_sample =
        static_cast<std::uint64_t>(opt.get_int("trace-sample", 1));
    require(trace_sample >= 1, "--trace-sample must be >= 1");
#ifdef RNOC_TRACE
    if (!trace_out.empty()) cfg.mesh.obs.trace_sample = trace_sample;
#else
    require(trace_out.empty() && metrics_out.empty(),
            "--trace-out/--metrics-out need an observability build "
            "(rebuild with -DRNOC_TRACE=ON)");
#endif
    const bool heatmaps = opt.get_bool("heatmap", false);
    if (heatmaps && cfg.telemetry_interval == 0) cfg.telemetry_interval = 100;

    noc::Simulator sim(cfg, build_traffic(opt));

    const int faults = static_cast<int>(opt.get_int("faults", 0));
    const int transients = static_cast<int>(opt.get_int("transients", 0));
    const fault::FaultGeometry geom{noc::kMeshPorts, cfg.mesh.router.vcs,
                                    cfg.mesh.router.vnets};
    Rng rng(cfg.seed ^ 0xfa17u);
    fault::FaultPlan plan;
    if (faults > 0) {
      if (opt.get_bool("fit-weighted", false)) {
        rel::RouterGeometry rg;
        rg.ports = noc::kMeshPorts;
        rg.vcs = cfg.mesh.router.vcs;
        rg.mesh_x = cfg.mesh.dims.x;
        rg.mesh_y = cfg.mesh.dims.y;
        std::vector<fault::FaultPlan::WeightedSiteRef> refs;
        for (const auto& ws : rel::weighted_sites(
                 rg, rel::paper_calibrated_params(), false))
          refs.push_back({ws.site, ws.fit});
        plan = fault::FaultPlan::fit_weighted(
            cfg.mesh.dims, geom, cfg.mesh.router.mode, refs, faults,
            cfg.warmup > 0 ? cfg.warmup : 1, rng,
            cfg.mesh.router.mode == core::RouterMode::Protected);
      } else {
        plan = fault::FaultPlan::random(
            cfg.mesh.dims, geom, cfg.mesh.router.mode, faults,
            cfg.warmup > 0 ? cfg.warmup : 1, rng,
            cfg.mesh.router.mode == core::RouterMode::Protected);
      }
    }
    if (transients > 0) {
      const auto burst = fault::FaultPlan::transient_burst(
          cfg.mesh.dims, geom, transients, cfg.warmup + cfg.measure,
          static_cast<Cycle>(opt.get_int("transient-duration", 100)), rng);
      for (const auto& e : burst.entries())
        plan.add(e.at, e.router, e.site, e.duration);
    }
    if (!plan.empty()) sim.set_fault_plan(std::move(plan));

    const noc::SimReport rep = sim.run();

    std::printf("rnoc_sim: %dx%d mesh, %d VCs, %s router, traffic=%s\n",
                cfg.mesh.dims.x, cfg.mesh.dims.y, cfg.mesh.router.vcs,
                mode.c_str(), opt.get("traffic", "uniform").c_str());
    std::printf("  cycles run          : %llu\n",
                static_cast<unsigned long long>(rep.cycles_run));
    std::printf("  packets sent/recv   : %llu / %llu\n",
                static_cast<unsigned long long>(rep.packets_sent),
                static_cast<unsigned long long>(rep.packets_received));
    std::printf("  avg latency         : %.2f cycles (network %.2f)\n",
                rep.avg_total_latency(), rep.avg_network_latency());
    std::printf("  p50 / p95 / p99     : %.0f / %.0f / %.0f cycles\n",
                rep.latency_percentile(0.50), rep.latency_percentile(0.95),
                rep.latency_percentile(0.99));
    std::printf("  throughput          : %.4f flits/node/cycle\n",
                rep.throughput_flits_node_cycle);
    std::printf("  energy              : %.2f uJ total, %.2f pJ/flit "
                "(protection %.2f nJ)\n",
                rep.energy.total_pj() / 1e6,
                rep.energy.per_flit_pj(rep.flits_received),
                rep.energy.protection_pj / 1e3);
    std::printf("  faults injected     : %d\n", rep.faults_injected);
    std::printf("  undelivered flits   : %llu%s\n",
                static_cast<unsigned long long>(rep.undelivered_flits),
                rep.deadlock_suspected ? "  [DEADLOCK SUSPECTED]" : "");
    const auto& ev = rep.router_events;
    if (ev.rc_spare_uses + ev.va1_borrows + ev.va2_retries +
            ev.sa1_bypass_grants + ev.sa1_transfers +
            ev.xb_secondary_traversals >
        0) {
      std::printf("  protection events   : rc_spare=%llu va_borrow=%llu "
                  "va2_retry=%llu sa_bypass=%llu sa_xfer=%llu xb_sec=%llu\n",
                  static_cast<unsigned long long>(ev.rc_spare_uses),
                  static_cast<unsigned long long>(ev.va1_borrows),
                  static_cast<unsigned long long>(ev.va2_retries),
                  static_cast<unsigned long long>(ev.sa1_bypass_grants),
                  static_cast<unsigned long long>(ev.sa1_transfers),
                  static_cast<unsigned long long>(ev.xb_secondary_traversals));
    }
#ifdef RNOC_TRACE
    const obs::Observer& observer = sim.mesh().observer();
    if (!trace_out.empty()) {
      std::ofstream os(trace_out);
      require(static_cast<bool>(os),
              "--trace-out: cannot open '" + trace_out + "'");
      os << observer.chrome_trace_json();
      std::printf("  trace               : %zu events (%llu dropped) -> %s "
                  "[sample 1/%llu]\n",
                  observer.trace().events().size(),
                  static_cast<unsigned long long>(observer.trace().dropped()),
                  trace_out.c_str(),
                  static_cast<unsigned long long>(trace_sample));
      std::printf("%s", observer.metrics().snapshot_text().c_str());
    }
    if (!metrics_out.empty()) {
      std::ofstream os(metrics_out);
      require(static_cast<bool>(os),
              "--metrics-out: cannot open '" + metrics_out + "'");
      os << observer.metrics().snapshot_json();
    }
#endif
    if (heatmaps) {
      const noc::Mesh& mesh = sim.mesh();
      std::printf("crossbar traversals:\n%s",
                  noc::heatmap(mesh, noc::HeatmapMetric::Traversals).c_str());
      std::printf("blocked VC cycles:\n%s",
                  noc::heatmap(mesh, noc::HeatmapMetric::BlockedCycles).c_str());
      std::printf("injected faults:\n%s",
                  noc::heatmap(mesh, noc::HeatmapMetric::Faults).c_str());
      std::printf("stall cycles:\n%s",
                  noc::heatmap(mesh, noc::HeatmapMetric::StallCycles).c_str());
      if (sim.occupancy().samples() > 0)
        std::printf("buffer occupancy:\n%s",
                    sim.occupancy().heatmap(cfg.mesh.dims).c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rnoc_sim: %s\n(use --help for usage)\n", e.what());
    return 1;
  }
}
