// Simulator throughput: how fast the cycle-accurate model runs.
//
// Two sections:
//
//  1. Low/medium-load sweep: 8x8 uniform-random runs at 0.05 / 0.20 / 0.40
//     flits/node/cycle, timed under the FullSweep oracle and the
//     EventDriven core (both drive the same per-stage functions, so the
//     ratio is what the event core's scheduling saves). Construction is
//     excluded from the timed window (the timer starts after the Simulator
//     — mesh, NIs, links — is built) and each core is warmed with a small
//     untimed run first. Reported per load: simulated cycles/s and
//     flit-hops/s (crossbar traversals per wall second — work actually done,
//     so an idle-skipping core cannot inflate it by skipping cycles), plus
//     the event/sweep speedup and a bit-identity check of the two reports.
//     Each load point times five interleaved (FullSweep, EventDriven) pairs
//     and reports the medians — rates per core, and the per-pair speedup —
//     with the speedup's min-max spread, so one noisy run on a shared host
//     cannot move the gated ratio.
//
//  2. The Figure-7 app sweep timed twice — full-sweep sequential reference
//     (the seed's loop structure: every router, every stage, every cycle,
//     one run after another) vs fast path (event core on the thread pool) —
//     checking every run's latency statistics are bit-identical. Before it,
//     single coherence runs: fault-free and faulted rates under the event
//     core, and the faulted run's event-vs-FullSweep speedup
//     (faulted_event_speedup: what the event core gains on the paper's
//     faulted mesh, where every router carries faults).
//
// The in-binary reference is a *lower bound* on the speedup over the seed
// implementation: it still benefits from the untoggleable fast-path work
// (ring buffers, allocation-free allocators, O(1) accounting). EXPERIMENTS.md
// records measured ratios; BENCH_sim_throughput.json carries the numbers the
// CI perf gate tracks across commits.
//
// --smoke shrinks the workload for CI smoke runs.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "latency_common.hpp"
#include "noc/sweep.hpp"
#include "traffic/app_profiles.hpp"
#include "traffic/patterns.hpp"

using namespace rnoc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Latency statistics (and therefore simulated behaviour) identical?
bool report_equal(const noc::SimReport& a, const noc::SimReport& b) {
  return a.total_latency.count() == b.total_latency.count() &&
         a.total_latency.mean() == b.total_latency.mean() &&
         a.network_latency.mean() == b.network_latency.mean() &&
         a.packets_received == b.packets_received &&
         a.flits_received == b.flits_received &&
         a.router_events.flits_traversed == b.router_events.flits_traversed &&
         a.cycles_run == b.cycles_run;
}

bool reports_match(const std::vector<noc::SimReport>& a,
                   const std::vector<noc::SimReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!report_equal(a[i], b[i])) return false;
  return true;
}

// --- Section 1: low/medium-load core comparison ---

noc::SimConfig load_sweep_config(bool smoke) {
  noc::SimConfig cfg;
  cfg.mesh.dims = {8, 8};
  cfg.warmup = smoke ? 200 : 1000;
  cfg.measure = smoke ? 2000 : 20000;
  cfg.drain_limit = smoke ? 5000 : 30000;
  cfg.seed = 7;
  return cfg;
}

struct TimedRun {
  noc::SimReport rep;
  double seconds = 0.0;
};

TimedRun time_load_run(const noc::SimConfig& base, double load,
                       noc::SimCore core) {
  noc::SimConfig cfg = base;
  cfg.mesh.core = core;
  traffic::SyntheticConfig tc;
  tc.injection_rate = load;
  tc.packet_size = 5;
  noc::Simulator sim(cfg, std::make_shared<traffic::SyntheticTraffic>(tc));
  // Timer starts here: mesh/NI/link construction is setup, not simulation.
  const auto t0 = Clock::now();
  TimedRun r;
  r.rep = sim.run();
  r.seconds = seconds_since(t0);
  return r;
}

/// Interleaved (FullSweep, EventDriven) pairs timed per load point.
constexpr int kLoadPairs = 5;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct LoadPoint {
  double load = 0.0;
  const char* key;  ///< JSON key stem, e.g. "load05".
  double sweep_cps = 0.0, sweep_fhps = 0.0;
  double event_cps = 0.0, event_fhps = 0.0;
  double speedup = 0.0;  ///< Median of the per-pair speedups.
  double speedup_lo = 0.0, speedup_hi = 0.0;  ///< Their min and max.
  bool identical = false;
};

std::vector<LoadPoint> run_load_sweep(bool smoke) {
  const noc::SimConfig base = load_sweep_config(smoke);
  // Warm each core once (icache, allocator pools) outside any timed window.
  {
    noc::SimConfig warm = base;
    warm.warmup = 100;
    warm.measure = 400;
    warm.drain_limit = 2000;
    time_load_run(warm, 0.1, noc::SimCore::FullSweep);
    time_load_run(warm, 0.1, noc::SimCore::EventDriven);
  }
  std::vector<LoadPoint> points = {
      {0.05, "load05", 0, 0, 0, 0, 0, false},
      {0.20, "load20", 0, 0, 0, 0, 0, false},
      {0.40, "load40", 0, 0, 0, 0, 0, false},
  };
  for (LoadPoint& p : points) {
    std::vector<double> sweep_cps, sweep_fhps, event_cps, event_fhps, speedup;
    p.identical = true;
    for (int i = 0; i < kLoadPairs; ++i) {
      const TimedRun sweep =
          time_load_run(base, p.load, noc::SimCore::FullSweep);
      const TimedRun event =
          time_load_run(base, p.load, noc::SimCore::EventDriven);
      const auto cycles = [](const TimedRun& r) {
        return static_cast<double>(r.rep.cycles_run) / r.seconds;
      };
      const auto hops = [](const TimedRun& r) {
        return static_cast<double>(r.rep.router_events.flits_traversed) /
               r.seconds;
      };
      sweep_cps.push_back(cycles(sweep));
      sweep_fhps.push_back(hops(sweep));
      event_cps.push_back(cycles(event));
      event_fhps.push_back(hops(event));
      speedup.push_back(cycles(event) / cycles(sweep));
      p.identical = p.identical && report_equal(sweep.rep, event.rep);
    }
    p.sweep_cps = median(sweep_cps);
    p.sweep_fhps = median(sweep_fhps);
    p.event_cps = median(event_cps);
    p.event_fhps = median(event_fhps);
    p.speedup = median(speedup);
    p.speedup_lo = *std::min_element(speedup.begin(), speedup.end());
    p.speedup_hi = *std::max_element(speedup.begin(), speedup.end());
  }
  return points;
}

// --- Section 2: Figure-7 app sweep ---

/// The Figure-7 job list: (fault-free, faulted) pair per app, same config
/// and seeds as bench_latency_splash2.
std::vector<noc::SweepJob> figure7_jobs(const noc::SimConfig& cfg,
                                        std::size_t napps, noc::SimCore core) {
  const auto& apps = traffic::splash2_profiles();
  if (napps > apps.size()) napps = apps.size();
  noc::SimConfig mode_cfg = cfg;
  mode_cfg.mesh.core = core;
  std::vector<noc::SweepJob> jobs;
  for (std::size_t i = 0; i < napps; ++i) {
    auto pair = benchx::app_jobs(apps[i], mode_cfg, 1000 + i);
    for (auto& j : pair) jobs.push_back(std::move(j));
  }
  return jobs;
}

/// Runs the jobs the way the seed simulator did: one after another on the
/// calling thread.
std::vector<noc::SimReport> run_sequential(
    const std::vector<noc::SweepJob>& jobs) {
  std::vector<noc::SimReport> reports;
  reports.reserve(jobs.size());
  for (const auto& job : jobs) {
    noc::Simulator sim(job.cfg, job.make_traffic());
    if (!job.faults.entries().empty()) sim.set_fault_plan(job.faults);
    reports.push_back(sim.run());
  }
  return reports;
}

struct SingleRunRate {
  double cycles_per_sec = 0.0;
  double flits_per_sec = 0.0;
};

SingleRunRate time_single_run(const noc::SweepJob& job) {
  noc::Simulator sim(job.cfg, job.make_traffic());
  if (!job.faults.entries().empty()) sim.set_fault_plan(job.faults);
  const auto t0 = Clock::now();
  const auto rep = sim.run();
  const double dt = seconds_since(t0);
  SingleRunRate r;
  r.cycles_per_sec = static_cast<double>(rep.cycles_run) / dt;
  // All flits the network moved end to end, not just measured-window ones.
  r.flits_per_sec = static_cast<double>(rep.flits_received) / dt;
  return r;
}

int run(bool smoke) {
  // Low/medium-load core comparison.
  const auto points = run_load_sweep(smoke);
  bool load_identical = true;
  double speedup_min = 0.0;
  std::printf("Simulator cores, 8x8 uniform random (size-5 packets), "
              "median of %d interleaved pairs\n\n",
              kLoadPairs);
  std::printf("  %-6s %14s %14s %14s %14s %9s %13s %s\n", "load",
              "sweep cyc/s", "event cyc/s", "sweep fh/s", "event fh/s",
              "speedup", "spread", "identical");
  for (const auto& p : points) {
    std::printf("  %-6.2f %14.0f %14.0f %14.0f %14.0f %8.2fx %5.2f-%5.2fx %s\n",
                p.load, p.sweep_cps, p.event_cps, p.sweep_fhps, p.event_fhps,
                p.speedup, p.speedup_lo, p.speedup_hi,
                p.identical ? "yes" : "NO (BUG)");
    load_identical = load_identical && p.identical;
    speedup_min = speedup_min == 0.0 ? p.speedup
                                     : std::min(speedup_min, p.speedup);
  }
  const bool meets_10x = speedup_min >= 10.0;
  std::printf("\n  min event speedup: %.1fx (>=10x: %s)\n\n", speedup_min,
              meets_10x ? "yes" : "NO");

  noc::SimConfig cfg = benchx::figure_sim_config();
  std::size_t napps = 8;  // 8 apps x {fault-free, faulted} = 16 runs
  if (smoke) {
    cfg.warmup = 500;
    cfg.measure = 1500;
    cfg.drain_limit = 5000;
    napps = 2;
  }

  // Single-run rates, event core. The faulted run is also timed under the
  // FullSweep oracle, interleaved with the event runs so both see the same
  // host phases; each side keeps its best of five.
  const auto single_jobs = figure7_jobs(cfg, 1, noc::SimCore::EventDriven);
  const auto oracle_jobs = figure7_jobs(cfg, 1, noc::SimCore::FullSweep);
  const SingleRunRate clean = time_single_run(single_jobs[0]);
  SingleRunRate faulted, faulted_oracle;
  for (int i = 0; i < 5; ++i) {
    const SingleRunRate e = time_single_run(single_jobs[1]);
    const SingleRunRate o = time_single_run(oracle_jobs[1]);
    if (e.cycles_per_sec > faulted.cycles_per_sec) faulted = e;
    if (o.cycles_per_sec > faulted_oracle.cycles_per_sec) faulted_oracle = o;
  }
  const double faulted_speedup =
      faulted.cycles_per_sec / faulted_oracle.cycles_per_sec;
  std::printf("Coherence traffic (8x8 mesh, event core)\n\n");
  std::printf("  fault-free run: %10.0f cycles/s %12.0f flits/s\n",
              clean.cycles_per_sec, clean.flits_per_sec);
  std::printf("  faulted run:    %10.0f cycles/s %12.0f flits/s\n",
              faulted.cycles_per_sec, faulted.flits_per_sec);
  std::printf("  faulted run, event vs full sweep: %.2fx\n\n",
              faulted_speedup);

  // Figure-7 sweep, full-sweep sequential reference vs fast path.
  const auto ref_jobs = figure7_jobs(cfg, napps, noc::SimCore::FullSweep);
  const auto fast_jobs = figure7_jobs(cfg, napps, noc::SimCore::EventDriven);

  auto t0 = Clock::now();
  const auto ref_reports = run_sequential(ref_jobs);
  const double ref_s = seconds_since(t0);

  t0 = Clock::now();
  const auto fast_reports = noc::SweepRunner().run(fast_jobs);
  const double fast_s = seconds_since(t0);

  const bool match = reports_match(ref_reports, fast_reports);
  const double speedup = ref_s / fast_s;
  std::printf("Figure-7 sweep (%zu runs):\n", ref_jobs.size());
  std::printf("  full-sweep sequential reference: %8.2f s\n", ref_s);
  std::printf("  fast (event core, parallel):     %8.2f s\n", fast_s);
  std::printf("  speedup vs in-binary reference: %.2fx   "
              "latencies identical: %s\n",
              speedup, match ? "yes" : "NO (BUG)");
  std::printf("  (lower bound: the reference shares the fast data "
              "structures; see EXPERIMENTS.md\n"
              "   for the measured ratio against the seed commit)\n\n");

  std::FILE* out = std::fopen("BENCH_sim_throughput.json", "w");
  if (out) {
    std::fprintf(out,
                 "{\"bench\": \"sim_throughput\", \"smoke\": %s, "
                 "\"mesh\": \"8x8\", \"sweep_runs\": %zu, "
                 "\"trace_hooks_compiled\": %s",
                 smoke ? "true" : "false", ref_jobs.size(),
                 // The perf gate compares throughput against an untraced
                 // baseline; a boolean (exact-match in the gate, unlike
                 // one-sided numerics) makes a mismatched RNOC_TRACE=ON
                 // binary fail loudly.
#ifdef RNOC_TRACE
                 "true"
#else
                 "false"
#endif
    );
    for (const auto& p : points)
      std::fprintf(out,
                   ", \"%s_sweep_cycles_per_sec\": %.0f"
                   ", \"%s_event_cycles_per_sec\": %.0f"
                   ", \"%s_sweep_flit_hops_per_sec\": %.0f"
                   ", \"%s_event_flit_hops_per_sec\": %.0f"
                   ", \"%s_event_speedup\": %.3f"
                   ", \"%s_event_speedup_spread\": %.3f",
                   p.key, p.sweep_cps, p.key, p.event_cps, p.key,
                   p.sweep_fhps, p.key, p.event_fhps, p.key, p.speedup,
                   p.key, (p.speedup_hi - p.speedup_lo) / p.speedup);
    std::fprintf(
        out,
        ", \"event_speedup_min\": %.3f, \"meets_10x\": %s, "
        "\"load_reports_identical\": %s, "
        "\"fault_free_cycles_per_sec\": %.0f, "
        "\"fault_free_flits_per_sec\": %.0f, "
        "\"faulted_cycles_per_sec\": %.0f, "
        "\"faulted_flits_per_sec\": %.0f, "
        "\"faulted_event_speedup\": %.3f, "
        "\"sweep_reference_seconds\": %.4f, \"sweep_fast_seconds\": %.4f, "
        "\"speedup_vs_reference\": %.3f, \"latencies_identical\": %s}\n",
        speedup_min, meets_10x ? "true" : "false",
        load_identical ? "true" : "false", clean.cycles_per_sec,
        clean.flits_per_sec, faulted.cycles_per_sec, faulted.flits_per_sec,
        faulted_speedup, ref_s, fast_s, speedup, match ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_sim_throughput.json\n");
  }

  if (!match || !load_identical) {
    std::fprintf(stderr,
                 "FAIL: fast-path reports differ from full-sweep reports\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  return run(smoke);
}
