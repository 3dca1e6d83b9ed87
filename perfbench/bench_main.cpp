// Repository benchmark program. Times the paper registry and the 8x8
// cycle-accurate simulator through the library's public entry points,
// records spans around each call into a layer (traced runs only) and writes
// raw measurements for perfbench/run.py, which checks and summarizes them.
//
//   rnoc_bench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// Workloads: paper_registry and mesh_coherence_faulted (see
// perfbench/README.md). Writes DIR/raw.json,
// and for paper_registry the timed and smoke-replay result files under
// DIR/timed/ and DIR/smoke/; traced runs also write DIR/trace.json in the
// Chrome trace-event format.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/figures.hpp"
#include "campaign/registry.hpp"
#include "common/options.hpp"
#include "common/thread_pool.hpp"
#include "noc/simulator.hpp"
#include "traffic/app_profiles.hpp"
#include "traffic/patterns.hpp"

#ifndef RNOC_BENCH_BUILD_TYPE
#define RNOC_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rnoc;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// --- JSON output -----------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

/// Builds one JSON object field by field.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    text_ += (text_.empty() ? "{" : ", ") + quoted(key) + ": " + json;
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return raw(key, num(v)); }
  JsonObject& add(const std::string& key, const std::string& s) {
    return raw(key, quoted(s));
  }
  JsonObject& flag(const std::string& key, bool b) {
    return raw(key, b ? "true" : "false");
  }
  std::string str() const { return text_.empty() ? "{}" : text_ + "}"; }

 private:
  std::string text_;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? ", " : "") + items[i];
  return out + "]";
}

std::string json_numbers(const std::vector<double>& v) {
  std::vector<std::string> items;
  for (double x : v) items.push_back(num(x));
  return json_array(items);
}

// --- Spans -----------------------------------------------------------------

/// Small per-thread lane ids for the trace (the first thread to ask is 0).
int lane_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

struct Span {
  std::string name;
  int lane = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double t0 = 0.0;
  double t1 = 0.0;
  std::string args;  ///< Extra JSON fields for the B event's args, or "".
};

/// In-memory span store, written out once at exit. Disabled logs record
/// nothing, so untraced runs pay one branch per boundary.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  std::uint64_t new_id() { return next_id_.fetch_add(1); }

  void record(Span s) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(std::move(s));
  }

  /// Chrome trace-event JSON: B/E pairs per lane, properly nested and in
  /// timestamp order (the shape tools/check_trace.py validates). Span and
  /// parent ids ride in the B event's args so cross-lane parents (a point
  /// run on a pool worker under its campaign) survive.
  void write(const std::string& path, const std::string& workload) const {
    std::lock_guard<std::mutex> lk(mu_);
    std::map<int, std::vector<const Span*>> lanes;
    for (const Span& s : spans_) lanes[s.lane].push_back(&s);
    std::vector<std::string> events;
    const auto us = [](double t) { return num(t * 1e6); };
    for (auto& [lane, spans] : lanes) {
      std::stable_sort(spans.begin(), spans.end(),
                       [](const Span* a, const Span* b) {
                         if (a->t0 != b->t0) return a->t0 < b->t0;
                         return a->t1 > b->t1;
                       });
      std::vector<const Span*> open;
      const auto close = [&](const Span* s) {
        events.push_back(JsonObject()
                             .add("name", s->name)
                             .add("ph", std::string("E"))
                             .raw("ts", us(s->t1))
                             .add("pid", 1)
                             .add("tid", lane)
                             .str());
      };
      for (const Span* s : spans) {
        while (!open.empty() && open.back()->t1 <= s->t0) {
          close(open.back());
          open.pop_back();
        }
        const std::string args =
            "{\"id\": " + num(static_cast<double>(s->id)) +
            ", \"parent\": " + num(static_cast<double>(s->parent)) +
            (s->args.empty() ? "" : ", " + s->args) + "}";
        events.push_back(JsonObject()
                             .add("name", s->name)
                             .add("ph", std::string("B"))
                             .raw("ts", us(s->t0))
                             .add("pid", 1)
                             .add("tid", lane)
                             .raw("args", args)
                             .str());
        open.push_back(s);
      }
      while (!open.empty()) {
        close(open.back());
        open.pop_back();
      }
    }
    std::ofstream f(path);
    f << "{\"traceEvents\": " << json_array(events)
      << ", \"otherData\": " << JsonObject().add("workload", workload).str()
      << "}\n";
    require(static_cast<bool>(f), "cannot write trace file");
  }

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Times a scope into the log under `parent`; no clock reads when disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t parent = 0)
      : log_(log) {
    if (!log_.enabled()) return;
    span_.name = std::move(name);
    span_.lane = lane_id();
    span_.id = log_.new_id();
    span_.parent = parent;
    span_.t0 = now_s();
  }
  ~ScopedSpan() {
    if (!log_.enabled()) return;
    span_.t1 = now_s();
    log_.record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }
  /// Extra args fields (JSON object body without braces).
  void set_args(std::string json_fields) { span_.args = std::move(json_fields); }

 private:
  SpanLog& log_;
  Span span_;
};

/// Peak resident set of this process image in KiB: VmHWM, which starts
/// afresh at exec (ru_maxrss would carry over the launching process's peak).
double peak_rss_kib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

std::string compiler_name() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// --- paper_registry ----------------------------------------------------------

/// A point that threw or produced a non-finite metric.
struct PointFailure {
  std::string campaign;
  std::string point;
  std::string why;
};

/// Collects point failures (and, when tracing, point spans) from the pool
/// workers running the wrapped run_point functions.
class PointRecorder {
 public:
  explicit PointRecorder(SpanLog& log) : log_(log) {}

  void fail(PointFailure f) {
    std::lock_guard<std::mutex> lk(mu_);
    failures_.push_back(std::move(f));
  }
  std::vector<PointFailure> take_failures() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(failures_, {});
  }
  SpanLog& log() { return log_; }
  /// Span id of the campaign currently running (parent of its points).
  std::atomic<std::uint64_t> campaign_span{0};

 private:
  SpanLog& log_;
  std::mutex mu_;
  std::vector<PointFailure> failures_;
};

bool finite_metrics(const std::vector<campaign::Metric>& ms, std::string& why) {
  for (const auto& m : ms)
    if (!std::isfinite(m.value) || !std::isfinite(m.ci95)) {
      why = "non-finite metric " + m.name;
      return false;
    }
  return true;
}

/// Copies a registry spec with `seed` (when nonzero) and a run_point that
/// records a span and turns a throw or a non-finite metric into a recorded
/// failure with an empty output, so the campaign still completes and
/// serializes.
campaign::CampaignSpec wrap_spec(const campaign::CampaignSpec& spec,
                                 std::uint64_t seed, PointRecorder& rec) {
  campaign::CampaignSpec c = spec;
  if (seed != 0) c.seed = seed;
  const auto inner = spec.run_point;
  const auto ids = spec.point_ids;
  const std::string name = spec.name;
  c.run_point = [inner, ids, name, &rec](std::size_t index, std::uint64_t s,
                                         bool smoke) {
    ScopedSpan span(rec.log(), "campaign.point", rec.campaign_span.load());
    campaign::PointOutput out;
    std::string why;
    bool ok = true;
    try {
      out = inner(index, s, smoke);
      ok = finite_metrics(out.metrics, why) && finite_metrics(out.obs, why);
    } catch (const std::exception& e) {
      ok = false;
      why = std::string("threw: ") + e.what();
    }
    if (!ok) {
      rec.fail({name, ids(smoke).at(index), why});
      out = campaign::PointOutput{};
    }
    return out;
  };
  return c;
}

std::vector<campaign::CampaignSpec> prepare_registry(std::uint64_t seed,
                                                     PointRecorder& rec,
                                                     std::size_t& points) {
  std::vector<campaign::CampaignSpec> specs;
  points = 0;
  for (const auto& spec : campaign::campaign_registry()) {
    specs.push_back(wrap_spec(spec, seed, rec));
    points += campaign::expand_point_units(specs.back(), false).size();
  }
  return specs;
}

/// One set-up sample: copying the registry specs with the seed and expanding
/// their points. One set-up takes tens of microseconds, so a sample repeats
/// it for at least kSampleS and reports the mean.
double sample_setup(std::uint64_t seed, PointRecorder& rec) {
  constexpr double kSampleS = 0.02;
  std::size_t points = 0;
  int reps = 0;
  double elapsed = 0.0;
  const double t0 = now_s();
  do {
    prepare_registry(seed, rec, points);
    ++reps;
    elapsed = now_s() - t0;
  } while (elapsed < kSampleS);
  return elapsed / reps;
}

struct PassResult {
  bool traced = false;
  double wall_s = 0.0;
  std::size_t points = 0;
  std::vector<PointFailure> failures;
  std::vector<std::string> json;  ///< to_json per campaign, registry order.
  std::vector<campaign::CampaignResult> results;
};

/// All 15 campaigns at full scale, in registry order, in-process on
/// global_pool(), no checkpoint directory and no cache. Before each campaign
/// one set-up sample is appended to `setup`, outside the pass's wall time:
/// spread over the pass, the samples see the same mix of host-speed phases
/// as the campaigns do.
PassResult registry_pass(std::vector<campaign::CampaignSpec> specs,
                         std::size_t points, PointRecorder& rec,
                         std::uint64_t seed, std::vector<double>& setup) {
  PassResult pass;
  pass.points = points;
  SpanLog& log = rec.log();
  pass.traced = log.enabled();
  {
    ScopedSpan pass_span(log, "registry.pass");
    for (const auto& spec : specs) {
      {
        ScopedSpan span(log, "registry.setup", pass_span.id());
        setup.push_back(sample_setup(seed, rec));
      }
      const double t0 = now_s();
      campaign::RunOptions opts;  // full scale, global_pool(), no checkpoints
      campaign::CampaignResult result;
      {
        ScopedSpan span(log, "campaign.run", pass_span.id());
        span.set_args("\"campaign\": " + quoted(spec.name));
        rec.campaign_span = span.id();
        result = campaign::run_campaign(spec, opts).result;
      }
      {
        ScopedSpan span(log, "campaign.serialize", pass_span.id());
        pass.json.push_back(campaign::to_json(result));
      }
      pass.results.push_back(std::move(result));
      pass.wall_s += now_s() - t0;
    }
  }
  pass.failures = rec.take_failures();
  return pass;
}

std::string failures_json(const std::vector<PointFailure>& fs) {
  std::vector<std::string> items;
  for (const auto& f : fs)
    items.push_back(JsonObject()
                        .add("campaign", f.campaign)
                        .add("point", f.point)
                        .add("why", f.why)
                        .str());
  return json_array(items);
}

JsonObject run_registry(std::uint64_t seed, double seconds, bool trace,
                        SpanLog& log, const std::string& out_dir) {
  PointRecorder rec(log);
  SpanLog quiet(false);
  PointRecorder untraced_rec(quiet);

  const double spin0 = now_s();
  ThreadPool& pool = global_pool();
  const double spinup_s = now_s() - spin0;

  // Set-up samples are taken inside every pass (registry_pass). Pool spin-up
  // happens once per process (above) and is reported on its own: timing it
  // again on scratch pools would measure mostly the host scheduler's wake-up
  // latency.
  std::vector<double> setup;

  // Timed passes: untraced ones while the next is expected to fit the (half,
  // when tracing) budget, at least one; then traced ones likewise. Peak RSS
  // is read after the first pass: later passes only grow the allocator's
  // arenas, and how many run depends on the host's speed.
  std::vector<PassResult> passes;
  double rss = 0.0;
  const auto run_passes = [&](PointRecorder& r, double budget) {
    const double begin = now_s();
    do {
      std::size_t n = 0;
      auto specs = prepare_registry(seed, r, n);
      passes.push_back(registry_pass(std::move(specs), n, r, seed, setup));
      if (passes.size() == 1) rss = peak_rss_kib();
    } while (now_s() - begin + passes.back().wall_s <= budget);
  };
  run_passes(untraced_rec, trace ? seconds / 2 : seconds);
  if (trace) run_passes(rec, seconds / 2);

  // Same seed, same pool: every pass must serialize byte-identically.
  bool deterministic = true;
  for (const auto& p : passes) deterministic &= (p.json == passes[0].json);

  std::filesystem::create_directories(out_dir + "/timed");
  std::filesystem::create_directories(out_dir + "/smoke");
  for (const auto& r : passes.back().results)
    campaign::write_result_file(r, out_dir + "/timed/" + r.campaign + ".json");

  // Untimed: replay the smoke registry at the specs' own seeds for the
  // golden comparison run.py makes.
  std::size_t smoke_points = 0;
  for (const auto& spec : campaign::campaign_registry()) {
    const auto c = wrap_spec(spec, 0, untraced_rec);
    campaign::RunOptions opts;
    opts.smoke = true;
    const auto r = campaign::run_campaign(c, opts).result;
    smoke_points += r.points.size();
    campaign::write_result_file(r, out_dir + "/smoke/" + r.campaign + ".json");
  }
  const auto smoke_failures = untraced_rec.take_failures();

  std::vector<std::string> pass_json;
  for (const auto& p : passes) {
    pass_json.push_back(JsonObject()
                            .flag("traced", p.traced)
                            .add("wall_s", p.wall_s)
                            .add("points", static_cast<double>(p.points))
                            .raw("failed", failures_json(p.failures))
                            .str());
  }
  JsonObject o;
  o.add("threads", static_cast<double>(pool.size()))
      .raw("setup_s", json_numbers(setup))
      .add("pool_spinup_s", spinup_s)
      .add("peak_rss_kib", rss)
      .raw("passes", json_array(pass_json))
      .flag("deterministic", deterministic)
      .add("smoke_points", static_cast<double>(smoke_points))
      .raw("smoke_failed", failures_json(smoke_failures));
  return o;
}

// --- mesh_coherence_faulted ----------------------------------------------------

/// TrafficModel decorator that counts calls, packets produced and time spent
/// in the wrapped model. Forwards every virtual, so the simulator drives the
/// wrapped model exactly as it would undecorated.
class TimedTraffic final : public traffic::TrafficModel {
 public:
  explicit TimedTraffic(std::shared_ptr<traffic::TrafficModel> inner)
      : inner_(std::move(inner)) {}

  void init(const noc::MeshDims& dims) override {
    TrafficModel::init(dims);
    inner_->init(dims);
  }
  void generate(Cycle now, NodeId node, Rng& rng,
                std::vector<noc::PacketDesc>& out) override {
    const std::size_t before = out.size();
    const auto t0 = Clock::now();
    inner_->generate(now, node, rng, out);
    note(t0, out.size() - before);
  }
  bool supports_event_injection() const override {
    return inner_->supports_event_injection();
  }
  Cycle next_injection(Cycle from, Cycle horizon, NodeId node, Rng& rng,
                       std::vector<noc::PacketDesc>& out) override {
    const std::size_t before = out.size();
    const auto t0 = Clock::now();
    const Cycle at = inner_->next_injection(from, horizon, node, rng, out);
    note(t0, out.size() - before);
    return at;
  }
  void on_delivered(const noc::Flit& tail, NodeId at, Cycle now, Rng& rng,
                    std::vector<traffic::Response>& responses) override {
    const std::size_t before = responses.size();
    const auto t0 = Clock::now();
    inner_->on_delivered(tail, at, now, rng, responses);
    note(t0, responses.size() - before);
  }

  std::uint64_t calls = 0;
  std::uint64_t packets = 0;
  std::int64_t ns = 0;

 private:
  void note(Clock::time_point t0, std::size_t produced) {
    ns += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
              .count();
    ++calls;
    packets += produced;
  }

  std::shared_ptr<traffic::TrafficModel> inner_;
};

struct Prepared {
  std::unique_ptr<noc::Simulator> sim;
  std::shared_ptr<TimedTraffic> timed;  ///< Null unless traced.
  double setup_s = 0.0;
};

/// Builds the canneal traffic model, the §IX fault plan and the Simulator
/// for one run of the faulted job.
Prepared prepare_mesh(noc::SimConfig cfg, noc::SimCore core, SpanLog& log) {
  Prepared p;
  cfg.mesh.core = core;
  const double t0 = now_s();
  ScopedSpan setup(log, "mesh.setup");
  noc::SweepJob job;
  {
    ScopedSpan span(log, "fault.plan", setup.id());
    static const traffic::AppProfile& canneal =
        traffic::find_profile("canneal");
    job = campaign::figure_app_jobs(canneal, cfg, cfg.seed)[1];
  }
  std::shared_ptr<traffic::TrafficModel> model;
  {
    ScopedSpan span(log, "traffic.construct", setup.id());
    model = job.make_traffic();
    if (log.enabled()) {
      p.timed = std::make_shared<TimedTraffic>(std::move(model));
      model = p.timed;
    }
  }
  {
    ScopedSpan span(log, "noc.construct", setup.id());
    p.sim = std::make_unique<noc::Simulator>(job.cfg, std::move(model));
  }
  {
    ScopedSpan span(log, "fault.install", setup.id());
    p.sim->set_fault_plan(std::move(job.faults));
  }
  p.setup_s = now_s() - t0;
  return p;
}

/// Every simulated statistic a speed-only change must leave identical.
std::string stats_json(const noc::SimReport& r) {
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const noc::RouterStats& e = r.router_events;
  JsonObject o;
  o.add("cycles", u(r.cycles_run))
      .add("packets_sent", u(r.packets_sent))
      .add("packets", u(r.packets_received))
      .add("flits_received", u(r.flits_received))
      .add("undelivered_flits", u(r.undelivered_flits))
      .flag("deadlock", r.deadlock_suspected)
      .add("faults_injected", r.faults_injected)
      .add("latency_count", u(r.total_latency.count()))
      .add("latency_mean", r.avg_total_latency())
      .add("network_latency_mean", r.avg_network_latency())
      .add("latency_p50", r.latency_percentile(0.5))
      .add("latency_p99", r.latency_percentile(0.99))
      .add("energy_pj", r.energy.total_pj())
      .add("flit_hops", u(e.flits_traversed))
      .add("buffer_writes", u(e.buffer_writes))
      .add("va_allocations", u(e.va_allocations))
      .add("rc_computations", u(e.rc_computations))
      .add("rc_spare_uses", u(e.rc_spare_uses))
      .add("va1_borrows", u(e.va1_borrows))
      .add("va1_borrow_waits", u(e.va1_borrow_waits))
      .add("va2_retries", u(e.va2_retries))
      .add("sa1_bypass_grants", u(e.sa1_bypass_grants))
      .add("sa1_transfers", u(e.sa1_transfers))
      .add("xb_secondary_traversals", u(e.xb_secondary_traversals))
      .add("blocked_vc_cycles", u(e.blocked_vc_cycles))
      .add("flits_swallowed", u(e.flits_swallowed))
      .add("escape_reroutes", u(e.escape_reroutes))
      .add("flits_dropped", u(e.flits_dropped));
  return o.str();
}

/// One prepared-and-run simulation; `run_s` covers Simulator::run() only.
std::string timed_run(const noc::SimConfig& cfg, noc::SimCore core,
                      SpanLog& log) {
  Prepared p = prepare_mesh(cfg, core, log);
  noc::SimReport rep;
  double run_s = 0.0;
  {
    ScopedSpan span(log, "noc.run");
    const double t0 = now_s();
    rep = p.sim->run();
    run_s = now_s() - t0;
  }
  JsonObject o;
  o.flag("traced", log.enabled())
      .add("setup_s", p.setup_s)
      .add("run_s", run_s)
      .raw("stats", stats_json(rep));
  if (p.timed)
    o.raw("traffic", JsonObject()
                         .add("calls", static_cast<double>(p.timed->calls))
                         .add("packets", static_cast<double>(p.timed->packets))
                         .add("s", static_cast<double>(p.timed->ns) * 1e-9)
                         .str());
  return o.str();
}

JsonObject run_mesh(std::uint64_t seed, double seconds, bool trace,
                    SpanLog& log) {
  noc::SimConfig cfg = campaign::figure_sim_config(false);  // 8x8, XY, 4 VCs
  cfg.seed = seed;
  SpanLog quiet(false);
  // Untimed: one warm-up run (the first run in a process is markedly
  // slower) and the FullSweep oracle every timed run must match.
  const std::string warmup = timed_run(cfg, noc::SimCore::EventDriven, quiet);
  const std::string oracle = timed_run(cfg, noc::SimCore::FullSweep, quiet);

  std::vector<std::string> runs;
  const double start = now_s();
  const double untraced_budget = trace ? seconds / 2 : seconds;
  do {
    runs.push_back(timed_run(cfg, noc::SimCore::EventDriven, quiet));
  } while (now_s() - start < untraced_budget || runs.size() < 3);
  const double rss = peak_rss_kib();
  if (trace) {
    const double traced_start = now_s();
    std::size_t n = 0;
    do {
      runs.push_back(timed_run(cfg, noc::SimCore::EventDriven, log));
      ++n;
    } while (now_s() - traced_start < seconds / 2 || n < 3);
  }
  JsonObject o;
  o.add("threads", 1)
      .add("peak_rss_kib", rss)
      .raw("warmup", warmup)
      .raw("oracle", oracle)
      .raw("runs", json_array(runs));
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt(argc, argv, {"workload", "seed", "seconds", "trace", "out"});
#if defined(RNOC_TRACE) || defined(RNOC_INVARIANTS)
    std::fprintf(stderr,
                 "rnoc_bench: refusing to time a build with RNOC_TRACE or "
                 "RNOC_INVARIANTS compiled in\n");
    return 3;
#endif
    const std::string workload = opt.get("workload", "");
    const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
    const double seconds = opt.get_double("seconds", 10.0);
    const bool trace = opt.get_int("trace", 0) != 0;
    const std::string out = opt.get("out", "");
    require(!out.empty(), "--out DIR is required");
    require(seconds > 0.0, "--seconds must be positive");
    require(seed != 0, "--seed must be nonzero");
    lane_id();  // the main thread is lane 0

    SpanLog log(trace);
    JsonObject o;
    std::filesystem::create_directories(out);
    if (workload == "paper_registry") {
      o = run_registry(seed, seconds, trace, log, out);
    } else if (workload == "mesh_coherence_faulted") {
      o = run_mesh(seed, seconds, trace, log);
    } else {
      std::fprintf(stderr, "rnoc_bench: unknown workload '%s'\n",
                   workload.c_str());
      return 2;
    }
    if (trace) log.write(out + "/trace.json", workload);
    o.add("workload", workload)
        .add("seed", static_cast<double>(seed))
        .add("compiler", compiler_name())
        .add("build_type", std::string(RNOC_BENCH_BUILD_TYPE));
    std::ofstream f(out + "/raw.json");
    f << o.str() << "\n";
    require(static_cast<bool>(f), "cannot write raw.json");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rnoc_bench: %s\n", e.what());
    return 1;
  }
}
