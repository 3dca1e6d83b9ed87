#include "serve/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <utility>

#include "campaign/engine.hpp"
#include "serve/wire.hpp"

namespace rnoc::serve {

using campaign::JsonValue;

namespace {

/// The telemetry wire/file schema: bump when the exposition shape, the
/// journal line shape, or the span-trace args change incompatibly.
constexpr int kTelemetrySchema = 1;

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Latencies are stored as log2(1 + us): one histogram shape covers
/// sub-microsecond cache probes and minute-long points with relative
/// (not absolute) resolution. Inverse of the transform in observe_us.
double from_log2_domain(double v) { return std::exp2(v) - 1.0; }

/// HELP text for the metric families the daemon emits; anything not
/// listed falls back to a generic line so ad-hoc counters still expose
/// cleanly.
const char* family_help(const std::string& base) {
  static const std::map<std::string, const char*> kHelp = {
      {"jobs_submitted", "Campaign submissions that scheduled fresh work."},
      {"jobs_coalesced", "Submissions attached to an identical in-flight job."},
      {"points_computed", "Points executed by the engine (cache misses)."},
      {"points_cached", "Points served from the persistent result cache."},
      {"sched_executed", "Scheduler tasks run to completion."},
      {"sched_steals", "Tasks taken from another worker's deque."},
      {"sched_steal_attempts",
       "Claims that probed peer deques (own empty, lane not)."},
      {"sched_preemptions",
       "Interactive tasks claimed while bulk work was queued."},
      {"sched_dropped", "Tasks discarded by scheduler stop()."},
      {"cache_hits", "Result-cache lookups served from disk."},
      {"cache_misses", "Result-cache lookups that missed."},
      {"cache_stores", "Fresh results written to the cache."},
      {"cache_evictions", "Entries evicted by the LRU byte cap."},
      {"cache_quarantined", "Corrupt entries moved aside, never served."},
      {"telemetry_events", "Structured events journaled/streamed by the hub."},
      {"cache_entries", "Result-cache entries currently on disk."},
      {"cache_bytes", "Result-cache bytes currently on disk."},
      {"queue_depth", "Tasks queued per scheduler lane right now."},
      {"points_in_flight", "Points executing on workers right now."},
      {"coalesced_waiters", "Attached sinks waiting on another job's work."},
      {"watch_subscribers", "Live `watch` event subscriptions."},
      {"workers", "Scheduler worker threads."},
      {"uptime_seconds", "Seconds since the telemetry hub was created."},
      {"build_info", "Constant 1; identity is in the labels."},
      {"point_execute_us", "Latency of freshly computed points."},
      {"point_cache_hit_us", "Latency of cache-served points."},
      {"request_us", "Submit-to-terminal latency per campaign job."},
      {"queue_wait_us", "Task enqueue-to-claim wait per scheduler lane."},
  };
  const auto it = kHelp.find(base);
  return it != kHelp.end() ? it->second : "rnoc serve telemetry metric.";
}

/// "queue_depth{lane=\"bulk\"}" -> "queue_depth".
std::string family_of(const std::string& sample) {
  const std::size_t brace = sample.find('{');
  return brace == std::string::npos ? sample : sample.substr(0, brace);
}

/// Rebuilds a labeled sample name under a prefixed family name:
/// ("rnoc_queue_depth", "queue_depth{lane=\"bulk\"}") ->
/// "rnoc_queue_depth{lane=\"bulk\"}".
std::string prefixed_sample(const std::string& family,
                            const std::string& sample) {
  const std::size_t brace = sample.find('{');
  return brace == std::string::npos ? family
                                    : family + sample.substr(brace);
}

std::string fmt_value(double v) {
  return std::isfinite(v) ? campaign::json_double(v) : "NaN";
}

}  // namespace

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::Request: return "request";
    case SpanKind::Expand: return "expand";
    case SpanKind::QueueWait: return "queue-wait";
    case SpanKind::Execute: return "execute";
    case SpanKind::CacheHit: return "cache-hit";
  }
  return "execute";  // Unreachable; silences -Wreturn-type.
}

TelemetryHub::TelemetryHub(Config cfg) : cfg_(std::move(cfg)) {
  epoch_ns_ = steady_ns();
  if (!cfg_.journal_path.empty()) {
    // Append across daemon restarts: the journal is an operational log,
    // not a per-run artifact; rotation bounds it either way.
    journal_.open(cfg_.journal_path,
                  std::ios::out | std::ios::app | std::ios::ate);
    const std::streampos pos = journal_.tellp();
    journal_bytes_ = pos > 0 ? static_cast<std::uint64_t>(pos) : 0;
  }
  if (cfg_.span_capacity > 0) spans_.reserve(cfg_.span_capacity);
  if (cfg_.tick_interval_ms > 0)
    ticker_ = std::thread([this] { ticker_loop(); });
}

TelemetryHub::~TelemetryHub() {
  {
    const std::lock_guard<std::mutex> lock(tick_mu_);
    tick_stop_ = true;
  }
  tick_cv_.notify_all();
  if (ticker_.joinable()) ticker_.join();
  const std::lock_guard<std::mutex> lock(mu_);
  if (journal_.is_open()) journal_.flush();
}

std::uint64_t TelemetryHub::now_us() const {
  // Strictly positive: callers use 0 as "no telemetry timestamp", and a
  // submit in the hub's first microsecond must still get spans.
  return (steady_ns() - epoch_ns_) / 1000 + 1;
}

void TelemetryHub::record_span(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (cfg_.span_capacity == 0) return;
  ++spans_recorded_;
  if (spans_.size() < cfg_.span_capacity) {
    spans_.push_back(std::move(span));
  } else {
    spans_[span_head_] = std::move(span);  // Overwrite the oldest.
    span_head_ = (span_head_ + 1) % cfg_.span_capacity;
  }
}

void TelemetryHub::counter_add(const std::string& name, std::uint64_t delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

void TelemetryHub::counter_set(const std::string& name, std::uint64_t value) {
  const std::lock_guard<std::mutex> lock(mu_);
  counters_[name] = value;
}

void TelemetryHub::gauge_set(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

void TelemetryHub::gauge_add(const std::string& name, double delta) {
  const std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] += delta;
}

void TelemetryHub::observe_us(const std::string& name, double us) {
  const std::lock_guard<std::mutex> lock(mu_);
  LatencySummary& s = histograms_[name];
  s.log2_hist.add(std::log2(1.0 + (us < 0 ? 0.0 : us)));
  s.sum_us += us < 0 ? 0.0 : us;
}

void TelemetryHub::event(const std::string& type, JsonValue fields) {
  JsonValue o = JsonValue::make_object();
  o.set("event", JsonValue::make_string("telemetry"));
  o.set("type", JsonValue::make_string(type));
  o.set("t_us", JsonValue::make_number(static_cast<double>(now_us())));
  if (fields.is(JsonValue::Type::Object))
    for (const auto& [key, value] : fields.members()) o.set(key, value);
  const std::string line = to_wire_line(o);

  // Journal under the lock (ordered, size-accounted); fan out to
  // subscribers outside it so one stalled watcher cannot wedge every
  // thread that reports telemetry.
  std::vector<std::pair<std::uint64_t, EventSink>> sinks;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++events_;
    journal_append_locked(line);
    sinks.reserve(sinks_.size());
    for (const auto& [id, sink] : sinks_) sinks.emplace_back(id, sink);
  }
  for (const auto& [id, sink] : sinks)
    if (!sink(line)) unsubscribe(id);
}

void TelemetryHub::journal_append_locked(const std::string& line) {
  if (!journal_.is_open()) return;
  const std::uint64_t incoming = line.size() + 1;
  if (journal_bytes_ > 0 &&
      journal_bytes_ + incoming > cfg_.journal_max_bytes) {
    journal_.close();
    std::error_code ec;  // Rotation is best-effort; rename(2) is atomic.
    std::filesystem::rename(cfg_.journal_path, cfg_.journal_path + ".1", ec);
    journal_.open(cfg_.journal_path, std::ios::out | std::ios::trunc);
    journal_bytes_ = 0;
    ++journal_rotations_;
  }
  journal_ << line << '\n';
  journal_.flush();
  journal_bytes_ += incoming;
}

std::uint64_t TelemetryHub::subscribe(EventSink sink) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_sink_++;
  sinks_[id] = std::move(sink);
  return id;
}

void TelemetryHub::unsubscribe(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mu_);
  sinks_.erase(id);
}

std::size_t TelemetryHub::subscribers() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sinks_.size();
}

void TelemetryHub::set_scrape_provider(ScrapeProvider provider) {
  const std::lock_guard<std::mutex> lock(mu_);
  provider_ = std::move(provider);
}

void TelemetryHub::run_scrape_provider() {
  ScrapeProvider provider;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    provider = provider_;
  }
  // Unlocked: the provider calls back into service/scheduler/cache locks
  // and then into this hub's setters.
  if (provider) provider(*this);
}

JsonValue TelemetryHub::snapshot_locked() const {
  JsonValue snap = JsonValue::make_object();
  JsonValue cs = JsonValue::make_object();
  for (const auto& [name, value] : counters_)
    cs.set(name, JsonValue::make_number(static_cast<double>(value)));
  cs.set("telemetry_events",
         JsonValue::make_number(static_cast<double>(events_)));
  snap.set("counters", std::move(cs));
  JsonValue gs = JsonValue::make_object();
  for (const auto& [name, value] : gauges_)
    gs.set(name, JsonValue::make_number(value));
  snap.set("gauges", std::move(gs));
  JsonValue hs = JsonValue::make_object();
  for (const auto& [name, summary] : histograms_) {
    JsonValue h = JsonValue::make_object();
    h.set("count", JsonValue::make_number(
                       static_cast<double>(summary.log2_hist.total())));
    h.set("sum_us", JsonValue::make_number(summary.sum_us));
    h.set("p50", JsonValue::make_number(
                     from_log2_domain(summary.log2_hist.quantile(0.5))));
    h.set("p90", JsonValue::make_number(
                     from_log2_domain(summary.log2_hist.quantile(0.9))));
    h.set("p99", JsonValue::make_number(
                     from_log2_domain(summary.log2_hist.quantile(0.99))));
    hs.set(name, std::move(h));
  }
  snap.set("histograms", std::move(hs));
  return snap;
}

std::string TelemetryHub::prometheus_text() {
  run_scrape_provider();
  const std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(4096);
  const auto emit_header = [&out](const std::string& family,
                                  const std::string& base,
                                  const char* type) {
    out += "# HELP " + family + " " + family_help(base) + "\n";
    out += "# TYPE " + family + " " + std::string(type) + "\n";
  };

  emit_header("rnoc_build_info", "build_info", "gauge");
  out += "rnoc_build_info{git_sha=\"" + cfg_.git_sha +
         "\",schema_version=\"" + std::to_string(campaign::kSchemaVersion) +
         "\",telemetry_schema=\"" + std::to_string(kTelemetrySchema) +
         "\"} 1\n";
  emit_header("rnoc_uptime_seconds", "uptime_seconds", "gauge");
  out += "rnoc_uptime_seconds " +
         fmt_value(static_cast<double>(now_us()) / 1e6) + "\n";

  std::map<std::string, std::uint64_t> counters = counters_;
  counters["telemetry_events"] = events_;
  counters["telemetry_spans_recorded"] = spans_recorded_;
  for (const auto& [name, value] : counters) {
    const std::string family = "rnoc_" + name + "_total";
    emit_header(family, name, "counter");
    out += family + " " + std::to_string(value) + "\n";
  }

  std::string last_family;
  for (const auto& [name, value] : gauges_) {
    const std::string base = family_of(name);
    const std::string family = "rnoc_" + base;
    if (family != last_family) {
      emit_header(family, base, "gauge");
      last_family = family;
    }
    out += prefixed_sample(family, name) + " " + fmt_value(value) + "\n";
  }

  for (const auto& [name, summary] : histograms_) {
    const std::string family = "rnoc_" + name;
    emit_header(family, name, "summary");
    for (const double q : {0.5, 0.9, 0.99}) {
      out += family + "{quantile=\"" + fmt_value(q) + "\"} " +
             fmt_value(from_log2_domain(summary.log2_hist.quantile(q))) +
             "\n";
    }
    out += family + "_sum " + fmt_value(summary.sum_us) + "\n";
    out += family + "_count " + std::to_string(summary.log2_hist.total()) +
           "\n";
  }
  return out;
}

std::string TelemetryHub::metrics_json() {
  run_scrape_provider();
  const std::lock_guard<std::mutex> lock(mu_);
  JsonValue o = JsonValue::make_object();
  o.set("telemetry_schema", JsonValue::make_number(kTelemetrySchema));
  o.set("schema_version", JsonValue::make_number(campaign::kSchemaVersion));
  o.set("git_sha", JsonValue::make_string(cfg_.git_sha));
  o.set("uptime_seconds",
        JsonValue::make_number(static_cast<double>(now_us()) / 1e6));
  const JsonValue snap = snapshot_locked();
  for (const auto& [key, value] : snap.members()) o.set(key, value);
  JsonValue spans = JsonValue::make_object();
  spans.set("recorded",
            JsonValue::make_number(static_cast<double>(spans_recorded_)));
  spans.set("dropped", JsonValue::make_number(static_cast<double>(
                           spans_recorded_ - spans_.size())));
  spans.set("capacity", JsonValue::make_number(
                            static_cast<double>(cfg_.span_capacity)));
  o.set("spans", std::move(spans));
  JsonValue journal = JsonValue::make_object();
  journal.set("bytes",
              JsonValue::make_number(static_cast<double>(journal_bytes_)));
  journal.set("rotations", JsonValue::make_number(
                               static_cast<double>(journal_rotations_)));
  o.set("journal", std::move(journal));
  return to_wire_line(o);
}

std::string TelemetryHub::span_trace_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  // Ring order: oldest first so Perfetto sees time flowing forward.
  std::vector<const SpanRecord*> ordered;
  ordered.reserve(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    ordered.push_back(&spans_[(span_head_ + i) % spans_.size()]);

  // One B and one E per span; within a (pid, tid) track, sorting by
  // timestamp with B before E at ties keeps every prefix balanced even
  // for overlapping intervals (every E's span began at or before it).
  struct Ev {
    std::uint64_t ts;
    int phase;  ///< 0 = B, 1 = E (tie-break order).
    const SpanRecord* span;
  };
  std::vector<Ev> evs;
  evs.reserve(ordered.size() * 2);
  for (const SpanRecord* s : ordered) {
    evs.push_back({s->start_us, 0, s});
    evs.push_back({s->end_us < s->start_us ? s->start_us : s->end_us, 1, s});
  }
  std::stable_sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.phase < b.phase;
  });

  const auto track_of = [](const SpanRecord& s) {
    // pid 0 = service (request/expand on the job's own tid); pid w+1 =
    // worker w with tid = lane for execution, kLanes+lane for queue-wait.
    std::pair<std::uint64_t, std::uint64_t> t{0, s.job};
    if (s.kind == SpanKind::QueueWait)
      t = {static_cast<std::uint64_t>(s.worker + 1),
           2 + static_cast<std::uint64_t>(s.lane)};
    else if (s.kind == SpanKind::Execute || s.kind == SpanKind::CacheHit)
      t = {static_cast<std::uint64_t>(s.worker + 1),
           static_cast<std::uint64_t>(s.lane)};
    return t;
  };

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  const auto append = [&out, &first](const std::string& ev) {
    if (!first) out += ",";
    first = false;
    out += ev;
  };

  // Metadata: name the processes and threads that actually appear.
  std::map<std::uint64_t, std::string> procs;
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::string> tracks;
  const char* kLaneNames[] = {"interactive", "bulk", "queue-wait interactive",
                              "queue-wait bulk"};
  for (const SpanRecord* s : ordered) {
    const auto [pid, tid] = track_of(*s);
    procs.emplace(pid, pid == 0 ? "service"
                                : "worker " + std::to_string(pid - 1));
    tracks.emplace(std::make_pair(pid, tid),
                   pid == 0 ? "job " + std::to_string(tid)
                            : std::string(kLaneNames[tid < 4 ? tid : 3]));
  }
  for (const auto& [pid, name] : procs)
    append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":" +
           campaign::json_quote(name) + "}}");
  for (const auto& [track, name] : tracks)
    append("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
           std::to_string(track.first) + ",\"tid\":" +
           std::to_string(track.second) + ",\"args\":{\"name\":" +
           campaign::json_quote(name) + "}}");

  for (const Ev& ev : evs) {
    const SpanRecord& s = *ev.span;
    const auto [pid, tid] = track_of(s);
    std::string e = "{\"name\":";
    e += campaign::json_quote(span_kind_name(s.kind));
    e += ",\"ph\":\"";
    e += ev.phase == 0 ? 'B' : 'E';
    e += "\",\"ts\":" + std::to_string(ev.ts);
    e += ",\"pid\":" + std::to_string(pid);
    e += ",\"tid\":" + std::to_string(tid);
    if (ev.phase == 0) {
      e += ",\"args\":{\"job\":" + std::to_string(s.job);
      switch (s.kind) {
        case SpanKind::Request:
          e += ",\"campaign\":" + campaign::json_quote(s.id);
          e += ",\"points\":" + std::to_string(s.aux);
          e += std::string(",\"ok\":") + (s.ok ? "true" : "false");
          break;
        case SpanKind::Expand:
          e += ",\"campaign\":" + campaign::json_quote(s.id);
          e += ",\"points\":" + std::to_string(s.aux);
          break;
        case SpanKind::QueueWait:
        case SpanKind::Execute:
        case SpanKind::CacheHit:
          e += ",\"id\":" + campaign::json_quote(s.id);
          break;
      }
      e += "}";
    }
    e += "}";
    append(e);
  }

  out += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"git_sha\":" +
         campaign::json_quote(cfg_.git_sha) +
         ",\"telemetry_schema\":" + std::to_string(kTelemetrySchema) +
         ",\"spans_recorded\":" + std::to_string(spans_recorded_) +
         ",\"spans_dropped\":" +
         std::to_string(spans_recorded_ - spans_.size()) + "}}";
  return out;
}

void TelemetryHub::write_span_trace(const std::string& path) const {
  campaign::write_text_atomic(path, span_trace_json());
}

void TelemetryHub::emit_metrics_event() {
  run_scrape_provider();
  JsonValue fields;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    fields = snapshot_locked();
  }
  event("metrics", std::move(fields));
}

void TelemetryHub::ticker_loop() {
  std::unique_lock<std::mutex> lock(tick_mu_);
  while (!tick_stop_) {
    tick_cv_.wait_for(lock,
                      std::chrono::milliseconds(cfg_.tick_interval_ms),
                      [this] { return tick_stop_; });
    if (tick_stop_) break;
    if (subscribers() == 0) continue;  // Nobody is watching; stay quiet.
    lock.unlock();
    emit_metrics_event();
    lock.lock();
  }
}

TelemetryHub::Stats TelemetryHub::hub_stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.spans_recorded = spans_recorded_;
  s.spans_dropped = spans_recorded_ - spans_.size();
  s.events = events_;
  s.journal_rotations = journal_rotations_;
  s.journal_bytes = journal_bytes_;
  return s;
}

}  // namespace rnoc::serve
