#include "campaign/engine.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <utility>

#include "campaign/json.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace fs = std::filesystem;

namespace rnoc::campaign {

Metric exact_metric(std::string name, double value) {
  return {std::move(name), value, 0.0, MetricKind::Exact};
}

Metric stat_metric(std::string name, double value, double ci95) {
  return {std::move(name), value, ci95, MetricKind::Statistical};
}

Metric stat_metric(std::string name, const RunningStats& s) {
  return {std::move(name), s.mean(), s.ci95_halfwidth(),
          MetricKind::Statistical};
}

const PointResult* CampaignResult::find_point(const std::string& id) const {
  for (const auto& p : points)
    if (p.id == id) return &p;
  return nullptr;
}

double CampaignResult::value(const std::string& point_id,
                             const std::string& metric) const {
  const PointResult* p = find_point(point_id);
  require(p != nullptr, "campaign " + campaign + ": no point '" + point_id +
                            "'");
  for (const auto& m : p->metrics)
    if (m.name == metric) return m.value;
  throw std::invalid_argument("campaign " + campaign + ": point '" + point_id +
                              "' has no metric '" + metric + "'");
}

std::uint64_t derive_point_seed(std::uint64_t campaign_seed,
                                std::size_t point_index) {
  // SplitMix64 over the combined key: consecutive indices map to
  // statistically independent streams, and the mapping depends on nothing
  // but (seed, index) — not the shard layout, not the thread schedule.
  std::uint64_t z =
      campaign_seed + 0x9e3779b97f4a7c15ull * (point_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  // Separator so {"ab","c"} and {"a","bc"} hash differently.
  h ^= 0xff;
  h *= 0x100000001b3ull;
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

const char* kind_name(MetricKind k) {
  return k == MetricKind::Exact ? "exact" : "stat";
}

MetricKind kind_from_name(const std::string& s) {
  if (s == "exact") return MetricKind::Exact;
  require(s == "stat", "campaign: unknown metric kind '" + s + "'");
  return MetricKind::Statistical;
}

JsonValue metric_to_json(const Metric& m) {
  JsonValue o = JsonValue::make_object();
  o.set("name", JsonValue::make_string(m.name));
  o.set("value", JsonValue::make_number(m.value));
  o.set("ci95", JsonValue::make_number(m.ci95));
  o.set("kind", JsonValue::make_string(kind_name(m.kind)));
  return o;
}

Metric metric_from_json(const JsonValue& v) {
  Metric m;
  m.name = v.at("name").as_string();
  m.value = v.at("value").as_number();
  m.ci95 = v.at("ci95").as_number();
  m.kind = kind_from_name(v.at("kind").as_string());
  return m;
}

JsonValue point_to_json(const PointResult& p) {
  JsonValue o = JsonValue::make_object();
  o.set("id", JsonValue::make_string(p.id));
  JsonValue metrics = JsonValue::make_array();
  for (const auto& m : p.metrics) metrics.push_back(metric_to_json(m));
  o.set("metrics", std::move(metrics));
  // Points without an observability block serialize without the key, so the
  // analytic campaigns' files are unchanged apart from the version line.
  if (!p.obs.empty()) {
    JsonValue obs = JsonValue::make_array();
    for (const auto& m : p.obs) obs.push_back(metric_to_json(m));
    o.set("obs", std::move(obs));
  }
  return o;
}

PointResult point_from_json(const JsonValue& v) {
  PointResult p;
  p.id = v.at("id").as_string();
  for (const auto& m : v.at("metrics").items())
    p.metrics.push_back(metric_from_json(m));
  if (const JsonValue* obs = v.find("obs"))
    for (const auto& m : obs->items()) p.obs.push_back(metric_from_json(m));
  return p;
}

}  // namespace

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "campaign: cannot open " + path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

/// Writes atomically: tmp file in the target directory, then rename, so a
/// kill mid-write never leaves a truncated checkpoint behind.
void write_text_atomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    require(out.good(), "campaign: cannot write " + tmp);
    out << text;
    out.flush();
    require(out.good(), "campaign: short write to " + tmp);
  }
  fs::rename(tmp, path);
}

namespace {

std::string shard_path(const std::string& dir, const std::string& campaign,
                       int shard) {
  return (fs::path(dir) / (campaign + ".shard" + std::to_string(shard) +
                           ".json"))
      .string();
}

std::string shard_to_json_text(const std::string& campaign,
                               const std::string& config_hash,
                               const std::string& git_sha, int shard,
                               std::size_t first,
                               const std::vector<PointResult>& points) {
  JsonValue o = JsonValue::make_object();
  o.set("schema_version", JsonValue::make_number(kSchemaVersion));
  o.set("campaign", JsonValue::make_string(campaign));
  o.set("config_hash", JsonValue::make_string(config_hash));
  o.set("git_sha", JsonValue::make_string(git_sha));
  o.set("shard", JsonValue::make_number(shard));
  o.set("first_point", JsonValue::make_number(static_cast<double>(first)));
  JsonValue arr = JsonValue::make_array();
  for (const auto& p : points) arr.push_back(point_to_json(p));
  o.set("points", std::move(arr));
  return to_json_text(o);
}

/// Loads a shard checkpoint; returns false (and leaves `points` empty) when
/// the file is absent, unparsable, or was written for a different expanded
/// spec or under a different git SHA — any of which just means the shard
/// reruns.
bool load_shard_checkpoint(const std::string& path,
                           const std::string& campaign,
                           const std::string& config_hash,
                           const std::string& git_sha, int shard,
                           const std::vector<std::string>& expected_ids,
                           std::vector<PointResult>& points) {
  std::error_code ec;
  if (!fs::exists(path, ec)) return false;
  try {
    const JsonValue v = parse_json(read_text(path));
    if (v.at("schema_version").as_int() != kSchemaVersion) return false;
    if (v.at("campaign").as_string() != campaign) return false;
    if (v.at("config_hash").as_string() != config_hash) return false;
    if (v.at("git_sha").as_string() != git_sha) return false;
    if (v.at("shard").as_int() != shard) return false;
    const auto& arr = v.at("points").items();
    if (arr.size() != expected_ids.size()) return false;
    std::vector<PointResult> loaded;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      PointResult p = point_from_json(arr[i]);
      if (p.id != expected_ids[i]) return false;
      loaded.push_back(std::move(p));
    }
    points = std::move(loaded);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

struct ShardRange {
  std::size_t first = 0;
  std::size_t last = 0;  ///< One past the end.
};

ShardRange shard_range(std::size_t points, int shards, int k) {
  const auto s = static_cast<std::size_t>(shards);
  const auto i = static_cast<std::size_t>(k);
  return {points * i / s, points * (i + 1) / s};
}

int effective_shards(std::size_t points, int requested) {
  int shards = requested > 0
                   ? requested
                   : static_cast<int>(std::min<std::size_t>(points, 8));
  if (static_cast<std::size_t>(shards) > points)
    shards = static_cast<int>(points);
  return std::max(shards, 1);
}

}  // namespace

std::string spec_config_hash(const CampaignSpec& spec, bool smoke,
                             const std::vector<std::string>& ids) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a(h, spec.name);
  h = fnv1a(h, spec.config_tag);
  h = fnv1a(h, std::to_string(spec.seed));
  h = fnv1a(h, smoke ? "smoke" : "full");
  for (const auto& id : ids) h = fnv1a(h, id);
  return hex64(h);
}

std::vector<PointUnit> expand_point_units(const CampaignSpec& spec,
                                          bool smoke) {
  require(!spec.name.empty(), "campaign: spec has no name");
  require(static_cast<bool>(spec.point_ids), "campaign " + spec.name +
                                                 ": no point_ids function");
  std::vector<std::string> ids = spec.point_ids(smoke);
  require(!ids.empty(), "campaign " + spec.name + ": empty point grid");
  std::vector<PointUnit> units;
  units.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i)
    units.push_back({i, std::move(ids[i]), derive_point_seed(spec.seed, i)});
  return units;
}

RunOutcome run_campaign(const CampaignSpec& spec, const RunOptions& opts) {
  require(!spec.name.empty(), "campaign: spec has no name");
  require(static_cast<bool>(spec.point_ids), "campaign " + spec.name +
                                                 ": no point_ids function");
  require(static_cast<bool>(spec.run_point), "campaign " + spec.name +
                                                 ": no run_point function");
  const std::vector<std::string> ids = spec.point_ids(opts.smoke);
  require(!ids.empty(), "campaign " + spec.name + ": empty point grid");
  const int shards = effective_shards(ids.size(), opts.shards);
  const std::string hash = spec_config_hash(spec, opts.smoke, ids);
  const bool checkpointing = !opts.checkpoint_dir.empty();
  if (checkpointing) fs::create_directories(opts.checkpoint_dir);

  RunOutcome out;
  out.shards_total = shards;
  std::vector<std::vector<PointResult>> shard_points(
      static_cast<std::size_t>(shards));
  // vector<char>, not vector<bool>: pool workers set their own shard's flag
  // concurrently, and vector<bool> packs bits so distinct indices share a
  // word — a data race. Distinct char elements are distinct objects.
  std::vector<char> have(static_cast<std::size_t>(shards), 0);

  std::vector<int> to_run;
  for (int k = 0; k < shards; ++k) {
    const ShardRange r = shard_range(ids.size(), shards, k);
    if (checkpointing) {
      const std::vector<std::string> slice(ids.begin() + r.first,
                                           ids.begin() + r.last);
      if (load_shard_checkpoint(shard_path(opts.checkpoint_dir, spec.name, k),
                                spec.name, hash, opts.git_sha, k, slice,
                                shard_points[static_cast<std::size_t>(k)])) {
        have[static_cast<std::size_t>(k)] = 1;
        ++out.shards_resumed;
        continue;
      }
    }
    to_run.push_back(k);
  }

  bool stopped = false;
  if (opts.stop_after_shards >= 0 &&
      to_run.size() > static_cast<std::size_t>(opts.stop_after_shards)) {
    to_run.resize(static_cast<std::size_t>(opts.stop_after_shards));
    stopped = true;
  }

  // Progress accounting: resumed checkpoints count as already done; the
  // mutex serializes callback invocations across pool workers.
  std::mutex progress_mu;
  std::size_t points_done = 0;
  for (int k = 0; k < shards; ++k)
    if (have[static_cast<std::size_t>(k)])
      points_done += shard_points[static_cast<std::size_t>(k)].size();

  const auto run_shard = [&](int k) {
    const ShardRange r = shard_range(ids.size(), shards, k);
    std::vector<PointResult> pts;
    pts.reserve(r.last - r.first);
    for (std::size_t i = r.first; i < r.last; ++i) {
      PointOutput po =
          spec.run_point(i, derive_point_seed(spec.seed, i), opts.smoke);
      pts.push_back({ids[i], std::move(po.metrics), std::move(po.obs)});
      if (opts.progress) {
        const std::lock_guard<std::mutex> lock(progress_mu);
        opts.progress(++points_done, ids.size(), k, ids[i]);
      }
    }
    if (checkpointing)
      write_text_atomic(shard_path(opts.checkpoint_dir, spec.name, k),
                        shard_to_json_text(spec.name, hash, opts.git_sha, k,
                                           r.first, pts));
    shard_points[static_cast<std::size_t>(k)] = std::move(pts);
    have[static_cast<std::size_t>(k)] = 1;
  };

  if (to_run.size() <= 1) {
    for (const int k : to_run) run_shard(k);
  } else {
    global_pool().parallel_for(to_run.size(), [&](std::size_t j, std::size_t) {
      run_shard(to_run[static_cast<std::size_t>(j)]);
    });
  }
  out.shards_run = static_cast<int>(to_run.size());
  if (stopped) return out;

  CampaignResult res;
  res.campaign = spec.name;
  res.artifact = spec.artifact;
  res.config_hash = hash;
  res.git_sha = opts.git_sha;
  res.smoke = opts.smoke;
  res.seed = spec.seed;
  for (int k = 0; k < shards; ++k) {
    require(have[static_cast<std::size_t>(k)],
            "campaign " + spec.name + ": shard " + std::to_string(k) +
                " missing after run");
    for (auto& p : shard_points[static_cast<std::size_t>(k)])
      res.points.push_back(std::move(p));
  }
  out.result = std::move(res);
  out.complete = true;
  return out;
}

CampaignResult run_inline(const CampaignSpec& spec, bool smoke) {
  RunOptions opts;
  opts.smoke = smoke;
  const RunOutcome out = run_campaign(spec, opts);
  return out.result;
}

void remove_checkpoints(const CampaignSpec& spec, const RunOptions& opts) {
  if (opts.checkpoint_dir.empty()) return;
  const std::vector<std::string> ids = spec.point_ids(opts.smoke);
  const int shards = effective_shards(ids.size(), opts.shards);
  std::error_code ec;
  for (int k = 0; k < shards; ++k)
    fs::remove(shard_path(opts.checkpoint_dir, spec.name, k), ec);
}

std::string to_json(const CampaignResult& r) {
  JsonValue o = JsonValue::make_object();
  o.set("schema_version", JsonValue::make_number(r.schema_version));
  o.set("campaign", JsonValue::make_string(r.campaign));
  o.set("artifact", JsonValue::make_string(r.artifact));
  o.set("config_hash", JsonValue::make_string(r.config_hash));
  o.set("git_sha", JsonValue::make_string(r.git_sha));
  o.set("smoke", JsonValue::make_bool(r.smoke));
  // Decimal string, not a JSON number: a double only represents integers
  // exactly up to 2^53, and the full uint64 seed range must round-trip.
  o.set("seed", JsonValue::make_string(std::to_string(r.seed)));
  JsonValue points = JsonValue::make_array();
  for (const auto& p : r.points) points.push_back(point_to_json(p));
  o.set("points", std::move(points));
  return to_json_text(o);
}

CampaignResult result_from_json(const std::string& text) {
  const JsonValue v = parse_json(text);
  CampaignResult r;
  r.schema_version = static_cast<int>(v.at("schema_version").as_int());
  // v1 files are a strict subset of v2 (no per-point "obs" block), so they
  // still parse; anything newer than this build is rejected.
  require(r.schema_version >= 1 && r.schema_version <= kSchemaVersion,
          "campaign: unsupported schema_version " +
              std::to_string(r.schema_version));
  r.campaign = v.at("campaign").as_string();
  r.artifact = v.at("artifact").as_string();
  r.config_hash = v.at("config_hash").as_string();
  r.git_sha = v.at("git_sha").as_string();
  r.smoke = v.at("smoke").as_bool();
  const JsonValue& seed = v.at("seed");
  if (seed.is(JsonValue::Type::String)) {
    std::size_t used = 0;
    r.seed = std::stoull(seed.as_string(), &used);
    require(used == seed.as_string().size(),
            "campaign: malformed seed '" + seed.as_string() + "'");
  } else {
    // Legacy files serialized the seed as a JSON number (exact < 2^53).
    r.seed = static_cast<std::uint64_t>(seed.as_int());
  }
  for (const auto& p : v.at("points").items())
    r.points.push_back(point_from_json(p));
  return r;
}

void write_result_file(const CampaignResult& r, const std::string& path) {
  const fs::path p(path);
  if (p.has_parent_path()) fs::create_directories(p.parent_path());
  write_text_atomic(path, to_json(r));
}

CampaignResult read_result_file(const std::string& path) {
  return result_from_json(read_text(path));
}

std::string format_result(const CampaignResult& r) {
  std::string out = "== " + r.campaign;
  if (!r.artifact.empty()) out += " (" + r.artifact + ")";
  out += r.smoke ? " [smoke]\n" : "\n";
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-22s %-34s %16s %12s\n", "point", "metric",
                "value", "ci95");
  out += buf;
  for (const auto& p : r.points) {
    for (const auto& m : p.metrics) {
      if (m.kind == MetricKind::Statistical)
        std::snprintf(buf, sizeof buf, "%-22s %-34s %16.6g %12.3g\n",
                      p.id.c_str(), m.name.c_str(), m.value, m.ci95);
      else
        std::snprintf(buf, sizeof buf, "%-22s %-34s %16.6g %12s\n",
                      p.id.c_str(), m.name.c_str(), m.value, "");
      out += buf;
    }
  }
  return out;
}

std::string read_git_sha(const std::string& start_dir) {
  std::error_code ec;
  fs::path dir = fs::absolute(start_dir, ec);
  if (ec) return "unknown";
  for (int depth = 0; depth < 16 && !dir.empty(); ++depth) {
    const fs::path git = dir / ".git";
    if (fs::is_directory(git, ec)) {
      try {
        std::string head = read_text((git / "HEAD").string());
        while (!head.empty() && (head.back() == '\n' || head.back() == '\r'))
          head.pop_back();
        if (head.rfind("ref: ", 0) == 0) {
          std::string ref = read_text((git / head.substr(5)).string());
          while (!ref.empty() && (ref.back() == '\n' || ref.back() == '\r'))
            ref.pop_back();
          return ref.empty() ? "unknown" : ref;
        }
        return head.empty() ? "unknown" : head;
      } catch (const std::exception&) {
        return "unknown";
      }
    }
    const fs::path parent = dir.parent_path();
    if (parent == dir) break;
    dir = parent;
  }
  return "unknown";
}

}  // namespace rnoc::campaign
