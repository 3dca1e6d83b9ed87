// Campaign-engine contract tests: kill/resume produces a byte-identical
// result file, results are invariant under the shard count, the JSON schema
// round-trips losslessly, stale checkpoints (another spec or another git
// SHA) are invalidated, and the registry exposes every paper artifact.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/registry.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace fs = std::filesystem;
using namespace rnoc;
using namespace rnoc::campaign;

namespace {

/// Unique scratch directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path = fs::temp_directory_path() /
           ("rnoc_campaign_test_" + tag + "_" +
            std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// A deterministic toy campaign: per-point pseudo-random metrics derived
/// only from the point seed, with awkward double values to stress the
/// shortest-round-trip double serialization.
CampaignSpec toy_spec(int points = 12) {
  CampaignSpec spec;
  spec.name = "toy";
  spec.artifact = "Test";
  spec.description = "engine contract fixture";
  spec.seed = 1234;
  spec.point_ids = [points](bool smoke) {
    std::vector<std::string> ids;
    for (int i = 0; i < (smoke ? points / 2 : points); ++i)
      ids.push_back("p" + std::to_string(i));
    return ids;
  };
  spec.run_point = [](std::size_t index, std::uint64_t seed, bool smoke) {
    Rng rng(seed);
    RunningStats stats;
    for (int i = 0; i < 100; ++i) stats.add(rng.next_double());
    PointOutput out{std::vector<Metric>{
        exact_metric("index", static_cast<double>(index)),
        exact_metric("awkward", 0.1 + 1e-9 * rng.next_double()),
        exact_metric("large", 1e17 + static_cast<double>(seed % 1000)),
        stat_metric("mc", stats),
        exact_metric("smoke_flag", smoke ? 1.0 : 0.0),
    }};
    // Schema v2 observability block on every other point, so the round-trip
    // and kill/resume tests cover both the present and the absent case.
    if (index % 2 == 0)
      out.obs = {exact_metric("stall_cycles",
                              static_cast<double>(seed % 9973))};
    return out;
  };
  return spec;
}

RunOptions opts_with(const std::string& ckpt_dir, int shards = 4) {
  RunOptions o;
  o.smoke = false;
  o.shards = shards;
  o.checkpoint_dir = ckpt_dir;
  o.git_sha = "testsha";
  return o;
}

TEST(CampaignEngine, KillAndResumeIsByteIdentical) {
  const CampaignSpec spec = toy_spec();

  // Reference: one uninterrupted run.
  TempDir ref_dir("ref");
  const RunOutcome ref = run_campaign(spec, opts_with(ref_dir.str()));
  ASSERT_TRUE(ref.complete);
  EXPECT_EQ(ref.shards_resumed, 0);
  EXPECT_EQ(ref.shards_run, ref.shards_total);

  // Killed run: stop after 2 of 4 shards, then resume.
  TempDir kill_dir("kill");
  RunOptions killed = opts_with(kill_dir.str());
  killed.stop_after_shards = 2;
  const RunOutcome partial = run_campaign(spec, killed);
  EXPECT_FALSE(partial.complete);

  RunOptions resume = opts_with(kill_dir.str());
  const RunOutcome resumed = run_campaign(spec, resume);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.shards_resumed, 2);
  EXPECT_EQ(resumed.shards_run, resumed.shards_total - 2);

  EXPECT_EQ(to_json(ref.result), to_json(resumed.result))
      << "resumed run must serialize byte-identically";

  // And through the file layer too.
  const std::string ref_file = ref_dir.str() + "/toy.json";
  const std::string res_file = kill_dir.str() + "/toy.json";
  write_result_file(ref.result, ref_file);
  write_result_file(resumed.result, res_file);
  EXPECT_EQ(to_json(read_result_file(ref_file)),
            to_json(read_result_file(res_file)));
}

TEST(CampaignEngine, ResultInvariantUnderShardCount) {
  const CampaignSpec spec = toy_spec();
  std::string baseline;
  for (const int shards : {1, 2, 5, 12}) {
    TempDir dir("shards");
    const RunOutcome out = run_campaign(spec, opts_with(dir.str(), shards));
    ASSERT_TRUE(out.complete);
    const std::string json = to_json(out.result);
    if (baseline.empty())
      baseline = json;
    else
      EXPECT_EQ(baseline, json) << "shards=" << shards;
  }
  // Checkpointing disabled entirely must not change values either
  // (run_inline has no git SHA, so normalize that one metadata field).
  CampaignResult inline_result = run_inline(spec, false);
  inline_result.git_sha = "testsha";
  EXPECT_EQ(baseline, to_json(inline_result));
}

TEST(CampaignEngine, SchemaRoundTripsLosslessly) {
  const CampaignResult r = run_inline(toy_spec(), false);
  const std::string once = to_json(r);
  const CampaignResult back = result_from_json(once);
  EXPECT_EQ(once, to_json(back));
  EXPECT_EQ(back.schema_version, kSchemaVersion);
  EXPECT_EQ(back.campaign, "toy");
  EXPECT_EQ(back.config_hash, r.config_hash);
  EXPECT_EQ(back.seed, r.seed);
  ASSERT_EQ(back.points.size(), r.points.size());
  // Doubles survive exactly, including the deliberately awkward ones.
  for (std::size_t p = 0; p < r.points.size(); ++p)
    for (std::size_t m = 0; m < r.points[p].metrics.size(); ++m) {
      EXPECT_EQ(back.points[p].metrics[m].value, r.points[p].metrics[m].value);
      EXPECT_EQ(back.points[p].metrics[m].ci95, r.points[p].metrics[m].ci95);
    }
  // The v2 obs block round-trips too, including its absence.
  for (std::size_t p = 0; p < r.points.size(); ++p) {
    ASSERT_EQ(back.points[p].obs.size(), r.points[p].obs.size());
    EXPECT_EQ(r.points[p].obs.empty(), p % 2 != 0);
    for (std::size_t m = 0; m < r.points[p].obs.size(); ++m) {
      EXPECT_EQ(back.points[p].obs[m].name, r.points[p].obs[m].name);
      EXPECT_EQ(back.points[p].obs[m].value, r.points[p].obs[m].value);
    }
  }
}

TEST(CampaignEngine, LargeSeedsRoundTripExactly) {
  // Seeds are serialized as decimal strings: a JSON number (double) is only
  // exact below 2^53, and the full uint64 range must survive the file layer.
  CampaignSpec spec = toy_spec(2);
  spec.seed = 0xfedcba9876543210ull;  // far above 2^53
  const CampaignResult r = run_inline(spec, true);
  const CampaignResult back = result_from_json(to_json(r));
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(to_json(back), to_json(r));
  // Legacy files that wrote the seed as a JSON number still parse.
  const CampaignResult legacy = result_from_json(
      "{\"schema_version\": 1, \"campaign\": \"x\", \"artifact\": \"\", "
      "\"config_hash\": \"h\", \"git_sha\": \"s\", \"smoke\": true, "
      "\"seed\": 1234, \"points\": []}");
  EXPECT_EQ(legacy.seed, 1234u);
  EXPECT_THROW(result_from_json(
                   "{\"schema_version\": 1, \"campaign\": \"x\", "
                   "\"artifact\": \"\", \"config_hash\": \"h\", "
                   "\"git_sha\": \"s\", \"smoke\": true, "
                   "\"seed\": \"12x4\", \"points\": []}"),
               std::invalid_argument);
}

TEST(CampaignEngine, StaleCheckpointsAreInvalidated) {
  CampaignSpec spec = toy_spec();
  TempDir dir("stale");
  RunOptions killed = opts_with(dir.str());
  killed.stop_after_shards = 2;
  ASSERT_FALSE(run_campaign(spec, killed).complete);

  // A config_tag bump (the author changed the experiment) must invalidate
  // the existing shard checkpoints rather than resume from them.
  spec.config_tag = "v2";
  const RunOutcome out = run_campaign(spec, opts_with(dir.str()));
  ASSERT_TRUE(out.complete);
  EXPECT_EQ(out.shards_resumed, 0);
  EXPECT_EQ(out.shards_run, out.shards_total);
}

TEST(CampaignEngine, CheckpointsResumeOnlyUnderTheirGitSha) {
  // Kept checkpoints are the warm-rerun path: the same code (same SHA)
  // reuses every shard without running a point, and any other SHA reruns
  // them all, since the points may compute differently now.
  CampaignSpec spec = toy_spec();
  std::atomic<int> computed{0};
  const auto run_point = spec.run_point;
  spec.run_point = [&computed, run_point](std::size_t i, std::uint64_t seed,
                                          bool smoke) {
    computed.fetch_add(1);
    return run_point(i, seed, smoke);
  };
  TempDir dir("sha");
  RunOptions a = opts_with(dir.str());
  a.git_sha = "sha-a";
  const RunOutcome cold = run_campaign(spec, a);
  ASSERT_TRUE(cold.complete);
  EXPECT_EQ(computed.load(), 12);

  computed = 0;
  const RunOutcome warm = run_campaign(spec, a);
  ASSERT_TRUE(warm.complete);
  EXPECT_EQ(warm.shards_resumed, warm.shards_total);
  EXPECT_EQ(warm.shards_run, 0);
  EXPECT_EQ(computed.load(), 0);
  EXPECT_EQ(to_json(cold.result), to_json(warm.result));

  RunOptions b = opts_with(dir.str());
  b.git_sha = "sha-b";
  const RunOutcome changed = run_campaign(spec, b);
  ASSERT_TRUE(changed.complete);
  EXPECT_EQ(changed.shards_resumed, 0);
  EXPECT_EQ(changed.shards_run, changed.shards_total);
  EXPECT_EQ(computed.load(), 12);
  EXPECT_EQ(changed.result.git_sha, "sha-b");

  // A run killed under one SHA and resumed under another keeps none of its
  // shards, and still matches an uninterrupted run byte for byte.
  TempDir kill_dir("sha_kill");
  RunOptions killed = opts_with(kill_dir.str());
  killed.git_sha = "sha-a";
  killed.stop_after_shards = 2;
  ASSERT_FALSE(run_campaign(spec, killed).complete);
  RunOptions resume = opts_with(kill_dir.str());
  resume.git_sha = "sha-b";
  const RunOutcome resumed = run_campaign(spec, resume);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.shards_resumed, 0);
  EXPECT_EQ(to_json(changed.result), to_json(resumed.result));
}

TEST(CampaignEngine, SmokeAndFullModesAreDistinctExperiments) {
  const CampaignSpec spec = toy_spec();
  const CampaignResult full = run_inline(spec, false);
  const CampaignResult smoke = run_inline(spec, true);
  EXPECT_NE(full.config_hash, smoke.config_hash);
  EXPECT_LT(smoke.points.size(), full.points.size());
  EXPECT_TRUE(smoke.smoke);
  EXPECT_FALSE(full.smoke);
}

TEST(CampaignEngine, PointSeedsAreStableAndDistinct) {
  // Pinned values: changing the derivation silently invalidates every
  // golden file, so it must not happen by accident.
  EXPECT_EQ(derive_point_seed(1, 0), derive_point_seed(1, 0));
  EXPECT_NE(derive_point_seed(1, 0), derive_point_seed(1, 1));
  EXPECT_NE(derive_point_seed(1, 0), derive_point_seed(2, 0));
  std::vector<std::uint64_t> seen;
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t s = derive_point_seed(42, i);
    for (const std::uint64_t prior : seen) EXPECT_NE(s, prior);
    seen.push_back(s);
  }
}

TEST(CampaignEngine, MalformedSpecsAreRejected) {
  CampaignSpec spec;  // no point_ids / run_point
  spec.name = "broken";
  EXPECT_THROW(run_inline(spec, false), std::invalid_argument);
  EXPECT_THROW(result_from_json("{not json"), std::invalid_argument);
  EXPECT_THROW(result_from_json("{\"schema_version\": 999}"),
               std::invalid_argument);
}

TEST(CampaignRegistry, CoversEveryPaperArtifact) {
  const auto& specs = campaign_registry();
  EXPECT_GE(specs.size(), 10u) << "the registry must enumerate >= 10 "
                                  "campaigns (ISSUE acceptance criterion)";
  std::vector<std::string> names;
  for (const auto& spec : specs) {
    SCOPED_TRACE(spec.name);
    for (const std::string& prior : names) EXPECT_NE(spec.name, prior);
    names.push_back(spec.name);
    EXPECT_FALSE(spec.artifact.empty());
    EXPECT_FALSE(spec.description.empty());
    ASSERT_TRUE(spec.point_ids);
    ASSERT_TRUE(spec.run_point);
    const auto full_ids = spec.point_ids(false);
    const auto smoke_ids = spec.point_ids(true);
    EXPECT_FALSE(full_ids.empty());
    EXPECT_FALSE(smoke_ids.empty());
    EXPECT_LE(smoke_ids.size(), full_ids.size());
    EXPECT_EQ(find_campaign(spec.name), &spec);
  }
  EXPECT_EQ(find_campaign("no_such_campaign"), nullptr);
}

TEST(CampaignRegistry, FitTable1SmokeReproducesPaperRow) {
  // The cheapest registered campaign end-to-end, checked against the
  // paper's Table I row (the repo's own FIT tests pin these already).
  const CampaignResult r = run_registry_inline("fit_table1", true);
  EXPECT_EQ(r.campaign, "fit_table1");
  EXPECT_NEAR(r.value("stages", "rc_fit"), 117.0, 1.0);
  EXPECT_NEAR(r.value("stages", "va_fit"), 1478.0, 1.0);
  EXPECT_NEAR(r.value("stages", "total_fit_as_printed"), 2822.0, 1.0);
  // Engine smoke/full flags flow through to the result.
  EXPECT_TRUE(r.smoke);
  EXPECT_EQ(r.git_sha, "unknown");
}

TEST(CampaignRegistry, RegisteredRunsAreRerunDeterministic) {
  // Same campaign, run twice in-process: identical serialization. Uses a
  // synthesis-only campaign so the test stays milliseconds-sized.
  const std::string a = to_json(run_registry_inline("critical_path", true));
  const std::string b = to_json(run_registry_inline("critical_path", true));
  EXPECT_EQ(a, b);
}

}  // namespace
