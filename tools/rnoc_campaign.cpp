// rnoc_campaign — the one experiment driver for every paper figure.
//
//   rnoc_campaign --list
//       Enumerate the registered campaigns.
//   rnoc_campaign [--smoke] [--out DIR] [--shards N] [--print]
//       Run every campaign and write results/<campaign>.json files.
//   rnoc_campaign --run NAME [--smoke] ...
//       Run one campaign.
//
// Runs checkpoint completed shards under <out>/.checkpoints/: a killed run
// re-invoked with the same arguments resumes from the finished shards and
// produces a byte-identical result file (the engine's determinism contract).
// Checkpoints are removed after each campaign completes; pass --keep-checkpoints
// to retain them, or --fresh to discard existing ones up front. Kept
// checkpoints make a rerun warm: each carries the git SHA (or --git-sha) it
// was computed under, and only shards from the same SHA are reused, so a
// rerun after a code change recomputes everything.
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "campaign/engine.hpp"
#include "campaign/registry.hpp"
#include "common/options.hpp"

using namespace rnoc;

namespace {

int list_campaigns() {
  std::printf("%-22s %-12s %7s %7s  %s\n", "campaign", "artifact", "points",
              "smoke", "description");
  for (const auto& spec : campaign::campaign_registry()) {
    std::printf("%-22s %-12s %7zu %7zu  %s\n", spec.name.c_str(),
                spec.artifact.c_str(), spec.point_ids(false).size(),
                spec.point_ids(true).size(), spec.description.c_str());
  }
  std::printf("%zu campaigns registered\n",
              campaign::campaign_registry().size());
  return 0;
}

int select_specs(const Options& opt,
                 std::vector<const campaign::CampaignSpec*>& specs) {
  if (opt.has("run")) {
    const std::string name = opt.get("run", "");
    const campaign::CampaignSpec* spec = campaign::find_campaign(name);
    if (!spec) {
      std::fprintf(stderr,
                   "rnoc_campaign: unknown campaign '%s' (see --list)\n",
                   name.c_str());
      return 2;
    }
    specs.push_back(spec);
  } else {
    for (const auto& spec : campaign::campaign_registry())
      specs.push_back(&spec);
  }
  return 0;
}

int run_campaigns(const Options& opt) {
  const bool smoke = opt.get_bool("smoke", false);
  const std::string out_dir = opt.get("out", "results");
  const std::string ckpt_dir =
      opt.get("checkpoint-dir", out_dir + "/.checkpoints");

  std::vector<const campaign::CampaignSpec*> specs;
  if (const int rc = select_specs(opt, specs); rc != 0) return rc;

  campaign::RunOptions run_opts;
  run_opts.smoke = smoke;
  run_opts.shards = static_cast<int>(opt.get_int("shards", 0));
  run_opts.checkpoint_dir = ckpt_dir;
  run_opts.git_sha = opt.get("git-sha", campaign::read_git_sha("."));

  std::string current;  // Campaign being run; read only by the callback.
  if (opt.get_bool("progress", false)) {
    run_opts.progress = [&current](std::size_t done, std::size_t total,
                                   int shard, const std::string& id) {
      std::printf("  [%s] point %zu/%zu (shard %d): %s\n", current.c_str(),
                  done, total, shard, id.c_str());
      std::fflush(stdout);
    };
  }

  for (const campaign::CampaignSpec* spec : specs) {
    current = spec->name;
    if (opt.get_bool("fresh", false))
      campaign::remove_checkpoints(*spec, run_opts);
    const campaign::RunOutcome outcome =
        campaign::run_campaign(*spec, run_opts);
    if (!outcome.complete) {
      std::fprintf(stderr, "rnoc_campaign: %s did not complete\n",
                   spec->name.c_str());
      return 1;
    }
    const std::string path = out_dir + "/" + spec->name + ".json";
    campaign::write_result_file(outcome.result, path);
    if (!opt.get_bool("keep-checkpoints", false))
      campaign::remove_checkpoints(*spec, run_opts);
    std::printf("campaign %-22s %3zu points  %d/%d shards run, %d resumed"
                "  -> %s\n",
                spec->name.c_str(), outcome.result.points.size(),
                outcome.shards_run, outcome.shards_total,
                outcome.shards_resumed, path.c_str());
    if (opt.get_bool("print", false))
      std::printf("%s\n", campaign::format_result(outcome.result).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt(argc, argv,
                      {"list", "run", "smoke", "out", "checkpoint-dir",
                       "shards", "git-sha", "fresh", "keep-checkpoints",
                       "print", "progress", "help"});
    if (opt.get_bool("help", false)) {
      std::printf(
          "usage: rnoc_campaign [--list] [--run NAME] [--smoke] [--out DIR]\n"
          "                     [--shards N] [--checkpoint-dir DIR] [--fresh]\n"
          "                     [--keep-checkpoints] [--print] [--progress] "
          "[--git-sha SHA]\n");
      return 0;
    }
    if (opt.get_bool("list", false)) return list_campaigns();
    return run_campaigns(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rnoc_campaign: %s\n", e.what());
    return 1;
  }
}
