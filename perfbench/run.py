#!/usr/bin/env python3
"""Repository benchmark: paper-registry wall time and 8x8 simulator speed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD.json NEW.json

Run from the repository root. Builds perfbench/ (the rnoc library from
src/ plus the rnoc_bench program) into .bench_build/perfbench, runs one
workload for S seconds, checks its outputs and prints every metric with
its unit. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 a traced run reports the per-layer ones, including the tracing
overhead. Each run also saves a result record (metrics plus pool size,
compiler and build type) under the build directory; --compare diffs two
records and refuses when their pool sizes differ. See perfbench/README.md.
"""

import argparse
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_registry", "mesh_coherence_faulted")
CAMPAIGNS = ("fit_table1", "fit_table2", "mttf", "area_power",
             "critical_path", "spf_table3", "spf_vc_sweep", "spf_montecarlo",
             "latency_splash2", "latency_parsec", "load_sweep",
             "environment_sweep", "ablation_mechanisms", "degraded_mode",
             "self_heal")
# Simulated statistics reported per mesh run, by per-layer metric name.
NOC_COUNTS = {
    "noc.cycles": "cycles", "noc.flit_hops": "flit_hops",
    "noc.packets": "packets", "noc.rc_computations": "rc_computations",
    "noc.va_allocations": "va_allocations",
    "noc.buffer_writes": "buffer_writes",
    "noc.latency_cycles.p50": "latency_p50",
    "noc.latency_cycles.p99": "latency_p99",
    "noc.va1_borrows": "va1_borrows",
    "noc.va1_borrow_waits": "va1_borrow_waits",
    "noc.va2_retries": "va2_retries",
    "noc.sa1_bypass_grants": "sa1_bypass_grants",
    "noc.sa1_transfers": "sa1_transfers",
    "noc.xb_secondary_traversals": "xb_secondary_traversals",
    "noc.blocked_vc_cycles": "blocked_vc_cycles",
}
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


# --- statistics -------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    """Linear-interpolated percentile, p in [0, 1]."""
    s = sorted(xs)
    if not s:
        return 0.0
    k = (len(s) - 1) * p
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def tail_percentile(n):
    """Highest reported percentile with at least ten of n samples beyond it
    (None when even the median has fewer than ten above it)."""
    for p in (0.999, 0.99, 0.9, 0.75, 0.5):
        if n * (1 - p) >= 10 - 1e-9:
            return p
    return None


def describe_timing(xs, unit):
    """'median X unit, pNN Y unit (n=...)' by the percentile rule."""
    text = f"median {median(xs):.6g} {unit}"
    p = tail_percentile(len(xs))
    if p is not None and p > 0.5:
        text += f", p{p * 100:g} {percentile(xs, p):.6g} {unit}"
    return text + f" (n={len(xs)})"


# --- trace ------------------------------------------------------------------

def load_spans(path):
    """Spans of a Chrome trace (B/E pairs per lane), times in seconds."""
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    spans, open_by_lane = [], {}
    for e in events:
        lane = (e["pid"], e["tid"])
        if e["ph"] == "B":
            args = dict(e.get("args", {}))
            open_by_lane.setdefault(lane, []).append({
                "name": e["name"], "lane": lane, "t0": e["ts"] * 1e-6,
                "id": args.pop("id", 0), "parent": args.pop("parent", 0),
                "args": args})
        elif e["ph"] == "E":
            span = open_by_lane[lane].pop()
            span["t1"] = e["ts"] * 1e-6
            spans.append(span)
    return spans


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_time(span, children):
    """Span duration minus the part its children cover."""
    return (span["t1"] - span["t0"]) - covered(
        [(c["t0"], c["t1"]) for c in children], span["t0"], span["t1"])


def children_of(spans):
    kids = {}
    for s in spans:
        kids.setdefault(s["parent"], []).append(s)
    return kids


def registry_layers(spans, threads):
    """Per-layer registry metrics: each the median over the traced passes."""
    kids = children_of(spans)
    per_pass = [pass_layers(p, kids, threads) for p in spans
                if p["name"] == "registry.pass"]
    if not per_pass:
        raise BenchError("the trace holds no registry pass")
    return {k: median([m[k] for m in per_pass]) for k in per_pass[0]}


def pass_layers(pass_span, kids, threads):
    own = kids.get(pass_span["id"], [])
    # The pass's set-up samples are not part of its wall time.
    wall = (pass_span["t1"] - pass_span["t0"]) - sum(
        s["t1"] - s["t0"] for s in own if s["name"] == "registry.setup")
    runs = [s for s in own if s["name"] == "campaign.run"]
    points = [p for r in runs for p in kids.get(r["id"], [])
              if p["name"] == "campaign.point"]
    durations = [p["t1"] - p["t0"] for p in points]
    exec_s = sum(durations)
    m = {f"campaign.wall_s.{c}": 0.0 for c in CAMPAIGNS}
    for r in runs:
        m[f"campaign.wall_s.{r['args']['campaign']}"] = r["t1"] - r["t0"]
    m.update({
        "campaign.points": len(points),
        "campaign.exec_s": exec_s,
        "campaign.point_exec_s.p50": median(durations),
        "campaign.point_exec_s.max": max(durations, default=0.0),
        "campaign.pool_util": exec_s / (wall * threads) if wall > 0 else 0.0,
        "campaign.idle_s": wall * threads - exec_s,
        "campaign.overhead_s": sum(self_time(r, kids.get(r["id"], []))
                                   for r in runs),
        "campaign.serialize_s": sum(s["t1"] - s["t0"] for s in own
                                    if s["name"] == "campaign.serialize"),
        "pool.threads": threads,
    })
    return m


def fault_setup_times(spans):
    """Per mesh.setup span: time in fault-plan construction and install."""
    kids = children_of(spans)
    return [sum(c["t1"] - c["t0"] for c in kids.get(s["id"], [])
                if c["name"].startswith("fault."))
            for s in spans if s["name"] == "mesh.setup"]


# --- correctness --------------------------------------------------------------

def load_compare_results():
    spec = importlib.util.spec_from_file_location(
        "compare_results", os.path.join(ROOT, "tools", "compare_results.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compare_defaults(cr):
    """compare_results.py's own CLI tolerances, read by running its argument
    parser with the campaign comparison stubbed out."""
    seen = []
    real = cr.run_campaign_mode
    cr.run_campaign_mode = lambda opts: seen.append(opts) or 0
    try:
        cr.main(["golden", "new"])
    finally:
        cr.run_campaign_mode = real
    return seen[0]


def drifting_points(golden_dir, replay_dir):
    """{(campaign, point): reason} for every replayed point out of
    compare_results.py's tolerances against its golden file."""
    cr = load_compare_results()
    opts = compare_defaults(cr)
    failed = {}
    for fname in sorted(os.listdir(replay_dir)):
        with open(os.path.join(replay_dir, fname), encoding="utf-8") as f:
            new = json.load(f)
        campaign = new["campaign"]
        ids = [p["id"] for p in new["points"]]
        gpath = os.path.join(golden_dir, fname)
        if not os.path.exists(gpath):
            failed.update({(campaign, p): "no golden file" for p in ids})
            continue
        with open(gpath, encoding="utf-8") as f:
            golden = json.load(f)
        ids += [p["id"] for p in golden["points"] if p["id"] not in ids]
        for d in cr.compare_campaign(golden, new, opts):
            hit = [p for p in ids if d.where == f"{campaign}/{p}"
                   or d.where.startswith(f"{campaign}/{p}/")]
            detail = d.message
            if d.old is not None or d.new is not None:
                detail += f" (golden {d.old:.6g}, replay {d.new:.6g})"
            for p in hit or ids:  # a campaign-level drift fails every point
                failed.setdefault((campaign, p),
                                  f"{d.where[len(campaign) + 1:]}: {detail}")
    return failed


def stats_mismatch(stats, oracle):
    """Names of simulated statistics that differ from the oracle's."""
    return sorted(k for k in set(stats) | set(oracle)
                  if stats.get(k) != oracle.get(k))


def mesh_failures(raw):
    """(operations, [reason per failed operation]) for the warm-up and timed
    runs: deadlock, undelivered flits, or any statistic off the oracle."""
    oracle = raw["oracle"]["stats"]
    reasons = []
    if oracle["deadlock"] or oracle["undelivered_flits"]:
        reasons.append("FullSweep oracle run deadlocked or lost flits")
    ops = [raw["warmup"]] + raw["runs"]
    for i, run in enumerate(ops):
        s = run["stats"]
        why = []
        if s["deadlock"]:
            why.append("deadlock suspected")
        if s["undelivered_flits"]:
            why.append(f"{s['undelivered_flits']:g} flits undelivered")
        diff = stats_mismatch(s, oracle)
        if diff:
            why.append("differs from the FullSweep oracle in " + ", ".join(diff))
        if why:
            reasons.append(f"run {i}: " + "; ".join(why))
    return len(ops), reasons


def registry_operations(passes, smoke_points):
    """(operations, {(campaign, point): reason}) for the timed passes and the
    smoke replay. The passes repeat one seed's points and must serialize
    byte-identically, so an operation is a distinct point: the points of one
    pass plus the replayed ones, and a point that fails in any pass fails
    once. Counting every pass would tie the count to how many passes fit in
    --seconds, and two runs of one seed would report different counts."""
    failed = {}
    for p in passes:
        for f in p["failed"]:
            failed.setdefault((f["campaign"], f["point"]), f["why"])
    return int(passes[0]["points"]) + int(smoke_points), failed


def reference_value(results, ref):
    points = results[ref["campaign"]]["points"]
    values = [m["value"] for p in points
              if ref["point"] in ("*", p["id"])
              for m in p["metrics"] if m["name"] == ref["metric"]]
    if not values or (ref["point"] != "*" and len(values) != 1):
        raise BenchError(f"reference {ref['name']}: no unique value for "
                         f"{ref['campaign']}/{ref['point']}/{ref['metric']}")
    return sum(values) / len(values)


def paper_errors(results, refs):
    """{accuracy.<ref>: |measured - paper| / |paper| in %} and their mean."""
    errs = {}
    for ref in refs:
        v = reference_value(results, ref)
        errs[f"accuracy.{ref['name']}"] = abs(v - ref["paper"]) / abs(ref["paper"]) * 100
    return errs, sum(errs.values()) / len(errs)


def load_refs():
    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as f:
        return json.load(f)["refs"]


def load_results(directory):
    out = {}
    for fname in os.listdir(directory):
        with open(os.path.join(directory, fname), encoding="utf-8") as f:
            r = json.load(f)
        out[r["campaign"]] = r
    return out


# --- evaluation ---------------------------------------------------------------

def blank_layers(refs):
    """Every per-layer metric at 0: a layer a workload does not run does no
    work, and accuracy is computed on paper_registry only."""
    m = {f"campaign.wall_s.{c}": 0.0 for c in CAMPAIGNS}
    for name in ("campaign.points", "campaign.exec_s",
                 "campaign.point_exec_s.p50", "campaign.point_exec_s.max",
                 "campaign.pool_util", "campaign.idle_s",
                 "campaign.overhead_s", "campaign.serialize_s", "pool.threads",
                 "pool.spinup_s",
                 "noc.run_s", "noc.construct_s", "noc.ns_per_flit_hop",
                 "noc.ns_per_cycle", "noc.self_s", "noc.oracle_speedup",
                 "flit_hops_per_s", "sim_cycles_per_s", *NOC_COUNTS,
                 "traffic.calls", "traffic.s", "traffic.share",
                 "traffic.packets_per_call", "fault.plan_s",
                 "fault.faults_injected", "paper_err_pct"):
        m[name] = 0.0
    m.update({f"accuracy.{r['name']}": 0.0 for r in refs})
    return m


def evaluate_registry(raw, out_dir, trace):
    refs = load_refs()
    notes = []
    passes = raw["passes"]
    attempted, timed_failed = registry_operations(passes, raw["smoke_points"])
    for (c, p), why in sorted(timed_failed.items()):
        notes.append(f"FAILED point {c}/{p}: {why}")
    drift = drifting_points(os.path.join(ROOT, "results", "golden"),
                            os.path.join(out_dir, "smoke"))
    for f in raw["smoke_failed"]:
        drift.setdefault((f["campaign"], f["point"]), f["why"])
    for (c, p), why in sorted(drift.items()):
        notes.append(f"FAILED smoke replay {c}/{p} vs results/golden: {why}")
    failed = len(timed_failed) + len(drift)
    correct = raw["deterministic"]
    if not correct:
        notes.append("INCORRECT: passes with one seed serialized differently")

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    errs, err_pct = paper_errors(load_results(os.path.join(out_dir, "timed")), refs)
    info = {"wall_s": describe_timing(untraced, "s")
            + "; passes in order: " + ", ".join(f"{w:.6g}" for w in untraced),
            "setup_s": describe_timing(raw["setup_s"], "s")}
    # Mean pass time, for the reason evaluate_mesh gives.
    e2e = {"wall_s": statistics.fmean(untraced), "setup_s": median(raw["setup_s"]),
           "peak_rss_mb": raw["peak_rss_kib"] / 1024}
    extra = {"paper_err_pct": err_pct}
    layers = {}
    if trace:
        layers = blank_layers(refs)
        layers.update(registry_layers(load_spans(os.path.join(out_dir, "trace.json")),
                                      raw["threads"]))
        layers.update(errs)
        layers["pool.spinup_s"] = raw["pool_spinup_s"]
        traced = [p["wall_s"] for p in passes if p["traced"]]
        layers["trace.overhead_pct"] = (statistics.fmean(traced)
                                        / statistics.fmean(untraced) - 1) * 100
        layers["paper_err_pct"] = err_pct
        layers["failed_frac"] = failed / attempted
    return correct, attempted, failed, e2e, extra, layers, info, notes


def evaluate_mesh(raw, out_dir, trace):
    notes = []
    attempted, reasons = mesh_failures(raw)
    notes += [f"FAILED {r}" for r in reasons]
    failed = len(reasons)
    untraced = [r for r in raw["runs"] if not r["traced"]]
    traced = [r for r in raw["runs"] if r["traced"]]
    correct = True
    if traced and any(stats_mismatch(r["stats"], untraced[0]["stats"])
                      for r in traced):
        correct = False
        notes.append("INCORRECT: traced runs changed simulated statistics")
    stats = untraced[0]["stats"]
    # The mean, not the median: the host's speed switches between a fast and
    # a slow state for seconds at a time, and the median of a run follows
    # whichever state held the most runs, while the mean weighs both by time.
    run_s = statistics.fmean([r["run_s"] for r in untraced])
    info = {"wall_s": describe_timing([r["run_s"] for r in untraced], "s"),
            "setup_s": describe_timing([r["setup_s"] for r in untraced], "s")}
    e2e = {"wall_s": run_s,
           "setup_s": median([r["setup_s"] for r in untraced]),
           "peak_rss_mb": raw["peak_rss_kib"] / 1024}
    extra = {"flit_hops_per_s": stats["flit_hops"] / run_s,
             "sim_cycles_per_s": stats["cycles"] / run_s}
    layers = {}
    if trace:
        refs = load_refs()
        spans = load_spans(os.path.join(out_dir, "trace.json"))
        traced_run_s = statistics.fmean([r["run_s"] for r in traced])
        tr = [r["traffic"] for r in traced]
        layers = blank_layers(refs)
        layers.update({name: stats[key] for name, key in NOC_COUNTS.items()})
        layers.update(extra)
        layers.update({
            "noc.run_s": run_s,
            "noc.construct_s": median([s["t1"] - s["t0"] for s in spans
                                       if s["name"] == "noc.construct"]),
            "noc.ns_per_flit_hop": run_s / stats["flit_hops"] * 1e9,
            "noc.ns_per_cycle": run_s / stats["cycles"] * 1e9,
            "noc.self_s": median([r["run_s"] - r["traffic"]["s"] for r in traced]),
            "noc.oracle_speedup": raw["oracle"]["run_s"] / run_s,
            "traffic.calls": tr[0]["calls"],
            "traffic.s": median([t["s"] for t in tr]),
            "traffic.share": median([r["traffic"]["s"] / r["run_s"] for r in traced]),
            "traffic.packets_per_call": tr[0]["packets"] / max(tr[0]["calls"], 1),
            "fault.plan_s": median(fault_setup_times(spans)),
            "fault.faults_injected": stats["faults_injected"],
            "trace.overhead_pct": (traced_run_s / run_s - 1) * 100,
            "failed_frac": failed / attempted,
        })
    return correct, attempted, failed, e2e, extra, layers, info, notes


# --- entry point -------------------------------------------------------------------

def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def require_repo():
    needed = ("src/CMakeLists.txt", "results/golden", "tools/compare_results.py",
              "tools/check_trace.py", "BENCHMARK.json")
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError("not a full checkout of the repository (missing "
                         + ", ".join(missing) + ")")


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures once, then (re)builds rnoc_bench; returns its path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "rnoc_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(bdir, "rnoc_bench")


def run_workload(args):
    require_repo()
    spec = load_benchmark_spec()
    binary = build()
    out_dir = os.path.join(build_dir(), "runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    subprocess.run([binary, "--workload", args.workload, "--seed",
                    str(args.seed), "--seconds", str(args.seconds), "--trace",
                    str(args.trace), "--out", out_dir],
                   check=True, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    with open(os.path.join(out_dir, "raw.json"), encoding="utf-8") as f:
        raw = json.load(f)
    if args.trace:
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_trace.py"),
             os.path.join(out_dir, "trace.json")],
            stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        if check.returncode != 0:
            raise BenchError("trace.json failed tools/check_trace.py")
    evaluate = evaluate_registry if args.workload == "paper_registry" else evaluate_mesh
    correct, attempted, failed, e2e, extra, layers, info, notes = evaluate(
        raw, out_dir, bool(args.trace))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"workload {args.workload}  seed {args.seed}  threads {raw['threads']}"
          f"  {raw['compiler']}  {raw['build_type']}")
    for note in notes:
        print(note)
    shown = dict(metrics)
    if not args.trace:
        shown.update({k: {"value": v, "unit": units[k]} for k, v in extra.items()})
    shown["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
    for name, m in shown.items():
        detail = f"   [{info[name]}]" if name in info and not args.trace else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{detail}")
    print(f"operations: {attempted} attempted, {failed} failed")

    record = {"env": {"compiler": raw["compiler"], "build_type": raw["build_type"]},
              "workloads": {args.workload: {"threads": raw["threads"],
                                            "seed": args.seed,
                                            "metrics": metrics}}}
    save_dir = os.path.join(build_dir(), "results")
    os.makedirs(save_dir, exist_ok=True)
    with open(os.path.join(save_dir, os.path.basename(out_dir) + ".json"), "w",
              encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def compare(old_path, new_path):
    """Prints per-metric changes between two result records; refuses when a
    shared workload ran at different pool sizes (registry outputs depend on
    it) and warns when compiler or build type differ."""
    with open(old_path, encoding="utf-8") as f:
        old = json.load(f)
    with open(new_path, encoding="utf-8") as f:
        new = json.load(f)
    shared = sorted(set(old["workloads"]) & set(new["workloads"]))
    if not shared:
        raise BenchError("the two records share no workload")
    for w in shared:
        a, b = old["workloads"][w]["threads"], new["workloads"][w]["threads"]
        if a != b:
            raise BenchError(f"refusing to compare {w}: taken at {a} vs {b} "
                             "pool threads")
    if old["env"] != new["env"]:
        print(f"warning: different builds: {old['env']} vs {new['env']}")
    for w in shared:
        om, nm = old["workloads"][w]["metrics"], new["workloads"][w]["metrics"]
        for name in sorted(set(om) & set(nm)):
            a, b = om[name]["value"], nm[name]["value"]
            delta = f"{(b / a - 1) * 100:+.1f}%" if a else "n/a"
            print(f"{w} {name}: {a:.6g} -> {b:.6g} {nm[name]['unit']} ({delta})")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload is None:
            ap.error("--workload is required")
        if args.seed < 1:
            ap.error("--seed must be positive")
        return run_workload(args)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
