#!/usr/bin/env python3
"""Build and run the `upsim serve` TCP benchmark.

One run (from the repository root):

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

builds `upsim` and the benchmark into $CARGO_TARGET_DIR (default
`.bench_build`), then runs one workload. The last line printed is the
JSON result. `--trace 1` gives the per-layer metrics instead of the
end-to-end ones.

The results record:

    python3 perfbench/run.py report [--sets 2] [--repeats 10] [--seconds 30] [--smoke]

runs every workload of `BENCHMARK.json` in `--sets` sets of `--repeats`
untraced runs, each on its own seed (set k uses seeds 10k+1 .. 10k+N),
then once traced.
For every metric and set it records the values, median, quartiles and
spread, and the change of each set's median against the first set's.
With host CPUs, git revision, the host's steal share per run and the
workload table, that goes to `perfbench/results.json`. A `--smoke`
record (5 s runs, 1 set of 2) goes to `.bench_out/results-smoke.json`
and never replaces the canonical file.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".bench_out"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the server binary and the benchmark; returns both paths."""
    for needed in ("Cargo.toml", os.path.join("crates", "cli", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "upsim-cli"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target), "release")
    return os.path.join(release, "upsim"), os.path.join(release, "perfbench")


def bench_cmd(bench, upsim, workload, seed, seconds, trace, detail=None):
    cmd = [bench, "--upsim", upsim, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", OUT_DIR]
    if detail:
        cmd += ["--detail", detail]
    return cmd


def run_once(args):
    upsim, bench = build()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    done = subprocess.run(
        bench_cmd(bench, upsim, args.workload, args.seed, args.seconds, args.trace), cwd=ROOT)
    sys.exit(done.returncode)


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def steal_of(detail):
    """The host steal share a run's report printed, or None."""
    for line in detail["report"]:
        m = re.search(r"host steal share during the timed phase = ([0-9.]+)", line)
        if m:
            return float(m.group(1))
    return None


def summarize(runs, units):
    metrics = {}
    for metric in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][metric]["value"] for r in runs]
        med, q1, q3, rel = spread(values)
        metrics[metric] = {
            "unit": units[metric]["unit"],
            "better": units[metric].get("better"),
            "median": med, "q1": q1, "q3": q3, "spread": rel, "values": values,
        }
    return metrics


def report(args):
    upsim, bench = build()
    os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = 5 if args.smoke else args.seconds
    sets, repeats = (1, 2) if args.smoke else (args.sets, args.repeats)
    table = json.loads(subprocess.run([bench, "--describe"], capture_output=True, text=True,
                                      check=True).stdout)

    def run(name, seed, trace):
        detail = os.path.join(ROOT, OUT_DIR, f"detail-{name}-{seed}-{trace}.json")
        done = subprocess.run(bench_cmd(bench, upsim, name, seed, seconds, trace, detail),
                              cwd=ROOT, stdout=sys.stderr)
        if done.returncode != 0:
            fail(f"{name} seed {seed} trace {trace} failed")
        with open(detail) as f:
            result = json.load(f)
        print(f"{name} seed={seed} trace={trace} done", file=sys.stderr)
        return result

    gated = [w["name"] for w in spec["workloads"]]
    workloads = []
    for row in (r for r in table if r["name"] in gated):
        name = row["name"]
        set_records = []
        all_runs = []
        for k in range(sets):
            seeds = list(range(10 * k + 1, 10 * k + repeats + 1))
            runs = [run(name, seed, 0) for seed in seeds]
            all_runs += runs
            set_records.append({"seeds": seeds, "steal": [steal_of(r) for r in runs],
                                "metrics": summarize(runs, units)})
        for later in set_records[1:]:
            for metric, m in later["metrics"].items():
                first = set_records[0]["metrics"][metric]["median"]
                m["median_change_vs_set1"] = m["median"] / first - 1 if first else 0.0
        traced = run(name, 1, 1)
        within = {metric: all(s["metrics"][metric]["spread"] <= bounds[metric] for s in set_records)
                  for metric in bounds}
        workloads.append(dict(
            row, sets=set_records, traced_seed=1,
            spreads_within_bounds=within,
            fail_ratio=[r["result"]["failed"] / r["result"]["attempted"]
                        for r in all_runs + [traced]],
            traced_metrics=traced["result"]["metrics"],
            report=all_runs[0]["report"] + traced["report"]))
    host_cpus = os.cpu_count() or 1
    record = {
        "git_rev": git_rev(),
        "host_cpus": host_cpus,
        "server_workers": 2,
        "oversubscribed": 2 > host_cpus,
        "smoke": bool(args.smoke),
        "seconds": seconds,
        "sets": sets,
        "repeats": repeats,
        "spread": "(q3 - q1) / median over one set's runs, statistics.quantiles(n=4)",
        "steal": "share of machine CPU time the hypervisor stole during each run's timed phase",
        "workloads": workloads,
    }
    out = (os.path.join(ROOT, OUT_DIR, "results-smoke.json") if args.smoke
           else os.path.join(HERE, "results.json"))
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {out}")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "report":
        p = argparse.ArgumentParser(prog="run.py report")
        p.add_argument("--sets", type=int, default=2)
        p.add_argument("--repeats", type=int, default=10)
        p.add_argument("--seconds", type=float, default=30)
        p.add_argument("--smoke", action="store_true")
        report(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run_once(p.parse_args())


if __name__ == "__main__":
    main()
