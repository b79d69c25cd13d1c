"""Run benchmark workloads over several seeds and summarize each metric.

    python3 perfbench/report.py                      # one run per workload
    python3 perfbench/report.py --seeds 1-10         # spread check
    python3 perfbench/report.py --trace --seeds 1,1  # per-layer, twice
    python3 perfbench/report.py --seeds 1-10 --markdown perfbench/BASELINE.md

Each run is a separate ``run.py`` process, started and waited for one at a
time, for every workload in BENCHMARK.json with its run_seconds. Runs go
seed by seed, each seed over all workloads, so that drift of the host over
minutes spreads evenly across workloads. For every workload and metric the summary gives the median, the
quartiles (``statistics.quantiles(values, n=4)``), the sample count and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {proc.returncode}")
    detail = next((json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("perfbench-detail ")), {})
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1]), detail, wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def environment():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    import numpy
    return {"git": sha, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 1,1,2")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--markdown", help="write the summary as a markdown baseline")
    args = parser.parse_args(argv)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seconds = spec["run_seconds"]

    runs_of = {name: [] for name in names}
    for seed in parse_seeds(args.seeds):
        for workload in names:
            result, detail, wall = run_one(workload, seed, seconds, args.trace)
            runs_of[workload].append((seed, result, detail))
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                              for m in metrics if result["metrics"][m["name"]]["value"])
            extra = "".join(f" {k}={detail[k]:.6g}" for k in ("op_s_p90", "alpha_gap")
                            if k in detail)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} wall={wall:.1f}s "
                  f"{values}{extra}", flush=True)

    md = []
    for workload, runs in runs_of.items():
        attempted = sum(r["attempted"] for _, r, _ in runs)
        failed = sum(r["failed"] for _, r, _ in runs)
        print(f"== {workload}: {len(runs)} runs, failed_ratio={failed / attempted:.6g} "
              f"({failed}/{attempted} ops)")
        md.append(f"\n### {workload}\n\n{len(runs)} runs, seeds {args.seeds}; "
                  f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)\n\n"
                  "| metric | unit | median | q1 | q3 | n | spread | bound |\n"
                  "|---|---|---|---|---|---|---|---|")
        for m in metrics:
            s = summarize([r["metrics"][m["name"]]["value"] for _, r, _ in runs])
            bound = m.get("bound")
            flag = "" if bound is None or m["name"] == "setup_s" or s["spread"] < bound / 3 \
                else "  <-- spread above a third of the bound"
            print(f"   {m['name']:45s} {m['unit']:6s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']} spread={s['spread']:.4f}"
                  + (f" bound={bound}" if bound is not None else "") + flag)
            md.append(f"| {m['name']} | {m['unit']} | {s['median']:.6g} | {s['q1']:.6g} | "
                      f"{s['q3']:.6g} | {s['n']} | {s['spread']:.4f} | {bound if bound is not None else '-'} |")
        p90 = [d["op_s_p90"] for _, _, d in runs if "op_s_p90" in d]
        if p90:
            s = summarize(p90)
            samples = [d["op_s_p90_samples"] for _, _, d in runs if "op_s_p90" in d]
            print(f"   {'op_s_p90 (detail)':45s} s      median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']} ops/run={min(samples)}-{max(samples)}")
            md.append(f"| op_s_p90 (not gated) | s | {s['median']:.6g} | {s['q1']:.6g} | "
                      f"{s['q3']:.6g} | {s['n']} | {s['spread']:.4f} | - |")
        if args.trace:
            by_seed = {}
            for seed, r, _ in runs:
                counts = {m["name"]: r["metrics"][m["name"]]["value"]
                          for m in metrics if m["unit"] == "count"}
                if by_seed.setdefault(seed, counts) != counts:
                    print(f"   !! call counts differ between runs of seed {seed}")
    if args.markdown:
        env = environment()
        head = [f"# perfbench baseline ({'per-layer' if args.trace else 'end-to-end'})", "",
                f"- git: `{env['git']}`", f"- nproc: {env['nproc']} ({env['machine']})",
                f"- Python {env['python']}, numpy {env['numpy']}",
                f"- run_seconds: {seconds:g}",
                f"- recorded: {time.strftime('%Y-%m-%d %H:%M UTC', time.gmtime())}"]
        Path(args.markdown).write_text("\n".join(head + md) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
