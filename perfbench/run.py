"""Run one revshare benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-m1000 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of the checkout this file sits in. The ops run in this process,
with no threads. ``setup_s`` is the median of several cold set-ups, each in
a child interpreter (``coldsetup.py``) started and waited for in turn.

With ``--trace 0`` the run times ops back to back (a closed loop with one
client) for ``--seconds`` and reports the end-to-end metrics. With
``--trace 1`` it runs half the time untraced and half with every layer
wrapped, and reports per-op layer metrics plus the tracing overhead.
Spans go to ``.perfbench_out/trace-<workload>-<seed>.jsonl``.

Every op's output is checked after the timed loop; an op that raises or
fails its check counts in ``failed``. The last stdout line is the result
object; the line before it, prefixed ``perfbench-detail``, holds figures
that are not benchmark metrics (failed_ratio, op_s_p90 when a run holds at
least 100 ops, sample counts).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from coldsetup import import_revshare  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7  # setup_s is the median of this many cold set-ups
P90_MIN_OPS = 100


def cold_setup_s(workload, seed, size, workdir):
    """Seconds for one set-up in a fresh interpreter: import revshare.cli,
    then build the seeded inputs (see coldsetup.py)."""
    proc = subprocess.run([sys.executable, str(HERE / "coldsetup.py"), workload,
                           str(seed), size, str(workdir)],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"cold set-up failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def timed_ops(wl, seconds, start_index, tracer=None):
    """Run ops back to back until `seconds` have passed and the workload
    allows a stop. Returns (op seconds, outputs); a raised op keeps None."""
    times, outputs = [], []
    t_end = time.perf_counter() + seconds
    while (time.perf_counter() < t_end or not wl.at_boundary(len(times))):
        i = start_index + len(times)
        raw, error = None, None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                raw = wl.op(i)
            else:
                with tracer.op(i):
                    raw = wl.op(i)
        except Exception:  # a failed op is counted, never fatal to the run
            error = traceback.format_exc()
        times.append(time.perf_counter() - t0)
        if error:
            print(f"op {i} raised:\n{error}", file=sys.stderr)
            outputs.append(None)
        else:
            outputs.append(wl.keep(raw))
    return times, outputs


def count_failures(wl, outputs):
    """Check every output: ops on one input must agree with the first op on
    it, and that output must pass the workload's oracle."""
    first, verdict, failed, shown = {}, {}, 0, 0
    for i, out in enumerate(outputs):
        key = wl.input_key(i)
        if out is None:
            errors = ["op raised"]
        else:
            first.setdefault(key, out)
            if out != first[key]:
                errors = ["output differs from the first op on the same input"]
            else:
                if key not in verdict:
                    verdict[key] = wl.check(i, out)
                errors = verdict[key]
        if errors:
            failed += 1
            if shown < 5:
                shown += 1
                print(f"op {i} failed: {'; '.join(errors[:3])}", file=sys.stderr)
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    if not (ROOT / "src" / "revshare" / "__init__.py").is_file():
        print(f"error: no revshare sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_out"
    workdir.mkdir(exist_ok=True)

    setup_s = [cold_setup_s(args.workload, args.seed, args.size, workdir)
               for _ in range(SETUP_REPEATS)]
    wl = WORKLOADS[args.workload](args.size)
    wl.setup(import_revshare(), args.seed, workdir)

    if args.trace:
        times, outputs = timed_ops(wl, args.seconds / 2, 0)
        tracer = Tracer()
        tracer.install()
        try:
            traced_times, traced_outputs = timed_ops(wl, args.seconds / 2, len(times), tracer)
        finally:
            tracer.uninstall()
        outputs += traced_outputs
        values = tracer.layer_metrics(len(traced_times))
        values["trace_overhead_ratio"] = (statistics.median(traced_times)
                                          / statistics.median(times))
        tracer.write_jsonl(workdir / f"trace-{args.workload}-{args.seed}.jsonl")
        times += traced_times
    else:
        times, outputs = timed_ops(wl, args.seconds, 0)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "setup_s": statistics.median(setup_s),
            "op_s_p50": statistics.median(times),
            "items_per_s": wl.items * len(times) / sum(times),
            "peak_rss_mb": peak_rss_mb,
        }

    failed = count_failures(wl, outputs)
    detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "ops": len(outputs), "failed_ratio": failed / len(outputs),
              "setup_samples": len(setup_s), **wl.detail()}
    if not args.trace and len(times) >= P90_MIN_OPS:
        detail["op_s_p90"] = statistics.quantiles(times, n=10, method="inclusive")[-1]
        detail["op_s_p90_samples"] = len(times)
    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1
    print("perfbench-detail " + json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
