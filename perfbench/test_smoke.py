"""Smoke tests for the benchmark harness: every workload and every output
check at the smoke size, in a few seconds.

    python3 -m pytest -q perfbench
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# per-op counts at the smoke size and seed 1
SMOKE_COUNTS = {
    "sweep-m1000": {"participation.participate.calls": 101,
                    "best_response.solve_effort.calls.analytic": 5050,
                    "best_response.solve_effort.calls.numeric": 0,
                    "numeric.objective_evals": 0,
                    "optimizer.platform_profit.calls": 0},
    "solve-m200": {"optimizer.platform_profit.calls": 220,
                   "participation.participate.calls": 322,
                   "best_response.solve_effort.calls.analytic": 6440,
                   "best_response.solve_effort.calls.numeric": 0},
    "compare-pop": {"comparator.evaluate_model.calls": 5,
                    "participation.participate.calls": 0,
                    "optimizer.platform_profit.calls": 0},
    "settle-100k": {"settlement.read_ledger.rows": 2000,
                    "best_response.solve_effort.calls.analytic": 0,
                    "participation.participate.calls": 0},
}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def result(workload, trace):
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "0.2",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_run_reports_every_metric(workload):
    res = result(workload, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    counts = [{m["name"]: r["metrics"][m["name"]]["value"]
               for m in SPEC["per_layer"] if m["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    for name, want in SMOKE_COUNTS[workload].items():
        assert counts[0][name] == want, name


def corrupt(workload, output):
    """A plausible wrong answer for each workload's output."""
    if workload == "compare-pop":
        rows = copy.deepcopy(output[0])
        effort, dev, plat, upfront, entered = rows["freemium"]
        rows["freemium"] = (effort, dev * 1.001 + 1e-6, plat, upfront, entered)
        return (rows,) + output[1:]
    rc, text = output
    doc = text.decode()
    if workload == "sweep-m1000":  # one more entrant in the last row
        head, last = doc.rstrip("\n").rsplit("\n", 1)
        cells = last.split(",")
        cells[2] = str(int(cells[2]) + 1)
        return rc, (head + "\n" + ",".join(cells) + "\n").encode()
    rep = json.loads(doc)
    key = "platform_profit" if workload == "solve-m200" else "commission_cents"
    rep[key] += 1
    return rc, json.dumps(rep).encode()


@pytest.mark.parametrize("workload", NAMES)
def test_checks_count_a_wrong_output_as_failed(workload, tmp_path):
    wl = WORKLOADS[workload]("smoke")
    wl.setup(run.import_revshare(), 1, tmp_path)
    good = wl.keep(wl.op(0))
    bad = corrupt(workload, good)
    assert wl.check(0, good) == []
    assert wl.check(0, bad)
    assert run.count_failures(wl, [good]) == 0
    assert run.count_failures(wl, [bad]) == 1
    assert run.count_failures(wl, [None]) == 1  # the op raised


def test_fails_without_the_program_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the run
    exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
