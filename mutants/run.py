"""Mutants the tier-1 tests must catch, and their runner.

Each mutant is one small edit of the program: (name, file, exact old text,
new text). For each, the runner copies the working tree (without .git) into
a temporary directory, applies the edit there and runs tier-1 with -x. A
mutant is caught when tier-1 fails. The runner exits 1 when a mutant
survives, when a mutant's old text does not occur exactly once, or when the
unmutated copy does not pass; it never writes into the working tree.

    python mutants/run.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                              ".hypothesis", ".perfbench_out")

PART = "src/revshare/participation.py"
MUTANTS = [
    ("sweep-entry-strict", PART,
     "enter = pi >= pi0", "enter = pi > pi0"),
    ("participate-entry-strict", PART,
     "if pi >= profile.reservation_profit:", "if pi > profile.reservation_profit:"),
    ("activity-threshold-strict", PART,
     "(usage >= policy.activity_threshold)", "(usage > policy.activity_threshold)"),
    ("argmax-keeps-last", PART,
     "if pi > best_pi:", "if pi >= best_pi:"),
    ("refine-tie-keeps-larger-rate", "src/revshare/optimizer.py",
     "if (pi, -a) > (pi_star, -alpha_star):", "if (pi, a) > (pi_star, alpha_star):"),
    ("settlement-half-even", "src/revshare/settlement.py",
     "rounding=ROUND_HALF_UP", 'rounding="ROUND_HALF_EVEN"'),
    ("settlement-threshold-off-by-one", "src/revshare/settlement.py",
     "if premium < policy.activity_threshold:",
     "if premium <= policy.activity_threshold:"),
    ("capital-slack-1e-6", "src/revshare/comparator.py",
     "upfront <= capital + 1e-9", "upfront <= capital + 1e-6"),
    ("pool-p5-as-p10", "src/revshare/montecarlo.py",
     "np.percentile(samples, 5)", "np.percentile(samples, 10)"),
    ("golden-absolute-tolerance", "src/revshare/numeric.py",
     "if b - a <= _REL_TOL * max(abs(a), abs(b)):",
     "if b - a <= 1e-12 * max(1.0, hi):"),
    ("write-keeps-temp-file", "src/revshare/cli.py",
     "            if os.path.exists(tmp):\n                os.unlink(tmp)\n",
     "            pass\n"),
]


def tier1(tree: str) -> int:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutant, scratch: str) -> str:
    """Tier-1 on a copy of the tree with the mutant applied (None: as it is);
    returns what is wrong, or ""."""
    name, path, old, new = mutant or ("unmutated", None, None, None)
    tree = os.path.join(scratch, name)
    shutil.copytree(ROOT, tree, ignore=SKIP)
    if mutant:
        target = os.path.join(tree, path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(old) != 1:
            return f"old text occurs {text.count(old)} times in {path}"
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
    status = tier1(tree)
    shutil.rmtree(tree)
    if not mutant:
        return "" if status == 0 else f"tier-1 fails (pytest exit {status})"
    return "" if status != 0 else "survived"


def main() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="revshare-mutants-") as scratch:
        for mutant in [None] + MUTANTS:
            start = time.perf_counter()
            problem = run(mutant, scratch)
            verdict = problem or ("caught" if mutant else "passes")
            print(f"{mutant[0] if mutant else 'unmutated':34s} {verdict} "
                  f"({time.perf_counter() - start:.1f} s)", flush=True)
            failures += bool(problem)
            if problem and not mutant:  # every mutant would read as caught
                break
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
