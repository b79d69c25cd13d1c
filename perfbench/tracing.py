"""Per-layer tracing of revshare from outside the package.

The tracer replaces each public function of interest at every module
attribute it is looked up through (``revshare.optimizer.participate``,
``revshare.montecarlo.participate``, ...), so calls between modules are
seen without touching the package.

Coarse boundaries, up to ``participate`` and ``platform_profit``, record
spans (name, start, end, parent, op). Hot leaves such as ``solve_effort``,
called about a million times per sweep, only bump counters and summed
time; a span each would swamp memory. Self time is a span's duration minus
its child spans and the leaf time directly inside it.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "revshare"
SPANNED = (
    "cli.main",
    "optimizer.optimize_alpha",
    "optimizer.platform_profit",
    "participation.participate",
    "montecarlo.generate_population",
    "montecarlo.sweep",
    "montecarlo.sweep_to_csv",
    "comparator.compare_models",
    "comparator.evaluate_model",
    "settlement.read_ledger",
    "settlement.settle_freemium",
)
LEAVES = (
    "best_response.solve_effort",
    "numeric.golden_section_max",
    "numeric.grid_then_golden",
    "numeric.expand_upper_bound",
)
# leaves whose first argument is the objective being maximized
OBJECTIVE_TAKERS = ("numeric.golden_section_max", "numeric.grid_then_golden",
                    "numeric.expand_upper_bound")
MODELS = ("rsi", "pay_per_token", "subscription", "freemium", "marketplace")

# span record fields
ID, PARENT, OP, NAME, START, END, LEAF_S, TAG = range(8)


class _Objective:
    """Counts evaluations of an objective handed to a numeric maximizer."""

    __slots__ = ("f", "calls")

    def __init__(self, f, calls):
        self.f, self.calls = f, calls

    def __call__(self, x):
        self.calls["numeric.objective_evals"] += 1
        return self.f(x)


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self._stack = []
        self._leaf_depth = 0
        self._op = None
        self._patched = []

    # --- installation ---

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for qualname in SPANNED + LEAVES:
            mod_name, func_name = qualname.split(".")
            original = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], func_name)
            wrapper = (self._spanned if qualname in SPANNED else self._leaf)(qualname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- recording ---

    def _open(self, name):
        parent = self._stack[-1][ID] if self._stack else None
        rec = [len(self.spans), parent, self._op, name, 0.0, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """Root span of one benchmark op; every span inside shares its id."""
        self._op = op_id
        rec = self._open("op")
        try:
            yield
        finally:
            self._close(rec)
            self._op = None

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name == "comparator.evaluate_model":
                rec[TAG] = out.model
            elif name == "settlement.read_ledger":
                rec[TAG] = len(out[0])
            return out
        return wrapper

    def _leaf(self, name, fn):
        calls, seconds = self.calls, self.seconds
        count_objective = name in OBJECTIVE_TAKERS

        def wrapper(*args, **kwargs):
            if count_objective and not isinstance(args[0], _Objective):
                args = (_Objective(args[0], calls),) + args[1:]
            self._leaf_depth += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._leaf_depth -= 1
            if self._leaf_depth == 0 and self._stack:
                self._stack[-1][LEAF_S] += dt
            seconds[name] += dt
            if name == "best_response.solve_effort":
                calls[f"{name}.calls.{out.method}"] += 1
            else:
                calls[f"{name}.calls"] += 1
            return out
        return wrapper

    # --- results ---

    def self_times(self):
        """Self seconds of every span, by span id."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - child[rec[ID]] - rec[LEAF_S]
                for rec in self.spans]

    def write_jsonl(self, path):
        selfs = self.self_times()
        with open(path, "w") as fh:
            for rec, self_s in zip(self.spans, selfs):
                fh.write(json.dumps({
                    "id": rec[ID], "parent": rec[PARENT], "op": rec[OP],
                    "name": rec[NAME], "start": rec[START], "end": rec[END],
                    "self_s": self_s, "tag": rec[TAG]}) + "\n")
            fh.write(json.dumps({"counters": dict(self.calls),
                                 "leaf_seconds": dict(self.seconds)}) + "\n")

    def layer_metrics(self, n_ops):
        """Per-op layer metrics: every count and time is divided by the
        number of traced ops."""
        calls, dur, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        model_s = defaultdict(float)
        rows = 0
        for rec, s in zip(self.spans, self.self_times()):
            name = rec[NAME]
            calls[name] += 1
            dur[name] += rec[END] - rec[START]
            self_s[name] += s
            if name == "comparator.evaluate_model":
                model_s[rec[TAG]] += rec[END] - rec[START]
            elif name == "settlement.read_ledger":
                rows += rec[TAG]
        c = self.calls
        raw = {
            "participation.participate.calls": calls["participation.participate"],
            "participation.participate.self_s": self_s["participation.participate"],
            "best_response.solve_effort.calls.analytic": c["best_response.solve_effort.calls.analytic"],
            "best_response.solve_effort.calls.numeric": c["best_response.solve_effort.calls.numeric"],
            "best_response.solve_effort.s": self.seconds["best_response.solve_effort"],
            "optimizer.platform_profit.calls": calls["optimizer.platform_profit"],
            "optimizer.platform_profit.self_s": self_s["optimizer.platform_profit"],
            "optimizer.optimize_alpha.self_s": self_s["optimizer.optimize_alpha"],
            "numeric.golden_section_max.calls": c["numeric.golden_section_max.calls"],
            "numeric.grid_then_golden.calls": c["numeric.grid_then_golden.calls"],
            "numeric.expand_upper_bound.calls": c["numeric.expand_upper_bound.calls"],
            "numeric.objective_evals": c["numeric.objective_evals"],
            "comparator.evaluate_model.calls": calls["comparator.evaluate_model"],
            "settlement.read_ledger.s": dur["settlement.read_ledger"],
            "settlement.read_ledger.rows": rows,
            "settlement.settle_freemium.s": dur["settlement.settle_freemium"],
            "montecarlo.generate_population.s": dur["montecarlo.generate_population"],
            "montecarlo.sweep.self_s": self_s["montecarlo.sweep"],
            "montecarlo.sweep_to_csv.s": dur["montecarlo.sweep_to_csv"],
            "cli.main.self_s": self_s["cli.main"],
        }
        for model in MODELS:
            raw[f"comparator.evaluate_model.s.{model}"] = model_s[model]
        out = {name: value / n_ops for name, value in raw.items()}
        profit_evals = calls["optimizer.platform_profit"]
        out["optimizer.participate_per_profit_eval"] = (
            calls["participation.participate"] / profit_evals if profit_evals else 0.0)
        return out
