"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one op in
``op`` (the only timed call), turns the op's raw result into a plain
output in ``keep``, and checks an output against the independent oracles
in ``check``. Checks run after the timed loop; an output already checked
for the same input is not re-derived, but every op's output is compared.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import oracles


class Workload:
    min_ops = 1

    def __init__(self, size):
        self.cfg = self.sizes[size]

    def at_boundary(self, n_ops):
        """Whether the timed loop may stop after n_ops ops."""
        return n_ops >= self.min_ops

    def input_key(self, i):
        """Ops with equal keys run the same input and must give equal outputs."""
        return None

    def detail(self):
        return {}


class _CliWorkload(Workload):
    """An op is one in-process ``revshare.cli.main`` call that writes
    ``self.path``; its summary line is kept off the benchmark's stdout."""

    def __init__(self, size):
        super().__init__(size)
        self._sink = io.StringIO()

    def op(self, i):
        self._sink.seek(0)
        self._sink.truncate()
        with contextlib.redirect_stdout(self._sink):
            return self.rs.cli.main(self.argv)

    def keep(self, rc):
        return rc, self.path.read_bytes() if rc == 0 else b""

    def check(self, i, output):
        rc, text = output
        if rc != 0:
            return [f"exit status {rc}"]
        return self.oracle(text)


class SweepM1000(_CliWorkload):
    """``revshare sweep`` over a seeded linear population, as in
    configs/sweep.ini but with M=1000: the largest developer x rate loop."""

    name = "sweep-m1000"
    sizes = {"full": {"size": 1000, "grid_step": "0.001"},
             "smoke": {"size": 50, "grid_step": "0.01"}}
    min_ops = 2  # two sweeps of one seed must be byte-identical
    cost = 0.1

    def setup(self, rs, seed, workdir):
        self.rs, self.seed = rs, seed
        self.path = workdir / f"sweep-{seed}.csv"
        self.argv = ["sweep", "--size", str(self.cfg["size"]), "--seed", str(seed),
                     "--cost", repr(self.cost), "--grid-step", self.cfg["grid_step"],
                     "--alpha-min", "0", "--alpha-max", "1", "--format", "csv",
                     "--no-timestamp", "--out", str(self.path)]
        n = int(round(1.0 / float(self.cfg["grid_step"])))
        self.grid = [i / n for i in range(n + 1)]  # what the CLI builds for [0, 1]
        self.items = self.cfg["size"] * len(self.grid)

    def oracle(self, text):
        rows = [line.split(",") for line in text.decode().splitlines()[1:]]
        if len(rows) != len(self.grid):
            return [f"{len(rows)} rows for {len(self.grid)} rates"]
        got = np.array([[float(x) for x in row] for row in rows])
        A, k, pi0 = oracles.cli_population(self.cfg["size"], self.seed)
        entered, plat, dev = oracles.linear_quadratic_cells(A, k, pi0, self.grid, self.cost)
        count = entered.sum(axis=0)
        surplus = dev.sum(axis=0)
        mean = np.divide(surplus, count, out=np.zeros_like(surplus), where=count > 0)
        errors = []
        if not np.array_equal(got[:, 2], count):
            bad = int(np.argmax(got[:, 2] != count))
            errors.append(f"entrant count {got[bad, 2]:.0f} != {count[bad]} at alpha={self.grid[bad]}")
        for col, want, label in ((0, np.array(self.grid), "alpha"),
                                 (1, plat.sum(axis=0), "platform_profit"),
                                 (3, mean, "mean_developer_profit"),
                                 (4, surplus, "total_developer_surplus")):
            scale = max(1.0, float(np.abs(want).max()))
            bad = np.abs(got[:, col] - want) > 1e-9 * np.maximum(np.abs(want), scale)
            if bad.any():
                j = int(np.argmax(bad))
                errors.append(f"{label} {got[j, col]!r} != {want[j]!r} at row {j}")
        return errors


class SolveM200(_CliWorkload):
    """``revshare solve --size 200``: the outer commission search (1001-point
    grid, then shrinking-grid refinement)."""

    name = "solve-m200"
    sizes = {"full": {"size": 200, "grid_step": "0.001"},
             "smoke": {"size": 20, "grid_step": "0.01"}}
    cost = 0.1

    def setup(self, rs, seed, workdir):
        self.rs, self.seed = rs, seed
        self.path = workdir / f"solve-{seed}.json"
        self.argv = ["solve", "--size", str(self.cfg["size"]), "--seed", str(seed),
                     "--cost", repr(self.cost), "--grid-step", self.cfg["grid_step"],
                     "--out", str(self.path)]
        self.items = self.cfg["size"]
        self.fine_gap = None

    def oracle(self, text):
        rep = json.loads(text)
        A, k, pi0 = oracles.cli_population(self.cfg["size"], self.seed)
        a_star, got = rep["alpha_star"], rep["platform_profit"]
        entered, plat, _ = oracles.linear_quadratic_cells(A, k, pi0, [a_star], self.cost)
        want = float(plat.sum())
        n = int(round(1.0 / float(self.cfg["grid_step"])))
        coarse, _ = oracles.platform_curve(A, k, pi0, [i / n for i in range(n + 1)], self.cost)
        scale = max(1.0, float(np.abs(coarse).max()))
        errors = []
        if not 0.0 <= a_star <= 1.0:
            errors.append(f"alpha*={a_star!r} outside [0, 1]")
        if not oracles.close(got, want, 1e-9, scale):
            errors.append(f"profit {got!r} != closed form {want!r} at alpha*={a_star!r}")
        if got < float(coarse.max()) - 1e-9 * scale:
            errors.append(f"profit {got!r} below the best point {float(coarse.max())!r} of the search grid")
        ids = [d["id"] for d in rep["per_developer"]]
        want_ids = [f"dev-{i:05d}" for i in np.flatnonzero(entered[:, 0])]
        if rep["n_entrants"] != len(want_ids) or ids != want_ids:
            errors.append(f"{rep['n_entrants']} entrants, closed form gives {len(want_ids)}")
        else:
            effort = np.array([d["effort"] for d in rep["per_developer"]])
            want_e = (1.0 - a_star) * A[entered[:, 0]] / k[entered[:, 0]]
            if not np.allclose(effort, want_e, rtol=1e-9, atol=0.0):
                errors.append("entrant efforts differ from A*(1-alpha)/k")
        self.fine_gap = self._fine_gap(A, k, pi0, a_star, got)
        return errors

    def _fine_gap(self, A, k, pi0, a_star, got):
        """Distance from a 1e-5-step grid optimum. Reported, not checked: the
        1e-3 search grid can miss a peak narrower than its step."""
        alphas = np.arange(100001) / 100000
        profit, _ = oracles.platform_curve(A, k, pi0, alphas, self.cost)
        j = int(np.argmax(profit))
        return {"fine_oracle_alpha": float(alphas[j]),
                "alpha_gap": abs(a_star - float(alphas[j])),
                "profit_gap_rel": (float(profit[j]) - got) / abs(float(profit[j]))}

    def detail(self):
        return self.fine_gap or {}


class ComparePop(Workload):
    """``compare_models`` for each developer of a seeded mixed population:
    every revenue x cost family pair against five business models at a
    finite capital. An op is one developer."""

    name = "compare-pop"
    sizes = {"full": {"size": 300}, "smoke": {"size": 12}}
    models = {"rate": 0.25, "platform_cost": 0.05, "token_price": 0.1,
              "subscription_fee": 0.05, "free_quota": 0.5, "overage_price": 0.1,
              "marketplace_commission": 0.15, "capital": 0.1}

    def setup(self, rs, seed, workdir):
        self.rs = rs
        self.devs = oracles.compare_population(self.cfg["size"], seed)
        self.profiles = [rs.DeveloperProfile(
            id=d["id"],
            tech=rs.RevenueTechnology(
                family=d["family"], scale=d["scale"], beta=d["beta"],
                demand_base=d["demand_base"], demand_quality=d["demand_quality"],
                demand_slope=d["demand_slope"], usage_per_revenue=d["usage_per_revenue"]),
            cost=rs.EffortCost(family=d["cost_family"], k=d["k"], exponent=d["exponent"]),
            reservation_profit=d["reservation"]) for d in self.devs]
        m = self.models
        self.policy = rs.CommissionPolicy.flat(m["rate"])
        self.business_models = [
            rs.RsiModel(policy=self.policy),
            rs.PayPerTokenModel(token_price=m["token_price"]),
            rs.SubscriptionModel(fee=m["subscription_fee"]),
            rs.FreemiumModel(free_quota=m["free_quota"], overage_price=m["overage_price"]),
            rs.MarketplaceModel(commission=m["marketplace_commission"],
                                token_price=m["token_price"]),
        ]
        self.items = 1

    def at_boundary(self, n_ops):
        return n_ops % len(self.profiles) == 0  # whole passes over the population

    def input_key(self, i):
        return i % len(self.profiles)

    def op(self, i):
        return self.rs.comparator.compare_models(
            self.profiles[self.input_key(i)], self.business_models,
            self.models["platform_cost"], capital=self.models["capital"])

    def keep(self, table):
        rows = {r.model: (r.effort, r.developer_profit, r.platform_profit,
                          r.upfront_cost, r.entered) for r in table.rows}
        return rows, table.preferred_by_developer, table.preferred_by_platform

    def check(self, i, output):
        rows, dev_pick, plat_pick = output
        j = self.input_key(i)
        errors = oracles.check_comparison(self.devs[j], self.models, rows)
        br = self.rs.best_response.solve_effort_policy(self.profiles[j], self.policy)
        if rows["rsi"][:2] != (br.effort, br.net_profit):
            errors.append(f"rsi row {rows['rsi'][:2]} != solve_effort_policy "
                          f"({br.effort}, {br.net_profit})")
        order = list(rows)
        entered = [m for m in order if rows[m][4]]
        for pick, col, label in ((dev_pick, 1, "developer"), (plat_pick, 2, "platform")):
            want = max(entered, key=lambda m: (rows[m][col], -order.index(m))) if entered else None
            if pick != want:
                errors.append(f"preferred by {label} {pick!r}, rows give {want!r}")
        return [f"{self.devs[j]['id']}: {e}" for e in errors]


class Settle100k(_CliWorkload):
    """``revshare settle --freemium --degressive --ad-share`` on a seeded
    single-app ledger: the integer-cent path, which calls no solver code."""

    name = "settle-100k"
    sizes = {"full": {"rows": 100_000}, "smoke": {"rows": 2_000}}
    bands = ((0.0, 0.30), (1000.0, 0.20), (100000.0, 0.10))
    ad_share = 0.3

    def setup(self, rs, seed, workdir):
        self.rs = rs
        self.ledger = oracles.ledger_columns(self.cfg["rows"], seed)
        ledger_path = workdir / f"ledger-{seed}.csv"
        oracles.write_ledger(ledger_path, *self.ledger)
        self.path = workdir / f"statement-{seed}.json"
        self.argv = ["settle", "--ledger", str(ledger_path), "--freemium",
                     "--degressive", ",".join(f"{t:g}:{r:g}" for t, r in self.bands),
                     "--ad-share", repr(self.ad_share), "--format", "json",
                     "--out", str(self.path)]
        self.items = self.cfg["rows"]

    def oracle(self, text):
        got = json.loads(text)
        errors = []
        if got["commission_cents"] + got["payout_cents"] != got["gross_cents"]:
            errors.append("commission + payout != gross")
        want = oracles.expected_statement(*self.ledger, self.bands, self.ad_share)
        for key, value in want.items():
            if got.get(key) != value:
                errors.append(f"{key}: {got.get(key)!r} != {value!r}")
        rate = want["commission_cents"] / want["gross_cents"]
        if not math.isclose(got["effective_rate"], rate, rel_tol=1e-12):
            errors.append(f"effective_rate {got['effective_rate']!r} != {rate!r}")
        return errors


WORKLOADS = {w.name: w for w in (SweepM1000, SolveM200, ComparePop, Settle100k)}
