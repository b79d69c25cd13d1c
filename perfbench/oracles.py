"""Seeded input generators and independent oracles for the benchmark.

Nothing here calls revshare's solvers. The oracles recompute each answer
from the model's closed forms (numpy), from dense grid scans, or from exact
Decimal arithmetic, so a fast path that drifts from the model shows up as a
failed check.
"""

from __future__ import annotations

import math
from decimal import Decimal, ROUND_HALF_UP

import numpy as np

# --- the population that `revshare sweep/solve --size M --seed S` draws ---


def cli_population(size, seed):
    """(A, k, pi0) arrays of the default linear/quadratic population, drawn
    in the generator's documented order: one child stream per developer,
    then family pick, scale, cost scale and reservation profit."""
    A, k, pi0 = np.empty(size), np.empty(size), np.empty(size)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(size)):
        rng = np.random.default_rng(child)
        rng.uniform()  # family pick; the default mix is linear only
        A[i] = rng.uniform(0.5, 1.5)
        k[i] = rng.uniform(0.5, 1.5)
        pi0[i] = max(0.0, rng.uniform(0.0, 0.1))
    return A, k, pi0


def linear_quadratic_cells(A, k, pi0, alphas, cost):
    """Closed-form best responses on a (developer x rate) array.

    With R = A*e and phi = k*e^2/2 the optimum is e = A*(1-a)/k. Returns
    (entered, platform profit per cell, developer profit per cell)."""
    a = np.asarray(alphas, dtype=float)[None, :]
    A, k, pi0 = A[:, None], k[:, None], pi0[:, None]
    e = (1.0 - a) * A / k
    r = A * e
    dev = (1.0 - a) * r - 0.5 * k * e ** 2
    entered = dev >= pi0
    return entered, np.where(entered, a * r - cost * e, 0.0), np.where(entered, dev, 0.0)


def platform_curve(A, k, pi0, alphas, cost, chunk=2048):
    """Platform profit and entrant count at each rate, in rate chunks so a
    fine grid never builds a (developer x rate) array larger than
    len(A) * chunk."""
    alphas = np.asarray(alphas, dtype=float)
    profit, count = np.empty(len(alphas)), np.empty(len(alphas), dtype=int)
    for lo in range(0, len(alphas), chunk):
        entered, plat, _ = linear_quadratic_cells(A, k, pi0, alphas[lo:lo + chunk], cost)
        profit[lo:lo + chunk] = plat.sum(axis=0)
        count[lo:lo + chunk] = entered.sum(axis=0)
    return profit, count


def close(got, want, rel, scale=1.0):
    """|got - want| within rel of max(|want|, scale)."""
    return abs(got - want) <= rel * max(abs(want), scale)


# --- compare-pop: a heterogeneous population over every family pair ---

REVENUE_FAMILIES = ("linear", "power", "linear_demand")
COST_FAMILIES = ("quadratic", "power_convex")


def compare_population(size, seed):
    """Plain-dict developer parameters, cycling through the six revenue x
    cost family pairs so every seed has the same mix. Demand quality is
    drawn as b = u*sqrt(2*d*k) with u < 0.8, so b^2 < 2*d*k and every
    developer problem is bounded."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(size):
        fam = REVENUE_FAMILIES[i % 3]
        cfam = COST_FAMILIES[(i // 3) % 2]
        k = float(rng.uniform(0.5, 2.0))
        dev = {"id": f"dev-{i:05d}", "family": fam, "cost_family": cfam, "k": k,
               "exponent": float(rng.uniform(2.0, 4.0)) if cfam == "power_convex" else 2.0,
               "scale": 1.0, "beta": 1.0, "demand_base": 0.0,
               "demand_quality": 0.0, "demand_slope": 1.0,
               "usage_per_revenue": None,
               "reservation": float(rng.uniform(0.0, 0.05))}
        if fam == "linear_demand":
            d = float(rng.uniform(0.5, 2.0))
            dev.update(demand_base=float(rng.uniform(0.2, 1.0)), demand_slope=d,
                       demand_quality=float(rng.uniform(0.2, 0.8)) * math.sqrt(2 * d * k),
                       usage_per_revenue=float(rng.uniform(0.5, 2.0)))
        else:
            dev["scale"] = float(rng.uniform(0.5, 2.0))
            if fam == "power":
                dev["beta"] = float(rng.uniform(0.3, 0.9))
        out.append(dev)
    return out


def reduced_revenue(dev, e):
    """Revenue with the price optimized out, on an effort array."""
    if dev["family"] == "linear":
        return dev["scale"] * e
    if dev["family"] == "power":
        return dev["scale"] * np.power(e, dev["beta"])
    intercept = dev["demand_base"] + dev["demand_quality"] * e
    return np.where(intercept > 0, intercept ** 2 / (4 * dev["demand_slope"]), 0.0)


def requests(dev, e, r):
    upr = dev["usage_per_revenue"]
    return e if upr is None else upr * r


def effort_cost(dev, e):
    return dev["k"] * np.power(e, dev["exponent"]) / dev["exponent"]


def model_terms(dev, models, e):
    """Per model: (developer objective, upfront cost, platform profit) on an
    effort array, from the fee structures' definitions."""
    r = reduced_revenue(dev, e)
    q = requests(dev, e, r)
    phi = effort_cost(dev, e)
    c = models["platform_cost"]
    tp, fee = models["token_price"], models["subscription_fee"]
    over = models["overage_price"] * np.maximum(0.0, q - models["free_quota"])
    mc, rate = models["marketplace_commission"], models["rate"]
    zero = np.zeros_like(e)
    return {
        "rsi": ((1 - rate) * r - phi, zero, rate * r - c * q),
        "pay_per_token": (r - tp * q - phi, tp * q, (tp - c) * q),
        "subscription": (r - phi - fee, zero + fee, fee - c * q),
        "freemium": (r - over - phi, over, over - c * q),
        "marketplace": ((1 - mc) * r - tp * q - phi, tp * q, mc * r + (tp - c) * q),
    }


def effort_ceiling(dev, floor):
    """An effort beyond which R(e) - phi(e) stays below floor. Every model's
    objective is at most R - phi, so no model's optimum lies beyond it."""
    e = 1.0
    while True:
        grid = np.array([e])
        if float(reduced_revenue(dev, grid)[0] - effort_cost(dev, grid)[0]) < floor - 1.0:
            return e
        e *= 2.0


def check_comparison(dev, models, rows, grid_points=20001, rel=1e-9):
    """Errors in one developer's comparison rows (model -> (effort,
    developer profit, platform profit, upfront, entered)). Each reported
    optimum must score what the objective gives at its effort, and no point
    of a dense effort grid may beat it."""
    errors = []
    zero = np.zeros(1)
    at_zero = model_terms(dev, models, zero)
    floor = min(float(v[0][0]) for v in at_zero.values())
    grid = np.linspace(0.0, effort_ceiling(dev, floor), grid_points)
    dense = model_terms(dev, models, grid)
    for name, (effort, dev_profit, plat_profit, upfront, entered) in rows.items():
        obj, up, plat = (float(t[0]) for t in model_terms(dev, models, np.array([effort]))[name])
        if not close(dev_profit, obj, rel):
            errors.append(f"{name}: developer profit {dev_profit!r} != objective {obj!r} at e={effort!r}")
        if not close(plat_profit, plat, rel):
            errors.append(f"{name}: platform profit {plat_profit!r} != {plat!r}")
        if not close(upfront, up, rel):
            errors.append(f"{name}: upfront {upfront!r} != {up!r}")
        best = float(dense[name][0].max())
        if best > dev_profit + rel * max(1.0, abs(dev_profit)):
            errors.append(f"{name}: grid scan beats the optimum ({best!r} > {dev_profit!r})")
        want_entered = upfront <= models["capital"] + 1e-9 and dev_profit >= dev["reservation"]
        if entered != want_entered:
            errors.append(f"{name}: entered={entered} but capital/reservation give {want_entered}")
    return errors


# --- settle-100k: a seeded single-app ledger and its exact settlement ---

KINDS = ("sale", "subscription", "ad")


def ledger_columns(rows, seed):
    """(kind index, amount cents, premium flag) arrays for one app's period."""
    rng = np.random.default_rng(seed)
    kind = rng.choice(3, size=rows, p=(0.6, 0.25, 0.15))
    amount = np.where(kind == 0, rng.integers(1, 5001, rows),
                      np.where(kind == 1, rng.choice((499, 999, 1999), rows),
                               rng.integers(1, 201, rows)))
    premium = rng.random(rows) < 0.8
    return kind, amount, premium


def write_ledger(path, kind, amount, premium):
    lines = ["app_id,period,kind,amount_cents,premium\n"]
    lines += [f"app-bench,2026-01,{KINDS[t]},{a},{int(p)}\n"
              for t, a, p in zip(kind.tolist(), amount.tolist(), premium.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def _half_up(x):
    return int(x.quantize(Decimal(1), rounding=ROUND_HALF_UP))


def expected_statement(kind, amount, premium, bands, ad_share):
    """The statement settle --freemium must produce: commission on premium
    rows only, each degressive band applied to app revenue and the ad share
    to ad revenue, each rounded half-up once on the period total."""
    amount = amount.astype(object)  # exact integer sums
    app_gross = int(amount[premium & (kind != 2)].sum())
    ad_gross = int(amount[premium & (kind == 2)].sum())
    edges = [_half_up(Decimal(repr(t)) * 100) for t, _ in bands] + [None]
    total = Decimal(0)
    for (_, rate), lo, hi in zip(bands, edges, edges[1:]):
        top = app_gross if hi is None else min(app_gross, hi)
        if top > lo:
            total += Decimal(repr(rate)) * (top - lo)
    commission = _half_up(total) + _half_up(Decimal(repr(ad_share)) * ad_gross)
    gross = int(amount.sum())
    return {
        "app_id": "app-bench", "period": "2026-01",
        "gross_cents": gross, "commission_cents": commission,
        "payout_cents": gross - commission,
        "per_kind_cents": {KINDS[t]: int(amount[kind == t].sum())
                           for t in range(3) if (kind == t).any()},
        "free_count": int((~premium).sum()),
    }
