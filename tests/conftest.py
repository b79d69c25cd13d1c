"""Shared fixtures, independent brute-force oracles and test helpers.

The oracles here never call the solver's search paths: effort optima come
from dense numpy grid scans of the profit function evaluated directly from
the model formulas, and ``exact_linear_alpha`` solves the linear game's outer
problem in 60-digit decimals. ``participation_counts`` reads N(alpha) off
``sweep``.
"""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from revshare.model import (
    DeveloperProfile,
    EffortCost,
    RevenueTechnology,
)
from revshare.participation import sweep


@pytest.fixture
def canonical_profile():
    """The worked-example developer: R=e, phi=e^2/2, q=e, no outside option."""
    return DeveloperProfile(
        id="dev-00000",
        tech=RevenueTechnology(family="linear", scale=1.0),
        cost=EffortCost(family="quadratic", k=1.0),
        reservation_profit=0.0,
    )


def revenue_grid(tech, e):
    """Vectorized reduced-form revenue (price optimized out) on an e array."""
    if tech.family == "linear":
        return tech.scale * e
    if tech.family == "power":
        return tech.scale * np.power(e, tech.beta)
    intercept = tech.demand_base + tech.demand_quality * e
    return np.where(intercept > 0,
                    intercept ** 2 / (4 * tech.demand_slope), 0.0)


def cost_grid(cost, e):
    if cost.family == "quadratic":
        return 0.5 * cost.k * e ** 2
    return cost.k * np.power(e, cost.exponent) / cost.exponent


def central_diff(f, x, h=None):
    """Central finite difference, one-sided at the left domain edge."""
    if h is None:
        h = max(1e-6, 1e-6 * abs(x))
    if x - h < 0:
        return (f(x + h) - f(x)) / h
    return (f(x + h) - f(x - h)) / (2 * h)


def participation_counts(population, alpha_grid):
    """N(alpha) over an ascending grid, read off ``sweep``; a flat
    commission makes it non-increasing, which is asserted."""
    counts = sweep(population, alpha_grid, 0.0).entrant_counts
    for a1, n1, a2, n2 in zip(alpha_grid, counts, alpha_grid[1:], counts[1:]):
        assert n2 <= n1, f"participation increased from N({a1})={n1} to N({a2})={n2}"
    return counts


def grid_best_effort(profile, alpha, e_max, step=1e-6):
    """Brute-force inner oracle: argmax of (1-alpha)R(e) - phi(e) on a grid."""
    e = np.arange(0.0, e_max + step, step)
    profit = (1 - alpha) * revenue_grid(profile.tech, e) - cost_grid(profile.cost, e)
    i = int(np.argmax(profit))
    return float(e[i]), float(profit[i])


def oracle_alpha_grid(population, c, step=1e-5):
    """Vectorized brute-force outer oracle over the alpha grid, built from
    the closed-form inner solutions (linear/power + quadratic only)."""
    alphas = np.arange(0.0, 1.0 + step / 2, step)
    total = np.zeros_like(alphas)
    for p in population:
        A, k = p.tech.scale, p.cost.k
        if p.tech.family == "linear":
            e = A * (1 - alphas) / k
            r = A * e
        else:
            b = p.tech.beta
            e = np.power(np.maximum(A * b * (1 - alphas) / k, 0.0),
                         1.0 / (2.0 - b))
            r = A * np.power(e, b)
        pi_dev = (1 - alphas) * r - 0.5 * k * e ** 2
        entered = pi_dev >= p.reservation_profit
        total += np.where(entered, alphas * r - c * e, 0.0)
    i = int(np.argmax(total))
    return float(alphas[i]), float(total[i])


def exact_linear_alpha(population, c):
    """The platform's optimal flat rate and profit, in 60-digit decimals, for
    linear revenue, quadratic cost, usage q = e and no ad revenue.

    Developer i enters exactly when alpha <= x_i = 1 - sqrt(2 k_i pi0_i) / A_i.
    With the exits in descending order, the entrants over each segment between
    two exits are fixed, and platform profit there is (1 - alpha)(alpha S1 -
    c S0), S0 = sum A/k and S1 = sum A^2/k over the entrants. Its vertex
    (S1 + c S0) / (2 S1), clipped to the segment, is the segment's best; the
    first best over all segments is returned as ``(alpha, profit)``."""
    with localcontext() as ctx:
        ctx.prec = 60
        c, zero = Decimal(c), Decimal(0)
        exits = []
        for p in population:
            assert (p.tech.family, p.cost.exponent) == ("linear", 2)
            assert p.tech.usage_per_revenue is None and p.ad_revenue == 0
            scale, k = Decimal(p.tech.scale), Decimal(p.cost.k)
            x = 1 - (2 * k * Decimal(p.reservation_profit)).sqrt() / scale
            exits.append((x, scale / k, scale * scale / k))
        exits.sort(key=lambda exit: exit[0], reverse=True)
        best_alpha, best_profit = Decimal(1), zero  # the platform earns 0 at 1
        s0 = s1 = zero
        next_exits = [x for x, _, _ in exits[1:]] + [zero]
        for (hi, a_over_k, a2_over_k), lo in zip(exits, next_exits):
            if hi < 0:
                break
            s0, s1 = s0 + a_over_k, s1 + a2_over_k
            alpha = min(max((s1 + c * s0) / (2 * s1), lo, zero), hi)
            profit = (1 - alpha) * (alpha * s1 - c * s0)
            if profit > best_profit:
                best_alpha, best_profit = alpha, profit
        return best_alpha, best_profit


def random_profiles(n, seed, families=("linear", "power"),
                    cost_families=("quadratic", "power_convex"),
                    reservation_hi=0.05):
    """Seeded heterogeneous profiles over the analytic family pairs, with
    parameter ranges keeping interior optima well away from zero."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        fam = families[rng.integers(len(families))]
        cfam = cost_families[rng.integers(len(cost_families))]
        tech = RevenueTechnology(
            family=fam,
            scale=float(rng.uniform(0.5, 2.0)),
            beta=float(rng.uniform(0.3, 0.9)) if fam == "power" else 1.0,
        )
        cost = EffortCost(
            family=cfam,
            k=float(rng.uniform(0.5, 2.0)),
            exponent=float(rng.uniform(2.0, 4.0)) if cfam == "power_convex" else 2.0,
        )
        out.append(DeveloperProfile(
            id=f"dev-{i:05d}", tech=tech, cost=cost,
            reservation_profit=float(rng.uniform(0.0, reservation_hi)),
        ))
    return out


def overflowing(family="linear", scale=1e200, k=1e-200, beta=1.0):
    """A profile DeveloperProfile accepts whose best response overflows a
    float: effort (1 - alpha) * A / k is about 1e400 for linear revenue."""
    return DeveloperProfile(
        id="huge", tech=RevenueTechnology(family, scale=scale, beta=beta),
        cost=EffortCost(k=k))


def cubed_overflowing():
    """A profile that validates whose effort, about 7e149, overflows a float
    when cubed: Python's ``**`` raises OverflowError there."""
    return DeveloperProfile(
        id="huge", tech=RevenueTechnology("linear", scale=1e150),
        cost=EffortCost("power_convex", k=1e-150, exponent=3.0))
