"""Shared fixtures, independent brute-force oracles and test helpers.

The oracles here never call the solver's search paths: effort optima come
from dense numpy grid scans of the profit function evaluated directly from
the model formulas. ``participation_counts`` reads N(alpha) off ``sweep``.
"""

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
