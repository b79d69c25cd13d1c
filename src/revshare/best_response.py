"""Developer inner problem: choose effort (and price, for the demand family)
to maximize retained revenue minus effort cost at a given commission rate.

Closed forms are used wherever the family pair admits one; everything else
falls back to golden-section search on the reduced profit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .model import (
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    LINEAR_DEMAND,
    LINEAR_EFFORT,
    POWER_EFFORT,
    QUADRATIC,
    RevenueTechnology,
    effort_cost,
    marginal_effort_cost,
    revenue,
)
from .numeric import SEARCH_CAP, expand_upper_bound, golden_section_max

ANALYTIC = "analytic"
NUMERIC = "numeric"


class NonConvergenceError(RuntimeError):
    """Inner solver failed to bracket or converge; carries the residual."""

    def __init__(self, message: str, residual: float = math.nan):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class BestResponse:
    effort: float
    price: Optional[float]
    gross_revenue: float
    usage: float
    net_profit: float
    foc_residual: float
    method: str


@dataclass(frozen=True)
class PriceSolution:
    price: Optional[float]
    revenue: float


def solve_price(tech: RevenueTechnology, effort: float) -> PriceSolution:
    """Profit-maximizing price at fixed effort for the linear demand family:
    the vertex of p*(a + b*e - d*p)."""
    if tech.family != LINEAR_DEMAND:
        raise DomainError("solve_price applies to the linear_demand family only")
    intercept = tech.demand_base + tech.demand_quality * effort
    if intercept <= 0:
        return PriceSolution(price=None, revenue=0.0)
    p = intercept / (2 * tech.demand_slope)
    return PriceSolution(price=p, revenue=intercept ** 2 / (4 * tech.demand_slope))


def reduced(tech: RevenueTechnology,
            effort: float) -> Tuple[Optional[float], float, float]:
    """(price, gross revenue, usage) at a given effort with the price
    optimized out. The one statement of reduced revenue and of the usage
    rule: requests are ``usage_per_revenue * R`` when that is set, else the
    effort itself."""
    if tech.family == LINEAR_DEMAND:
        sol = solve_price(tech, effort)
        price, gross = sol.price, sol.revenue
    else:
        price, gross = None, revenue(tech, effort)
    if tech.usage_per_revenue is not None:
        return price, gross, tech.usage_per_revenue * gross
    return price, gross, effort


def _reduced_marginal_revenue(tech: RevenueTechnology, effort: float) -> float:
    if tech.family == LINEAR_EFFORT:
        return tech.scale
    if tech.family == POWER_EFFORT:
        if effort == 0:
            return tech.scale if tech.beta == 1 else math.inf
        return tech.scale * tech.beta * effort ** (tech.beta - 1)
    intercept = tech.demand_base + tech.demand_quality * effort
    if intercept <= 0:
        return 0.0
    return tech.demand_quality * intercept / (2 * tech.demand_slope)


def foc_residual(profile: DeveloperProfile, alpha: float, effort: float) -> float:
    """Stationarity gap (1-alpha)*R'(e) - phi'(e) of the reduced problem.

    Returns +inf when the marginal revenue itself diverges (power family at
    e=0 with beta<1 and a positive retained share).
    """
    if effort < 0:
        raise DomainError("effort must be >= 0")
    retained = 1.0 - alpha
    rprime = _reduced_marginal_revenue(profile.tech, effort)
    if math.isinf(rprime):
        return math.inf if retained > 0 else 0.0
    return retained * rprime - marginal_effort_cost(profile.cost, effort)


def responder(profile: DeveloperProfile) -> Optional[Callable[..., tuple]]:
    """One developer's closed-form best response, built once: a map from a
    flat rate alpha to (effort, gross revenue, usage, net profit); None for
    linear_demand. Alpha is a float, or a float64 row of rates with
    ``pw=participation.row_pow``. The one statement of
    (1-alpha)*A*beta*e^(beta-1) = k*e^(m-1), agreeing bit for bit with
    ``reduced`` and ``effort_cost``."""
    tech, cost = profile.tech, profile.cost
    if tech.family == LINEAR_DEMAND:
        return None
    scale, k, kappa, m = tech.scale, cost.k, tech.usage_per_revenue, cost.exponent
    powered, quadratic = tech.family == POWER_EFFORT, cost.family == QUADRATIC
    beta = tech.beta if powered else 1.0
    power, half_k = 1.0 / ((2.0 if quadratic else m) - beta), 0.5 * k

    def respond(alpha, pw=pow) -> tuple:
        retained = 1.0 - alpha
        e = pw(retained * scale * beta / k, power)
        gross = scale * pw(e, beta) if powered else scale * e
        phi = half_k * pw(e, 2) if quadratic else k * pw(e, m) / m
        return e, gross, e if kappa is None else kappa * gross, retained * gross - phi

    return respond


def _reduced_profit(profile: DeveloperProfile, retained: float):
    tech, cost = profile.tech, profile.cost
    return lambda e: retained * reduced(tech, e)[1] - effort_cost(cost, e)


def _effort_upper_bound(profile: DeveloperProfile) -> float:
    """An effort past which the developer's profit falls even when they keep
    everything (alpha=0)."""
    f = _reduced_profit(profile, 1.0)
    hi = expand_upper_bound(f)
    if hi >= SEARCH_CAP and f(hi) > f(hi / 2):
        raise NonConvergenceError(
            "developer problem appears unbounded (marginal revenue never "
            "falls below marginal cost)")
    return hi


def _package(profile: DeveloperProfile, alpha: float, e: float,
             method: str) -> BestResponse:
    price, gross, q = reduced(profile.tech, e)
    profit = (1.0 - alpha) * gross - effort_cost(profile.cost, e)
    residual = foc_residual(profile, alpha, e) if e > 0 else 0.0
    return BestResponse(effort=e, price=price, gross_revenue=gross, usage=q,
                        net_profit=profit, foc_residual=residual, method=method)


def solve_effort(profile: DeveloperProfile, alpha: float,
                 force_numeric: bool = False) -> BestResponse:
    """Best response to a flat commission rate alpha: ``responder``'s closed
    form where the family pair has one, else a golden-section search."""
    if not (0 <= alpha <= 1):
        raise DomainError("alpha out of [0,1]")
    retained = 1.0 - alpha
    if retained == 0:
        return _package(profile, alpha, 0.0, ANALYTIC)

    respond = None if force_numeric else responder(profile)
    if respond is not None:
        return _package(profile, alpha, respond(alpha)[0], ANALYTIC)

    hi = _effort_upper_bound(profile)
    f = _reduced_profit(profile, retained)
    e = golden_section_max(f, 0.0, hi, tol=1e-12 * max(1.0, hi))
    if f(0.0) >= f(e):
        e = 0.0  # minimal-effort tie-break
    return _package(profile, alpha, e, NUMERIC)


def _invert_revenue(tech: RevenueTechnology, target: float) -> Optional[float]:
    """Smallest effort with reduced revenue equal to target, if reachable."""
    if target <= 0:
        return 0.0
    if tech.family == LINEAR_EFFORT:
        return target / tech.scale
    if tech.family == POWER_EFFORT:
        return (target / tech.scale) ** (1.0 / tech.beta)
    # (a+b*e)^2/(4d) = target
    if tech.demand_quality == 0:
        return None
    root = math.sqrt(4 * tech.demand_slope * target)
    e = (root - tech.demand_base) / tech.demand_quality
    return max(e, 0.0)


def solve_effort_policy(profile: DeveloperProfile,
                        policy: CommissionPolicy) -> BestResponse:
    """Best response under a (possibly degressive) commission schedule.

    Piecewise-concave objective: each flat band's interior optimum plus the
    band-edge efforts contain the global maximum.
    """
    if policy.is_flat:
        return solve_effort(profile, policy.rate)

    tech, cost = profile.tech, profile.cost

    def profit(e: float) -> float:
        r = reduced(tech, e)[1]
        return r - policy.commission(r) - effort_cost(cost, e)

    candidates = [0.0]
    method = ANALYTIC
    bps = policy.breakpoints
    for i, (threshold, rate) in enumerate(bps):
        upper = bps[i + 1][0] if i + 1 < len(bps) else math.inf
        br = solve_effort(profile, rate)
        if br.method == NUMERIC:
            method = NUMERIC
        if threshold <= br.gross_revenue < upper or (
                math.isinf(upper) and br.gross_revenue >= threshold):
            candidates.append(br.effort)
        edge = _invert_revenue(tech, threshold)
        if edge is not None:
            candidates.append(edge)

    best_e = min(candidates, key=lambda e: (-profit(e), e))
    r = reduced(tech, best_e)[1]
    marginal_alpha = policy.marginal_rate(r)
    packaged = _package(profile, marginal_alpha, best_e, method)
    # net profit under the actual schedule, not the local marginal rate
    return BestResponse(effort=packaged.effort, price=packaged.price,
                        gross_revenue=r, usage=packaged.usage,
                        net_profit=profit(best_e),
                        foc_residual=packaged.foc_residual, method=method)
