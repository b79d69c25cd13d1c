"""Developer inner problem: choose effort (and price, for the demand family)
to maximize retained revenue minus effort cost at a given commission rate.

Closed forms are used wherever the family pair admits one; everything else
falls back to golden-section search on the reduced profit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .model import (
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    LINEAR_DEMAND,
    RevenueTechnology,
    effort_cost,
    marginal_effort_cost,
    revenue,
)
from .numeric import (  # noqa: F401  NonConvergenceError is re-exported
    NonConvergenceError, expand_upper_bound, golden_section_max)

ANALYTIC = "analytic"
NUMERIC = "numeric"


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
    return PriceSolution(p, intercept * intercept / (4 * tech.demand_slope))


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
    if tech.family != LINEAR_DEMAND:
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


def closed_form(alpha, scale: float, beta: float, kappa: Optional[float],
                k: float, m: float, pw=pow) -> tuple:
    """(effort, gross revenue, usage, net profit) at flat rate alpha for
    R = A*e^beta, usage kappa*R (e if kappa is None) and phi = k*e^m/m; alpha
    a float, or a float64 row of rates with ``pw=participation.row_pow``. The
    one statement of (1-alpha)*A*beta*e^(beta-1) = k*e^(m-1), agreeing bit
    for bit with ``reduced`` and ``effort_cost``: e^2 is ``e * e``, other
    powers ``pw``."""
    retained = 1.0 - alpha
    e = pw(retained * scale * beta / k, 1.0 / (m - beta))
    gross = scale * pw(e, beta)
    phi = k * (e * e if m == 2 else pw(e, m)) / m
    return e, gross, e if kappa is None else kappa * gross, retained * gross - phi


def _reduced_profit(profile: DeveloperProfile, retained: float):
    tech, cost = profile.tech, profile.cost
    return lambda e: retained * reduced(tech, e)[1] - effort_cost(cost, e)


def overflow_error(profile: DeveloperProfile, alpha: float) -> DomainError:
    """The error for a best response that overflows a float, on every path."""
    return DomainError(f"developer {profile.id!r} at alpha {alpha}: "
                       "the best response overflows a float")


def _package(profile: DeveloperProfile, alpha: float, e: float,
             method: str) -> BestResponse:
    price, gross, q = reduced(profile.tech, e)
    profit = (1.0 - alpha) * gross - effort_cost(profile.cost, e)
    if not math.isfinite(profit):
        raise overflow_error(profile, alpha)
    residual = foc_residual(profile, alpha, e) if e > 0 else 0.0
    return BestResponse(effort=e, price=price, gross_revenue=gross, usage=q,
                        net_profit=profit, foc_residual=residual, method=method)


def solve_effort(profile: DeveloperProfile, alpha: float,
                 force_numeric: bool = False) -> BestResponse:
    """Best response to a flat commission rate alpha: ``closed_form`` where
    the family pair has one (not linear_demand), else a golden-section search."""
    if not (0 <= alpha <= 1):
        raise DomainError("alpha out of [0,1]")
    retained = 1.0 - alpha
    if retained == 0:
        return _package(profile, alpha, 0.0, ANALYTIC)

    tech, cost = profile.tech, profile.cost
    try:
        if not force_numeric and tech.family != LINEAR_DEMAND:
            e = closed_form(alpha, tech.scale, tech.beta, tech.usage_per_revenue,
                            cost.k, cost.exponent)[0]
            return _package(profile, alpha, e, ANALYTIC)

        # past this effort the profit falls even when they keep everything
        hi = expand_upper_bound(_reduced_profit(profile, 1.0))
        f = _reduced_profit(profile, retained)
        e = golden_section_max(f, 0.0, hi, tol=1e-12 * max(1.0, hi))
        return _package(profile, alpha, e, NUMERIC)
    except OverflowError:  # a power out of range, which ** raises
        raise overflow_error(profile, alpha) from None


def _invert_revenue(tech: RevenueTechnology, target: float) -> Optional[float]:
    """Smallest effort with reduced revenue equal to target, if reachable."""
    if target <= 0:
        return 0.0
    if tech.family != LINEAR_DEMAND:
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
        if threshold <= br.gross_revenue < upper:
            candidates.append(br.effort)
        edge = _invert_revenue(tech, threshold)
        if edge is not None:
            candidates.append(edge)

    best_e = min(candidates, key=lambda e: (-profit(e), e))
    marginal_alpha = policy.marginal_rate(reduced(tech, best_e)[1])
    # net profit under the actual schedule, not the local marginal rate
    return replace(_package(profile, marginal_alpha, best_e, method),
                   net_profit=profit(best_e))
