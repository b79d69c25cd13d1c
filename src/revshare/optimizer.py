"""Outer Stackelberg stage: pick the flat commission rate maximizing
platform profit, anticipating developer best responses and entry.

Platform profit at a rate is the sum, over the developers who enter, of
each entrant's commission (waived while the entrant's request volume is
below the policy's ``activity_threshold``) plus ``ad_share * ad_revenue``
minus ``marginal_cost * usage``. ``participation.entrant_profit`` is its
one definition. ``participation.sweep`` is the one walk of a population
over a set of rates, and ``participate`` makes the same additions in the
same developer-id order at one rate, so ``platform_profit`` and
``optimize_alpha`` give bit-identical profits at a given rate.

Profit over alpha can jump where entrants exit, so the search is a dense
coarse grid (global coverage) followed by shrinking-grid refinement around
the best bracket, each grid one ``sweep``, ``max_rates`` rates at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .best_response import BestResponse
from .model import CommissionPolicy, DomainError, PlatformParams
from .participation import participate, rate_grid, sweep

# finest outer-search grid step; a finer step would allocate ~1/step rates
MIN_GRID_STEP = 1e-6
# the refinement stops once its bracket is this narrow
REFINE_TOL = 1e-8


def max_rates(grid_step: float) -> int:
    """The most rates ``optimize_alpha`` evaluates: n + 1 coarse, then 17 a
    round while each round cuts the bracket, min(1, 2 * step) wide, by 8."""
    rounds = math.ceil(math.log(min(1.0, 2 * grid_step) / REFINE_TOL, 8))
    return round(1 / grid_step) + 1 + 17 * rounds


@dataclass(frozen=True)
class EquilibriumReport:
    alpha_star: float
    platform_profit: float
    n_entrants: int
    per_developer: Tuple[Tuple[str, BestResponse], ...]
    diagnostics: dict = field(default_factory=dict)
    analytic_alpha: Optional[float] = None
    degenerate: bool = False


def platform_profit(params: PlatformParams,
                    policy: Optional[CommissionPolicy] = None,
                    alpha: Optional[float] = None) -> float:
    """Total platform profit over the entrants at flat rate alpha (default:
    the flat policy's rate, else 0); a degressive policy is a DomainError."""
    if alpha is None:
        alpha = 0.0 if policy is None else policy.rate
    return participate(params.population, alpha, policy,
                       params.marginal_cost).platform_profit


def _canonical_alpha(params: PlatformParams,
                     policy: Optional[CommissionPolicy]) -> Optional[float]:
    """Closed-form optimum for a single developer with R = A*e, q = e (so
    not linear_demand, which sets usage_per_revenue), phi = k*e^2/2 and no
    outside option: alpha* = (1 + c/A)/2."""
    if policy is not None and (not policy.is_flat or policy.ad_share
                               or policy.activity_threshold):
        return None
    if len(params.population) != 1:
        return None
    p = params.population[0]
    if (p.tech.beta == 1 and p.tech.usage_per_revenue is None
            and p.cost.exponent == 2 and p.reservation_profit == 0
            and p.ad_revenue == 0 and params.marginal_cost < p.tech.scale):
        return 0.5 * (1.0 + params.marginal_cost / p.tech.scale)
    return None


def optimize_alpha(params: PlatformParams,
                   policy: Optional[CommissionPolicy] = None,
                   grid_step: float = 1e-3) -> EquilibriumReport:
    """Maximize platform profit over flat commission rates in [0, 1].

    A flat ``policy`` supplies the ad share and activity threshold applied
    at every rate; a degressive one is a DomainError. Ties between
    equal-profit optima break toward the smallest alpha. When no rate earns
    a positive profit the report is flagged degenerate and carries the
    argmax anyway.
    """
    if not (MIN_GRID_STEP <= grid_step <= 1):
        raise DomainError(f"grid_step must be in [{MIN_GRID_STEP:g}, 1]")

    def best(grid: List[float]) -> Tuple[float, float]:  # the first maximum
        swept = sweep(params.population, grid, params.marginal_cost, policy)
        return max(swept.platform_profits), swept.argmax_alpha

    coarse = rate_grid(0.0, 1.0, grid_step)
    pi_star, alpha_star = best(coarse)
    # profit can jump where entrants exit, so refine by shrinking grids
    # rather than golden section (which assumes continuity at the peak)
    lo = max(0.0, alpha_star - grid_step)
    hi = min(1.0, alpha_star + grid_step)
    iterations = 0
    while hi - lo > REFINE_TOL:
        iterations += 1
        step = (hi - lo) / 16
        pi, a = best(rate_grid(lo, hi, step))
        if (pi, -a) > (pi_star, -alpha_star):  # ties keep the smaller rate
            pi_star, alpha_star = pi, a
        lo = max(lo, alpha_star - step)
        hi = min(hi, alpha_star + step)

    res = participate(params.population, alpha_star, policy,
                      params.marginal_cost)
    per_dev = tuple((i, res.responses[i]) for i in res.entrants)
    return EquilibriumReport(
        alpha_star=alpha_star,
        platform_profit=pi_star,
        n_entrants=res.count,
        per_developer=per_dev,
        diagnostics={"grid_size": len(coarse), "refine_iterations": iterations},
        analytic_alpha=_canonical_alpha(params, policy),
        degenerate=pi_star <= 0.0,
    )
