"""Outer Stackelberg stage: pick the commission rate maximizing platform
profit, anticipating developer best responses and entry.

Platform profit at a rate is the sum, over the developers who enter, of
each entrant's commission (waived while the entrant's request volume is
below the policy's ``activity_threshold``) plus ``ad_share * ad_revenue``
minus ``marginal_cost * usage``. ``participation.entrant_profit`` is its
one definition, and ``participate`` adds it up in developer-id order in
the same pass that decides entry, and ``participation.sweep`` is the one
walk over a set of rates, so every entry point here gives bit-identical
profits at a given rate.

Profit over alpha can jump where entrants exit, so the search is a dense
coarse grid (global coverage) followed by shrinking-grid refinement around
the best bracket, each grid one ``sweep``, ``max_rates`` rates at most.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .best_response import BestResponse, solve_effort
from .model import CommissionPolicy, DomainError, PlatformParams
from .participation import developer_profit, participate, rate_grid, sweep

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
    """Total platform profit over the entrants at rate alpha (default: the
    flat policy's rate, else 0), or under a degressive policy."""
    if alpha is None and (policy is None or policy.is_flat):
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


def profit_curve(params: PlatformParams, alpha_grid: Sequence[float],
                 policy: Optional[CommissionPolicy] = None
                 ) -> List[Tuple[float, float, int]]:
    """(alpha, profit, entrant count) samples for plotting/export."""
    swept = sweep(params.population, alpha_grid, params.marginal_cost, policy)
    return list(zip(alpha_grid, swept.platform_profits, swept.entrant_counts))


def marginal_decomposition(params: PlatformParams, alpha: float, h: float = 1e-4,
                           reservation_cdf: Optional[Callable[[float], float]] = None
                           ) -> Tuple[float, float]:
    """Split dProfit/dalpha into the extensive (entry) and intensive
    (per-entrant margin) terms by central finite differences.

    With a known reservation-profit distribution the entry derivative uses
    the smoothed expected count instead of raw integer differencing.
    """
    if not (0 < alpha < 1):
        raise DomainError("alpha must be interior for the decomposition")
    if h <= 0 or alpha - h < 0 or alpha + h > 1:
        raise DomainError("step h leaves [0,1]")

    swept = sweep(params.population, [alpha - h, alpha, alpha + h],
                  params.marginal_cost)
    n_lo, n_mid, n_hi = map(float, swept.entrant_counts)
    m_lo, m_mid, m_hi = (pi / n if n else 0.0 for pi, n in
                         zip(swept.platform_profits, swept.entrant_counts))
    if reservation_cdf is not None:  # smoothed expected count
        ordered = sorted(params.population, key=lambda q: q.id)
        n_lo, n_mid, n_hi = (
            sum(reservation_cdf(developer_profit(p, solve_effort(p, a).net_profit))
                for p in ordered) for a in swept.alphas)
    n_prime = (n_hi - n_lo) / (2 * h)
    m_prime = (m_hi - m_lo) / (2 * h)
    return n_prime * m_mid, n_mid * m_prime
