"""Entry decisions: which developers clear their outside option at a given
flat commission rate, the participation count N(alpha), and the platform's
profit from the developers who enter.

Entry uses a weak inequality (profit >= reservation) so the zero-reservation
boundary case enters. ``sweep`` is the one walk of a population over a set
of rates; every multi-rate evaluation reads it, one developer at a time as
float64 rows over the grid: numpy for + - * / and for squares (products),
Python's libm pow for every other power.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # numpy loads only when a function needs it
    import numpy as np

from .best_response import BestResponse, closed_form, solve_effort
from .model import (_UNSHARED, LINEAR_DEMAND, CommissionPolicy,
                    DeveloperProfile, DomainError, Population,
                    require_finite_nonneg, require_rate)

# developer x rate (or x draw) cells above which a grid or a pool is refused:
# about 9 bytes a cell in a pool's hit matrix, so about 90 MB
MAX_POOL_CELLS = 10_000_000


@dataclass(frozen=True)
class ParticipationResult:
    entrants: Tuple[str, ...]
    count: int
    entry_profits: Dict[str, float]
    responses: Dict[str, BestResponse]  # entrants only
    platform_profit: float    # sum over entrants of entrant_profit, in id order
    developer_surplus: float  # sum of entry_profits, in id order


def developer_profit(ad_revenue: float, net: float,
                     policy: CommissionPolicy) -> float:
    """A developer's net profit, a float or a row, plus their ad-revenue share."""
    if ad_revenue > 0:
        net = net + (1.0 - policy.ad_share) * ad_revenue
    return net


def entrant_profit(ad_revenue: float, gross: float, usage: float,
                   policy: CommissionPolicy, marginal_cost: float,
                   alpha: Optional[float] = None) -> float:
    """The platform's profit from one entrant, defined only here: the
    commission on gross revenue, waived while the entrant's request volume
    is below ``policy.activity_threshold``, plus ``ad_share * ad_revenue``,
    minus the serving cost ``marginal_cost * usage``. A given ``alpha`` is
    the flat rate charged in place of the policy's own. ``gross``, ``usage``
    and ``alpha`` may also be float64 rows, one cell per rate. Steps that
    leave every bit the same are skipped: the mask at threshold 0 (usage is
    never below 0, and a NaN usage has a NaN commission) and a +0.0 ad term
    (it changes only a -0.0 commission, which every total adds to +0.0)."""
    commission = policy.commission(gross) if alpha is None else alpha * gross
    if policy.activity_threshold > 0:  # below it: cost absorbed
        commission = commission * (usage >= policy.activity_threshold)
    if ad := policy.ad_share * ad_revenue:
        commission = commission + ad
    return commission - marginal_cost * usage


def _checked(population: Sequence[DeveloperProfile], alpha: float,
             policy: CommissionPolicy | None):
    """``participate``'s checks: the flat policy whose ad share and activity
    threshold go with rate alpha, and the profiles in developer-id order (a
    duplicate id is an error; a Population whose ids ascend is in order)."""
    if policy is not None and not policy.is_flat:
        raise DomainError("entry is evaluated at flat rates, not a degressive policy")
    if alpha is None:
        raise DomainError("alpha, the flat rate charged, must be given")
    require_rate(alpha)
    policy = _UNSHARED if policy is None else policy
    if isinstance(population, Population) and population.columns[0].step > 0:
        return policy, population
    ordered = sorted(population, key=attrgetter("id"))
    for p, q in zip(ordered, ordered[1:]):
        if p.id == q.id:
            raise DomainError(f"duplicate developer id {p.id!r}")
    return policy, ordered


def participate(population: Sequence[DeveloperProfile], alpha: float,
                policy: CommissionPolicy | None = None,
                marginal_cost: float = 0.0) -> ParticipationResult:
    """Evaluate entry for every developer at commission rate alpha and total
    the platform's profit over the entrants, in one pass in developer-id
    order.

    A flat ``policy`` supplies the ad share and activity threshold charged
    at rate alpha. A degressive ``policy``, duplicate ids, a bad serving
    cost and a total that overflows a float are a DomainError.
    """
    require_finite_nonneg("marginal_cost", marginal_cost)
    policy, ordered = _checked(population, alpha, policy)
    profits: Dict[str, float] = {}
    responses: Dict[str, BestResponse] = {}
    platform = surplus = 0.0
    for profile in ordered:
        br = solve_effort(profile, alpha)
        pi = developer_profit(profile.ad_revenue, br.net_profit, policy)
        if pi >= profile.reservation_profit:
            profits[profile.id] = pi
            responses[profile.id] = br
            platform += entrant_profit(profile.ad_revenue, br.gross_revenue,
                                       br.usage, policy, marginal_cost, alpha)
            surplus += pi
    if not (math.isfinite(platform) and math.isfinite(surplus)):
        raise DomainError(f"at alpha {alpha}: the entrants' total overflows a float")
    return ParticipationResult(entrants=tuple(profits), count=len(profits),
                               entry_profits=profits, responses=responses,
                               platform_profit=platform,
                               developer_surplus=surplus)


def row_pow(row: np.ndarray, y: float) -> np.ndarray:
    """``x ** y`` for each x of a float64 row by Python's own pow (libm), bit
    for bit as the scalar path, where numpy's general power is not. Squares
    never come here: both paths write them as ``e * e``."""
    if y == 1:
        return row
    import numpy as np
    return np.array([x ** y for x in row.tolist()])


def rate_grid(lo: float, hi: float, step: float) -> List[float]:
    """n + 1 evenly spaced rates from lo to hi, n = round((hi - lo) / step),
    at most ``MAX_POOL_CELLS`` rates; checked before the list is built."""
    if not (step > 0 and all(map(math.isfinite, (lo, hi, step)))):
        raise DomainError("sweep grid needs finite bounds and a finite step > 0")
    span = (hi - lo) / step  # inf when the division overflows
    n = int(round(span)) if span < MAX_POOL_CELLS else MAX_POOL_CELLS
    if n < 1:
        raise DomainError("empty sweep grid: step larger than range")
    if n >= MAX_POOL_CELLS:
        raise DomainError(f"sweep grid has more than {MAX_POOL_CELLS} rates")
    return [lo + i * (hi - lo) / n for i in range(n + 1)]


@dataclass(frozen=True)
class SweepResult:
    alphas: Tuple[float, ...]
    platform_profits: Tuple[float, ...]
    entrant_counts: Tuple[int, ...]
    mean_developer_profits: Tuple[float, ...]
    total_developer_surplus: Tuple[float, ...]
    argmax_alpha: float  # first maximum of platform profit; NaN on no rates


def _rows(ordered: Sequence[DeveloperProfile]):
    """Each developer's (family, A, beta, kappa, k, m, reservation profit,
    ad revenue), read once, in the given order."""
    if isinstance(ordered, Population):
        _, families, scale, beta, k, reservation = ordered.columns
        return zip(families, scale.tolist(), beta.tolist(), repeat(None),
                   k.tolist(), repeat(2.0), reservation.tolist(), repeat(0.0))
    return [(p.tech.family, p.tech.scale, p.tech.beta, p.tech.usage_per_revenue,
             p.cost.k, p.cost.exponent, p.reservation_profit, p.ad_revenue)
            for p in ordered]


def sweep(population: Sequence[DeveloperProfile], alpha_grid: Sequence[float],
          marginal_cost: float,
          policy: CommissionPolicy | None = None) -> SweepResult:
    """Evaluate entry, best responses and platform profit over an ascending
    alpha grid, bit for bit as one ``participate`` pass per rate, errors
    too. A flat ``policy`` supplies the ad share and activity threshold
    charged at every rate. Ties break toward the smallest alpha.
    Each developer is one row over the grid (``closed_form`` with ``row_pow``,
    numpy alone for linear revenue and quadratic cost; ``solve_effort`` per
    rate for linear_demand) whose entrant cells are added to the per-rate
    totals in developer-id order, as ``participate`` adds them."""
    import numpy as np
    if any(a2 < a1 for a1, a2 in zip(alpha_grid, alpha_grid[1:])):
        raise DomainError("alpha grid must be sorted ascending")
    require_finite_nonneg("marginal_cost", marginal_cost)
    n = len(alpha_grid)
    ordered = []
    if n:  # participate's checks in its order: a rate, duplicate ids, the rest
        policy, ordered = _checked(population, alpha_grid[0], policy)
        for a in alpha_grid[1:]:
            require_rate(a)
    alphas = np.array(alpha_grid, dtype=float)
    retained = 1.0 - alphas
    for errors in ("raise", "ignore"):
        profits, surplus, counts = np.zeros(n), np.zeros(n), np.zeros(n, dtype=int)
        try:
            with np.errstate(over=errors, invalid=errors):
                for i, (family, scale, beta, kappa, k, m, pi0, ad) in enumerate(
                        _rows(ordered)):
                    if family == LINEAR_DEMAND:
                        cells = [solve_effort(ordered[i], a) for a in alpha_grid]
                        gross, q, net = np.array([(br.gross_revenue, br.usage,
                                                   br.net_profit) for br in cells]).T
                    else:
                        gross, q, net = closed_form(retained, scale, beta,
                                                    kappa, k, m, row_pow)[1:]
                    pi = developer_profit(ad, net, policy)
                    enter = pi >= pi0
                    platform = entrant_profit(ad, gross, q, policy, marginal_cost, alphas)
                    np.add(profits, platform, out=profits, where=enter)
                    np.add(surplus, pi, out=surplus, where=enter)
                    counts += enter
            break
        except (FloatingPointError, OverflowError, DomainError):
            # raise participate's error; with none, no entrant reached the float error
            for a in alpha_grid:
                participate(ordered, a, policy, marginal_cost)
    profits, surplus, counts = profits.tolist(), surplus.tolist(), counts.tolist()
    best_a, best_pi = math.nan, -math.inf
    for a, pi in zip(alpha_grid, profits):
        if pi > best_pi:
            best_a, best_pi = a, pi
    return SweepResult(alphas=tuple(alpha_grid),
                       platform_profits=tuple(profits),
                       entrant_counts=tuple(counts),
                       mean_developer_profits=tuple(
                           s / c if c else 0.0 for s, c in zip(surplus, counts)),
                       total_developer_surplus=tuple(surplus),
                       argmax_alpha=best_a)
