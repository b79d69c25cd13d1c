"""Side-by-side payoff comparison of platform business models, with the
developer re-optimizing effort under each fee structure.

Each model is a fee point (m, t, Q, F): commission policy m on app revenue
R, price t per request above a free quota Q, lump fee F, held as the fields
``policy``, ``price``, ``quota`` and ``fee`` of one ``model.BusinessModel``
record, which each model's constructor fills in as below. The developer
maximizes R - m(R) - t*max(0, q-Q) - phi(e) - F, pays the upfront cost
t*max(0, q-Q) + F, and the platform earns m(R) + upfront - c*q.

  model          m                t              Q           F     generation
  pay_per_token  flat 0           token_price    0           0     1 pay-per-use
  subscription   flat 0           0              0           fee   2 diversification
  freemium       flat 0           overage_price  free_quota  0     2 diversification
  marketplace    flat commission  token_price    0           0     3 multi-layer, paid inference
  rsi            policy           0              0           0     3 revenue sharing as infrastructure

Every row is scored by ``participation.developer_profit`` and
``participation.entrant_profit`` plus the upfront cost, so the developer
keeps their ad revenue under the fee models, and the rsi policy's degressive
schedule, ad share and activity threshold apply to its row.

Capital feasibility is the operational reading of "low capital": a model
whose upfront/period cost exceeds the developer's capital cannot be entered
before revenue realizes. Revenue sharing carries no upfront cost, so it is
always capital-feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .best_response import reduced, solve_effort_policy
from .model import (
    MODEL_ORDER,
    BusinessModel,
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    PayPerTokenModel,
    RsiModel,
    effort_cost,
    require_finite_nonneg,
)
from .numeric import expand_upper_bound, grid_then_golden
from .participation import developer_profit, entrant_profit


@dataclass(frozen=True)
class ModelOutcome:
    model: str
    developer_profit: float
    platform_profit: float
    effort: float
    usage: float
    gross_revenue: float
    upfront_cost: float
    entered: bool


@dataclass(frozen=True)
class ComparisonTable:
    rows: Tuple[ModelOutcome, ...]
    preferred_by_developer: Optional[str]
    preferred_by_platform: Optional[str]


def fee_policy(m: float, t: float, quota: float,
               kappa: float) -> CommissionPolicy:
    """The fee point (m, t, Q) on usage q = kappa*R as a commission schedule
    on R: rate m up to Q/kappa, m + t*kappa past it. That rate is capped at 1,
    where profit already falls with effort, so the argmax does not move."""
    edge = quota / kappa if kappa else math.inf
    if edge == math.inf:  # kappa = 0, or Q/kappa past the largest float
        return CommissionPolicy.flat(m)
    top = min(1.0, m + t * kappa)
    return CommissionPolicy(((0.0, m), (edge, top)) if edge else ((0.0, top),))


def evaluate_model(profile: DeveloperProfile, model: BusinessModel,
                   platform_cost: float, capital: float = math.inf) -> ModelOutcome:
    """Developer and platform payoffs under one business model, with the
    developer's effort re-optimized for that model's fee structure."""
    require_finite_nonneg("platform_cost", platform_cost)
    if not capital >= 0:  # NaN fails too
        raise DomainError("capital must be >= 0")
    if not isinstance(model, BusinessModel):
        raise DomainError(f"unknown business model {model!r}")
    policy, t, quota, lump = model.policy, model.price, model.quota, model.fee
    if t == 0.0:  # no per-request charge: the revenue-sharing problem
        br = solve_effort_policy(profile, policy)
        e, r, q, net = br.effort, br.gross_revenue, br.usage, br.net_profit
    else:  # t > 0 only on flat policies
        m, tech, cost = policy.rate, profile.tech, profile.cost

        def objective(e):
            _, r, q = reduced(tech, e)
            return ((1.0 - m) * r - t * (q - quota if q > quota else 0.0)
                    - effort_cost(cost, e))

        kappa = tech.usage_per_revenue
        if kappa is None:  # q = e: a fee on effort, searched
            hi = expand_upper_bound(objective)
            e = grid_then_golden(objective, 0.0, hi, tol=1e-12 * max(1.0, hi))
        else:  # q = kappa*R: the fee is a rate m + t*kappa on R past Q/kappa
            e = solve_effort_policy(profile, fee_policy(m, t, quota, kappa)).effort
        if objective(0.0) >= objective(e):
            e = 0.0  # minimal-effort tie-break
        _, r, q = reduced(tech, e)
        net = objective(e)
    upfront = t * (q - quota if q > quota else 0.0) + lump
    dev = developer_profit(profile.ad_revenue, net - lump, policy)
    platform = entrant_profit(profile.ad_revenue, r, q, policy, platform_cost) + upfront
    feasible = upfront <= capital + 1e-9  # absorb numeric-optimizer noise
    return ModelOutcome(model=model.tag, developer_profit=dev,
                        platform_profit=platform, effort=e, usage=q,
                        gross_revenue=r, upfront_cost=upfront,
                        entered=feasible and dev >= profile.reservation_profit)


def compare_models(profile: DeveloperProfile, models: Sequence[BusinessModel],
                   platform_cost: float, capital: float = math.inf) -> ComparisonTable:
    """Evaluate every model and pick each side's preferred one among the
    entered rows (ties break by the fixed model order, revenue sharing
    first: the rows are in that order and ``max`` keeps the first)."""
    outcomes = [evaluate_model(profile, m, platform_cost, capital)
                for m in models]
    outcomes.sort(key=lambda o: MODEL_ORDER.index(o.model))
    entered = [o for o in outcomes if o.entered]
    dev_pick = plat_pick = None
    if entered:
        dev_pick = max(entered, key=lambda o: o.developer_profit).model
        plat_pick = max(entered, key=lambda o: o.platform_profit).model
    return ComparisonTable(rows=tuple(outcomes),
                           preferred_by_developer=dev_pick,
                           preferred_by_platform=plat_pick)


def capital_frontier(profile: DeveloperProfile, rsi_policy: CommissionPolicy,
                     token_price: float, platform_cost: float = 0.0) -> float:
    """Smallest capital at which the developer switches from revenue sharing
    to pay-per-token; +inf when they never do. Capital only gates entry, so
    the switch comes at pay-per-token's upfront cost, if the developer
    prefers it once capital is unlimited."""
    table = compare_models(profile, [RsiModel(policy=rsi_policy),
                                     PayPerTokenModel(token_price=token_price)],
                           platform_cost)
    ppt = table.rows[1]  # rows follow MODEL_ORDER
    return ppt.upfront_cost if table.preferred_by_developer == ppt.model else math.inf
