"""Side-by-side payoff comparison of platform business models, with the
developer re-optimizing effort under each fee structure.

Capital feasibility is the operational reading of "low capital": a model
whose upfront/period cost exceeds the developer's capital cannot be entered
before revenue realizes. Revenue sharing carries no upfront cost, so it is
always capital-feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .best_response import reduced_revenue, solve_effort, solve_effort_policy
from .model import (
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    FreemiumModel,
    HybridModel,
    MarketplaceModel,
    PayPerTokenModel,
    RsiModel,
    SubscriptionModel,
    effort_cost,
)
from .numeric import expand_upper_bound, grid_then_golden
from .participation import developer_profit, entrant_profit

MODEL_ORDER = ("rsi", "pay_per_token", "subscription", "freemium",
               "marketplace", "hybrid")


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


def _reduced(profile: DeveloperProfile, e: float) -> Tuple[float, float]:
    """(revenue, usage) with price optimized out where applicable."""
    r = reduced_revenue(profile.tech, e)
    q = profile.tech.usage_per_revenue * r \
        if profile.tech.usage_per_revenue is not None else e
    return r, q


def _maximize(profile: DeveloperProfile, objective) -> float:
    hi = expand_upper_bound(objective, start=1.0, cap=1e6)
    e = grid_then_golden(objective, 0.0, hi, tol=1e-12 * max(1.0, hi))
    return 0.0 if objective(0.0) >= objective(e) else e


def evaluate_model(profile: DeveloperProfile, model, platform_cost: float,
                   capital: float = math.inf) -> ModelOutcome:
    """Developer and platform payoffs under one business model, with the
    developer's effort re-optimized for that model's fee structure."""
    c = platform_cost

    if isinstance(model, RsiModel):
        br = solve_effort_policy(profile, model.policy)
        return _outcome("rsi", profile, br.effort,
                        developer_profit(profile, br, model.policy),
                        entrant_profit(profile, br, model.policy, c),
                        upfront=0.0, capital=capital)

    if isinstance(model, PayPerTokenModel):
        def obj(e):
            r, q = _reduced(profile, e)
            return r - model.token_price * q - effort_cost(profile.cost, e)
        e = _maximize(profile, obj)
        r, q = _reduced(profile, e)
        return _outcome("pay_per_token", profile, e, obj(e),
                        (model.token_price - c) * q,
                        upfront=model.token_price * q, capital=capital)

    if isinstance(model, SubscriptionModel):
        br = solve_effort(profile, 0.0)  # undistorted: fee is lump-sum
        dev = br.net_profit - model.fee
        return _outcome("subscription", profile, br.effort, dev,
                        model.fee - c * br.usage,
                        upfront=model.fee, capital=capital)

    if isinstance(model, FreemiumModel):
        def fee(q):
            return model.overage_price * max(0.0, q - model.free_quota)

        def obj(e):
            r, q = _reduced(profile, e)
            return r - fee(q) - effort_cost(profile.cost, e)
        e = _maximize(profile, obj)
        r, q = _reduced(profile, e)
        return _outcome("freemium", profile, e, obj(e), fee(q) - c * q,
                        upfront=fee(q), capital=capital)

    if isinstance(model, MarketplaceModel):
        def obj(e):
            r, q = _reduced(profile, e)
            return ((1.0 - model.commission) * r - model.token_price * q
                    - effort_cost(profile.cost, e))
        e = _maximize(profile, obj)
        r, q = _reduced(profile, e)
        return _outcome("marketplace", profile, e, obj(e),
                        model.commission * r + (model.token_price - c) * q,
                        upfront=model.token_price * q, capital=capital)

    if isinstance(model, HybridModel):
        best = None
        for member in model.choices:
            out = evaluate_model(profile, member, platform_cost, capital)
            if best is None or _dev_key(out) > _dev_key(best):
                best = out
        return ModelOutcome(model="hybrid",
                            developer_profit=best.developer_profit,
                            platform_profit=best.platform_profit,
                            effort=best.effort, usage=best.usage,
                            gross_revenue=best.gross_revenue,
                            upfront_cost=best.upfront_cost,
                            entered=best.entered)

    raise DomainError(f"unknown business model {model!r}")


def _outcome(tag: str, profile: DeveloperProfile, e: float, dev: float,
             plat: float, upfront: float, capital: float) -> ModelOutcome:
    r, q = _reduced(profile, e)
    feasible = upfront <= capital + 1e-9  # absorb numeric-optimizer noise
    entered = feasible and dev >= profile.reservation_profit
    return ModelOutcome(model=tag, developer_profit=dev, platform_profit=plat,
                        effort=e, usage=q, gross_revenue=r,
                        upfront_cost=upfront, entered=entered)


def _dev_key(out: ModelOutcome):
    # entered rows dominate; ties fall back to the fixed model order
    return (out.entered, out.developer_profit, -MODEL_ORDER.index(out.model))


def compare_models(profile: DeveloperProfile, models: Sequence,
                   platform_cost: float,
                   capital: float = math.inf) -> ComparisonTable:
    """Evaluate every model and pick each side's preferred one among the
    entered rows (ties break by the fixed model order, revenue sharing
    first)."""
    outcomes = [evaluate_model(profile, m, platform_cost, capital)
                for m in models]
    outcomes.sort(key=lambda o: MODEL_ORDER.index(o.model))
    entered = [o for o in outcomes if o.entered]
    dev_pick = plat_pick = None
    if entered:
        dev_pick = max(entered, key=lambda o: (o.developer_profit,
                                               -MODEL_ORDER.index(o.model))).model
        plat_pick = max(entered, key=lambda o: (o.platform_profit,
                                                -MODEL_ORDER.index(o.model))).model
    return ComparisonTable(rows=tuple(outcomes),
                           preferred_by_developer=dev_pick,
                           preferred_by_platform=plat_pick)


def capital_frontier(profile: DeveloperProfile, rsi_policy: CommissionPolicy,
                     token_price: float, capital_grid: Sequence[float],
                     platform_cost: float = 0.0) -> float:
    """Smallest capital level at which the developer's preferred model
    switches away from revenue sharing; +inf when it never does."""
    if any(k2 < k1 for k1, k2 in zip(capital_grid, capital_grid[1:])):
        raise DomainError("capital_grid must be sorted ascending")
    models = [RsiModel(policy=rsi_policy),
              PayPerTokenModel(token_price=token_price)]
    for cap in capital_grid:
        table = compare_models(profile, models, platform_cost, capital=cap)
        if table.preferred_by_developer not in (None, "rsi"):
            return cap
    return math.inf
