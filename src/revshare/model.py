"""Core market primitives: revenue technologies, effort costs, commission
policies and the platform/developer parameter records.

Everything here is plain validated data plus pointwise evaluation; no
optimization logic lives in this module. All types are frozen dataclasses
and safe to share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

# Revenue families
LINEAR_EFFORT = "linear"
POWER_EFFORT = "power"
LINEAR_DEMAND = "linear_demand"
REVENUE_FAMILIES = (LINEAR_EFFORT, POWER_EFFORT, LINEAR_DEMAND)

# Effort-cost families
QUADRATIC = "quadratic"
POWER_CONVEX = "power_convex"
COST_FAMILIES = (QUADRATIC, POWER_CONVEX)


class DomainError(ValueError):
    """Raised when an argument is outside a function's mathematical domain."""


def require_finite_nonneg(name: str, value: float) -> None:
    """DomainError unless 0 <= value < inf; NaN fails too."""
    if not 0 <= value < math.inf:
        raise DomainError(f"{name} must be finite and >= 0")


@dataclass(frozen=True)
class RevenueTechnology:
    """How a developer's effort (and optionally a posted price) turns into
    gross revenue and platform usage.

    Families:
      power         R = A * e**beta,       q = e          (beta in (0,1])
      linear        power with beta = 1
      linear_demand R = p * max(0, a + b*e - d*p), q = usage_per_revenue * R

    ``usage_per_revenue`` may also be set on the effort families to link
    usage to revenue instead of effort.
    """

    family: str
    scale: float = 1.0                      # A
    beta: float = 1.0                       # elasticity, power family
    demand_base: float = 0.0                # a
    demand_quality: float = 0.0             # b
    demand_slope: float = 1.0               # d
    usage_per_revenue: Optional[float] = None  # kappa_q, requests per currency unit

    def __post_init__(self):
        if self.family not in REVENUE_FAMILIES:
            raise DomainError(f"unknown revenue family {self.family!r}")
        if not all(map(math.isfinite, (self.scale, self.beta, self.demand_base,
                                       self.demand_quality, self.demand_slope))):
            raise DomainError("revenue technology parameters must be finite")
        if self.scale <= 0:
            raise DomainError("scale must be positive")
        if not 0 < self.beta <= 1:
            raise DomainError("beta must be in (0, 1]")
        if self.family == LINEAR_EFFORT and self.beta != 1:
            raise DomainError("linear revenue has beta = 1; use power")
        if self.family == LINEAR_DEMAND:
            if self.demand_base < 0 or self.demand_quality < 0:
                raise DomainError("demand_base and demand_quality must be >= 0")
            if self.demand_slope <= 0:
                raise DomainError("demand_slope must be positive")
            if self.usage_per_revenue is None:
                raise DomainError("linear_demand requires usage_per_revenue")
        if self.usage_per_revenue is not None:
            require_finite_nonneg("usage_per_revenue", self.usage_per_revenue)


@dataclass(frozen=True)
class EffortCost:
    """Convex cost of effort, zero at zero effort.

    power_convex:  phi(e) = k*e^m / m, m >= 2
    quadratic:     power_convex with m = 2
    """

    family: str = QUADRATIC
    k: float = 1.0
    exponent: float = 2.0

    def __post_init__(self):
        if self.family not in COST_FAMILIES:
            raise DomainError(f"unknown cost family {self.family!r}")
        if not 0 < self.k < math.inf:
            raise DomainError("cost scale k must be positive and finite")
        if not math.isfinite(self.exponent):
            raise DomainError("exponent must be finite")
        if self.exponent < 2:
            raise DomainError("exponent must be >= 2")
        if self.family == QUADRATIC and self.exponent != 2:
            raise DomainError("quadratic cost has exponent 2; use power_convex")


@dataclass(frozen=True)
class DeveloperProfile:
    """One developer: technology, effort cost and outside option."""

    id: str
    tech: RevenueTechnology
    cost: EffortCost
    reservation_profit: float = 0.0
    ad_revenue: float = 0.0  # exogenous per-period ad revenue, shared via ad_share

    def __post_init__(self):
        if not math.isfinite(self.reservation_profit) or self.reservation_profit < 0:
            raise DomainError("reservation_profit must be finite and >= 0")
        require_finite_nonneg("ad_revenue", self.ad_revenue)


@dataclass(frozen=True)
class PlatformParams:
    """Platform-side primitives: per-request serving cost and the developer
    population."""

    marginal_cost: float
    population: Tuple[DeveloperProfile, ...]

    def __init__(self, marginal_cost, population):
        require_finite_nonneg("marginal_cost", marginal_cost)
        object.__setattr__(self, "marginal_cost", float(marginal_cost))
        object.__setattr__(self, "population", tuple(population))


@dataclass(frozen=True)
class CommissionPolicy:
    """Commission schedule on gross app revenue, plus optional ad-revenue
    share and an activity threshold under which no commission is charged.

    Either ``rate`` (flat) or ``breakpoints`` (degressive marginal bands,
    first threshold must be 0) is set, never both.
    """

    rate: Optional[float] = None
    breakpoints: Optional[Tuple[Tuple[float, float], ...]] = None
    ad_share: Optional[float] = None
    activity_threshold: float = 0.0

    def __post_init__(self):
        if (self.rate is None) == (self.breakpoints is None):
            raise DomainError("exactly one of rate / breakpoints must be set")
        if self.rate is not None and not (0 <= self.rate <= 1):
            raise DomainError("rate out of [0,1]")
        if self.breakpoints is not None:
            object.__setattr__(self, "breakpoints", tuple(
                (float(t), float(r)) for t, r in self.breakpoints))
            bps = self.breakpoints
            if not bps or bps[0][0] != 0:
                raise DomainError("degressive schedule must start at threshold 0")
            for (t1, r1), (t2, r2) in zip(bps, bps[1:]):
                if not t2 > t1:  # also rejects NaN
                    raise DomainError(
                        f"degressive breakpoints out of order: {t1} before {t2}")
            for t, r in bps:
                require_finite_nonneg("degressive threshold", t)
                if not (0 <= r <= 1):
                    raise DomainError("rate out of [0,1]")
        if self.ad_share is not None and not (0 <= self.ad_share <= 1):
            raise DomainError("ad_share out of [0,1]")
        require_finite_nonneg("activity_threshold", self.activity_threshold)

    @staticmethod
    def flat(rate: float, ad_share: Optional[float] = None,
             activity_threshold: float = 0.0) -> "CommissionPolicy":
        return CommissionPolicy(rate=rate, ad_share=ad_share,
                                activity_threshold=activity_threshold)

    @staticmethod
    def degressive(breakpoints, ad_share: Optional[float] = None,
                   activity_threshold: float = 0.0) -> "CommissionPolicy":
        return CommissionPolicy(breakpoints=tuple(breakpoints), ad_share=ad_share,
                                activity_threshold=activity_threshold)

    @property
    def is_flat(self) -> bool:
        return self.rate is not None

    def marginal_rate(self, gross: float) -> float:
        """Marginal commission rate at the given gross revenue level."""
        if self.is_flat:
            return self.rate
        current = self.breakpoints[0][1]
        for threshold, r in self.breakpoints:
            if gross >= threshold:
                current = r
        return current

    def commission(self, gross: float) -> float:
        """Total commission on a gross revenue amount (float path; the
        settlement module owns the exact integer-cent version)."""
        if gross < 0:
            raise DomainError("gross revenue must be >= 0")
        if self.rate is not None:  # flat; not is_flat, this is a hot path
            return self.rate * gross
        total = 0.0
        bps = self.breakpoints
        for i, (threshold, r) in enumerate(bps):
            upper = bps[i + 1][0] if i + 1 < len(bps) else math.inf
            band = min(gross, upper) - threshold
            if band <= 0:
                break
            total += r * band
        return total


# --- Business models (section 5 comparison set) ---

@dataclass(frozen=True)
class RsiModel:
    """Revenue sharing: free infrastructure, commission on app revenue."""
    tag = "rsi"
    policy: CommissionPolicy = field(
        default_factory=lambda: CommissionPolicy.flat(0.25))


@dataclass(frozen=True)
class PayPerTokenModel:
    """Developer pays the platform per request, keeps all app revenue."""
    tag = "pay_per_token"
    token_price: float = 0.0

    def __post_init__(self):
        require_finite_nonneg("token_price", self.token_price)


@dataclass(frozen=True)
class SubscriptionModel:
    """Flat periodic platform fee, unlimited usage."""
    tag = "subscription"
    fee: float = 0.0

    def __post_init__(self):
        require_finite_nonneg("fee", self.fee)


@dataclass(frozen=True)
class FreemiumModel:
    """Free request quota, per-request overage price beyond it."""
    tag = "freemium"
    free_quota: float = 0.0
    overage_price: float = 0.0

    def __post_init__(self):
        require_finite_nonneg("free_quota", self.free_quota)
        require_finite_nonneg("overage_price", self.overage_price)


@dataclass(frozen=True)
class MarketplaceModel:
    """Store-style commission on revenue; developer also pays own inference."""
    tag = "marketplace"
    commission: float = 0.0
    token_price: float = 0.0

    def __post_init__(self):
        if not (0 <= self.commission <= 1):
            raise DomainError("marketplace commission out of [0,1]")
        require_finite_nonneg("token_price", self.token_price)


# --- Pointwise evaluation ---

def revenue(tech: RevenueTechnology, effort: float,
            price: Optional[float] = None) -> float:
    """Gross revenue at a given effort (and price for the demand family)."""
    if effort < 0:
        raise DomainError("effort must be >= 0")
    if tech.family != LINEAR_DEMAND:
        return tech.scale * effort ** tech.beta
    if price is None:
        raise DomainError("linear_demand family requires a price")
    if price <= 0:
        raise DomainError("price must be positive")
    demand = tech.demand_base + tech.demand_quality * effort - tech.demand_slope * price
    return price * max(0.0, demand)


def effort_cost(cost: EffortCost, effort: float) -> float:
    """phi(e); zero at zero, strictly increasing and convex."""
    if effort < 0:
        raise DomainError("effort must be >= 0")
    m = cost.exponent
    return cost.k * (effort * effort if m == 2 else effort ** m) / m


def marginal_effort_cost(cost: EffortCost, effort: float) -> float:
    """phi'(e)."""
    if effort < 0:
        raise DomainError("effort must be >= 0")
    return cost.k * effort ** (cost.exponent - 1)
