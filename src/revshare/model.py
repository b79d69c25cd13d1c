"""Core market primitives: revenue technologies, effort costs, commission
policies and the platform/developer parameter records.

Everything here is validated data and pointwise evaluation, no optimization.
``Columns`` is the one lazy table type (``Population``, ``settlement.Ledger``);
every other type is a frozen dataclass, safe to share across workers.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
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


def as_real(name: str, value) -> float:
    """float(value) for a real number that is not a bool; else DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, not {type(value).__name__}")
    return float(value)


def require_rate(value: float, name: str = "rate") -> None:
    """DomainError unless 0 <= value <= 1; NaN fails too."""
    if not 0 <= value <= 1:
        raise DomainError(f"{name} out of [0,1]")


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
        require_finite_nonneg("reservation_profit", self.reservation_profit)
        require_finite_nonneg("ad_revenue", self.ad_revenue)


class Columns(Sequence):
    """A table kept as equal-length columns; the class attribute ``row``
    builds a row from one cell of each column, only when that row is read.
    A slice is a table of the same type."""

    __slots__ = ("columns",)

    def __init__(self, *columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        cells = (column[index] for column in self.columns)
        return type(self)(*cells) if isinstance(index, slice) else self.row(*cells)

    def __iter__(self):
        return map(self.row, *self.columns)

    def __eq__(self, other):
        """Equal to a table of the same type or a list of the same rows in order."""
        if isinstance(other, (type(self), list)):
            return list(self) == list(other)
        return NotImplemented


class Population(Columns):
    """Generated developers, validated as drawn: id numbers (a range; number
    i is ``f"dev-{i:05d}"``), revenue families, and float64 arrays of A, beta,
    k and reservation profit; costs quadratic, no usage link, no ad revenue."""

    __slots__ = ()

    @staticmethod
    def row(key, family, scale, beta, k, reservation) -> DeveloperProfile:
        return DeveloperProfile(
            id=f"dev-{key:05d}",
            tech=RevenueTechnology(family, scale=float(scale), beta=float(beta)),
            cost=EffortCost(QUADRATIC, k=float(k)),
            reservation_profit=float(reservation))


@dataclass(frozen=True)
class PlatformParams:
    """Platform-side primitives: per-request serving cost and the developer
    population, kept as it is when it is a ``Population``."""

    marginal_cost: float
    population: Sequence[DeveloperProfile]

    def __init__(self, marginal_cost, population):
        require_finite_nonneg("marginal_cost", marginal_cost)
        object.__setattr__(self, "marginal_cost", float(marginal_cost))
        object.__setattr__(self, "population", population
                           if isinstance(population, Population) else tuple(population))


@dataclass(frozen=True)
class CommissionPolicy:
    """Commission schedule on gross app revenue, plus an ad-revenue share
    and an activity threshold under which no commission is charged.

    The schedule is marginal bands ``((threshold, rate), ...)``, the first
    at threshold 0; a flat rate is the one band ``((0.0, rate),)``.
    """

    breakpoints: Tuple[Tuple[float, float], ...]
    ad_share: float = 0.0
    activity_threshold: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "breakpoints", tuple(
            (as_real("degressive threshold", t), as_real("rate", r))
            for t, r in self.breakpoints))
        bps = self.breakpoints
        if not bps or bps[0][0] != 0:
            raise DomainError("degressive schedule must start at threshold 0")
        for (t1, r1), (t2, r2) in zip(bps, bps[1:]):
            if not t2 > t1:  # also rejects NaN
                raise DomainError(
                    f"degressive breakpoints out of order: {t1} before {t2}")
        for t, r in bps:
            require_finite_nonneg("degressive threshold", t)
            require_rate(r)
        object.__setattr__(self, "ad_share", 0.0 if self.ad_share is None
                           else as_real("ad_share", self.ad_share))
        object.__setattr__(self, "activity_threshold", as_real(
            "activity_threshold", self.activity_threshold))
        require_rate(self.ad_share, "ad_share")
        require_finite_nonneg("activity_threshold", self.activity_threshold)

    @staticmethod
    def flat(rate: float, ad_share: Optional[float] = None,
             activity_threshold: float = 0.0) -> "CommissionPolicy":
        return CommissionPolicy(((0.0, rate),), ad_share, activity_threshold)

    @staticmethod
    def degressive(breakpoints, ad_share: Optional[float] = None,
                   activity_threshold: float = 0.0) -> "CommissionPolicy":
        return CommissionPolicy(breakpoints, ad_share, activity_threshold)

    @property
    def rate(self) -> Optional[float]:  # None for a degressive schedule
        return self.breakpoints[0][1] if self.is_flat else None

    @property
    def is_flat(self) -> bool:
        return len(self.breakpoints) == 1

    def marginal_rate(self, gross: float) -> float:
        """Marginal commission rate at the given gross revenue level."""
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
        total = 0.0
        bps = self.breakpoints
        for i, (threshold, r) in enumerate(bps):
            upper = bps[i + 1][0] if i + 1 < len(bps) else math.inf
            band = min(gross, upper) - threshold
            if band <= 0:
                break
            total += r * band
        return total


_UNSHARED = CommissionPolicy.flat(0.0)  # no ad share or threshold; rate unread


# --- Business models (section 5 comparison set) ---

MODEL_ORDER = ("rsi", "pay_per_token", "subscription", "freemium", "marketplace")


@dataclass(frozen=True)
class BusinessModel:
    """A business model as its fee point (m, t, Q, F): commission policy m
    on app revenue, price t per request above a free quota Q, lump fee F.
    ``tag`` is one of ``MODEL_ORDER``; a price goes with a flat policy."""

    tag: str
    policy: CommissionPolicy = _UNSHARED
    price: float = 0.0
    quota: float = 0.0
    fee: float = 0.0

    def __post_init__(self):
        if self.tag not in MODEL_ORDER:
            raise DomainError(f"unknown business model tag {self.tag!r}")
        for name in ("price", "quota", "fee"):
            require_finite_nonneg(name, getattr(self, name))
        if self.price and not self.policy.is_flat:
            raise DomainError("a per-request price needs a flat commission policy")


def RsiModel(policy: CommissionPolicy = CommissionPolicy.flat(0.25)) -> BusinessModel:
    """Revenue sharing: free infrastructure, commission on app revenue."""
    return BusinessModel("rsi", policy)


def PayPerTokenModel(token_price: float = 0.0) -> BusinessModel:
    """Developer pays the platform per request, keeps all app revenue."""
    require_finite_nonneg("token_price", token_price)
    return BusinessModel("pay_per_token", price=token_price)


def SubscriptionModel(fee: float = 0.0) -> BusinessModel:
    """Flat periodic platform fee, unlimited usage."""
    require_finite_nonneg("fee", fee)
    return BusinessModel("subscription", fee=fee)


def FreemiumModel(free_quota: float = 0.0, overage_price: float = 0.0) -> BusinessModel:
    """Free request quota, per-request overage price beyond it."""
    require_finite_nonneg("free_quota", free_quota)
    require_finite_nonneg("overage_price", overage_price)
    return BusinessModel("freemium", price=overage_price, quota=free_quota)


def MarketplaceModel(commission: float = 0.0, token_price: float = 0.0) -> BusinessModel:
    """Store-style commission on revenue; developer also pays own inference."""
    require_rate(commission, "marketplace commission")
    require_finite_nonneg("token_price", token_price)
    return BusinessModel("marketplace", CommissionPolicy.flat(commission),
                         price=token_price)


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
