"""Seeded population generation, sweep export and risk pooling.

Every draw comes from a per-developer substream spawned off the master
seed, so parallel scheduling or population reordering can never change the
numbers. ``sweep`` and ``SweepResult`` live in ``participation`` and are
re-exported here; aggregates are summed in sorted-id order for bit-for-bit
reproducibility.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    CommissionPolicy,
    DeveloperProfile,
    DomainError,
    EffortCost,
    LINEAR_EFFORT,
    POWER_EFFORT,
    QUADRATIC,
    RevenueTechnology,
    require_finite_nonneg,
)
from .participation import SweepResult, entrant_profit, participate, sweep  # noqa: F401

log = logging.getLogger(__name__)

# draws x developers above which risk_pooling_report refuses to allocate
# its hit matrix (about 9 bytes a cell, so about 90 MB)
MAX_POOL_CELLS = 10_000_000
# developers per generated population (about 1.3 KB each, so about 130 MB)
MAX_POPULATION = 100_000

UNIFORM = "uniform"
LOGNORMAL = "lognormal"


@dataclass(frozen=True)
class Distribution:
    """Uniform(lo, hi) or LogNormal(mu, sigma) sampler with a CDF."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in (UNIFORM, LOGNORMAL):
            raise DomainError(f"unknown distribution {self.kind!r}")
        if self.kind == UNIFORM and self.b < self.a:
            raise DomainError("uniform needs lo <= hi")
        if self.kind == LOGNORMAL and self.b < 0:
            raise DomainError("lognormal sigma must be >= 0")

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == UNIFORM:
            return float(rng.uniform(self.a, self.b))
        return float(rng.lognormal(self.a, self.b))

    def cdf(self, x: float) -> float:
        if self.kind == UNIFORM:
            if self.b == self.a:
                return 1.0 if x >= self.a else 0.0
            return min(1.0, max(0.0, (x - self.a) / (self.b - self.a)))
        if x <= 0:
            return 0.0
        if self.b == 0:
            return 1.0 if math.log(x) >= self.a else 0.0
        return 0.5 * (1 + math.erf((math.log(x) - self.a)
                                   / (self.b * math.sqrt(2))))


@dataclass(frozen=True)
class PopulationSpec:
    size: int
    seed: int
    scale_dist: Distribution = Distribution(UNIFORM, 0.5, 1.5)          # A
    cost_dist: Distribution = Distribution(UNIFORM, 0.5, 1.5)           # k
    reservation_dist: Distribution = Distribution(UNIFORM, 0.0, 0.1)    # pi_0
    elasticity_dist: Distribution = Distribution(UNIFORM, 0.3, 0.9)     # beta
    family_mix: Tuple[Tuple[str, float], ...] = ((LINEAR_EFFORT, 1.0),)

    def __post_init__(self):
        if not 0 <= self.size <= MAX_POPULATION:
            raise DomainError(f"size must be in [0, {MAX_POPULATION}]")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        total = sum(p for _, p in self.family_mix)
        if abs(total - 1.0) > 1e-9:
            raise DomainError("family mix proportions must sum to 1")
        for fam, _ in self.family_mix:
            if fam not in (LINEAR_EFFORT, POWER_EFFORT):
                raise DomainError(f"unsupported generated family {fam!r}")


def _draw_positive(dist: Distribution, rng, lo=0.0, hi=math.inf,
                   max_tries=1000) -> Tuple[float, int]:
    """Rejection sampling into (lo, hi]; returns the value and redraw count."""
    for tries in range(max_tries):
        x = dist.sample(rng)
        if lo < x <= hi or (hi == math.inf and x > lo):
            return x, tries
    raise DomainError(f"distribution {dist} cannot produce a draw in "
                      f"({lo}, {hi}] after {max_tries} tries")


def generate_population(spec: PopulationSpec) -> List[DeveloperProfile]:
    """Deterministic heterogeneous population from a seeded spec."""
    children = np.random.SeedSequence(spec.seed).spawn(spec.size)
    profiles: List[DeveloperProfile] = []
    redraws = 0
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        u = rng.uniform()
        family, acc = spec.family_mix[-1][0], 0.0
        for fam, p in spec.family_mix:
            acc += p
            if u < acc:
                family = fam
                break
        scale, r1 = _draw_positive(spec.scale_dist, rng)
        k, r2 = _draw_positive(spec.cost_dist, rng)
        beta = 1.0
        r3 = 0
        if family == POWER_EFFORT:
            beta, r3 = _draw_positive(spec.elasticity_dist, rng, lo=0.0, hi=1.0)
        pi0 = max(0.0, spec.reservation_dist.sample(rng))
        redraws += r1 + r2 + r3
        profiles.append(DeveloperProfile(
            id=f"dev-{i:05d}",
            tech=RevenueTechnology(family=family, scale=scale, beta=beta),
            cost=EffortCost(family=QUADRATIC, k=k),
            reservation_profit=pi0,
        ))
    if redraws:
        log.debug("generate_population: %d rejected draws", redraws)
    return profiles


SWEEP_COLUMNS = ("alpha", "platform_profit", "n_entrants",
                 "mean_developer_profit", "total_developer_surplus")


def sweep_to_csv(result: SweepResult, timestamp: Optional[str] = None) -> str:
    """Render a sweep as delimited text with a stable float format."""
    buf = io.StringIO()
    if timestamp is not None:
        buf.write(f"# generated {timestamp}\n")
    buf.write(",".join(SWEEP_COLUMNS) + "\n")
    for a, pi, n, mean_pi, ts in zip(result.alphas, result.platform_profits,
                                     result.entrant_counts,
                                     result.mean_developer_profits,
                                     result.total_developer_surplus):
        buf.write(f"{a:.12g},{pi:.12g},{n},{mean_pi:.12g},{ts:.12g}\n")
    return buf.getvalue()


@dataclass(frozen=True)
class RiskPoolingReport:
    """``coefficient_of_variation`` is std / |mean|, and None (JSON null)
    when the mean profit is 0, e.g. when no developer enters."""

    mean_profit: float
    std_profit: float
    p5_profit: float
    coefficient_of_variation: Optional[float]
    deterministic_profit: float
    draws: int
    population_size: int


def risk_pooling_report(population: Sequence[DeveloperProfile], alpha: float,
                        marginal_cost: float, success_prob: float,
                        draws: int = 10000, seed: int = 0) -> RiskPoolingReport:
    """Monte Carlo of independent per-developer revenue realization: each
    entrant's revenue lands with probability s (serving cost is sunk either
    way). Dispersion relative to the mean shrinks as the pool grows."""
    if not (0 <= success_prob <= 1):
        raise DomainError("success_prob out of [0,1]")
    if draws < 1:
        raise DomainError("draws must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    if draws * len(population) > MAX_POOL_CELLS:
        raise DomainError(f"draws x population size must be <= {MAX_POOL_CELLS}")
    require_finite_nonneg("marginal_cost", marginal_cost)
    res = participate(population, alpha)
    by_id = {p.id: p for p in population}
    cells = [(by_id[i], br.gross_revenue, br.usage) for i, br in res.responses.items()]
    # earnings are the profit with no serving cost; the serving cost is
    # minus the profit at a zero rate with no ad share
    policy, free = CommissionPolicy.flat(alpha), CommissionPolicy.flat(0.0)
    earnings = np.array([entrant_profit(*cell, policy, 0.0) for cell in cells])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = rng.random((draws, len(earnings))) < success_prob
    with np.errstate(over="ignore"):  # an overflow is the DomainError below
        total_cost = -float(np.array([entrant_profit(*cell, free, marginal_cost)
                                      for cell in cells]).sum())
        deterministic = float(earnings.sum()) - total_cost
        samples = hits @ earnings - total_cost
    if not (math.isfinite(deterministic) and np.isfinite(samples).all()):
        raise DomainError("pool profit is not finite at this serving cost")
    mean = float(samples.mean())
    std = float(samples.std(ddof=0))
    p5 = float(np.percentile(samples, 5))
    cv = std / abs(mean) if mean != 0 else None
    return RiskPoolingReport(mean_profit=mean, std_profit=std, p5_profit=p5,
                             coefficient_of_variation=cv,
                             deterministic_profit=deterministic,
                             draws=draws, population_size=len(population))
