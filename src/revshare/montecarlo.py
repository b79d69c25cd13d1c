"""Seeded population generation, sweep export and risk pooling.

Every draw comes from a per-developer substream spawned off the master
seed, so parallel scheduling or population reordering can never change the
numbers: developer i draws ``default_rng(SeedSequence(seed).spawn(size)[i])``.
A population is columns (``model.Population`` builds a profile when indexed)
from one NumPy pass over each developer's first doubles; a row that rejects a
draw or draws a lognormal is drawn again by its substream's own NumPy generator.
``participation.sweep`` and ``SweepResult`` (sums in id order) are re-exported.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

if TYPE_CHECKING:  # numpy loads only when a function needs it
    import numpy as np

from .model import (
    DeveloperProfile,
    DomainError,
    LINEAR_EFFORT,
    POWER_EFFORT,
    Population,
    _UNSHARED,
    require_finite_nonneg,
    require_rate,
)
from .participation import MAX_POOL_CELLS, entrant_profit, participate
from .participation import SweepResult, sweep  # noqa: F401 (re-exported)

log = logging.getLogger(__name__)

# developers per generated population (about 41 B retained each: 4 MB)
MAX_POPULATION = 100_000

UNIFORM = "uniform"
LOGNORMAL = "lognormal"


@dataclass(frozen=True)
class Distribution:
    """Uniform(lo, hi) or LogNormal(mu, sigma) sampler."""

    kind: str
    a: float
    b: float

    def __post_init__(self):
        if self.kind not in (UNIFORM, LOGNORMAL):
            raise DomainError(f"unknown distribution {self.kind!r}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError("distribution parameters must be finite")
        if self.kind == UNIFORM and not 0 <= self.b - self.a < math.inf:
            raise DomainError("uniform needs lo <= hi and a finite hi - lo")
        if self.kind == LOGNORMAL and self.b < 0:
            raise DomainError("lognormal sigma must be >= 0")

    def sample(self, rng) -> float:
        """One draw from a NumPy ``Generator``."""
        if self.kind == UNIFORM:
            return float(rng.uniform(self.a, self.b))
        return float(rng.lognormal(self.a, self.b))


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
        if not all(math.isfinite(p) and p >= 0 for _, p in self.family_mix):
            raise DomainError("family mix proportions must be finite and >= 0")
        total = sum(p for _, p in self.family_mix)
        if abs(total - 1.0) > 1e-9:
            raise DomainError("family mix proportions must sum to 1")
        for fam, _ in self.family_mix:
            if fam not in (LINEAR_EFFORT, POWER_EFFORT):
                raise DomainError(f"unsupported generated family {fam!r}")


# NumPy's SeedSequence hash constants and PCG64 multiplier (bit_generator.pyx,
# pcg64.h); _ROW doubles make one unrejected developer: family, A, k, beta, pi_0
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32, _ROW = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF, 5
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _substream_doubles(seed: int, size: int) -> np.ndarray:
    """Row i: the first ``_ROW`` doubles of ``default_rng(SeedSequence(seed)
    .spawn(size)[i])``, for every i at once. Child i's pool is the parent's
    with key i mixed in; PCG64 steps in uint64 arrays, which wrap silently."""
    import numpy as np
    words = max(1, -(-int(seed).bit_length() // 32))  # uint32 words of seed
    # the parent's mixing made 16 hashmix calls, plus 4 per word past 4
    hc = _INIT_A * pow(_MULT_A, 16 + 4 * max(0, words - 4), 1 << 32) & _M32
    key, mixed, halves = np.arange(size, dtype=np.uint32), [], []
    for x in np.random.SeedSequence(seed).pool.tolist():
        v = (key ^ hc) * (hc := hc * _MULT_A & _M32)
        v = (_MIX_L * x & _M32) - _MIX_R * (v ^ v >> 16)
        mixed.append(v ^ v >> 16)
    hc = _INIT_B
    for j in range(8):  # generate_state(4, uint64)
        v = (mixed[j % 4] ^ hc) * (hc := hc * _MULT_B & _M32)
        halves.append((v ^ v >> 16).astype(np.uint64))
    s_hi, s_lo, i_hi, i_lo = (halves[j] | halves[j + 1] << 32 for j in (0, 2, 4, 6))
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    b0, b1 = _PCG_LO & _M32, _PCG_LO >> 32

    def step(hi, lo):  # state * multiplier + increment, mod 2**128
        a0, a1 = lo & _M32, lo >> 32
        mid = (a0 * b0 >> 32) + (a0 * b1 & _M32) + (a1 * b0 & _M32)
        hi = (a1 * b1 + (a0 * b1 >> 32) + (a1 * b0 >> 32) + (mid >> 32)
              + hi * _PCG_LO + lo * _PCG_HI)
        out = lo * _PCG_LO + inc_lo
        return hi + inc_hi + (out < inc_lo), out

    lo = inc_lo + s_lo  # seeding: state 0 steps to the increment, adds the seed
    hi, lo = step(inc_hi + s_hi + (lo < inc_lo), lo)
    out = np.empty((size, _ROW))
    for c in range(_ROW):
        hi, lo = step(hi, lo)
        x, r = hi ^ lo, hi >> 58  # XSL-RR output
        out[:, c] = (x >> r | x << (64 - r & 63)) >> 11
    return out * 2.0 ** -53


def _draw_positive(dist: Distribution, rng, lo=0.0, hi=math.inf,
                   max_tries=1000) -> Tuple[float, int]:
    """Rejection sampling into (lo, hi]; returns the value and redraw count."""
    for tries in range(max_tries):
        x = dist.sample(rng)
        if lo < x <= hi:
            return x, tries
    raise DomainError(f"distribution {dist} cannot produce a draw in "
                      f"({lo}, {hi}] after {max_tries} tries")


def _uniform(dist: Distribution, u: np.ndarray) -> np.ndarray:
    """NumPy's uniform draw at each double of u; NaN for a lognormal."""
    import numpy as np
    return dist.a + (dist.b - dist.a) * u if dist.kind == UNIFORM else u * np.nan


def generate_population(spec: PopulationSpec) -> Population:
    """Deterministic heterogeneous population from a seeded spec: one NumPy
    pass, then each row that rejects a draw or draws a lognormal redrawn."""
    import numpy as np
    rows = _substream_doubles(spec.seed, spec.size)
    names = [fam for fam, _ in spec.family_mix]
    pick = np.minimum(np.searchsorted(list(accumulate(
        p for _, p in spec.family_mix)), rows[:, 0], side="right"), len(names) - 1)
    power = np.array([fam == POWER_EFFORT for fam in names])[pick]
    scale = _uniform(spec.scale_dist, rows[:, 1])
    k = _uniform(spec.cost_dist, rows[:, 2])
    beta = np.where(power, _uniform(spec.elasticity_dist, rows[:, 3]), 1.0)
    pi0 = _uniform(spec.reservation_dist, np.where(power, rows[:, 4], rows[:, 3]))
    drawn = (scale > 0) & (k > 0) & (beta > 0) & (beta <= 1) & ~np.isnan(pi0)
    pi0 = np.where(pi0 > 0, pi0, 0.0)  # max(0, x)
    population = Population(range(spec.size), [names[j] for j in pick.tolist()],
                            scale, beta, k, pi0)
    redraws = 0
    for i in np.flatnonzero(~drawn).tolist():
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(i,)))
        rng.uniform()  # the family, picked above
        scale[i], r1 = _draw_positive(spec.scale_dist, rng)
        k[i], r2 = _draw_positive(spec.cost_dist, rng)
        beta[i], r3 = (_draw_positive(spec.elasticity_dist, rng, lo=0.0, hi=1.0)
                       if power[i] else (1.0, 0))
        pi0[i] = max(0.0, spec.reservation_dist.sample(rng))
        redraws += r1 + r2 + r3
        population[i]  # building the profile validates the row
    if redraws:
        log.debug("generate_population: %d rejected draws", redraws)
    return population


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
    import numpy as np
    require_rate(success_prob, "success_prob")
    if draws < 1:
        raise DomainError("draws must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    if draws * len(population) > MAX_POOL_CELLS:
        raise DomainError(f"draws x population size must be <= {MAX_POOL_CELLS}")
    require_finite_nonneg("marginal_cost", marginal_cost)
    # earnings: the profit at no serving cost; serving cost: minus the profit
    # at rate 0. _UNSHARED has no ad share, so every ad revenue is passed as 0.0
    responses = participate(population, alpha).responses.values()
    gross, usage = (np.array([getattr(br, f) for br in responses], dtype=float)
                    for f in ("gross_revenue", "usage"))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = rng.random((draws, len(gross))) < success_prob
    with np.errstate(over="ignore", invalid="ignore"):  # the DomainError below
        earnings = entrant_profit(0.0, gross, usage, _UNSHARED, 0.0, alpha)
        total_cost = -float(entrant_profit(0.0, gross, usage, _UNSHARED,
                                           marginal_cost, 0.0).sum())
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
