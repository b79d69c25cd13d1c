"""Small derivative-free 1-D maximization helpers used by the solvers."""

from __future__ import annotations

import math
from typing import Callable

from .model import DomainError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_MAX_ITER = 200   # golden-section steps; 0.618**200 is below 1e-41
_REL_TOL = 1e-12  # golden section's last bracket, relative to its larger end
_N_COARSE = 512   # grid cells scanned before the golden-section polish
# largest upper bound expand_upper_bound returns: above twice the largest
# effort a CLI run reaches, A/k = 1e6/1e-6
SEARCH_CAP = 1e15


class NonConvergenceError(DomainError):
    """An unbounded developer problem, or no optimum found below SEARCH_CAP."""


def golden_section_max(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Maximize a unimodal f on [lo, hi]: the argmax to _REL_TOL relative."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if b - a <= _REL_TOL * max(abs(a), abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    # endpoints can beat the interior midpoint when the max sits on a corner
    best = max(((f(lo), lo), (f(hi), hi), (f(x), x)), key=lambda t: t[0])
    return best[1]


def grid_then_golden(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Piecewise-concave f: golden section in the best cell of a coarse grid."""
    step = (hi - lo) / _N_COARSE
    best_i, best_v = 0, f(lo)
    for i in range(1, _N_COARSE + 1):
        v = f(lo + i * step)
        if v > best_v:
            best_i, best_v = i, v
    a = max(lo, lo + (best_i - 1) * step)
    b = min(hi, lo + (best_i + 1) * step)
    return golden_section_max(f, a, b)


def expand_upper_bound(f: Callable[[float], float]) -> float:
    """Grow an upper search bound from 1 until f stops improving past it.
    NonConvergenceError when f still improves at SEARCH_CAP: the optimum,
    if there is one, lies past the cap."""
    hi = 1.0
    while hi < SEARCH_CAP and f(hi * 2) > f(hi):
        hi *= 2
    hi = min(hi * 2, SEARCH_CAP)
    if hi >= SEARCH_CAP and f(hi) > f(hi / 2):
        raise NonConvergenceError(
            "developer problem has no optimum below the search cap "
            f"{SEARCH_CAP:g}: the objective still rises there")
    return hi
