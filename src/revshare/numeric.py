"""Small derivative-free 1-D maximization helpers used by the solvers."""

from __future__ import annotations

import math
from typing import Callable

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_MAX_ITER = 200   # golden-section steps; 0.618**200 is below 1e-41
_N_COARSE = 512   # grid cells scanned before the golden-section polish
SEARCH_CAP = 1e6  # largest upper bound expand_upper_bound returns


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-10) -> float:
    """Maximize a unimodal f on [lo, hi]; returns the argmax to within tol."""
    if hi < lo:
        raise ValueError("empty bracket")
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_MAX_ITER):
        if b - a <= tol:
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


def grid_then_golden(f: Callable[[float], float], lo: float, hi: float,
                     tol: float = 1e-10) -> float:
    """Robust maximizer for piecewise-concave objectives: coarse grid scan
    for the global bracket, golden-section polish inside it."""
    if hi <= lo:
        return lo
    step = (hi - lo) / _N_COARSE
    best_i, best_v = 0, f(lo)
    for i in range(1, _N_COARSE + 1):
        v = f(lo + i * step)
        if v > best_v:
            best_i, best_v = i, v
    a = max(lo, lo + (best_i - 1) * step)
    b = min(hi, lo + (best_i + 1) * step)
    return golden_section_max(f, a, b, tol=tol)


def expand_upper_bound(f: Callable[[float], float]) -> float:
    """Grow an upper search bound from 1 until f stops improving past it,
    up to SEARCH_CAP."""
    hi = 1.0
    while hi < SEARCH_CAP and f(hi * 2) > f(hi):
        hi *= 2
    return min(hi * 2, SEARCH_CAP)


def central_diff(f: Callable[[float], float], x: float,
                 h: float | None = None) -> float:
    """Central finite difference, one-sided at the left domain edge."""
    if h is None:
        h = max(1e-6, 1e-6 * abs(x))
    if x - h < 0:
        return (f(x + h) - f(x)) / h
    return (f(x + h) - f(x - h)) / (2 * h)
