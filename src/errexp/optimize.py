"""Deterministic derivative-free optimization utilities.

All routines are seedless and allocation-stable so repeated runs produce
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import BracketError, InputError

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GridSpec:
    """Simplex grid: points are integer multiples of 1/k in `dimension` parts."""

    dimension: int
    resolution: int  # denominator k

    def __post_init__(self) -> None:
        if self.dimension < 1 or self.resolution < 1:
            raise InputError("GridSpec: dimension and resolution must be >= 1")


def bisect_monotone(g: Callable[[float], float], lo: float, hi: float,
                    tol: float = 1e-10, xtol: float = 0.0,
                    max_iter: int = 200) -> float:
    """Root of a monotone (increasing or decreasing) scalar function.

    An end where g is exactly zero is returned; ends of equal sign raise
    BracketError. Otherwise the sign-changing bracket is halved until
    |g(mid)| <= tol or hi - lo <= xtol * max(1, |mid|), returning that mid,
    or the final midpoint after max_iter halvings.
    """
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if np.sign(glo) == np.sign(ghi):
        raise BracketError(f"no sign change on [{lo}, {hi}]: g={glo}, {ghi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if abs(gm) <= tol or (hi - lo) <= xtol * max(1.0, abs(mid)):
            return mid
        if np.sign(gm) == np.sign(glo):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def maximize_1d(g: Callable[[float], float], lo: float, hi: float,
                tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi].

    Returns (argmax, value); endpoints are returned as-is when the maximum
    sits on the boundary.
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = g(d)
    x = 0.5 * (a + b)
    candidates = [(g(lo), lo), (g(hi), hi), (g(x), x)]
    best = max(candidates, key=lambda t: t[0])
    return best[1], best[0]


def simplex_grid(spec: GridSpec) -> Iterator[np.ndarray]:
    """All compositions of k into `dimension` parts, divided by k.

    Lexicographic order; emits exactly C(k+d-1, d-1) valid PMF vectors.
    """
    d, k = spec.dimension, spec.resolution

    def rec(prefix: list[int], remaining: int, slots: int):
        if slots == 1:
            yield prefix + [remaining]
            return
        for c in range(remaining + 1):
            yield from rec(prefix + [c], remaining - c, slots - 1)

    for comp in rec([], k, d):
        yield np.asarray(comp, dtype=float) / k


@lru_cache(maxsize=64)
def simplex_grid_array(dimension: int, resolution: int) -> np.ndarray:
    """The full simplex grid as a read-only (n_points, dimension) array."""
    arr = np.stack(list(simplex_grid(GridSpec(dimension, resolution))))
    arr.flags.writeable = False
    return arr


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and renormalize; deterministic."""
    w = np.clip(v, 0.0, None)
    total = w.sum()
    if total <= 0:
        return np.full_like(w, 1.0 / w.size)
    return w / total


def pattern_search(f: Callable[[Sequence[np.ndarray]], float],
                   start: Sequence[np.ndarray],
                   step: float = 0.25,
                   min_step: float = 1e-4,
                   min_improve: float = 0.0) -> tuple[list[np.ndarray], float]:
    """Coordinate-wise pattern search over a product of probability simplices.

    Probes +/- step on every coordinate of every block, projecting back onto
    the simplex; the step halves when no probe improves by more than
    `min_improve`. Deterministic probe order, never returns a value below
    f(start).
    """
    x = [project_simplex(np.asarray(b, dtype=float)) for b in start]
    best = f(x)
    while step >= min_step:
        improved = False
        for bi in range(len(x)):
            for ci in range(x[bi].size):
                for sign in (+1.0, -1.0):
                    probe = [b.copy() for b in x]
                    probe[bi][ci] += sign * step
                    probe[bi] = project_simplex(probe[bi])
                    val = f(probe)
                    if val > best:
                        if val > best + min_improve:
                            improved = True
                        x, best = probe, val
        if not improved:
            step *= 0.5
    return x, best


def grid_then_pattern(f: Callable[[Sequence[np.ndarray]], float],
                      candidates: Iterable[Sequence[np.ndarray]],
                      seeds: Iterable[Sequence[np.ndarray]] = (),
                      **pattern_kw) -> tuple[list[np.ndarray] | None, float]:
    """Best (blocks, value) of a grid pass followed by pattern searches.

    Scores the candidate block lists in the order given and keeps the first
    of any equal maxima; then runs `pattern_search` (with `pattern_kw`) from
    that winner and from each extra seed, in order. A search result replaces
    the running best only when it is strictly larger, so the value is never
    below the best candidate's. Returns (None, -inf) when every candidate and
    every search scores -inf.
    """
    best_blocks, best_val = None, -np.inf
    for blocks in candidates:
        val = f(blocks)
        if val > best_val:
            best_blocks, best_val = blocks, val
    starts = list(seeds) if best_blocks is None else [best_blocks, *seeds]
    for start in starts:
        blocks, val = pattern_search(f, start, **pattern_kw)
        if val > best_val:
            best_blocks, best_val = blocks, val
    return best_blocks, best_val
