"""Deterministic derivative-free optimization utilities.

All routines are seedless and allocation-stable so repeated runs produce
bit-identical results.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .exceptions import BracketError, InputError

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# candidates scored per call by grid_then_pattern; a batch scorer holds
# one object per candidate at once, so this bounds the memory it takes
GRID_CHUNK = 256
# the first step of every pattern search, halved down to its min_step
PATTERN_STEP = 0.25


def bisect_monotone(g: Callable, lo, hi, tol: float = 1e-10,
                    xtol: float = 0.0, max_iter: int = 200, *,
                    glo=None, ghi=None):
    """Roots of monotone (increasing or decreasing) functions, elementwise.

    Each row is one problem on its own bracket [lo, hi], given as 1-D float
    arrays of one shape; `g` maps an array of points, one per row, to the
    array of values, and all rows are halved in lockstep. `glo` and `ghi`
    pass values of g at the ends that the caller already holds.

    An end where g is exactly zero is returned (lo first); ends of equal
    sign raise BracketError. Otherwise the sign-changing bracket is halved
    until |g(mid)| <= tol or hi - lo <= xtol * max(1, |mid|), returning that
    mid, or the final midpoint after max_iter halvings. Rows that have
    stopped are still halved and evaluated, but their result stays fixed.
    """
    glo = g(lo) if glo is None else glo
    ghi = g(hi) if ghi is None else ghi
    root = np.where(glo == 0.0, lo, hi)
    done = (glo == 0.0) | (ghi == 0.0)
    sign_lo = np.sign(glo)
    bad = ~done & (sign_lo == np.sign(ghi))
    if bad.any():
        i = int(np.argmax(bad))
        raise BracketError(f"no sign change on [{lo[i]}, {hi[i]}]: "
                           f"g={glo[i]}, {ghi[i]}")
    for _ in range(max_iter if not done.all() else 0):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        stop = np.abs(gm) <= tol
        stop |= (hi - lo) <= xtol * np.maximum(1.0, np.abs(mid))
        if stop.any():
            stop &= ~done
            root[stop] = mid[stop]
            done |= stop
            if done.all():
                break
        # g keeps the sign of g(lo) on the lower part of the bracket
        down = np.sign(gm) == sign_lo
        lo, hi = np.where(down, mid, lo), np.where(down, hi, mid)
    else:
        root = np.where(done, root, 0.5 * (lo + hi))
    return root


def maximize_1d(g: Callable, lo, hi,
                tol: float = 1e-10) -> tuple:
    """Golden-section maximization of unimodal functions, elementwise.

    Each row is one problem on its own interval [lo, hi], given as 1-D float
    arrays of one shape; `g` maps an array of points, one per row, to their
    values, and all rows step in lockstep, each until its own b - a <= tol
    (a row that has stopped keeps stepping, but its midpoint is fixed). Each
    row then returns the first maximum among (lo, hi, midpoint), so
    endpoints are returned as-is when the maximum sits on the boundary.
    Returns the arrays (argmax, value).
    """
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    x = np.empty_like(a)
    done = np.zeros(a.shape, dtype=bool)
    while True:
        stop = ~done & ~((b - a) > tol)
        x = np.where(stop, 0.5 * (a + b), x)
        done |= stop
        if done.all():
            break
        # left: the maximum lies in [a, d]; c becomes the new d
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_new = g(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
    best_x, best = lo, g(lo)
    for pt in (hi, x):
        val = g(pt)
        # strictly larger only, so the first of equal maxima is kept
        better = val > best
        best_x, best = np.where(better, pt, best_x), np.where(better, val, best)
    return best_x, best


def simplex_grid(dimension: int, resolution: int) -> Iterator[np.ndarray]:
    """All compositions of k = `resolution` into `dimension` parts, divided
    by k.

    Lexicographic order; emits exactly C(k+d-1, d-1) valid PMF vectors. Each
    composition is read off the d-1 bar positions among k+d-1 slots (stars
    and bars), which itertools.combinations yields in that order.
    """
    if dimension < 1 or resolution < 1:
        raise InputError("simplex_grid: dimension and resolution must be >= 1")
    slots = resolution + dimension - 1
    return ((np.diff((-1, *bars, slots)) - 1) / resolution
            for bars in itertools.combinations(range(slots), dimension - 1))


@lru_cache(maxsize=64)
def simplex_grid_array(dimension: int, resolution: int) -> np.ndarray:
    """The full simplex grid as a read-only (n_points, dimension) array."""
    arr = np.stack(list(simplex_grid(dimension, resolution)))
    arr.flags.writeable = False
    return arr


def project_rows(v: np.ndarray) -> np.ndarray:
    """`project_simplex` applied to every row of a 2-D stack."""
    w = np.clip(v, 0.0, None)
    total = w.sum(axis=1, keepdims=True)
    empty = total[:, 0] <= 0
    out = w / np.where(empty[:, None], 1.0, total)
    out[empty] = 1.0 / w.shape[1]
    return out


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and renormalize; deterministic."""
    return project_rows(np.asarray(v, dtype=float)[None])[0]


def _probe_stack(x: np.ndarray, bi: np.ndarray, ci: np.ndarray,
                 delta: np.ndarray) -> np.ndarray:
    """One probe per move: x with coordinate ci[m] of block bi[m] shifted by
    delta[m] and that block projected back onto the simplex."""
    rows = np.arange(bi.size)
    moved = x[bi]
    moved[rows, ci] += delta
    probes = np.repeat(x[None], bi.size, axis=0)
    probes[rows, bi] = project_rows(moved)
    return probes


def pattern_search(f: Callable[[Sequence[np.ndarray]], float],
                   start: Sequence[np.ndarray],
                   min_step: float = 1e-4,
                   min_improve: float = 0.0, *,
                   f_many: Callable[[np.ndarray], np.ndarray] | None = None,
                   ) -> tuple[list[np.ndarray], float]:
    """Coordinate-wise pattern search over a product of probability simplices.

    The blocks of `start` share one size. A sweep probes +/- step on every
    coordinate of every block in turn (block, then coordinate, then +
    before -), projecting the moved block back onto the simplex; the step
    starts at PATTERN_STEP and halves after a sweep in which no accepted
    probe improved by more than `min_improve`, until it falls below
    `min_step`. Acceptance is sequential: the first probe, in that order,
    whose value is > the running best is taken, and the sweep goes on from
    the next move with probes rebuilt from the new point. Never returns a
    value below f(start).

    `f(blocks)` scores one probe, given as a list of blocks. With `f_many`,
    the remaining probes of a sweep are built and scored at once:
    `f_many(probes)` takes a (B, n_blocks, size) stack and returns B values
    in probe order, each equal to `f` of that probe. Without it, each probe
    is built and scored by `f` in turn, and none past an accepted one. Both
    visit the same points and return the same (blocks, value).
    """
    if len({np.size(b) for b in start}) > 1:
        raise InputError("pattern_search: blocks must share one size")
    x = project_rows(np.asarray(start, dtype=float))
    best = f(list(x))
    n_blocks, size = x.shape
    # move m shifts coordinate ci[m] of block bi[m] by sign[m] * step
    bi = np.repeat(np.arange(n_blocks), 2 * size)
    ci = np.tile(np.repeat(np.arange(size), 2), n_blocks)
    sign = np.tile([+1.0, -1.0], n_blocks * size)
    step = PATTERN_STEP

    def first_hit(k: int):
        """(j, probe, value) of the first probe, from move k on, that beats
        the running best; None when none does."""
        if f_many is not None:
            probes = _probe_stack(x, bi[k:], ci[k:], sign[k:] * step)
            vals = f_many(probes)
            j = next((j for j, val in enumerate(vals) if val > best), None)
            return None if j is None else (j, probes[j], vals[j])
        for j, m in enumerate(range(k, bi.size)):
            probe = _probe_stack(x, bi[m:m + 1], ci[m:m + 1],
                                 sign[m:m + 1] * step)[0]
            val = f(list(probe))
            if val > best:
                return j, probe, val
        return None

    while step >= min_step:
        improved = False
        k = 0
        while k < bi.size:
            hit = first_hit(k)
            if hit is None:
                break
            j, x, val = hit
            if val > best + min_improve:
                improved = True
            best = val
            k += j + 1
        if not improved:
            step *= 0.5
    return list(x), best


def grid_then_pattern(score: Callable[[np.ndarray], np.ndarray],
                      candidates: Iterable[Sequence[np.ndarray]],
                      seeds: Iterable[Sequence[np.ndarray]] = (),
                      **pattern_kw) -> tuple[list[np.ndarray] | None, float]:
    """Best (blocks, value) of a grid pass followed by pattern searches.

    `score(stack)` maps a (B, n_blocks, size) stack of block lists to their
    B values. The candidates are scored GRID_CHUNK at a time, in the order
    given, and the first of any equal maxima is kept; then `pattern_search`
    (with `pattern_kw`) runs from that winner and from each extra seed, in
    order, scoring its start as a one-row stack and each sweep as one stack.
    A search result replaces the running best only when it is strictly
    larger, so the value is never below the best candidate's. Returns
    (None, -inf) when every candidate and every search scores -inf.
    """
    def score_one(blocks: Sequence[np.ndarray]) -> float:
        return score(np.asarray(blocks, dtype=float)[None])[0]

    best_blocks, best_val = None, -np.inf
    candidates = iter(candidates)
    while chunk := list(itertools.islice(candidates, GRID_CHUNK)):
        vals = np.asarray(score(np.asarray(chunk, dtype=float)))
        # the first of equal maxima, as a running `>` keeps; NaN never wins
        k = int(np.argmax(np.where(np.isnan(vals), -np.inf, vals)))
        if vals[k] > best_val:
            best_blocks, best_val = chunk[k], vals[k]
    starts = list(seeds) if best_blocks is None else [best_blocks, *seeds]
    for start in starts:
        blocks, val = pattern_search(score_one, start, f_many=score,
                                     **pattern_kw)
        if val > best_val:
            best_blocks, best_val = blocks, val
    return best_blocks, best_val
