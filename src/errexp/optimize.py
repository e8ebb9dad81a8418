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
# candidates scored per call by grid_then_pattern's grid pass (one row per
# problem each) and rows per call of `chunked`; a batch scorer holds one
# object per row at once, so this bounds its memory
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
    """Every row of a 2-D stack onto the simplex: negatives clamped to zero,
    then renormalized (a row with no mass left becomes uniform)."""
    w = np.clip(v, 0.0, None)
    total = w.sum(axis=1, keepdims=True)
    empty = total[:, 0] <= 0
    out = w / np.where(empty[:, None], 1.0, total)
    out[empty] = 1.0 / w.shape[1]
    return out


def project_simplex(v: np.ndarray) -> np.ndarray:
    """`project_rows` of one vector. It stays only because bench/traced.py
    resolves it by name, and goes once that tracer counts `project_rows`
    instead (ROADMAP item 1)."""
    return project_rows(np.asarray(v, dtype=float)[None])[0]


def _probe_stack(x: np.ndarray, bi: np.ndarray, ci: np.ndarray,
                 delta: np.ndarray) -> np.ndarray:
    """One probe per move m: point x[m] with coordinate ci[m] of block bi[m]
    shifted by delta[m] and that block projected back onto the simplex."""
    rows = np.arange(bi.size)
    probes = x.copy()
    moved = probes[rows, bi]
    moved[rows, ci] += delta
    probes[rows, bi] = project_rows(moved)
    return probes


def _moves(n_blocks: int, size: int):
    """(bi, ci, sign) of every pattern move, in sweep order: block, then
    coordinate, then + before -."""
    return (np.repeat(np.arange(n_blocks), 2 * size),
            np.tile(np.repeat(np.arange(size), 2), n_blocks),
            np.tile([+1.0, -1.0], n_blocks * size))


def pattern_search(f: Callable[[Sequence[np.ndarray]], float],
                   start: Sequence[np.ndarray], min_step: float = 1e-4,
                   min_improve: float = 0.0) -> tuple[list[np.ndarray], float]:
    """`lockstep_pattern_search` from one start, with `f(blocks)` scoring one
    probe (a list of blocks) per call; returns (blocks, value). It stays
    only because bench/traced.py resolves it by name, and goes once that
    tracer counts the lockstep rounds instead (ROADMAP item 1)."""
    if len({np.size(b) for b in start}) > 1:
        raise InputError("pattern_search: blocks must share one size")
    x = project_rows(np.asarray(start, dtype=float))
    xs, vals = lockstep_pattern_search(
        lambda probes, owner: np.array([f(list(p)) for p in probes]),
        x[None], [f(list(x))], min_step=min_step, min_improve=min_improve)
    return list(xs[0]), vals[0]


def lockstep_pattern_search(score: Callable[[np.ndarray, np.ndarray],
                                            np.ndarray],
                            x: np.ndarray, best, min_step: float = 1e-4,
                            min_improve: float = 0.0
                            ) -> tuple[np.ndarray, np.ndarray]:
    """R independent coordinate-wise pattern searches over products of
    probability simplices, advanced together.

    `x` holds the R start points as an (R, n_blocks, size) stack, already on
    the simplex, and `best` their R values. A sweep of one search probes
    +/- step on every coordinate of every block in turn (block, then
    coordinate, then + before -), projecting the moved block back onto the
    simplex; the step starts at PATTERN_STEP and halves after a sweep in
    which no accepted probe improved by more than `min_improve`, until it
    falls below `min_step`. Acceptance is sequential: the first probe, in
    that order, whose value is > the running best is taken, and the sweep
    goes on from the next move with probes rebuilt from the new point. So no
    search returns a value below its start's.

    Every round builds the remaining probes of the current sweep of every
    live search (each from its own next move on) and scores all of them in
    one call: `score(probes, owner)` gets the (B, n_blocks, size) probe stack
    and the (B,) index of the search that owns each row, and returns B
    values, each depending on its own row and owner only. So each search
    returns the point and value it would reach alone, bit for bit. Returns
    the (R, n_blocks, size) points and the R values.
    """
    x = np.array(x, dtype=float)
    best = np.array(best, dtype=float)
    bi, ci, sign = _moves(*x.shape[1:])
    step = np.full(len(x), PATTERN_STEP)
    k = np.zeros(len(x), dtype=int)          # each search's next move
    improved = np.zeros(len(x), dtype=bool)
    while (live := np.flatnonzero(step >= min_step)).size:
        # the moves k..end of each live search, searches in order
        counts = bi.size - k[live]
        owner = np.repeat(live, counts)
        first = np.cumsum(counts) - counts
        move = np.arange(owner.size) - np.repeat(first - k[live], counts)
        probes = _probe_stack(x[owner], bi[move], ci[move],
                              sign[move] * step[owner])
        vals = np.asarray(score(probes, owner), dtype=float)
        # each search's first probe above its running best; owner.size if none
        beats = np.where(vals > best[owner], np.arange(owner.size), owner.size)
        hit = np.minimum.reduceat(beats, first)
        took = hit < owner.size
        won, j = live[took], hit[took]
        x[won] = probes[j]
        improved[won] |= vals[j] > best[won] + min_improve
        best[won] = vals[j]
        k[won] = move[j] + 1
        # a sweep ends when no probe beats the best or the last move is taken
        ended = np.concatenate([live[~took], won[k[won] == bi.size]])
        step[ended[~improved[ended]]] *= 0.5
        k[ended], improved[ended] = 0, False
    return x, best


def grid_then_pattern(score: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      candidates: Iterable[Sequence[np.ndarray]],
                      seeds: Iterable[Sequence[np.ndarray]] = (),
                      problems: int = 1, **pattern_kw
                      ) -> tuple[list, np.ndarray]:
    """The design-search driver: the best (blocks, value) of each of R =
    `problems` problems, by a grid pass followed by pattern searches.

    `score(stack, owner)` maps a (B, n_blocks, size) stack of block lists and
    the (B,) index of the problem that owns each row to their B values, each
    depending on its own row and owner only. Every candidate is scored for
    every problem, GRID_CHUNK candidates (times R rows) at a time, in the
    order given, and each problem keeps the first of its equal maxima. Then
    pattern searches (with `pattern_kw`) run from each problem's winner and
    from each extra seed, for every problem, all in one
    `lockstep_pattern_search`: their projected starts are scored as one
    stack, and so is each round of sweeps. A search result replaces its
    problem's running best, in that order, only when it is strictly larger,
    so no value is below that problem's best candidate. Returns the R
    winners, as lists of blocks (None where every candidate and every search
    scores -inf), and the array of R values.
    """
    owners = np.arange(problems)
    best_blocks, best_val = [None] * problems, np.full(problems, -np.inf)
    candidates = iter(candidates)
    while chunk := list(itertools.islice(candidates, GRID_CHUNK)):
        # row t is candidate t % len(chunk) of problem t // len(chunk)
        stack = np.tile(np.asarray(chunk, dtype=float), (problems, 1, 1))
        vals = np.asarray(score(stack, np.repeat(owners, len(chunk))))
        vals = vals.reshape(problems, len(chunk))
        # the first of equal maxima, as a running `>` keeps; NaN never wins
        k = np.argmax(np.where(np.isnan(vals), -np.inf, vals), axis=1)
        top = vals[owners, k]
        for r in np.flatnonzero(top > best_val):
            best_blocks[r], best_val[r] = chunk[k[r]], top[r]
    seeds = list(seeds)
    starts = [(r, blocks) for r in owners
              for blocks in [best_blocks[r], *seeds] if blocks is not None]
    if not starts:
        return best_blocks, best_val
    owner = np.array([r for r, _ in starts])
    x = np.asarray([blocks for _, blocks in starts], dtype=float)
    x = project_rows(x.reshape(-1, x.shape[-1])).reshape(x.shape)
    xs, vals = lockstep_pattern_search(
        lambda probes, search: score(probes, owner[search]), x,
        score(x, owner), **pattern_kw)
    for r, blocks, val in zip(owner, xs, vals):
        if val > best_val[r]:
            best_blocks[r], best_val[r] = list(blocks), val
    return best_blocks, best_val


def chunked(fn: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """fn(t) over the row indices t = 0..n-1, GRID_CHUNK rows per call, with
    the values concatenated in row order: a row-wise scorer's memory stays
    bounded however many rows there are."""
    if n == 0:
        return np.empty(0)
    return np.concatenate([fn(np.arange(s, min(s + GRID_CHUNK, n)))
                           for s in range(0, n, GRID_CHUNK)])
