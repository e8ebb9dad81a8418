"""Extrema over the KL ball of joints around a reference law.

The projection min D(P || Q) subject to D(P || P_ref) <= kappa_alpha, solved
on the tilted family between the two laws and stacked over many weighted
problems, and a grid-then-pattern search that extremizes any stacked
objective over the ball. These are the type-based compression layer of the
separation scheme; the schemes that use them live in `dht_bounds`.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InputError
from .legendre import Mixture
from .optimize import (bisect_monotone, chunked, grid_then_pattern,
                       simplex_grid_array)
from .prob_core import JointPmf, conditional_kl_rows, kl_rows

BALL_ACTIVE_TOL = 1e-9


def project_components(w: np.ndarray, ref: np.ndarray, tgt: np.ndarray,
                       kappa_alpha) -> tuple[np.ndarray, np.ndarray]:
    """Shared-multiplier KL-ball projections of B problems of K weighted
    components, given as w (B, K) and zero-padded ref and tgt (B, K, n),
    with one kappa_alpha for all or one per problem: the laws (B, K, n) and
    the values (B,).

    Problem b minimizes sum_k w_k D(P_k || tgt_k) subject to
    sum_k w_k D(P_k || ref_k) <= kappa_alpha. A single Lagrange multiplier
    mu serves every component; each component's optimum is then the tilted
    law P_k ~ ref_k exp(lam f_k), f_k = log(tgt_k / ref_k) on the common
    support, at lam = 1 / (1 + mu), and the ball radius is
    `Mixture.radius` of the weighted CGF. The multiplier is bracketed by
    doubling up to a 1e12 cap and then bisected in mu = (1 - lam) / lam;
    that schedule fixes the returned digits. The value is
    `conditional_kl_rows` of the returned laws. A zero-weight component
    drops out and keeps its reference as its law; so does every component
    of a problem whose value is +inf (an empty common support, or a ball
    too small for the supports).
    A target whose radius, summed as the value is, lies within a
    kappa_alpha > 0 is its own projection, of value exactly 0.

    Problems of one shape, live components and widest common support, are
    solved as one `Mixture.stack` with their live components packed to the
    front, every step one tilt with a lam and a kappa_alpha per problem, so
    each visits the multipliers it would visit alone and gets the same bits.
    """
    kappa = np.broadcast_to(np.asarray(kappa_alpha, dtype=float), len(w))
    if not np.all(kappa >= 0):
        raise InputError("kappa_alpha must be non-negative")
    live = w > 0
    laws = ref.copy()
    solved = kappa == 0
    if not solved.all():
        if not live[~solved].any(axis=1).all():
            raise InputError("mixture has no components")
        inside = ~solved & (conditional_kl_rows(w, tgt, ref) <= kappa)
        laws[live & inside[:, None]] = tgt[live & inside[:, None]]
        solved |= inside
        # feasible supports: P_k must be << ref_k, and << tgt_k for finite value
        masks = (ref > 0) & (tgt > 0)
        counts = masks.sum(axis=-1)
        n_live = live.sum(axis=1)
        width = np.where(live, counts, 0).max(axis=1)
        finite = ~solved & ~(live & (counts == 0)).any(axis=1)
        # live components packed to the front; the CGF of a problem is as
        # wide as its widest common support, and only problems of one shape
        # share a stack, so every row sum keeps its bits
        comps = np.argsort(~live, axis=1, kind="stable")
        for k, m in set(zip(n_live[finite].tolist(), width[finite].tolist())):
            idx = np.flatnonzero(finite & (n_live == k) & (width == m))
            at = idx[:, None], comps[idx, :k]
            # each row's support atoms packed to the front, in order
            order = np.argsort(~masks[at], axis=-1, kind="stable")[..., :m]
            p = np.take_along_axis(ref[at], order, axis=-1)
            with np.errstate(divide="ignore", invalid="ignore"):
                f = np.take_along_axis(np.log(tgt[at]) - np.log(ref[at]),
                                       order, axis=-1)
            # padded atoms get mass zero and repeat the row's first live score
            pad = np.arange(m) >= counts[at][..., None]
            mix = Mixture.stack(w[at], np.where(pad, 0.0, p),
                                np.where(pad, f[..., :1], f))
            feasible = ~(kappa[idx] < mix.radius(np.zeros(len(idx))) - 1e-12)
            mix, idx, pad = mix.rows(feasible), idx[feasible], pad[feasible]
            if not len(idx):
                continue
            lam = 1.0 / (1.0 + _ball_multipliers(mix, kappa[idx]))
            at = idx[:, None], comps[idx, :k]
            tilted = np.zeros(ref[at].shape)
            tilted[masks[at]] = mix.tilted(lam)[~pad]
            laws[at] = tilted
            solved[idx] = True
    return laws, np.where(solved, conditional_kl_rows(w, laws, tgt), np.inf)


def _ball_multipliers(mix: Mixture, kappa: np.ndarray) -> np.ndarray:
    """The multiplier mu of every problem of a stack, each at its own radius
    kappa: 0 when the ball does not bind, else doubled from 1 until the
    radius gap changes sign (at most to the 1e12 cap, where the last
    multiplier is kept) and bisected to a gap of BALL_ACTIVE_TOL. All
    problems step in lockstep, and the gaps at the bracket ends are carried
    into the bisection."""

    def gap(mix: Mixture, mu: np.ndarray, kappa: np.ndarray) -> np.ndarray:
        return mix.radius(1.0 / (1.0 + mu)) - kappa

    mu = np.zeros(len(mix.w))
    g0 = gap(mix, mu, kappa)
    binds = np.flatnonzero(g0 > 0.0)
    if not binds.size:
        return mu
    mix, kappa = mix.rows(binds), kappa[binds]
    lo, glo = np.zeros(binds.size), g0[binds]
    hi = np.ones(binds.size)
    ghi = gap(mix, hi, kappa)
    while (grow := (ghi > 0.0) & (hi < 1e12)).any():
        lo, glo = np.where(grow, hi, lo), np.where(grow, ghi, glo)
        hi = np.where(grow, hi * 2.0, hi)
        ghi = np.where(grow, gap(mix, hi, kappa), ghi)
    # the radius falls in mu; past the 1e12 cap keep the last multiplier
    mu[binds] = hi
    run = ~(ghi > 0.0)
    if run.any():
        sub = mix.rows(run)
        mu[binds[run]] = bisect_monotone(
            lambda x: gap(sub, x, kappa[run]), lo[run], hi[run],
            tol=BALL_ACTIVE_TOL, max_iter=200, glo=glo[run], ghi=ghi[run])
    return mu


def kl_ball_projection(p_ref: JointPmf, q_target: JointPmf,
                       kappa_alpha: float) -> tuple[JointPmf, float]:
    """min over P of D(P || Q_target) subject to D(P || P_ref) <= kappa_alpha.

    The minimizer lies on the tilted family P_ref (Q_target / P_ref)^lam;
    the ball constraint is driven active within 1e-9 whenever it binds.
    """
    if (p_ref.row_alphabet != q_target.row_alphabet
            or p_ref.col_alphabet != q_target.col_alphabet):
        raise InputError("reference and target must share alphabets")
    laws, [value] = project_components(
        np.ones((1, 1)), p_ref.probs.reshape(1, 1, -1),
        q_target.probs.reshape(1, 1, -1), kappa_alpha)
    minimizer = JointPmf(p_ref.row_alphabet, p_ref.col_alphabet,
                         laws[0, 0].reshape(p_ref.probs.shape))
    return minimizer, float(value)


def ball_optimize(p_ref: np.ndarray, objective, signs: np.ndarray,
                  kappa_alpha, resolution: int, min_step: float) -> np.ndarray:
    """Extremize R objectives over joints within the KL ball around p_ref,
    at one kappa_alpha for all problems or one per problem.

    `objective(ps, owner)` maps a (B, n) stack of flat joints and the (B,)
    index of the problem that owns each row to their B values; problem r is
    maximized when signs[r] is +1 and minimized when it is -1. A problem at
    kappa_alpha 0 is evaluated at the reference. The others run as one
    `grid_then_pattern` call over the reference and then the grid points
    inside the largest ball, so a grid point must beat the reference
    strictly. Points outside a problem's own ball score -inf and never win,
    and every point inside it at least the lowest finite float: so a problem
    that is -inf at the reference and on the whole grid is still searched
    from the reference, lest a min such as E1 stay at +inf, on the
    optimistic side; if the search finds nothing either, its value reads
    -inf again. So a maximized problem never reads below its value at p_ref,
    nor a minimized one above it. `objective` never sees more than
    GRID_CHUNK rows at once. The grid has `resolution` steps per
    coordinate, and the pattern search stops at `min_step`. Returns the R
    extrema.
    """
    ref = p_ref.reshape(-1)
    signs = np.asarray(signs, dtype=float)
    kappa = np.broadcast_to(np.asarray(kappa_alpha, dtype=float), signs.shape)
    if not np.all(kappa >= 0):
        raise InputError("kappa_alpha must be non-negative")
    limit = kappa + 1e-12
    floor = -np.finfo(float).max

    def signed(ps: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return chunked(lambda t: signs[owner[t]] * objective(ps[t], owner[t]),
                       len(ps))

    def penalized(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
        ps = stack[:, 0]
        return np.where(kl_rows(ps, ref) > limit[owner], -np.inf,
                        np.maximum(signed(ps, owner), floor))

    best = np.empty(len(signs))
    at_ref = np.flatnonzero(kappa == 0)
    best[at_ref] = signed(np.repeat(ref[None], at_ref.size, axis=0), at_ref)
    if (search := np.flatnonzero(kappa > 0)).size:
        grid = simplex_grid_array(ref.size, resolution)
        inside = kl_rows(grid, ref) <= limit[search].max()
        _, found = grid_then_pattern(
            lambda stack, owner: penalized(stack, search[owner]),
            [[ref], *([p] for p in grid[inside])], problems=search.size,
            min_step=min_step, min_improve=1e-9)
        best[search] = np.where(found == floor, -np.inf, found)
    return signs * best
