"""Shared fixtures and independent oracles used across the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from errexp import (Channel, ConjugateResult, InputError, JointPmf, Pmf,
                    ScoredPmf, SourceModel)
from errexp.channel_exponents import (RHO_GRID, _input_given_state,
                                      bhattacharyya_kernel)
from errexp.legendre import LAMBDA_CAP, THETA_RESIDUAL_TOL, Mixture
from errexp.optimize import bisect_monotone
from errexp.prob_core import conditional_kl_arrays

# every property test draws the same examples on every run and writes no
# example database, so the suite stays deterministic
settings.register_profile("errexp", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("errexp")


def row_pmf(ch: Channel, i: int) -> Pmf:
    """Row i of a channel as a Pmf over its output alphabet."""
    return Pmf(ch.output_alphabet, ch.rows[i])


def packed_mixture(components) -> Mixture:
    """The one mixture of ragged (weight, probs, scores) components:
    zero-padded to one length and laid out by `Mixture.packed`."""
    comps = [(w, *(np.asarray(a, dtype=float).reshape(-1) for a in pf))
             for w, *pf in components]
    p, f = np.zeros((2, 1, len(comps), max(pk.size for _, pk, _ in comps)))
    for k, (_, pk, fk) in enumerate(comps):
        p[0, k, :pk.size], f[0, k, :fk.size] = pk, fk
    [(_, _, mix)] = Mixture.packed([[w for w, _, _ in comps]], p, f)
    return mix.rows(0)


def dense_grid_conjugate(sp: ScoredPmf, theta: float,
                         lam_lo: float = -20.0, lam_hi: float = 20.0,
                         step: float = 1e-4) -> float:
    """Brute-force Legendre conjugate on a dense lambda grid.

    Independent of the bisection implementation: evaluates
    theta*lam - log E[exp(lam f)] on every grid point and takes the maximum.
    """
    mask = sp.base.probs > 0
    p, f = sp.base.probs[mask], sp.scores[mask]
    lams = np.arange(lam_lo, lam_hi + step, step)
    log_terms = np.log(p)[None, :] + lams[:, None] * f[None, :]
    m = log_terms.max(axis=1)
    psi = m + np.log(np.exp(log_terms - m[:, None]).sum(axis=1))
    return float(np.max(theta * lams - psi))


def fit_geometric_family(ref, tgt, p) -> float:
    """Max residual of fitting p to the family p ~ ref^a tgt^(1-a) (log-linear
    least squares); small residual certifies the KKT geometric-mixture form."""
    ref, tgt, p = (np.asarray(a, dtype=float).reshape(-1)
                   for a in (ref, tgt, p))
    mask = p > 0
    x = np.log(ref[mask]) - np.log(tgt[mask])
    y = np.log(p[mask]) - np.log(tgt[mask])
    design = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(np.max(np.abs(design @ coef - y)))


def random_pmf(rng: np.random.Generator, size: int, floor: float = 0.02) -> Pmf:
    """A random fully supported PMF (entries bounded away from zero)."""
    probs = rng.dirichlet(np.ones(size))
    probs = (probs + floor) / (1.0 + size * floor)
    return Pmf(tuple(range(size)), probs)


def stacked(f):
    """A per-probe objective f(blocks) as the stacked scorer of one problem
    that `grid_then_pattern` takes: a (B, n_blocks, size) stack and its owner
    array to B values."""
    return lambda stack, owner: np.array([f(list(blocks)) for blocks in stack],
                                         dtype=float)


def sparse_rows(rng: np.random.Generator, n_rows: int, size: int,
                zero_frac: float = 0.3) -> np.ndarray:
    """Random PMF rows with some entries set to zero (never a whole row)."""
    rows = rng.dirichlet(np.ones(size), size=n_rows)
    largest = rows == rows.max(axis=1, keepdims=True)
    rows[(rng.random(rows.shape) < zero_frac) & ~largest] = 0
    return rows / rows.sum(axis=1, keepdims=True)


@pytest.fixture
def bsc35() -> Channel:
    return Channel.bsc(0.35)


@pytest.fixture
def example1() -> SourceModel:
    """The bundled two-source comparison instance (TAD shape)."""
    p_uv = JointPmf(("0", "1"), ("0", "1"), np.full((2, 2), 0.25))
    q_uv = JointPmf(("0", "1"), ("0", "1"), [[0.0, 0.5], [0.5, 0.0]])
    return SourceModel(p_uv, q_uv)

def frozen_kl_array(p, q) -> float:
    """The scalar KL body that `kl_rows` replaced, kept as the reference that
    every KL value must reproduce bit for bit."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def frozen_mutual_information(joint: np.ndarray) -> float:
    """The scalar mutual-information body, on `frozen_kl_array`."""
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    return frozen_kl_array(joint.reshape(-1), np.outer(px, py).reshape(-1))


def assert_bit_equal(got, expect) -> None:
    """Equal values of one type: the repr of a float round-trips its bits
    (and tells +0.0 from -0.0), and `type` tells np.float64 from float."""
    assert got == expect, (got, expect)
    assert type(got) is type(expect) and repr(got) == repr(expect), (got, expect)


CHANNEL_KINDS = ("dense", "sparse", "repeated", "identical", "disjoint")


def divergence_channels(seed: int, count: int = 60):
    """(kind, rows) of random channels with 2-5 inputs and 2-6 outputs,
    cycling through CHANNEL_KINDS: full-support rows, rows with zeros, a
    last row repeating the first, all rows equal, and point-mass rows on
    distinct outputs while outputs last (disjoint supports, so +inf
    divergences)."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        kind = CHANNEL_KINDS[case % len(CHANNEL_KINDS)]
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        rows = sparse_rows(rng, n, m, 0.35 if kind == "sparse" else 0.0)
        if kind == "repeated":
            rows[-1] = rows[0]
        elif kind == "identical":
            rows[:] = rows[0]
        elif kind == "disjoint":
            rows = np.eye(m)[np.arange(n) % m]
        yield kind, rows


def random_weights(rng: np.random.Generator, size: int) -> np.ndarray:
    """A random PMF of `size` entries, about a third of them zero (never
    all)."""
    w = rng.dirichlet(np.ones(size))
    w[rng.random(size) < 0.35] = 0.0
    if not w.any():
        w[rng.integers(size)] = 1.0
    return w / w.sum()


def frozen_bisect_monotone(g, lo, hi, tol=1e-10, xtol=0.0, max_iter=200):
    """The scalar bisection loop, kept as the reference that the elementwise
    `bisect_monotone` must reproduce row by row."""
    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if np.sign(glo) == np.sign(ghi):
        raise ValueError("no sign change")
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


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def frozen_maximize_1d(g, lo, hi, tol=1e-10):
    """The scalar golden-section loop, kept as the reference that the
    elementwise `maximize_1d` must reproduce row by row."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = g(c), g(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = g(d)
    x = 0.5 * (a + b)
    candidates = [(g(lo), lo), (g(hi), hi), (g(x), x)]
    best = max(candidates, key=lambda t: t[0])
    return best[1], best[0]


def frozen_expurgation_terms(p_sx, ch):
    """The per-design terms that the stacked `_expurgation_terms` replaced,
    kept as its reference: (wl, logb, powers, inf_below) of one joint P_SX,
    with wl and logb on the live entries only."""
    pxs = _input_given_state(p_sx)
    w = ((pxs.T * p_sx.sum(axis=1)) @ pxs).reshape(-1)
    b = bhattacharyya_kernel(ch).reshape(-1)
    live = (w > 0) & (b > 0)
    wl = w[live]
    inf_below = -np.inf
    if float(w[(w > 0) & (b == 0)].sum()) > 0:
        live_mass = float(wl.sum())
        inf_below = np.inf if live_mass == 0.0 else -float(np.log(live_mass))
    logb = np.log(b[live])
    return wl, logb, np.exp(logb[None, :] / RHO_GRID[:, None]), inf_below


# 3-input channels: overlapping rows, and rows 0 and 1 disjoint (a zero
# Bhattacharyya entry, so weight there makes the exponent +inf at low rates)
CYCLIC3 = Channel((0, 1, 2), (0, 1, 2),
                  [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
SPLIT3 = Channel((0, 1, 2), (0, 1, 2),
                 [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])


# ---------------------------------------------------------------------------
# The conjugate and the special-message exponent as they were solved before
# the stacked `conjugate_rows`: the single-mixture solve, the recursive mirror
# of +inf scores, and the per-state loop over one design. They are the
# references that the stacked kernels reproduce bit for bit and type for type.


def _frozen_result(value, lam, converged, scalar):
    if scalar:
        return ConjugateResult(float(value[0]), float(lam[0]),
                               bool(converged[0]))
    return ConjugateResult(value, lam, converged)


def _frozen_solve(mix, theta, lam_lo):
    """The interior solve of one mixture, tiled over the thetas."""
    stack = Mixture.stack(*(np.repeat(a[None], theta.size, axis=0)
                            for a in (mix.w, mix.p, mix.f)))

    def g(m, lam, theta):
        return m.tilt(lam)[1] - theta

    floor = lam_lo if lam_lo is not None else -np.inf
    lo_cap = max(-LAMBDA_CAP, floor)
    lo = np.full(theta.size, max(-1.0, floor))
    hi = np.ones(theta.size)
    glo = g(stack, lo, theta)
    grow = (glo > 0.0) & (lo > lo_cap)
    while grow.any():
        lo = np.where(grow, np.maximum(lo * 2.0, lo_cap), lo)
        glo = np.where(grow, g(stack, lo, theta), glo)
        grow &= (glo > 0.0) & (lo > lo_cap)
    ghi = g(stack, hi, theta)
    grow = (ghi < 0.0) & (hi < LAMBDA_CAP)
    while grow.any():
        hi = np.where(grow, np.minimum(hi * 2.0, LAMBDA_CAP), hi)
        ghi = np.where(grow, g(stack, hi, theta), ghi)
        grow &= (ghi < 0.0) & (hi < LAMBDA_CAP)
    below, above = glo > 0.0, ~(glo > 0.0) & (ghi < 0.0)
    lam = np.where(below, lo, hi)
    converged = np.where(below, lam_lo is not None, ~above)
    run = ~(below | above)
    if run.any():
        sub = stack.rows(run)
        lam[run] = bisect_monotone(
            lambda x: g(sub, x, theta[run]), lo[run], hi[run],
            tol=THETA_RESIDUAL_TOL, xtol=1e-13, max_iter=300,
            glo=glo[run], ghi=ghi[run])
    return theta * lam - stack.tilt(lam)[0], lam, converged


def frozen_mixture_conjugate_array(mix, theta, lam_lo=None):
    """The conjugate of one mixture, elementwise over an array of theta."""
    scalar = np.ndim(theta) == 0
    theta = np.array(theta, dtype=float, ndmin=1)
    fmin_k, fmax_k = mix.f.min(axis=1), mix.f.max(axis=1)
    fmin, fmax = np.sum(mix.w * fmin_k), np.sum(mix.w * fmax_k)
    lam = np.zeros(theta.shape)
    value = np.zeros(theta.shape)
    converged = np.ones(theta.shape, dtype=bool)
    if fmax == fmin:
        off = theta != fmin
        lim = -np.sum(mix.w * np.log(mix.p.sum(axis=1)))
        value[off] = float(lim)
        lam[off] = np.copysign(np.inf, theta[off] - fmin)
        return _frozen_result(value, lam, converged, scalar)
    upper = theta >= fmax
    lower = ~upper & (theta <= fmin) & (lam_lo is None)
    for rows, side, ext in ((upper, 1.0, fmax_k), (lower, -1.0, fmin_k)):
        masses = np.where(mix.f == ext[:, None], mix.p, 0.0).sum(axis=1)
        value[rows] = float(-np.sum(mix.w * np.log(masses)))
        lam[rows] = side * np.inf
    inner = ~(upper | lower)
    if inner.any():
        value[inner], lam[inner], converged[inner] = _frozen_solve(
            mix, theta[inner], lam_lo)
    return _frozen_result(value, lam, converged, scalar)


def frozen_conjugate(sp: ScoredPmf, theta) -> ConjugateResult:
    """`conjugate` with the mirror of +inf scores as a recursive call."""
    scalar = np.ndim(theta) == 0
    theta = np.array(theta, dtype=float, ndmin=1)
    if not np.all(np.isfinite(theta)):
        raise InputError("theta must be finite")
    mask = sp.base.probs > 0
    p, f = sp.base.probs[mask], sp.scores[mask]
    if p.size == 0:
        raise InputError("base PMF has empty support")
    has_neg = np.any(np.isneginf(f))
    has_pos = np.any(np.isposinf(f))
    zeros, exact = np.zeros(theta.shape), np.ones(theta.shape, dtype=bool)
    if has_neg and has_pos:
        return _frozen_result(zeros, zeros, exact, scalar)
    if has_pos:
        res = frozen_conjugate(ScoredPmf(sp.base, -sp.scores), -theta)
        return _frozen_result(res.value, -res.maximizer, res.converged,
                              scalar)
    if has_neg:
        finite = np.isfinite(f)
        if not np.any(finite):
            inf = np.full(theta.shape, np.inf)
            return _frozen_result(inf, inf, exact, scalar)
        interior = frozen_mixture_conjugate_array(
            packed_mixture([(1.0, p[finite], f[finite])]), theta, lam_lo=0.0)
        at_zero_plus = -float(np.log(p[finite].sum()))
        edge = at_zero_plus >= interior.value
        return _frozen_result(
            np.where(edge, at_zero_plus, interior.value),
            np.where(edge, 0.0, interior.maximizer),
            edge | interior.converged, scalar)
    res = frozen_mixture_conjugate_array(packed_mixture([(1.0, p, f)]), theta)
    return _frozen_result(res.value, res.maximizer, res.converged, scalar)


def frozen_theta_bounds(design, ch):
    """(theta_l, theta_u) of one design from its state law and its output
    rows P(y|s)."""
    ps = design.joint.probs.sum(axis=1)
    pys = _input_given_state(design.joint.probs) @ ch.rows
    return (conditional_kl_arrays(ps, pys, ch.rows),
            conditional_kl_arrays(ps, ch.rows, pys))


def frozen_special_message_exponent(design, ch, theta):
    """The special-message exponent of one design by a loop over its
    states, each state one `frozen_conjugate`."""
    ps = design.joint.probs.sum(axis=1)
    pys = _input_given_state(design.joint.probs) @ ch.rows
    total = 0.0
    for s, weight in enumerate(ps):
        if weight == 0:
            continue
        base = Pmf(ch.output_alphabet, pys[s])
        mask = pys[s] > 0
        scores = np.zeros(len(ch.output_alphabet))
        with np.errstate(divide="ignore"):
            scores[mask] = np.log(ch.rows[s][mask]) - np.log(pys[s][mask])
        total += weight * frozen_conjugate(ScoredPmf(base, scores),
                                           theta).value
    return total
