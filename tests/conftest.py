"""Shared fixtures and independent oracles used across the test suite."""

import numpy as np
import pytest
from hypothesis import settings

from errexp import Channel, JointPmf, Pmf, ScoredPmf, SourceModel

# every property test draws the same examples on every run and writes no
# example database, so the suite stays deterministic
settings.register_profile("errexp", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("errexp")


def dense_grid_conjugate(sp: ScoredPmf, theta: float,
                         lam_lo: float = -20.0, lam_hi: float = 20.0,
                         step: float = 1e-4) -> float:
    """Brute-force Legendre conjugate on a dense lambda grid.

    Independent of the bisection implementation: evaluates
    theta*lam - log E[exp(lam f)] on every grid point and takes the maximum.
    """
    p, f = sp.effective()
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
