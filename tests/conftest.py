"""Shared fixtures and independent oracles used across the test suite."""

import numpy as np
import pytest

from errexp import Channel, JointPmf, Pmf, ScoredPmf, SourceModel


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
