"""Exact error-exponent regions.

Direct hypothesis testing from i.i.d. samples, testing between two fixed
channel input sequences, and the remote-HT trade-off obtained by combining a
local threshold test with a two-codeword channel code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InputError
from .legendre import Mixture, conjugate, llr_interval, loglik_scores
from .optimize import bisect_monotone
from .prob_core import (Channel, JointPmf, Pmf, conditional_kl_arrays,
                        kl_divergence, kl_rows)


@dataclass(frozen=True)
class ExponentPoint:
    """A (type I, type II) exponent pair and the threshold(s) that produced it."""

    kappa_alpha: float
    kappa_beta: float
    theta: float | tuple[float, float]


@dataclass(frozen=True)
class TradeoffCurve:
    """Ordered boundary points; kappa_alpha increasing, kappa_beta non-increasing."""

    label: str
    points: tuple[ExponentPoint, ...]

    def __init__(self, label: str, points) -> None:
        pts = tuple(points)
        for a, b in zip(pts, pts[1:]):
            if not b.kappa_alpha > a.kappa_alpha:
                raise InputError("kappa_alpha must be strictly increasing along the curve")
            if b.kappa_beta > a.kappa_beta + 1e-12:
                raise InputError("kappa_beta must be non-increasing along the curve")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "points", pts)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class ChannelPairLaw:
    """Limiting joint type of the two transmitted input sequences."""

    joint: JointPmf

    def __post_init__(self) -> None:
        if self.joint.row_alphabet != self.joint.col_alphabet:
            raise InputError("pair law must live on input x input")

    @property
    def probs(self) -> np.ndarray:
        return self.joint.probs

    @property
    def alphabet(self) -> tuple:
        return self.joint.row_alphabet

    @staticmethod
    def point_mass(alphabet, pair) -> "ChannelPairLaw":
        alphabet = tuple(alphabet)
        m = np.zeros((len(alphabet), len(alphabet)))
        m[alphabet.index(pair[0]), alphabet.index(pair[1])] = 1.0
        return ChannelPairLaw(JointPmf(alphabet, alphabet, m))

    @staticmethod
    def from_matrix(alphabet, matrix) -> "ChannelPairLaw":
        alphabet = tuple(alphabet)
        return ChannelPairLaw(JointPmf(alphabet, alphabet, matrix))


def direct_region_point(p: Pmf, q: Pmf, theta) -> ExponentPoint:
    """Boundary point of the direct-HT region at log-likelihood threshold
    theta; elementwise over an array of theta, whose point has array
    fields."""
    if np.ndim(theta):
        theta = np.asarray(theta, dtype=float)
    d_pq = kl_divergence(p, q)
    d_qp = kl_divergence(q, p)
    if not (np.isfinite(d_pq) and np.isfinite(d_qp)):
        raise DomainError("direct region requires mutual absolute continuity")
    if not np.all((-d_pq < theta) & (theta < d_qp)):
        raise DomainError(
            f"theta={theta} outside the admissible interval ({-d_pq}, {d_qp})")
    sp = loglik_scores(p, q)
    value = conjugate(sp, theta).value
    return ExponentPoint(value, value - theta, theta)


def direct_tradeoff(p: Pmf, q: Pmf, kappa_alpha):
    """kappa_beta on the direct-HT boundary at a given kappa_alpha.

    Out-of-range kappa_alpha maps to the boundary values: 0 maps to D(p||q),
    anything at or above D(q||p) maps to 0. Elementwise over an array of
    kappa_alpha, inverted as one stack.
    """
    d_pq = kl_divergence(p, q)
    d_qp = kl_divergence(q, p)
    if not (np.isfinite(d_pq) and np.isfinite(d_qp)):
        raise DomainError("direct trade-off requires mutual absolute continuity")
    kappa = np.array(kappa_alpha, dtype=float, ndmin=1)
    beta = np.where(kappa <= 0, d_pq, 0.0)
    inside = ~(kappa <= 0) & ~(kappa >= d_qp)
    if inside.any():
        mix = Mixture([(1.0, *loglik_scores(p, q).effective())])
        beta[inside] = _invert_boundary([mix] * int(inside.sum()),
                                        kappa[inside])
    return float(beta[0]) if np.ndim(kappa_alpha) == 0 else beta


def _invert_boundary(mixes: list[Mixture], kappa_alpha) -> np.ndarray:
    """kappa_beta on the boundary traced by lam in [0, 1], per mixture.

    On that segment the type-I exponent g(lam) = lam*psi'(lam) - psi(lam) of
    each mixture grows from 0 to its maximum at lam = 1; bisect
    g = kappa_alpha and return kappa_alpha - psi'(lam*). kappa_alpha is one
    value, or one per mixture. The mixtures share one shape and are
    bisected in lockstep as one `Mixture.stack`.
    """
    kappa_alpha = np.broadcast_to(np.asarray(kappa_alpha, dtype=float),
                                  (len(mixes),))
    mix = Mixture.stack(np.stack([m.w for m in mixes]),
                        np.stack([m.p for m in mixes]),
                        np.stack([m.f for m in mixes]))

    def g(mix: Mixture, lam: np.ndarray) -> np.ndarray:
        psi, dpsi = mix.tilt(lam)
        return lam * dpsi - psi

    g0, g1 = g(mix, np.zeros(len(mixes))), g(mix, np.ones(len(mixes)))
    # g(0) = -psi(0) is 0 up to rounding of the masses; below it lam* = 0
    lam = np.zeros(len(mixes))
    run = ~(kappa_alpha >= g1) & ~(kappa_alpha <= np.maximum(g0, 0.0))
    if run.any():
        sub = mix.rows(run)
        kap = kappa_alpha[run]
        lam[run] = bisect_monotone(lambda x: g(sub, x) - kap,
                                   np.zeros(kap.size), np.ones(kap.size),
                                   tol=0.0, max_iter=80, glo=g0[run] - kap,
                                   ghi=g1[run] - kap)
    return np.where(kappa_alpha >= g1, 0.0, kappa_alpha - mix.tilt(lam)[1])


def _check_assumption(ch: Channel) -> None:
    bad = ch.violating_row_pair()
    if bad is not None:
        raise DomainError(
            f"channel rows for inputs {bad[0]!r} and {bad[1]!r} do not share support")


def channel_d_bounds(ch: Channel, law: ChannelPairLaw) -> tuple[float, float]:
    """The two averaged row divergences bounding the threshold interval."""
    _check_assumption(ch)
    if law.joint.row_alphabet != ch.input_alphabet:
        raise InputError("pair law alphabet does not match channel input alphabet")
    row_i, row_j = _row_pairs(ch)
    w = law.probs.reshape(-1)
    return (conditional_kl_arrays(w, row_i, row_j),
            conditional_kl_arrays(w, row_j, row_i))


def channel_region_point(ch: Channel, law: ChannelPairLaw, theta) -> ExponentPoint:
    """Boundary point for testing between two channel input sequences;
    elementwise over an array of theta, whose point has array fields."""
    if np.ndim(theta):
        theta = np.asarray(theta, dtype=float)
    d_min, d_max = channel_d_bounds(ch, law)
    if not np.all((-d_min <= theta) & (theta <= d_max)):
        raise DomainError(
            f"theta={theta} outside the admissible interval ({-d_min}, {d_max})")
    mix = _law_mixture(ch, law.probs)
    if mix is None:
        value = np.zeros(np.shape(theta)) if np.ndim(theta) else 0.0
    else:
        value = mix.conjugate(theta).value
    return ExponentPoint(value, value - theta, theta)


def channel_max_divergence(ch: Channel) -> tuple[float, tuple]:
    """Largest pairwise row divergence and its achieving input pair.

    Ties break to the lexicographically smallest index pair; identical-row
    channels return (0, (first, first)).
    """
    # a diagonal pair scores exactly 0, so a positive maximum is off the diagonal
    d = kl_rows(*_row_pairs(ch))
    k = int(np.argmax(d))
    if d[k] <= 0:
        return 0.0, (ch.input_alphabet[0], ch.input_alphabet[0])
    i, j = divmod(k, len(ch.input_alphabet))
    return float(d[k]), (ch.input_alphabet[i], ch.input_alphabet[j])


def _row_pairs(ch: Channel) -> tuple[np.ndarray, np.ndarray]:
    """(row i, row j) stacks over every input pair (i, j), i-major."""
    n = len(ch.rows)
    return np.repeat(ch.rows, n, axis=0), np.tile(ch.rows, (n, 1))


def _law_mixture(ch: Channel, weights: np.ndarray) -> Mixture | None:
    """CGF mixture of the per-pair scores log(row_j / row_i) with base row_i,
    one component per off-diagonal pair the law charges; None when only
    diagonal mass remains."""
    i, j = np.nonzero((weights != 0) & ~np.eye(len(weights), dtype=bool))
    if i.size == 0:
        return None
    return Mixture(zip(weights[i, j], ch.rows[i], ch.pair_scores[i, j]))


def _channel_branch_beta(ch: Channel, laws, kappa_alpha: float) -> np.ndarray:
    """kappa_beta of the channel test at the given type-I exponent, per law;
    the laws whose mixtures share a shape are inverted as one stack."""
    mixes = [_law_mixture(ch, law.probs) for law in laws]
    betas = np.zeros(len(mixes))
    shapes: dict[tuple, list[int]] = {}
    for i, mix in enumerate(mixes):
        if mix is not None:
            shapes.setdefault(mix.p.shape, []).append(i)
    for idx in shapes.values():
        betas[idx] = _invert_boundary([mixes[i] for i in idx], kappa_alpha)
    return betas


def best_channel_branch(ch: Channel, kappa_alpha: float) -> tuple[float, ChannelPairLaw]:
    """Largest channel-test type-II exponent over transmitted-pair laws.

    The maximum is attained by a point mass on one input pair, so the |X|^2
    point masses are scored in row-major order and the last of equal maxima
    is kept: diagonal pairs score 0, so when no pair is positive the result
    is the point mass on the last diagonal pair. Why a point mass suffices:

    * for a law w the boundary point at tilt lam is
      (g_w, h_w) = sum_k w_k (g_k(lam), h_k(lam)), with g = lam*psi' - psi
      and h = g - psi'; both are linear in w;
    * every pair curve has slope dh/dg = -(1 - lam)/lam at lam, so at one
      lam all pair points share one tangent slope s;
    * each pair trade-off beta_k is convex, so
      beta_k(kappa_alpha) >= h_k + s*(kappa_alpha - g_k);
    * summing with weights w_k, and using sum_k w_k (kappa_alpha - g_k) = 0,
      gives h_w <= sum_k w_k beta_k(kappa_alpha) <= max_k beta_k(kappa_alpha);
    * diagonal pairs sit at (0, 0) and only lower the sum.

    Compare the two-codeword analysis of Shannon, Gallager and Berlekamp,
    "Lower bounds to error probability for coding on discrete memoryless
    channels I" (Inf. Control, 1967).
    """
    _check_assumption(ch)
    laws = [ChannelPairLaw.point_mass(ch.input_alphabet, pair)
            for pair in itertools.product(ch.input_alphabet, repeat=2)]
    best_val, best_law = -np.inf, None
    for law, val in zip(laws, _channel_branch_beta(ch, laws, kappa_alpha)):
        if val >= best_val:
            best_val, best_law = float(val), law
    return best_val, best_law


def rht_tradeoff(p_u: Pmf, q_u: Pmf, ch: Channel, kappa_alpha: float) -> float:
    """Best type-II exponent for remote HT at the given type-I exponent.

    The local test contributes kappa_alpha - theta0 with the source conjugate
    pinned at kappa_alpha; the channel test contributes its best branch over
    transmitted-pair laws (`best_channel_branch`). The returned value is
    exact: the single-letter characterisation of testing the marginal of U.
    """
    if kappa_alpha <= 0:
        raise DomainError("kappa_alpha must be positive")
    d_pq = kl_divergence(p_u, q_u)
    d_qp = kl_divergence(q_u, p_u)
    if not (np.isfinite(d_pq) and np.isfinite(d_qp)):
        raise DomainError("remote HT requires mutually absolutely continuous sources")
    source_beta = direct_tradeoff(p_u, q_u, kappa_alpha)
    if source_beta == 0.0:
        return 0.0
    channel_beta, _ = best_channel_branch(ch, kappa_alpha)
    return min(source_beta, max(channel_beta, 0.0))


def kappa0(p_u: Pmf, q_u: Pmf, ch: Channel) -> float:
    """Stein-corner exponent min{D(P_U||Q_U), max pairwise row divergence}."""
    e_c, _ = channel_max_divergence(ch)
    return min(kl_divergence(p_u, q_u), e_c)


def direct_curve(p: Pmf, q: Pmf, n_points: int = 50, margin: float = 1e-9,
                 label: str = "direct") -> TradeoffCurve:
    """Sweep the direct-HT boundary over an even theta grid."""
    lo, hi = llr_interval(p, q)
    thetas = np.linspace(lo + margin, hi - margin, n_points)
    curve = direct_region_point(p, q, thetas)
    pts = [ExponentPoint(float(a), float(b), float(t)) for a, b, t
           in zip(curve.kappa_alpha, curve.kappa_beta, curve.theta)]
    pts.sort(key=lambda pt: pt.kappa_alpha)
    dedup = []
    for pt in pts:
        if not dedup or pt.kappa_alpha > dedup[-1].kappa_alpha + 1e-15:
            dedup.append(pt)
    return TradeoffCurve(label, dedup)
