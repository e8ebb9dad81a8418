"""Exact error-exponent regions.

Direct hypothesis testing from i.i.d. samples, testing between two fixed
channel input sequences, and the remote-HT trade-off obtained by combining a
local threshold test with a two-codeword channel code.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InputError
from .legendre import Mixture, conjugate, llr_interval, loglik_scores
from .optimize import bisect_monotone
from .prob_core import Channel, JointPmf, Pmf, kl_array, kl_divergence


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


def direct_region_point(p: Pmf, q: Pmf, theta: float) -> ExponentPoint:
    """Boundary point of the direct-HT region at log-likelihood threshold theta."""
    d_pq = kl_divergence(p, q)
    d_qp = kl_divergence(q, p)
    if not (np.isfinite(d_pq) and np.isfinite(d_qp)):
        raise DomainError("direct region requires mutual absolute continuity")
    if not (-d_pq < theta < d_qp):
        raise DomainError(
            f"theta={theta} outside the admissible interval ({-d_pq}, {d_qp})")
    sp = loglik_scores(p, q)
    value = conjugate(sp, theta).value
    return ExponentPoint(value, value - theta, theta)


def direct_tradeoff(p: Pmf, q: Pmf, kappa_alpha: float) -> float:
    """kappa_beta on the direct-HT boundary at a given kappa_alpha.

    Out-of-range kappa_alpha maps to the boundary values: 0 maps to D(p||q),
    anything at or above D(q||p) maps to 0.
    """
    d_pq = kl_divergence(p, q)
    d_qp = kl_divergence(q, p)
    if not (np.isfinite(d_pq) and np.isfinite(d_qp)):
        raise DomainError("direct trade-off requires mutual absolute continuity")
    if kappa_alpha <= 0:
        return d_pq
    if kappa_alpha >= d_qp:
        return 0.0
    mix = Mixture([(1.0, *loglik_scores(p, q).effective())])
    return _invert_boundary(mix, kappa_alpha)


def _invert_boundary(mix: Mixture, kappa_alpha: float) -> float:
    """kappa_beta on the boundary traced by lam in [0, 1].

    On that segment the type-I exponent g(lam) = lam*psi'(lam) - psi(lam) of
    the mixture grows from 0 to its maximum at lam = 1; bisect
    g = kappa_alpha and return kappa_alpha - psi'(lam*).
    """
    tilt = functools.cache(mix.tilt)

    def g(lam: float) -> float:
        psi, dpsi = tilt(lam)
        return lam * dpsi - psi

    if kappa_alpha >= g(1.0):
        return 0.0
    # g(0) = -psi(0) is 0 up to rounding of the masses; below it lam* = 0
    lam = 0.0 if kappa_alpha <= max(g(0.0), 0.0) else bisect_monotone(
        lambda lam: g(lam) - kappa_alpha, 0.0, 1.0, tol=0.0, max_iter=80)
    return kappa_alpha - tilt(lam)[1]


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
    w = law.probs
    n = w.shape[0]
    d_min = 0.0
    d_max = 0.0
    for i in range(n):
        for j in range(n):
            if w[i, j] == 0:
                continue
            d_min += w[i, j] * kl_array(ch.rows[i], ch.rows[j])
            d_max += w[i, j] * kl_array(ch.rows[j], ch.rows[i])
    return d_min, d_max


def channel_region_point(ch: Channel, law: ChannelPairLaw, theta: float) -> ExponentPoint:
    """Boundary point for testing between two channel input sequences."""
    d_min, d_max = channel_d_bounds(ch, law)
    if not (-d_min <= theta <= d_max):
        raise DomainError(
            f"theta={theta} outside the admissible interval ({-d_min}, {d_max})")
    mix = _law_mixture(ch, law.probs)
    value = 0.0 if mix is None else mix.conjugate(theta).value
    return ExponentPoint(value, value - theta, theta)


def channel_max_divergence(ch: Channel) -> tuple[float, tuple]:
    """Largest pairwise row divergence and its achieving input pair.

    Ties break to the lexicographically smallest index pair; identical-row
    channels return (0, (first, first)).
    """
    n = len(ch.input_alphabet)
    best = 0.0
    best_pair = (ch.input_alphabet[0], ch.input_alphabet[0])
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = kl_array(ch.rows[i], ch.rows[j])
            if d > best:
                best = d
                best_pair = (ch.input_alphabet[i], ch.input_alphabet[j])
    return best, best_pair


def _law_mixture(ch: Channel, weights: np.ndarray) -> Mixture | None:
    """CGF mixture of the per-pair scores log(row_j / row_i) with base row_i,
    one component per off-diagonal pair the law charges; None when only
    diagonal mass remains."""
    i, j = np.nonzero((weights != 0) & ~np.eye(len(weights), dtype=bool))
    if i.size == 0:
        return None
    return Mixture(zip(weights[i, j], ch.rows[i], ch.pair_scores[i, j]))


def _channel_branch_beta(ch: Channel, law: ChannelPairLaw, kappa_alpha: float) -> float:
    """kappa_beta of the channel test at the given type-I exponent, for one law."""
    mix = _law_mixture(ch, law.probs)
    if mix is None:
        return 0.0
    return _invert_boundary(mix, kappa_alpha)


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
    best_val, best_law = -np.inf, None
    for pair in itertools.product(ch.input_alphabet, repeat=2):
        law = ChannelPairLaw.point_mass(ch.input_alphabet, pair)
        val = _channel_branch_beta(ch, law, kappa_alpha)
        if val >= best_val:
            best_val, best_law = val, law
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
    pts = [direct_region_point(p, q, float(t)) for t in thetas]
    pts.sort(key=lambda pt: pt.kappa_alpha)
    dedup = []
    for pt in pts:
        if not dedup or pt.kappa_alpha > dedup[-1].kappa_alpha + 1e-15:
            dedup.append(pt)
    return TradeoffCurve(label, dedup)
