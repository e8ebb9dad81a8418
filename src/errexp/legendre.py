"""Log moment generating functions and their Legendre-Fenchel conjugates.

A ScoredPmf pairs a finite PMF with a real (possibly extended-real) score per
symbol. Every log-MGF, tilted mean, conjugate and boundary inversion in the
package evaluates a Mixture: weighted log-MGFs sharing one tilt, stored as one
padded component array. The conjugate is computed by root-finding on the
tilted mean, which is strictly increasing in the tilt, rather than by direct
1-D maximization.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .exceptions import InputError
from .optimize import bisect_monotone
from .prob_core import Pmf, kl_divergence

LAMBDA_CAP = 1e6
THETA_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ScoredPmf:
    """A PMF together with one extended-real score per symbol."""

    base: Pmf
    scores: np.ndarray

    def __init__(self, base: Pmf, scores) -> None:
        arr = np.asarray(scores, dtype=float)
        if arr.ndim != 1 or arr.size != len(base):
            raise InputError("ScoredPmf: score length must match alphabet")
        if np.any(np.isnan(arr)):
            raise InputError("ScoredPmf: NaN scores")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "scores", arr)

    def effective(self) -> tuple[np.ndarray, np.ndarray]:
        """(probs, scores) restricted to atoms with positive base mass."""
        mask = self.base.probs > 0
        return self.base.probs[mask], self.scores[mask]


@dataclass(frozen=True)
class ConjugateResult:
    """Value of the conjugate, the maximizing tilt, and a convergence flag.

    `maximizer` is +/-inf when the supremum is attained only in the limit.
    """

    value: float
    maximizer: float
    converged: bool

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class Mixture:
    """Weighted sum of log-MGFs sharing one tilt: psi(lam) = sum_k w_k psi_k(lam).

    Built from (weight, probs, finite-on-support scores) components of any
    lengths (probs may be sub-PMFs) and stored as w (K,), p (K, m) and
    f (K, m). Every atom with zero mass, padded or not, repeats a live score of
    its own row, so each row's min, max and log-sum-exp shift are those of
    its support.
    """

    w: np.ndarray
    p: np.ndarray
    f: np.ndarray

    def __init__(self, components) -> None:
        comps = [(float(wk), np.asarray(pk, dtype=float),
                  np.asarray(fk, dtype=float)) for wk, pk, fk in components]
        if not comps:
            raise InputError("mixture has no components")
        m = max(pk.size for _, pk, _ in comps)
        p = np.zeros((len(comps), m))
        f = np.empty((len(comps), m))
        for k, (_, pk, fk) in enumerate(comps):
            live = pk > 0
            if not np.any(live) or not np.all(np.isfinite(fk[live])):
                raise InputError("mixture components need mass and finite "
                                 "scores on their support")
            p[k, :pk.size] = pk
            # zero-mass atoms, padded or not, repeat the first live score
            f[k] = fk[live][0]
            f[k, :pk.size][live] = fk[live]
        w = np.array([wk for wk, _, _ in comps])
        for name, arr in (("w", w), ("p", p), ("f", f)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _shifted(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """Each row's largest exponent top and p * exp(lam * f - top)."""
        shift = lam * self.f
        top = shift.max(axis=1)
        return top, self.p * np.exp(shift - top[:, None])

    def tilt(self, lam: float) -> tuple[float, float]:
        """(psi(lam), psi'(lam)) from one tilt, each row shifted by its
        largest exponent."""
        top, t = self._shifted(lam)
        mass = t.sum(axis=1)
        psi = np.sum(self.w * (top + np.log(mass)))
        dpsi = np.sum(self.w * (np.sum(t * self.f, axis=1) / mass))
        return float(psi), float(dpsi)

    def tilted(self, lam: float) -> np.ndarray:
        """The tilted laws p * exp(lam * f) / sum, one normalised row per
        component; padded atoms keep mass zero."""
        t = self._shifted(lam)[1]
        return t / t.sum(axis=1, keepdims=True)

    def conjugate(self, theta: float, lam_lo: float | None = None) -> ConjugateResult:
        """sup_lam theta*lam - psi(lam), with the tilt bounded below by
        `lam_lo` when negative tilts are inadmissible."""
        fmin_k, fmax_k = self.f.min(axis=1), self.f.max(axis=1)
        fmin, fmax = np.sum(self.w * fmin_k), np.sum(self.w * fmax_k)
        if fmax == fmin:
            # constant effective score: psi is linear, conjugate degenerates
            if theta == fmin:
                return ConjugateResult(0.0, 0.0, True)
            lim = -np.sum(self.w * np.log(self.p.sum(axis=1)))
            return ConjugateResult(float(lim),
                                   np.copysign(np.inf, theta - fmin), True)
        if theta >= fmax or (theta <= fmin and lam_lo is None):
            # limit as lam -> +/-inf: -sum_k w_k log P_k(argmax / argmin set),
            # positive since every row's extremes are live scores
            side, ext = (1.0, fmax_k) if theta >= fmax else (-1.0, fmin_k)
            masses = np.where(self.f == ext[:, None], self.p, 0.0).sum(axis=1)
            return ConjugateResult(float(-np.sum(self.w * np.log(masses))),
                                   side * np.inf, True)

        floor = lam_lo if lam_lo is not None else -np.inf
        lo, hi = max(-1.0, floor), 1.0
        tilt = functools.cache(self.tilt)

        def g(lam: float) -> float:
            return tilt(lam)[1] - theta

        # grow the bracket geometrically until psi' straddles theta
        while g(lo) > 0.0 and lo > max(-LAMBDA_CAP, floor):
            lo = max(lo * 2.0 if lo < 0 else -1.0, max(-LAMBDA_CAP, floor))
            if lo == floor:
                break
        while g(hi) < 0.0 and hi < LAMBDA_CAP:
            hi = min(hi * 2.0, LAMBDA_CAP)
        if g(lo) > 0.0:
            # theta below the attainable tilted-mean range on [floor, cap]
            lam, converged = lo, lam_lo is not None
        elif g(hi) < 0.0:
            lam, converged = hi, False
        else:
            # the width stop ends a 2 * LAMBDA_CAP bracket within ~65 halvings
            lam = bisect_monotone(g, lo, hi, tol=THETA_RESIDUAL_TOL, xtol=1e-13,
                                  max_iter=300)
            converged = True
        value = theta * lam - tilt(lam)[0]
        return ConjugateResult(value, lam, converged)


def log_mgf(sp: ScoredPmf, lam: float) -> float:
    """psi(lam) = log E[exp(lam * f(Z))] in nats; psi(0) = 0 exactly."""
    if np.isnan(lam):
        raise InputError("lambda must not be NaN")
    if lam == 0.0:
        return 0.0
    p, f = sp.effective()
    if p.size == 0:
        raise InputError("base PMF has empty support")
    if lam > 0 and np.any(np.isposinf(f)):
        return float("inf")
    if lam < 0 and np.any(np.isneginf(f)):
        return float("inf")
    finite = np.isfinite(f)
    # infinite scores on the vanishing side contribute zero weight
    if not np.any(finite):
        return float("-inf")
    return Mixture([(1.0, p[finite], f[finite])]).tilt(lam)[0]


def tilted_mean(sp: ScoredPmf, lam: float) -> float:
    """Derivative psi'(lam): the score mean under the lam-tilted distribution."""
    p, f = sp.effective()
    if not np.all(np.isfinite(f)):
        raise InputError("tilted_mean requires finite scores")
    return Mixture([(1.0, p, f)]).tilt(lam)[1]


def conjugate(sp: ScoredPmf, theta: float) -> ConjugateResult:
    """Legendre-Fenchel conjugate psi*(theta) = sup_lam theta*lam - psi(lam).

    Interior theta is solved by monotone bisection on the tilted mean; beyond
    the score range the limiting value is returned with the maximizer flagged
    +/-inf. Atoms with infinite scores restrict the admissible tilt to the
    side on which they vanish.
    """
    if not np.isfinite(theta):
        raise InputError("theta must be finite")
    p, f = sp.effective()
    if p.size == 0:
        raise InputError("base PMF has empty support")
    has_neg = np.any(np.isneginf(f))
    has_pos = np.any(np.isposinf(f))
    if has_neg and has_pos:
        # psi is finite only at lam = 0
        return ConjugateResult(0.0, 0.0, True)
    if has_pos:
        # mirror: conjugate of the reflected scores at -theta with lam <= 0
        mirrored = ScoredPmf(sp.base, -sp.scores)
        res = conjugate(mirrored, -theta)
        return ConjugateResult(res.value, -res.maximizer, res.converged)
    if has_neg:
        finite = np.isfinite(f)
        if not np.any(finite):
            # psi = log 0 for every lam > 0
            return ConjugateResult(float("inf"), float("inf"), True)
        interior = Mixture([(1.0, p[finite], f[finite])]).conjugate(
            theta, lam_lo=0.0)
        # lam -> 0+ drops the -inf atoms: value -log(sub-mass); lam = 0 gives 0
        at_zero_plus = -float(np.log(p[finite].sum()))
        if at_zero_plus >= interior.value:
            return ConjugateResult(at_zero_plus, 0.0, True)
        return interior
    return Mixture([(1.0, p, f)]).conjugate(theta)


def conjugate_mixture(scored: list[ScoredPmf], weights, theta: float) -> ConjugateResult:
    """Conjugate of the weighted sum of log-MGFs sharing one tilt variable.

    Computes sup_lam [theta*lam - sum_k w_k psi_k(lam)], the Chernoff exponent
    of a sum of independent scores accumulated under a common threshold.
    Requires finite scores on every component's support.
    """
    w = np.asarray(weights, dtype=float)
    if w.size != len(scored) or np.any(w < 0):
        raise InputError("weights must be non-negative, one per component")
    if abs(w.sum() - 1.0) > 1e-9:
        raise InputError("weights must sum to 1")
    components = [(wk, *sp.effective()) for wk, sp in zip(w, scored) if wk != 0]
    if not components:
        raise InputError("all mixture weights are zero")
    return Mixture(components).conjugate(theta)


def loglik_scores(p: Pmf, q: Pmf) -> ScoredPmf:
    """Log-likelihood ratio scores z -> log(q(z)/p(z)) with base p.

    Scores are -inf where q vanishes on the support of p, +inf where p
    vanishes but q does not, and 0 where both vanish.
    """
    if p.alphabet != q.alphabet:
        raise InputError("PMFs are defined on different alphabets")
    pp, qq = p.probs, q.probs
    scores = np.zeros(len(pp))
    both = (pp > 0) & (qq > 0)
    scores[both] = np.log(qq[both] / pp[both])
    scores[(pp > 0) & (qq == 0)] = -np.inf
    scores[(pp == 0) & (qq > 0)] = np.inf
    return ScoredPmf(p, scores)


def llr_interval(p: Pmf, q: Pmf) -> tuple[float, float]:
    """The open threshold interval (-D(p||q), D(q||p)) of the direct test."""
    return -kl_divergence(p, q), kl_divergence(q, p)
