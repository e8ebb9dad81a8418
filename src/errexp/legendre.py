"""Log moment generating functions and their Legendre-Fenchel conjugates.

A ScoredPmf pairs a finite PMF with a real (possibly extended-real) score per
symbol. Every log-MGF, tilted mean, conjugate and boundary inversion in the
package evaluates a Mixture: weighted log-MGFs sharing one tilt, stored as one
padded component array, whose `tilt` gives the log-MGF and the tilted mean.
The conjugate is computed by root-finding on the tilted mean, which is
strictly increasing in the tilt, rather than by direct 1-D maximization.
"""

from __future__ import annotations

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
    The fields are arrays, one entry per theta, for an array of theta.
    """

    value: float
    maximizer: float
    converged: bool

    @staticmethod
    def of(value: np.ndarray, lam: np.ndarray, converged: np.ndarray,
           scalar: bool) -> "ConjugateResult":
        """The result of an elementwise solve: arrays, or the scalars of its
        one row."""
        if scalar:
            return ConjugateResult(float(value[0]), float(lam[0]),
                                   bool(converged[0]))
        return ConjugateResult(value, lam, converged)


@dataclass(frozen=True)
class Mixture:
    """Weighted sum of log-MGFs sharing one tilt: psi(lam) = sum_k w_k psi_k(lam).

    Built from (weight, probs, finite-on-support scores) components of any
    lengths (probs may be sub-PMFs) and stored as w (K,), p (K, m) and
    f (K, m). Every atom with zero mass, padded or not, repeats a live score of
    its own row, so each row's min, max and log-sum-exp shift are those of
    its support. `Mixture.stack` holds B such mixtures of one shape as
    w (B, K), p (B, K, m) and f (B, K, m); its tilts take one lam per
    mixture and return one value per mixture.
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
        self._freeze(w, p, f)

    def _freeze(self, w: np.ndarray, p: np.ndarray, f: np.ndarray) -> None:
        for name, arr in (("w", w), ("p", p), ("f", f)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def stack(cls, w: np.ndarray, p: np.ndarray, f: np.ndarray) -> "Mixture":
        """B mixtures from w (B, K), p (B, K, m) and f (B, K, m), each row
        laid out as `Mixture(components)` lays out its components.

        Row sums run over the last axis of C-ordered arrays, so every
        mixture's values are bit for bit those of its own `Mixture`."""
        mix = object.__new__(cls)
        mix._freeze(*(np.ascontiguousarray(a, dtype=float) for a in (w, p, f)))
        return mix

    def rows(self, index) -> "Mixture":
        """The sub-stack of the mixtures selected by `index`."""
        return Mixture.stack(self.w[index], self.p[index], self.f[index])

    def _shifted(self, lam) -> tuple[np.ndarray, np.ndarray]:
        """Each row's largest exponent top and p * exp(lam * f - top)."""
        if self.w.ndim > 1:
            lam = np.asarray(lam)[:, None, None]
        shift = lam * self.f
        top = shift.max(axis=-1)
        return top, self.p * np.exp(shift - top[..., None])

    def tilt(self, lam):
        """(psi(lam), psi'(lam)) from one tilt, each row shifted by its
        largest exponent: floats, or arrays with one value per mixture of a
        stack."""
        top, t = self._shifted(lam)
        mass = t.sum(axis=-1)
        psi = np.sum(self.w * (top + np.log(mass)), axis=-1)
        dpsi = np.sum(self.w * (np.sum(t * self.f, axis=-1) / mass), axis=-1)
        if self.w.ndim > 1:
            return psi, dpsi
        return float(psi), float(dpsi)

    def radius(self, lam):
        """lam psi'(lam) - psi(lam), the Hoeffding radius of the tilt lam:
        the divergence of the tilted law from the base law, the type-I
        exponent along a boundary and the KL-ball radius of a projection."""
        psi, dpsi = self.tilt(lam)
        return lam * dpsi - psi

    def tilted(self, lam) -> np.ndarray:
        """The tilted laws p * exp(lam * f) / sum, one normalised row per
        component; padded atoms keep mass zero."""
        t = self._shifted(lam)[1]
        return t / t.sum(axis=-1, keepdims=True)

    def conjugate(self, theta, lam_lo: float | None = None) -> ConjugateResult:
        """sup_lam theta*lam - psi(lam), with the tilt bounded below by
        `lam_lo` when negative tilts are inadmissible.

        Elementwise over an array of theta: every theta grows its own
        bracket and all are bisected in lockstep on one stack of copies of
        this mixture, so each gets the digits it would get alone. A scalar
        theta is the one-row case and gives a result of scalars."""
        scalar = np.ndim(theta) == 0
        theta = np.array(theta, dtype=float, ndmin=1)
        fmin_k, fmax_k = self.f.min(axis=1), self.f.max(axis=1)
        fmin, fmax = np.sum(self.w * fmin_k), np.sum(self.w * fmax_k)
        lam = np.zeros(theta.shape)
        value = np.zeros(theta.shape)
        converged = np.ones(theta.shape, dtype=bool)
        if fmax == fmin:
            # constant effective score: psi is linear, conjugate degenerates
            off = theta != fmin
            lim = -np.sum(self.w * np.log(self.p.sum(axis=1)))
            value[off] = float(lim)
            lam[off] = np.copysign(np.inf, theta[off] - fmin)
            return ConjugateResult.of(value, lam, converged, scalar)
        upper = theta >= fmax
        lower = ~upper & (theta <= fmin) & (lam_lo is None)
        for rows, side, ext in ((upper, 1.0, fmax_k), (lower, -1.0, fmin_k)):
            # limit as lam -> +/-inf: -sum_k w_k log P_k(argmax / argmin set),
            # positive since every row's extremes are live scores
            masses = np.where(self.f == ext[:, None], self.p, 0.0).sum(axis=1)
            value[rows] = float(-np.sum(self.w * np.log(masses)))
            lam[rows] = side * np.inf
        inner = ~(upper | lower)
        if inner.any():
            value[inner], lam[inner], converged[inner] = self._solve(
                theta[inner], lam_lo)
        return ConjugateResult.of(value, lam, converged, scalar)

    def _solve(self, theta: np.ndarray, lam_lo: float | None):
        """(value, lam, converged) of the conjugate at every theta strictly
        inside the score range (or below it, with a floor on the tilt)."""
        stack = Mixture.stack(*(np.repeat(a[None], theta.size, axis=0)
                                for a in (self.w, self.p, self.f)))

        def g(mix: Mixture, lam: np.ndarray, theta: np.ndarray) -> np.ndarray:
            return mix.tilt(lam)[1] - theta

        floor = lam_lo if lam_lo is not None else -np.inf
        lo_cap = max(-LAMBDA_CAP, floor)
        lo = np.full(theta.size, max(-1.0, floor))
        hi = np.ones(theta.size)
        # grow each bracket geometrically until psi' straddles theta
        glo = g(stack, lo, theta)
        grow = (glo > 0.0) & (lo > lo_cap)
        while grow.any():
            # lo starts at max(-1, floor) and grows only while above
            # lo_cap >= floor, so it is negative here
            lo = np.where(grow, np.maximum(lo * 2.0, lo_cap), lo)
            glo = np.where(grow, g(stack, lo, theta), glo)
            grow &= (glo > 0.0) & (lo > lo_cap)
        ghi = g(stack, hi, theta)
        grow = (ghi < 0.0) & (hi < LAMBDA_CAP)
        while grow.any():
            hi = np.where(grow, np.minimum(hi * 2.0, LAMBDA_CAP), hi)
            ghi = np.where(grow, g(stack, hi, theta), ghi)
            grow &= (ghi < 0.0) & (hi < LAMBDA_CAP)
        # theta below the attainable tilted-mean range on [floor, cap], or
        # above it
        below, above = glo > 0.0, ~(glo > 0.0) & (ghi < 0.0)
        lam = np.where(below, lo, hi)
        converged = np.where(below, lam_lo is not None, ~above)
        run = ~(below | above)
        if run.any():
            sub = stack.rows(run)
            # the width stop ends a 2 * LAMBDA_CAP bracket within ~65 halvings
            lam[run] = bisect_monotone(
                lambda x: g(sub, x, theta[run]), lo[run], hi[run],
                tol=THETA_RESIDUAL_TOL, xtol=1e-13, max_iter=300,
                glo=glo[run], ghi=ghi[run])
        return theta * lam - stack.tilt(lam)[0], lam, converged


def conjugate(sp: ScoredPmf, theta) -> ConjugateResult:
    """Legendre-Fenchel conjugate psi*(theta) = sup_lam theta*lam - psi(lam).

    Interior theta is solved by monotone bisection on the tilted mean; beyond
    the score range the limiting value is returned with the maximizer flagged
    +/-inf. Atoms with infinite scores restrict the admissible tilt to the
    side on which they vanish. Elementwise over an array of theta (see
    `Mixture.conjugate`).
    """
    scalar = np.ndim(theta) == 0
    theta = np.array(theta, dtype=float, ndmin=1)
    if not np.all(np.isfinite(theta)):
        raise InputError("theta must be finite")
    p, f = sp.effective()
    if p.size == 0:
        raise InputError("base PMF has empty support")
    has_neg = np.any(np.isneginf(f))
    has_pos = np.any(np.isposinf(f))
    zeros, exact = np.zeros(theta.shape), np.ones(theta.shape, dtype=bool)
    if has_neg and has_pos:
        # psi is finite only at lam = 0
        return ConjugateResult.of(zeros, zeros, exact, scalar)
    if has_pos:
        # mirror: conjugate of the reflected scores at -theta with lam <= 0
        res = conjugate(ScoredPmf(sp.base, -sp.scores), -theta)
        return ConjugateResult.of(res.value, -res.maximizer, res.converged,
                                  scalar)
    if has_neg:
        finite = np.isfinite(f)
        if not np.any(finite):
            # psi = log 0 for every lam > 0
            inf = np.full(theta.shape, np.inf)
            return ConjugateResult.of(inf, inf, exact, scalar)
        interior = Mixture([(1.0, p[finite], f[finite])]).conjugate(
            theta, lam_lo=0.0)
        # lam -> 0+ drops the -inf atoms: value -log(sub-mass); lam = 0 gives 0
        at_zero_plus = -float(np.log(p[finite].sum()))
        edge = at_zero_plus >= interior.value
        return ConjugateResult.of(
            np.where(edge, at_zero_plus, interior.value),
            np.where(edge, 0.0, interior.maximizer),
            edge | interior.converged, scalar)
    res = Mixture([(1.0, p, f)]).conjugate(theta)
    return ConjugateResult.of(res.value, res.maximizer, res.converged, scalar)


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
