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
from .prob_core import Pmf, kl_divergence, live_groups

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


@dataclass(frozen=True)
class ConjugateResult:
    """Value of the conjugate, the maximizing tilt, and a convergence flag.

    `maximizer` is +/-inf when the supremum is attained only in the limit.
    The fields are arrays, one entry per theta, for an array of theta.
    """

    value: float
    maximizer: float
    converged: bool

    def shaped(self, shape: tuple) -> "ConjugateResult":
        """This result of an elementwise solve over flat thetas with the
        thetas' shape: arrays, or the scalars of its one row for shape ()."""
        fields = (self.value, self.maximizer, self.converged)
        if shape == ():
            return ConjugateResult(*(a[0].item() for a in fields))
        return ConjugateResult(*(a.reshape(shape) for a in fields))


@dataclass(frozen=True, init=False)
class Mixture:
    """Weighted sum of log-MGFs sharing one tilt: psi(lam) = sum_k w_k psi_k(lam).

    Stored as w (K,), p (K, m) and f (K, m): one row of masses (a sub-PMF)
    and finite scores per component, laid out by `Mixture.packed`. A row's
    live atoms come first, in order; every atom of zero mass repeats the
    row's first live score, so each row's min, max and log-sum-exp shift
    are those of its support. A stack holds B such mixtures of one shape as
    w (B, K), p (B, K, m) and f (B, K, m); its tilts take one lam per
    mixture and return one value per mixture.
    """

    w: np.ndarray
    p: np.ndarray
    f: np.ndarray

    @classmethod
    def stack(cls, w: np.ndarray, p: np.ndarray, f: np.ndarray) -> "Mixture":
        """The mixture, or stack of mixtures, of arrays already laid out as
        `Mixture.packed` lays them out.

        Row sums run over the last axis of C-ordered arrays, so every
        mixture of a stack gets the bits it would get alone."""
        mix = object.__new__(cls)
        for name, a in (("w", w), ("p", p), ("f", f)):
            arr = np.ascontiguousarray(a, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(mix, name, arr)
        return mix

    @classmethod
    def packed(cls, w, p, f):
        """The stacks of B problems of K weighted components, given as
        w (B, K) and masses and scores p, f (B, K, n): yields
        (rows, comps, stack) for each shape, the problems `rows` (R,), the
        live components of each `comps` (R, k) and their `Mixture.stack`.

        A component is live where its weight is positive, an atom where its
        mass is; a live component needs a live atom, and finite scores on
        its live atoms. Each problem's live components are packed to the
        front in order, and each component's live atoms too. Atoms are
        padded to the problem's widest live support m, with mass 0 and the
        component's first live score. Problems of one shape (k, m) share a
        stack, so every row sum keeps its bits; a problem with no live
        component is in none.
        """
        w, p, f = (np.asarray(a, dtype=float) for a in (w, p, f))
        live, mass = w > 0, p > 0
        counts = mass.sum(axis=-1)
        if (live & ((counts == 0) | (mass & ~np.isfinite(f)).any(axis=-1))
                ).any():
            raise InputError("mixture components need mass and finite "
                             "scores on their support")
        n_live = live.sum(axis=1)
        width = np.where(live, counts, 0).max(axis=1)
        order = np.argsort(~live, axis=1, kind="stable")
        # a problem with no live component has the shape (0, 0)
        for k, m in sorted(set(zip(n_live.tolist(), width.tolist())) - {(0, 0)}):
            rows = np.flatnonzero((n_live == k) & (width == m))
            at = rows[:, None], order[rows, :k]
            atoms = np.argsort(~mass[at], axis=-1, kind="stable")[..., :m]
            pk, fk = (np.take_along_axis(a[at], atoms, axis=-1)
                      for a in (p, f))
            pad = np.arange(m) >= counts[at][..., None]
            yield rows, at[1], cls.stack(w[at], np.where(pad, 0.0, pk),
                                         np.where(pad, fk[..., :1], fk))

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

    def conjugate(self, theta, lam_lo=None) -> ConjugateResult:
        """sup_lam theta*lam - psi(lam), with the tilt bounded below by
        `lam_lo` when negative tilts are inadmissible (None: no floor).

        A stack solves one theta and one floor (a value, or one per
        mixture) for each of its mixtures; a single mixture is tiled over
        an array of theta. The thetas grow their brackets and are bisected
        in lockstep, each row getting the digits it would get alone. A
        scalar theta is the one-row case and gives a result of scalars."""
        shape = np.shape(theta)
        theta = np.array(theta, dtype=float).reshape(-1)
        floor = np.broadcast_to(-np.inf if lam_lo is None else lam_lo,
                                theta.shape)
        mix = self if self.w.ndim > 1 else Mixture.stack(
            *(np.broadcast_to(a, theta.shape + a.shape)
              for a in (self.w, self.p, self.f)))
        fmin_k, fmax_k = mix.f.min(axis=-1), mix.f.max(axis=-1)
        fmin, fmax = (np.sum(mix.w * e, axis=-1) for e in (fmin_k, fmax_k))
        value, lam = np.zeros((2, theta.size))
        converged = np.ones(theta.shape, dtype=bool)
        # constant effective score: psi is linear, conjugate degenerates
        const = fmax == fmin
        off = const & (theta != fmin)
        value[off] = -np.sum(mix.w * np.log(mix.p.sum(axis=-1)), axis=-1)[off]
        lam[off] = np.copysign(np.inf, theta - fmin)[off]
        upper = ~const & (theta >= fmax)
        lower = ~const & ~upper & (theta <= fmin) & (floor == -np.inf)
        for rows, side, ext in ((upper, 1.0, fmax_k), (lower, -1.0, fmin_k)):
            # limit as lam -> +/-inf: -sum_k w_k log P_k(argmax / argmin set),
            # positive since every row's extremes are live scores
            masses = np.where(mix.f == ext[..., None], mix.p, 0.0).sum(axis=-1)
            value[rows] = -np.sum(mix.w * np.log(masses), axis=-1)[rows]
            lam[rows] = side * np.inf
        inner = ~(const | upper | lower)
        if inner.any():
            value[inner], lam[inner], converged[inner] = mix.rows(
                inner)._solve(theta[inner], floor[inner])
        return ConjugateResult(value, lam, converged).shaped(shape)

    def _solve(self, theta: np.ndarray, floor: np.ndarray):
        """(value, lam, converged) of the conjugate of each mixture of this
        stack at its theta, strictly inside its score range (or below it,
        with a floor on the tilt above -inf)."""

        def g(mix: Mixture, lam: np.ndarray, theta: np.ndarray) -> np.ndarray:
            return mix.tilt(lam)[1] - theta

        lo_cap = np.maximum(-LAMBDA_CAP, floor)
        lo = np.maximum(-1.0, floor)
        hi = np.ones(theta.size)
        # grow each bracket geometrically until psi' straddles theta
        glo = g(self, lo, theta)
        grow = (glo > 0.0) & (lo > lo_cap)
        while grow.any():
            # lo starts at max(-1, floor) and grows only while above
            # lo_cap >= floor, so it is negative here
            lo = np.where(grow, np.maximum(lo * 2.0, lo_cap), lo)
            glo = np.where(grow, g(self, lo, theta), glo)
            grow &= (glo > 0.0) & (lo > lo_cap)
        ghi = g(self, hi, theta)
        grow = (ghi < 0.0) & (hi < LAMBDA_CAP)
        while grow.any():
            hi = np.where(grow, np.minimum(hi * 2.0, LAMBDA_CAP), hi)
            ghi = np.where(grow, g(self, hi, theta), ghi)
            grow &= (ghi < 0.0) & (hi < LAMBDA_CAP)
        # theta below the attainable tilted-mean range on [floor, cap], or
        # above it
        below, above = glo > 0.0, ~(glo > 0.0) & (ghi < 0.0)
        lam = np.where(below, lo, hi)
        converged = np.where(below, floor > -np.inf, ~above)
        run = ~(below | above)
        if run.any():
            sub = self.rows(run)
            # the width stop ends a 2 * LAMBDA_CAP bracket within ~65 halvings
            lam[run] = bisect_monotone(
                lambda x: g(sub, x, theta[run]), lo[run], hi[run],
                tol=THETA_RESIDUAL_TOL, xtol=1e-13, max_iter=300,
                glo=glo[run], ghi=ghi[run])
        return theta * lam - self.tilt(lam)[0], lam, converged


def conjugate_rows(p, f, theta) -> ConjugateResult:
    """`conjugate` of each row of the (B, m) stacks of masses p and scores
    f at its own theta (B,): a result of arrays, one entry per row.

    Atoms of zero mass drop out. A row with +inf scores (and no -inf) is
    mirrored: its scores and theta change sign, and so does its maximizer.
    A row with -inf scores is solved on its finite atoms with the tilt
    floored at 0, and takes the lam -> 0+ edge value -log(finite mass),
    maximizer 0, where that is larger. A row with both is 0 at lam = 0; a
    row of -inf scores alone is +inf. The rows of each `live_groups` group
    are solved as one `Mixture.stack`, so each row gets the bits it would
    get alone.
    """
    p, f, theta = (np.asarray(a, dtype=float) for a in (p, f, theta))
    if not np.all(np.isfinite(theta)):
        raise InputError("theta must be finite")
    mass = p > 0
    if not mass.any(axis=1).all():
        raise InputError("base PMF has empty support")
    pos, neg = ((mass & (f == inf)).any(axis=1) for inf in (np.inf, -np.inf))
    sign = np.where(pos & ~neg, -1.0, 1.0)
    f, theta = f * sign[:, None], theta * sign
    live = mass & np.isfinite(f) & ~(pos & neg)[:, None]
    # no live atom: psi is finite only at lam = 0 (both infinities), or
    # log 0 for every lam > 0 (-inf scores alone)
    value = np.where(pos & neg, 0.0, np.inf)
    lam, converged = value.copy(), np.ones(theta.shape, dtype=bool)
    floor = np.where(pos | neg, 0.0, -np.inf)
    for rows, (p_n, f_n) in live_groups(live, p, f):
        res = Mixture.stack(np.ones((rows.size, 1)), p_n[:, None],
                            f_n[:, None]).conjugate(theta[rows], floor[rows])
        # lam -> 0+ drops the -inf atoms: value -log(sub-mass); lam = 0 gives 0
        at_zero_plus = -np.log(p_n.sum(axis=1))
        edge = (floor[rows] == 0.0) & (at_zero_plus >= res.value)
        value[rows] = np.where(edge, at_zero_plus, res.value)
        lam[rows] = np.where(edge, 0.0, res.maximizer)
        converged[rows] = edge | res.converged
    return ConjugateResult(value, lam * sign, converged)


def conjugate(sp: ScoredPmf, theta) -> ConjugateResult:
    """Legendre-Fenchel conjugate psi*(theta) = sup_lam theta*lam - psi(lam).

    Interior theta is solved by monotone bisection on the tilted mean; beyond
    the score range the limiting value is returned with the maximizer flagged
    +/-inf. Atoms with infinite scores restrict the admissible tilt to the
    side on which they vanish. Elementwise over an array of theta: the
    one-PMF `conjugate_rows`.
    """
    shape = np.shape(theta)
    theta = np.array(theta, dtype=float).reshape(-1)
    return conjugate_rows(*(np.broadcast_to(a, (theta.size, a.size))
                            for a in (sp.base.probs, sp.scores)),
                          theta).shaped(shape)


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
