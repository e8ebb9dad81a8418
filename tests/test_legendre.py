import functools

import numpy as np
import pytest

from errexp import (InputError, Pmf, ScoredPmf, conjugate, kl_divergence,
                    llr_interval, loglik_scores)
from errexp.legendre import LAMBDA_CAP, THETA_RESIDUAL_TOL, Mixture
from conftest import (assert_bit_equal, dense_grid_conjugate,
                      frozen_bisect_monotone, random_pmf)


def scored(p_probs, scores) -> ScoredPmf:
    return ScoredPmf(Pmf(tuple(range(len(p_probs))), p_probs), scores)


def mixture(*scored_pmfs, weights=(1.0,)) -> Mixture:
    """The weighted log-MGF sum of scored PMFs with finite supported scores."""
    return Mixture([(w, *sp.effective()) for w, sp in zip(weights, scored_pmfs)])


def log_mgf(sp: ScoredPmf, lam: float) -> float:
    return mixture(sp).tilt(lam)[0]


def tilted_mean(sp: ScoredPmf, lam: float) -> float:
    return mixture(sp).tilt(lam)[1]


class TestLogMgf:
    """psi(lam) = log E[exp(lam * f(Z))] from `Mixture.tilt`."""

    def test_zero_at_lambda_zero(self):
        sp = scored([0.2, 0.8], [3.0, -1.0])
        assert log_mgf(sp, 0.0) == 0.0

    def test_likelihood_ratio_normalizes_at_one(self):
        p = Pmf((0, 1), [0.5, 0.5])
        q = Pmf((0, 1), [0.8, 0.2])
        assert log_mgf(loglik_scores(p, q), 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_direct_evaluation(self):
        sp = scored([0.5, 0.5], [0.0, 1.0])
        assert log_mgf(sp, np.log(2.0)) == pytest.approx(np.log(1.5), abs=1e-14)


class TestTiltedMean:
    """psi'(lam), the score mean under the lam-tilted law, from
    `Mixture.tilt`."""

    def test_zero_tilt_is_expectation(self):
        sp = scored([0.3, 0.7], [1.0, -2.0])
        assert tilted_mean(sp, 0.0) == pytest.approx(0.3 - 1.4)

    def test_large_tilt_approaches_max(self):
        sp = scored([0.5, 0.5], [0.0, 1.0])
        assert tilted_mean(sp, 50.0) == pytest.approx(1.0, abs=1e-3)

    def test_unit_tilt_of_llr_gives_reverse_kl(self):
        p = Pmf((0, 1), [0.5, 0.5])
        q = Pmf((0, 1), [0.8, 0.2])
        assert tilted_mean(loglik_scores(p, q), 1.0) == pytest.approx(
            kl_divergence(q, p), abs=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(17)
        h = 1e-5
        for _ in range(20):
            sp = ScoredPmf(random_pmf(rng, 3), rng.normal(size=3))
            lam = rng.uniform(-2, 2)
            fd = (log_mgf(sp, lam + h) - log_mgf(sp, lam - h)) / (2 * h)
            assert tilted_mean(sp, lam) == pytest.approx(fd, abs=1e-7)


class TestConjugate:
    def test_zero_at_the_mean(self):
        sp = scored([0.3, 0.7], [1.0, -2.0])
        res = conjugate(sp, tilted_mean(sp, 0.0))
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.converged

    def test_llr_upper_endpoint(self):
        p = Pmf((0, 1), [0.5, 0.5])
        q = Pmf((0, 1), [0.8, 0.2])
        d = kl_divergence(q, p)
        res = conjugate(loglik_scores(p, q), d)
        assert res.value - d == pytest.approx(0.0, abs=1e-10)

    def test_chernoff_information_vs_dense_grid(self):
        p = Pmf((0, 1), [0.5, 0.5])
        q = Pmf((0, 1), [0.8, 0.2])
        sp = loglik_scores(p, q)
        assert conjugate(sp, 0.0).value == pytest.approx(
            dense_grid_conjugate(sp, 0.0), abs=1e-6)

    def test_beyond_score_range(self):
        sp = scored([0.25, 0.75], [0.0, 1.0])
        above = conjugate(sp, 1.0)
        assert above.value == pytest.approx(-np.log(0.75))
        assert above.maximizer == float("inf")
        below = conjugate(sp, -0.5)
        assert below.value == pytest.approx(-np.log(0.25))
        assert below.maximizer == float("-inf")

    @pytest.mark.parametrize("probs, scores, value", [
        ([0.5, 0.5], [0.0, 1e-9], np.log(2.0)),
        ([0.25, 0.25, 0.5], [0.0, 1e-9, -1.0], np.log(4.0)),
    ], ids=["two-atoms", "three-atoms"])
    def test_limit_keeps_only_the_exact_maximum(self, probs, scores, value):
        # a score 1e-9 below the maximum is a distinct atom, not part of the
        # argmax set whose mass gives the limit
        res = conjugate(scored(probs, scores), 1e-9)
        assert res.value == pytest.approx(value, rel=1e-15)
        assert res.maximizer == float("inf")

    def test_only_vanishing_supported_scores_give_infinity(self):
        # psi = log 0 for every lam > 0, so the supremum is +inf
        sp = loglik_scores(Pmf((0, 1), [1.0, 0.0]), Pmf((0, 1), [0.0, 1.0]))
        res = conjugate(sp, 0.3)
        assert res.value == float("inf") and res.maximizer == float("inf")

    def test_convex_and_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            sp = ScoredPmf(random_pmf(rng, 3), rng.normal(size=3))
            f = sp.scores
            ts = np.linspace(f.min() + 1e-3, f.max() - 1e-3, 9)
            vals = [conjugate(sp, float(t)).value for t in ts]
            assert all(v >= -1e-12 for v in vals)
            for a, b, c in zip(vals, vals[1:], vals[2:]):
                assert b <= 0.5 * (a + c) + 1e-10

    def test_shift_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            p = random_pmf(rng, 3)
            q = random_pmf(rng, 3)
            theta = rng.uniform(-0.2, 0.2)
            psi_p = conjugate(loglik_scores(p, q), theta).value
            psi_q = conjugate(ScoredPmf(q, loglik_scores(p, q).scores), theta).value
            assert psi_q == pytest.approx(psi_p - theta, abs=1e-8)

    def test_psi_convexity(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            sp = ScoredPmf(random_pmf(rng, 4), rng.normal(size=4))
            l1, l2 = sorted(rng.uniform(-3, 3, size=2))
            t = rng.uniform(0.01, 0.99)
            lhs = log_mgf(sp, t * l1 + (1 - t) * l2)
            rhs = t * log_mgf(sp, l1) + (1 - t) * log_mgf(sp, l2)
            assert lhs <= rhs + 1e-10


class TestConjugateMixture:
    def test_single_component_matches_conjugate(self):
        sp = scored([0.4, 0.6], [-1.0, 0.5])
        for theta in (-0.5, 0.0, 0.3):
            assert mixture(sp).conjugate(theta).value == pytest.approx(
                conjugate(sp, theta).value, abs=1e-10)


class TestMixturePadding:
    """Components of unequal length: the shorter row is padded with one of
    its own live scores, so its min and max are those of its support (a pad
    score of 0 would lower the positive-only row's min from 0.5 to 0)."""

    SHORT = scored([0.3, 0.7], [0.5, 1.5])
    LONG = scored([0.2, 0.5, 0.3], [-2.0, 0.1, 1.0])
    W = (0.4, 0.6)
    FMIN = 0.4 * 0.5 + 0.6 * -2.0
    FMAX = 0.4 * 1.5 + 0.6 * 1.0

    def test_storage(self):
        mix = Mixture([(w, *sp.effective())
                       for w, sp in zip(self.W, (self.SHORT, self.LONG))])
        assert mix.p.tolist() == [[0.3, 0.7, 0.0], [0.2, 0.5, 0.3]]
        assert mix.f[0, 2] in (0.5, 1.5)

    def test_interior_vs_dense_grid(self):
        lams = np.arange(-20.0, 20.0 + 1e-4, 1e-4)
        psi = sum(w * np.log(np.exp(np.outer(lams, sp.scores))
                             @ sp.base.probs)
                  for w, sp in zip(self.W, (self.SHORT, self.LONG)))
        for theta in (-0.6, 0.0, 0.5, 1.0):
            value = mixture(self.SHORT, self.LONG,
                            weights=self.W).conjugate(theta)
            assert value.value == pytest.approx(
                float(np.max(theta * lams - psi)), abs=1e-6)

    def test_score_range_limits(self):
        mix = mixture(self.SHORT, self.LONG, weights=self.W)
        lo = mix.conjugate(self.FMIN)
        assert lo.value == -(0.4 * np.log(0.3) + 0.6 * np.log(0.2))
        assert lo.maximizer == float("-inf")
        hi = mix.conjugate(self.FMAX)
        assert hi.value == -(0.4 * np.log(0.7) + 0.6 * np.log(0.3))
        assert hi.maximizer == float("inf")


    def test_tilted_rows(self):
        mix = Mixture([(w, *sp.effective())
                       for w, sp in zip(self.W, (self.SHORT, self.LONG))])
        for lam in (-3.0, 0.0, 0.7, 25.0):
            rows = mix.tilted(lam)
            assert rows.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-15)
            assert rows[0, 2] == 0.0
            for row, sp in zip(rows, (self.SHORT, self.LONG)):
                p, f = sp.effective()
                law = p * np.exp(lam * f)
                assert row[:p.size] == pytest.approx(law / law.sum(), rel=1e-12)


class TestRadius:
    """`Mixture.radius` is lam * psi'(lam) - psi(lam) of one `tilt`, bit for
    bit, on one mixture and on a stack; at lam = 1 on log-likelihood
    scores it is D(q || p), the divergence of the tilted law."""

    def test_equals_tilt_expression(self):
        mix = mixture(TestMixturePadding.SHORT, TestMixturePadding.LONG,
                      weights=TestMixturePadding.W)
        for lam in (-3.0, 0.0, 0.3, 1.0, 25.0):
            psi, dpsi = mix.tilt(lam)
            assert_bit_equal(mix.radius(lam), lam * dpsi - psi)

    def test_stack(self):
        rng = np.random.default_rng(41)
        p = rng.dirichlet(np.ones(4), size=(9, 3))
        stack = Mixture.stack(rng.dirichlet(np.ones(3), size=9), p,
                              rng.normal(size=p.shape))
        lam = rng.uniform(-2.0, 3.0, 9)
        psi, dpsi = stack.tilt(lam)
        got = stack.radius(lam)
        for b, expect in enumerate(lam * dpsi - psi):
            assert_bit_equal(got[b], expect)

    def test_unit_tilt_of_llr_is_reverse_kl(self):
        p = Pmf((0, 1, 2), [0.5, 0.3, 0.2])
        q = Pmf((0, 1, 2), [0.2, 0.3, 0.5])
        mix = mixture(loglik_scores(p, q))
        assert mix.radius(1.0) == pytest.approx(kl_divergence(q, p),
                                                abs=1e-15)
        assert mix.radius(0.0) == pytest.approx(0.0, abs=1e-15)


def frozen_mixture_conjugate(mix, theta, lam_lo=None):
    """The scalar conjugate solve of one mixture, kept as the reference that
    the elementwise `Mixture.conjugate` must reproduce theta by theta:
    (value, maximizer, converged)."""
    fmin_k, fmax_k = mix.f.min(axis=1), mix.f.max(axis=1)
    fmin, fmax = np.sum(mix.w * fmin_k), np.sum(mix.w * fmax_k)
    if fmax == fmin:
        if theta == fmin:
            return 0.0, 0.0, True
        lim = -np.sum(mix.w * np.log(mix.p.sum(axis=1)))
        return float(lim), np.copysign(np.inf, theta - fmin), True
    if theta >= fmax or (theta <= fmin and lam_lo is None):
        side, ext = (1.0, fmax_k) if theta >= fmax else (-1.0, fmin_k)
        masses = np.where(mix.f == ext[:, None], mix.p, 0.0).sum(axis=1)
        return float(-np.sum(mix.w * np.log(masses))), side * np.inf, True
    floor = lam_lo if lam_lo is not None else -np.inf
    lo, hi = max(-1.0, floor), 1.0
    tilt = functools.cache(mix.tilt)

    def g(lam):
        return tilt(lam)[1] - theta

    while g(lo) > 0.0 and lo > max(-LAMBDA_CAP, floor):
        lo = max(lo * 2.0 if lo < 0 else -1.0, max(-LAMBDA_CAP, floor))
        if lo == floor:
            break
    while g(hi) < 0.0 and hi < LAMBDA_CAP:
        hi = min(hi * 2.0, LAMBDA_CAP)
    if g(lo) > 0.0:
        lam, converged = lo, lam_lo is not None
    elif g(hi) < 0.0:
        lam, converged = hi, False
    else:
        lam = frozen_bisect_monotone(g, lo, hi, tol=THETA_RESIDUAL_TOL,
                                     xtol=1e-13, max_iter=300)
        converged = True
    return theta * lam - tilt(lam)[0], lam, converged


class TestElementwiseConjugate:
    """Mixture.conjugate and conjugate on theta arrays against the frozen
    scalar solve, theta by theta and bit for bit."""

    @staticmethod
    def thetas(rng, mix, n=40):
        """Thetas across and beyond the score range, with its ends exactly,
        and some far below, where the tilt floor or cap binds."""
        lo = float(np.sum(mix.w * mix.f.min(axis=1)))
        hi = float(np.sum(mix.w * mix.f.max(axis=1)))
        span = hi - lo
        return np.concatenate([rng.uniform(lo - 0.2 * span, hi + 0.2 * span, n),
                               [lo, hi, lo + 1e-9 * span, hi - 1e-9 * span,
                                lo - 50.0, 0.5 * (lo + hi)]])

    @staticmethod
    def check(mix, thetas, lam_lo=None):
        res = mix.conjugate(thetas, lam_lo=lam_lo)
        got = list(zip(res.value.tolist(), res.maximizer.tolist(),
                       res.converged.tolist()))
        expect = [tuple(map(float, frozen_mixture_conjugate(mix, t, lam_lo)[:2]))
                  + (bool(frozen_mixture_conjugate(mix, t, lam_lo)[2]),)
                  for t in thetas]
        assert got == expect
        one = mix.conjugate(float(thetas[0]), lam_lo=lam_lo)
        assert (one.value, one.maximizer, one.converged) == expect[0]
        return res

    @pytest.mark.parametrize("lam_lo", [None, 0.0])
    @pytest.mark.parametrize("n_comp,size", [(1, 2), (1, 5), (2, 3), (3, 9)])
    def test_random_mixtures(self, n_comp, size, lam_lo):
        rng = np.random.default_rng(n_comp * 10 + size)
        for _ in range(4):
            comps = [(w, random_pmf(rng, size).probs,
                      rng.normal(scale=3.0, size=size))
                     for w in rng.dirichlet(np.ones(n_comp))]
            mix = Mixture(comps)
            self.check(mix, self.thetas(rng, mix), lam_lo)

    def test_steep_scores_reach_the_tilt_cap(self):
        # a score gap of 1e-7 needs tilts near 1e7 > LAMBDA_CAP to move psi'
        mix = Mixture([(1.0, np.array([0.999999, 1e-6]),
                        np.array([0.0, 1e-7]))])
        res = self.check(mix, np.array([2e-8, 5e-8, 9e-8, 1e-13]))
        assert not res.converged.all()

    def test_constant_scores(self):
        mix = Mixture([(0.4, np.array([0.5, 0.3]), np.array([1.0, 1.0])),
                       (0.6, np.array([0.2]), np.array([-1.0]))])
        self.check(mix, np.array([-0.2, -0.1, 0.0, 0.5]))

    def test_infinite_scores_and_mirror(self):
        rng = np.random.default_rng(3)
        cases = [[0.0, -np.inf, 1.5], [2.0, np.inf, -1.0], [-np.inf, np.inf, 0.0],
                 [-np.inf, -np.inf, -np.inf]]
        for scores in cases:
            sp = scored([0.3, 0.3, 0.4], scores)
            thetas = rng.uniform(-3.0, 3.0, 25)
            res = conjugate(sp, thetas)
            for i, t in enumerate(thetas):
                one = conjugate(sp, float(t))
                assert (res.value[i], res.maximizer[i], res.converged[i]) == (
                    one.value, one.maximizer, one.converged)

    def test_infinite_scores_match_frozen_solve(self):
        # with -inf atoms the solve runs on the finite part with lam >= 0
        p, f = np.array([0.3, 0.3, 0.4]), np.array([0.0, -np.inf, 1.5])
        mix = Mixture([(1.0, p[[0, 2]], f[[0, 2]])])
        thetas = np.linspace(-1.0, 2.0, 31)
        interior = self.check(mix, thetas, lam_lo=0.0)
        res = conjugate(scored(p, f), thetas)
        at_zero = -float(np.log(0.7))
        assert res.value.tolist() == np.where(
            at_zero >= interior.value, at_zero, interior.value).tolist()


class TestLoglikScores:
    def test_equal_pmfs_give_zero_scores(self):
        p = Pmf((0, 1), [0.4, 0.6])
        assert loglik_scores(p, p).scores.tolist() == [0.0, 0.0]

    def test_direct_values(self):
        p = Pmf((0, 1), [0.5, 0.5])
        q = Pmf((0, 1), [0.8, 0.2])
        assert loglik_scores(p, q).scores.tolist() == pytest.approx(
            [np.log(1.6), np.log(0.4)])

    def test_support_convention(self):
        p = Pmf((0, 1), [1.0, 0.0])
        q = Pmf((0, 1), [0.5, 0.5])
        assert loglik_scores(q, p).scores[1] == float("-inf")
        assert loglik_scores(p, q).scores[1] == float("inf")


def test_scored_pmf_rejects_nan_scores():
    with pytest.raises(InputError):
        ScoredPmf(Pmf((0, 1), [0.5, 0.5]), [np.nan, 0.0])


def test_llr_interval():
    p = Pmf((0, 1), [0.5, 0.5])
    q = Pmf((0, 1), [0.8, 0.2])
    lo, hi = llr_interval(p, q)
    assert lo == pytest.approx(-kl_divergence(p, q))
    assert hi == pytest.approx(kl_divergence(q, p))
