import numpy as np
import pytest

from errexp import (Channel, ChannelPairLaw, EstimationError, InputError, Pmf,
                    SimConfig, build_type_sequences, channel_region_point,
                    conjugate, direct_region_point, fit_exponent,
                    loglik_scores, np_decide, simulate_direct, simulate_rht)

P58 = Pmf((0, 1), [0.5, 0.5])
Q58 = Pmf((0, 1), [0.2, 0.8])


class TestNpDecide:
    def test_tie_goes_to_h1(self):
        p = Pmf((0, 1), [0.5, 0.5])
        assert np_decide([0, 1], p, p, 0.0) == "H1"

    def test_very_low_threshold_always_h1(self):
        assert np_decide([0, 0, 0], P58, Q58, -1e6) == "H1"

    def test_single_letter_enumeration(self):
        scores = loglik_scores(P58, Q58).scores
        for symbol in (0, 1):
            for theta in (-1.0, -0.5, 0.0, 0.5, 1.0):
                expect = "H1" if scores[symbol] >= theta else "H0"
                assert np_decide([symbol], P58, Q58, theta) == expect

    def test_iterator_decides_like_list(self):
        for theta in (-1.0, -0.2, 0.0, 0.5):
            assert np_decide(iter([0, 0, 0, 0]), P58, Q58, theta) == \
                np_decide([0, 0, 0, 0], P58, Q58, theta)

    def test_dead_symbol_rejected(self):
        p = Pmf((0, 1), [1.0, 0.0])
        with pytest.raises(InputError):
            np_decide([0], p, p, 0.0)


class TestBuildTypeSequences:
    def test_uniform_diagonal(self):
        law = ChannelPairLaw.from_matrix((0, 1), [[0.5, 0.0], [0.0, 0.5]])
        assert build_type_sequences(law, 4) == ((0, 0, 1, 1), (0, 0, 1, 1))

    def test_point_mass(self):
        law = ChannelPairLaw.point_mass((0, 1), (0, 1))
        assert build_type_sequences(law, 3) == ((0, 0, 0), (1, 1, 1))

    def test_largest_remainder_tie_break(self):
        law = ChannelPairLaw.from_matrix((0, 1), [[0.5, 0.5], [0.0, 0.0]])
        x_tilde, x_prime = build_type_sequences(law, 3)
        assert x_tilde == (0, 0, 0) and x_prime == (0, 0, 1)

    def test_type_gap_bound(self):
        rng = np.random.default_rng(61)
        for n in (7, 23, 100):
            law = ChannelPairLaw.from_matrix(
                (0, 1), rng.dirichlet(np.ones(4)).reshape(2, 2))
            x_tilde, x_prime = build_type_sequences(law, n)
            counts = np.zeros((2, 2))
            for a, b in zip(x_tilde, x_prime):
                counts[a, b] += 1
            gap = np.abs(counts / n - law.probs).sum()
            assert gap <= 4.0 / n


class TestFitExponent:
    def test_exact_exponential(self):
        ns = np.array([10, 20, 30, 40])
        fit = fit_exponent(ns, np.exp(-0.1 * ns))
        assert fit.slope == pytest.approx(0.1, abs=1e-12)
        assert not fit.censored

    def test_all_zero_rates(self):
        with pytest.raises(EstimationError):
            fit_exponent([10, 20, 30], [0.0, 0.0, 0.0])

    def test_noisy_synthetic(self):
        ns = np.arange(10, 200, 10)
        eta = 0.2 * np.cos(ns)  # bounded deterministic perturbation
        rates = np.exp(-0.1 * ns) * (1 + eta)
        assert fit_exponent(ns, rates).slope == pytest.approx(0.1, abs=0.01)

    def test_censoring(self):
        fit = fit_exponent([10, 20, 30], [0.1, 0.01, 0.0])
        assert fit.censored
        with pytest.raises(EstimationError):
            fit_exponent([10, 20, 30], [0.1, 0.0, 0.0])


class TestSimulateDirect:
    def test_degenerate_hypotheses(self):
        cfg = SimConfig((10, 20), 500, seed=1)
        rep = simulate_direct(P58, P58, 0.0, cfg)
        assert rep.alpha_hat == (1.0, 1.0)
        assert rep.beta_hat == (0.0, 0.0)
        assert rep.beta_fit is None

    def test_deterministic(self):
        cfg = SimConfig((50, 100), 2000, seed=77)
        assert simulate_direct(P58, Q58, 0.0, cfg) == simulate_direct(
            P58, Q58, 0.0, cfg)

    def test_slopes_track_analytic_exponents(self):
        cfg = SimConfig((50, 100, 150, 200), 10**5, seed=7)
        rep = simulate_direct(P58, Q58, 0.0, cfg)
        pt = direct_region_point(P58, Q58, 0.0)
        for fit, expect in ((rep.alpha_fit, pt.kappa_alpha),
                            (rep.beta_fit, pt.kappa_beta)):
            assert fit is not None
            assert abs(fit.slope - expect) <= max(0.15 * expect, 0.01)

    def test_single_letter_matches_enumeration(self):
        cfg = SimConfig((1,), 10**5, seed=13)
        rep = simulate_direct(P58, Q58, 0.0, cfg)
        scores = loglik_scores(P58, Q58).scores
        alpha_exact = float(P58.probs[scores >= 0.0].sum())
        sigma = np.sqrt(alpha_exact * (1 - alpha_exact) / cfg.trials)
        assert abs(rep.alpha_hat[0] - alpha_exact) <= 3 * sigma


class TestSimulateRht:
    LAW = ChannelPairLaw.point_mass((0, 1), (0, 1))

    def test_deterministic(self, bsc35):
        cfg = SimConfig((40, 80), 2000, seed=19)
        a = simulate_rht(P58, Q58, bsc35, 0.0, 0.0, self.LAW, cfg)
        b = simulate_rht(P58, Q58, bsc35, 0.0, 0.0, self.LAW, cfg)
        assert a == b

    def test_degenerate_source_splits_mass(self, bsc35):
        cfg = SimConfig((60,), 4000, seed=23)
        rep = simulate_rht(P58, P58, bsc35, 0.0, 0.0, self.LAW, cfg)
        assert rep.alpha_hat[0] + rep.beta_hat[0] == pytest.approx(1.0,
                                                                  abs=0.05)

    def test_realized_types_reported(self, bsc35):
        cfg = SimConfig((30,), 100, seed=3)
        rep = simulate_rht(P58, Q58, bsc35, 0.0, 0.0, self.LAW, cfg)
        assert rep.realized_types == (((0, 1, 1.0),),)

    def test_near_noiseless_channel_matches_direct(self):
        ch = Channel.bsc(1e-6)
        cfg = SimConfig((50, 100, 150), 10**4, seed=29)
        rep = simulate_rht(P58, Q58, ch, 0.0, 0.05, self.LAW, cfg)
        direct = simulate_direct(P58, Q58, 0.0, cfg)
        # channel stage is essentially error-free: error counts match the
        # local source test alone
        for got, want in zip(rep.alpha_hat, direct.alpha_hat):
            assert abs(got - want) <= 0.02

    def test_error_rates_decay_at_least_analytically(self, bsc35):
        """Light-budget sanity: empirical rates decay with n and never beat
        chance while staying at or below the large-deviations envelope up to
        Monte Carlo slack (the quantitative 15% slope check runs with the
        full trial budget in the acceptance suite)."""
        cfg = SimConfig((50, 100, 150), 10**5, seed=11)
        rep = simulate_rht(P58, Q58, bsc35, 0.0, 0.0, self.LAW, cfg)
        src = conjugate(loglik_scores(P58, Q58), 0.0).value
        chn = channel_region_point(bsc35, self.LAW, 0.0)
        zeta0 = min(src, chn.kappa_alpha)
        assert all(b < a for a, b in zip(rep.alpha_hat, rep.alpha_hat[1:]))
        for n, rate in zip(cfg.blocklengths, rep.alpha_hat):
            envelope = np.exp(-zeta0 * n)
            slack = 3 * np.sqrt(envelope / cfg.trials)
            assert rate <= envelope + slack


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            SimConfig((100, 100), 10, seed=0)
        with pytest.raises(InputError):
            SimConfig((100, 50), 10, seed=0)
        with pytest.raises(InputError):
            SimConfig((100,), 0, seed=0)
