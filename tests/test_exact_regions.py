import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from errexp import (Channel, ChannelPairLaw, DomainError, ExponentPoint,
                    InputError, JointPmf, Pmf, TradeoffCurve,
                    best_channel_branch, channel_d_bounds,
                    channel_max_divergence, channel_region_point, direct_curve,
                    direct_region_point, direct_tradeoff, kappa0,
                    kl_divergence, llr_interval, loglik_scores, rht_tradeoff)
from errexp.exact_regions import _channel_branch_beta
from conftest import (assert_bit_equal, dense_grid_conjugate,
                      divergence_channels, frozen_bisect_monotone,
                      frozen_kl_array, packed_mixture, random_pmf,
                      random_weights, row_pmf, sparse_rows)

P58 = Pmf((0, 1), [0.5, 0.5])
Q58 = Pmf((0, 1), [0.2, 0.8])


class TestDirectRegionPoint:
    def test_lower_endpoint(self):
        lo, _ = llr_interval(P58, Q58)
        pt = direct_region_point(P58, Q58, lo + 1e-6)
        assert pt.kappa_alpha == pytest.approx(0.0, abs=1e-3)
        assert pt.kappa_beta == pytest.approx(-lo, abs=1e-3)

    def test_upper_endpoint(self):
        _, hi = llr_interval(P58, Q58)
        pt = direct_region_point(P58, Q58, hi - 1e-6)
        assert pt.kappa_alpha == pytest.approx(hi, abs=1e-3)
        assert pt.kappa_beta == pytest.approx(0.0, abs=1e-3)

    def test_chernoff_point(self):
        pt = direct_region_point(P58, Q58, 0.0)
        assert pt.kappa_alpha == pt.kappa_beta
        assert pt.kappa_alpha == pytest.approx(
            dense_grid_conjugate(loglik_scores(P58, Q58), 0.0), abs=1e-6)

    def test_domain_errors(self):
        lo, hi = llr_interval(P58, Q58)
        with pytest.raises(DomainError):
            direct_region_point(P58, Q58, hi + 0.1)
        with pytest.raises(DomainError):
            direct_region_point(P58, Q58, lo - 0.1)
        with pytest.raises(DomainError):
            direct_region_point(Pmf((0, 1), [1.0, 0.0]), P58, 0.0)


class TestDirectTradeoff:
    def test_corners(self):
        assert direct_tradeoff(P58, Q58, 0.0) == pytest.approx(
            kl_divergence(P58, Q58))
        assert direct_tradeoff(P58, Q58, kl_divergence(Q58, P58)) == 0.0

    def test_matches_theta_sweep(self):
        lo, hi = llr_interval(P58, Q58)
        thetas = np.arange(lo + 1e-6, hi, 1e-4)
        pts = [direct_region_point(P58, Q58, float(t)) for t in thetas]
        kas = np.array([p.kappa_alpha for p in pts])
        kbs = np.array([p.kappa_beta for p in pts])
        for target in (0.02, 0.05, 0.1):
            oracle = float(np.interp(target, kas, kbs))
            assert direct_tradeoff(P58, Q58, target) == pytest.approx(
                oracle, abs=1e-6)


class TestNanKappa:
    """A NaN kappa_alpha has no place on a boundary: every entry point
    raises InputError instead of returning NaN or a point mass."""

    P, Q = Pmf((0, 1), [0.7, 0.3]), Pmf((0, 1), [0.4, 0.6])

    def test_direct_tradeoff(self):
        with pytest.raises(InputError):
            direct_tradeoff(self.P, self.Q, float("nan"))
        with pytest.raises(InputError):
            direct_tradeoff(self.P, self.Q, np.array([0.01, np.nan]))

    def test_rht_tradeoff(self):
        with pytest.raises(InputError):
            rht_tradeoff(self.P, self.Q, Channel.bsc(0.2), float("nan"))

    def test_best_channel_branch(self):
        with pytest.raises(InputError):
            best_channel_branch(Channel.bsc(0.2), float("nan"))


class TestChannelDBounds:
    def test_diagonal_law(self, bsc35):
        law = ChannelPairLaw.from_matrix((0, 1), [[0.5, 0.0], [0.0, 0.5]])
        assert channel_d_bounds(bsc35, law) == (0.0, 0.0)

    def test_point_mass_law(self, bsc35):
        law = ChannelPairLaw.point_mass((0, 1), (0, 1))
        expect = 0.3 * np.log(0.65 / 0.35)
        d_min, d_max = channel_d_bounds(bsc35, law)
        assert d_min == pytest.approx(expect, abs=1e-12)
        assert d_max == pytest.approx(expect, abs=1e-12)

    def test_mixture_is_linear(self, bsc35):
        law = ChannelPairLaw.from_matrix((0, 1), [[0.5, 0.5], [0.0, 0.0]])
        expect = 0.5 * 0.3 * np.log(0.65 / 0.35)
        d_min, d_max = channel_d_bounds(bsc35, law)
        assert d_min == pytest.approx(expect) and d_max == pytest.approx(expect)

    def test_assumption_violation_named(self):
        ident = Channel((0, 1), (0, 1), np.eye(2))
        law = ChannelPairLaw.point_mass((0, 1), (0, 1))
        with pytest.raises(DomainError, match="0.*1"):
            channel_d_bounds(ident, law)


    def test_equals_frozen_loop(self):
        """The hand loop over input pairs that it replaced, bit for bit and
        type for type: 4-25 pairs, so most sums pass numpy's 8-term
        regrouping."""

        def frozen(ch, w):
            n = w.shape[0]
            d_min = 0.0
            d_max = 0.0
            for i in range(n):
                for j in range(n):
                    if w[i, j] == 0:
                        continue
                    d_min += w[i, j] * frozen_kl_array(ch.rows[i], ch.rows[j])
                    d_max += w[i, j] * frozen_kl_array(ch.rows[j], ch.rows[i])
            return d_min, d_max

        rng = np.random.default_rng(29)
        for kind, rows in divergence_channels(29):
            if kind in ("sparse", "disjoint"):
                continue  # rows that do not share support are rejected
            n, m = rows.shape
            ch = Channel(range(n), range(m), rows)
            for _ in range(3):
                law = ChannelPairLaw.from_matrix(
                    range(n), random_weights(rng, n * n).reshape(n, n))
                got, expect = channel_d_bounds(ch, law), frozen(ch, law.probs)
                for g, e in zip(got, expect):
                    assert_bit_equal(g, e)


class TestChannelRegionPoint:
    def test_endpoints(self, bsc35):
        law = ChannelPairLaw.point_mass((0, 1), (0, 1))
        d_min, d_max = channel_d_bounds(bsc35, law)
        lo = channel_region_point(bsc35, law, -d_min + 1e-9)
        assert lo.kappa_alpha == pytest.approx(0.0, abs=1e-6)
        assert lo.kappa_beta == pytest.approx(d_min, abs=1e-6)
        hi = channel_region_point(bsc35, law, d_max - 1e-9)
        assert hi.kappa_alpha == pytest.approx(d_max, abs=1e-6)
        assert hi.kappa_beta == pytest.approx(0.0, abs=1e-6)

    def test_point_mass_reduces_to_direct(self, bsc35):
        law = ChannelPairLaw.point_mass((0, 1), (0, 1))
        for theta in (-0.1, 0.0, 0.1):
            chn = channel_region_point(bsc35, law, theta)
            direct = direct_region_point(row_pmf(bsc35, 0), row_pmf(bsc35, 1),
                                         theta)
            assert chn.kappa_alpha == pytest.approx(direct.kappa_alpha, abs=1e-10)
            assert chn.kappa_beta == pytest.approx(direct.kappa_beta, abs=1e-10)

    def test_symmetric_point_vs_dense_grid(self, bsc35):
        law = ChannelPairLaw.point_mass((0, 1), (0, 1))
        pt = channel_region_point(bsc35, law, 0.0)
        oracle = dense_grid_conjugate(
            loglik_scores(row_pmf(bsc35, 0), row_pmf(bsc35, 1)), 0.0)
        assert pt.kappa_alpha == pytest.approx(oracle, abs=1e-6)

    def test_theta_out_of_interval(self, bsc35):
        law = ChannelPairLaw.point_mass((0, 1), (0, 1))
        with pytest.raises(DomainError):
            channel_region_point(bsc35, law, 1.0)


class TestChannelMaxDivergence:
    def test_identical_rows(self):
        ch = Channel((0, 1), (0, 1), [[0.3, 0.7], [0.3, 0.7]])
        assert channel_max_divergence(ch) == (0.0, (0, 0))

    def test_bsc(self, bsc35):
        value, pair = channel_max_divergence(bsc35)
        assert value == pytest.approx(0.3 * np.log(0.65 / 0.35))
        assert pair == (0, 1)

    def test_support_violation_gives_infinity(self):
        ch = Channel((0, 1, 2), (0, 1),
                     [[1.0, 0.0], [0.5, 0.5], [0.4, 0.6]])
        value, pair = channel_max_divergence(ch)
        assert value == float("inf")
        assert pair == (1, 0)

    def test_equals_frozen_loop(self):
        """The hand loop's first strict maximum over input pairs, bit for bit and
        type for type, with ties (a repeated row), +inf pairs and
        identical-row channels among the random channels."""

        def frozen(ch):
            n = len(ch.input_alphabet)
            best = 0.0
            best_pair = (ch.input_alphabet[0], ch.input_alphabet[0])
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    d = frozen_kl_array(ch.rows[i], ch.rows[j])
                    if d > best:
                        best = d
                        best_pair = (ch.input_alphabet[i], ch.input_alphabet[j])
            return best, best_pair

        rng = np.random.default_rng(31)
        for kind, rows in divergence_channels(31):
            n, m = rows.shape
            ch = Channel("abcde"[:n], range(m), rows)
            (value, pair), (expect, expect_pair) = (channel_max_divergence(ch),
                                                    frozen(ch))
            assert_bit_equal(value, expect)
            assert pair == expect_pair
            if kind == "identical":
                assert (value, pair) == (0.0, ("a", "a"))
            if kind == "disjoint":
                assert value == np.inf
            p_u, q_u = random_pmf(rng, 3), random_pmf(rng, 3)
            assert_bit_equal(kappa0(p_u, q_u, ch),
                             min(frozen_kl_array(p_u.probs, q_u.probs), expect))


class TestRhtTradeoff:
    def test_requires_positive_kappa(self, bsc35):
        with pytest.raises(DomainError):
            rht_tradeoff(P58, Q58, bsc35, 0.0)

    def test_near_stein_corner(self, bsc35):
        value = rht_tradeoff(P58, Q58, bsc35, 1e-3)
        corner = kappa0(P58, Q58, bsc35)
        assert value <= corner + 1e-9
        assert value >= corner - 0.06

    def test_near_noiseless_channel_reduces_to_direct(self):
        ch = Channel.bsc(1e-4)
        ka = 0.05
        assert rht_tradeoff(P58, Q58, ch, ka) == pytest.approx(
            direct_tradeoff(P58, Q58, ka), abs=1e-12)

    def test_exact_noiseless_channel_rejected(self):
        with pytest.raises(DomainError):
            rht_tradeoff(P58, Q58, Channel((0, 1), (0, 1), np.eye(2)), 0.05)

    def test_dominated_by_both_branches(self, bsc35):
        for ka in (0.005, 0.02):
            value = rht_tradeoff(P58, Q58, bsc35, ka)
            assert value <= direct_tradeoff(P58, Q58, ka) + 1e-9
            channel_sup, _ = best_channel_branch(bsc35, ka)
            assert value <= channel_sup + 1e-9

    def test_exhaustive_grid_oracle(self, bsc35):
        """Cross-check against a brute-force sweep over pair laws and
        thresholds at kappa_alpha = 0.01."""
        ka = 0.01
        value = rht_tradeoff(P58, Q58, bsc35, ka)
        # oracle: the source branch is law-free; the channel branch is scanned
        # over a fine law grid with theta resolved by the same exact inversion
        # identity kappa_beta = kappa_alpha - theta1 at psi*(theta1)=kappa_alpha.
        from errexp.optimize import simplex_grid
        laws = [ChannelPairLaw.from_matrix((0, 1), vec.reshape(2, 2))
                for vec in simplex_grid(4, 20)]
        best = max(0.0, *_channel_branch_beta(bsc35, laws, ka))
        oracle = min(direct_tradeoff(P58, Q58, ka), best)
        assert value == pytest.approx(oracle, abs=1e-3)

    def test_kappa_above_both_branches_returns_zero(self, bsc35):
        big = kl_divergence(Q58, P58) * 2
        assert rht_tradeoff(P58, Q58, bsc35, big) == 0.0


class TestChannelBranchAtZero:
    def test_point_mass_law_gives_row_divergence(self):
        # psi(0) rounds to -2e-16 on some of these channels; kappa_alpha = 0
        # must still give D(row_0 || row_1), not a root near lam = 1e-8
        rng = np.random.default_rng(0)
        for _ in range(200):
            ch = Channel((0, 1, 2), (0, 1, 2), rng.dirichlet(np.ones(3), size=3))
            law = ChannelPairLaw.point_mass(ch.input_alphabet, (0, 1))
            assert _channel_branch_beta(ch, [law], 0.0)[0] == pytest.approx(
                kl_divergence(row_pmf(ch, 0), row_pmf(ch, 1)), abs=1e-12)


class TestChannelPointMatchesBranch:
    """channel_region_point and the remote-HT branch read one mixture: at
    the point's kappa_alpha the branch gives the point's kappa_beta."""

    def test_laws_with_diagonal_mass(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ch = Channel((0, 1, 2), (0, 1, 2),
                         (rng.dirichlet(np.ones(3), size=3) + 0.05) / 1.15)
            w = rng.dirichlet(np.ones(9)).reshape(3, 3)
            w[np.diag_indices(3)] += 0.2
            law = ChannelPairLaw.from_matrix(ch.input_alphabet, w / w.sum())
            d_min, d_max = channel_d_bounds(ch, law)
            for t in (0.1, 0.5, 0.9):
                pt = channel_region_point(ch, law, -d_min + t * (d_min + d_max))
                assert _channel_branch_beta(ch, [law], pt.kappa_alpha)[0] == \
                    pytest.approx(pt.kappa_beta, abs=1e-9)

    def test_diagonal_only_law_gives_zero(self, bsc35):
        law = ChannelPairLaw.from_matrix((0, 1), [[0.3, 0.0], [0.0, 0.7]])
        pt = channel_region_point(bsc35, law, 0.0)
        assert (pt.kappa_alpha, pt.kappa_beta) == (0.0, 0.0)
        assert _channel_branch_beta(bsc35, [law], 0.01)[0] == 0.0


class TestDeadOutputSymbol:
    """An output symbol that no input can produce changes nothing."""

    DEAD = Channel((0, 1), (0, 1, 2), [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]])
    LIVE = Channel((0, 1), (0, 1), [[0.5, 0.5], [0.3, 0.7]])

    def test_same_results_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ka in (0.01, 0.03):
                dead_val, dead_law = best_channel_branch(self.DEAD, ka)
                live_val, live_law = best_channel_branch(self.LIVE, ka)
                assert np.isfinite(dead_val) and dead_val == live_val
                assert np.array_equal(dead_law.probs, live_law.probs)
                assert (rht_tradeoff(P58, Q58, self.DEAD, ka)
                        == rht_tradeoff(P58, Q58, self.LIVE, ka))


class TestBestChannelBranch:
    """The channel branch is a maximum over point-mass pair laws."""

    @staticmethod
    def channels():
        rng = np.random.default_rng(23)
        chans = [Channel((0, 1, 2), (0, 1, 2),
                         (rng.dirichlet(np.ones(3), size=3) + 0.05) / 1.15)
                 for _ in range(3)]
        dead = np.zeros((3, 4))
        dead[:, :3] = (rng.dirichlet(np.ones(3), size=3) + 0.05) / 1.15
        return chans + [Channel((0, 1, 2), (0, 1, 2, 3), dead)]

    def test_no_grid_law_beats_the_pair_maximum(self):
        # the simplex sweep is an oracle only: 495 laws on the 9-simplex
        from errexp.optimize import simplex_grid
        for ch in self.channels():
            for ka in (0.005, 0.05):
                value, law = best_channel_branch(ch, ka)
                assert np.count_nonzero(law.probs) == 1
                assert _channel_branch_beta(ch, [law], ka)[0] == value
                grid = [ChannelPairLaw.from_matrix(ch.input_alphabet,
                                                   vec.reshape(3, 3))
                        for vec in simplex_grid(9, 4)]
                assert np.all(_channel_branch_beta(ch, grid, ka)
                              <= value + 1e-12)

    def test_ties_keep_the_last_pair(self):
        for ch in self.channels():
            big = 2 * channel_max_divergence(ch)[0]
            value, law = best_channel_branch(ch, big)
            assert value == 0.0
            assert law.probs[2, 2] == 1.0

    def test_array_matches_scalar_calls(self):
        for ch in self.channels():
            big = 2 * channel_max_divergence(ch)[0]
            kappas = np.array([0.0, 0.005, 0.05, big])
            values, laws = best_channel_branch(ch, kappas)
            for ka, value, law in zip(kappas.tolist(), values, laws):
                one_value, one_law = best_channel_branch(ch, ka)
                assert_bit_equal(float(value), one_value)
                assert np.array_equal(law.probs, one_law.probs)
        with pytest.raises(InputError):
            best_channel_branch(ch, np.array([0.01, np.nan]))

    @pytest.mark.parametrize("kappa", [-0.1, -1.0, np.array([0.01, -0.1])])
    def test_negative_kappa_raises(self, kappa):
        # kappa_alpha + D(row_0 || row_1) would read below the Stein value
        with pytest.raises(InputError, match="non-negative"):
            best_channel_branch(Channel.bsc(0.1), kappa)

    def test_zero_kappa_is_the_largest_row_divergence(self):
        ch = Channel.bsc(0.1)
        assert best_channel_branch(ch, 0.0)[0] == pytest.approx(
            channel_max_divergence(ch)[0], abs=1e-12)

    def test_seven_inputs_take_the_pair_maximum(self):
        rng = np.random.default_rng(29)
        rows = (rng.dirichlet(np.ones(4), size=7) + 0.05) / 1.2
        ch = Channel(tuple(range(7)), tuple(range(4)), rows)
        for ka in (0.01, 0.1):
            oracle = max((direct_tradeoff(row_pmf(ch, i), row_pmf(ch, j), ka),
                          (i, j))
                         for i in range(7) for j in range(7) if i != j)
            value, law = best_channel_branch(ch, ka)
            assert value == pytest.approx(oracle[0], abs=1e-12)
            assert law.probs[oracle[1]] == 1.0


def law_mixture(ch, weights):
    """The CGF mixture of one pair law, one component per off-diagonal pair
    it charges; None when only diagonal mass remains."""
    i, j = np.nonzero((weights != 0) & ~np.eye(len(weights), dtype=bool))
    if i.size == 0:
        return None
    return packed_mixture(zip(weights[i, j], ch.rows[i], ch.pair_scores[i, j]))


def frozen_invert_boundary(mix, kappa_alpha):
    """The scalar boundary inversion, kept as the reference that the
    lockstep `_invert_boundary` must reproduce mixture by mixture."""
    tilt = functools.cache(mix.tilt)

    def g(lam):
        psi, dpsi = tilt(lam)
        return lam * dpsi - psi

    if kappa_alpha >= g(1.0):
        return 0.0
    lam = 0.0 if kappa_alpha <= max(g(0.0), 0.0) else frozen_bisect_monotone(
        lambda lam: g(lam) - kappa_alpha, 0.0, 1.0, tol=0.0, max_iter=80)
    return kappa_alpha - tilt(lam)[1]


class TestLockstepInversion:
    """_channel_branch_beta on lists of laws, grouped into stacks of one
    mixture shape, against the frozen scalar inversion, law by law."""

    @pytest.mark.parametrize("n_out", [3, 4, 9])
    def test_laws_match_scalar(self, n_out):
        rng = np.random.default_rng(n_out)
        rows = rng.dirichlet(np.ones(n_out), size=3)
        if n_out > 3:
            rows[:, 3] = 0.0  # an output symbol no input produces
            rows /= rows.sum(axis=1, keepdims=True)
        ch = Channel((0, 1, 2), tuple(range(n_out)), rows)
        laws = [ChannelPairLaw.from_matrix(ch.input_alphabet, w.reshape(3, 3))
                for w in sparse_rows(rng, 30, 9, 0.5)]
        laws += [ChannelPairLaw.point_mass(ch.input_alphabet, (i, j))
                 for i in range(3) for j in range(3)]
        for ka in (0.0, 1e-4, 0.02, 0.3, 5.0):
            got = _channel_branch_beta(ch, laws, ka)
            expect = [0.0 if (mix := law_mixture(ch, law.probs)) is None
                      else frozen_invert_boundary(mix, ka) for law in laws]
            assert got.tolist() == expect


class TestElementwiseRegions:
    """The region functions on arrays of kappa_alpha or theta against their
    scalar calls and the frozen scalar inversion, point by point."""

    def test_direct_tradeoff_per_kappa(self):
        d_qp = kl_divergence(Q58, P58)
        kappas = np.concatenate([[0.0, -1.0, d_qp, 2 * d_qp],
                                 np.linspace(1e-6, d_qp * (1 - 1e-9), 40)])
        betas = direct_tradeoff(P58, Q58, kappas)
        assert betas.tolist() == [direct_tradeoff(P58, Q58, float(k))
                                  for k in kappas]
        sp = loglik_scores(P58, Q58)
        mix = packed_mixture([(1.0, sp.base.probs, sp.scores)])
        assert betas[4:].tolist() == [frozen_invert_boundary(mix, float(k))
                                      for k in kappas[4:]]

    def test_region_points_per_theta(self, bsc35):
        lo, hi = llr_interval(P58, Q58)
        thetas = np.linspace(lo + 1e-9, hi - 1e-9, 30)
        pt = direct_region_point(P58, Q58, thetas)
        for i, t in enumerate(thetas):
            one = direct_region_point(P58, Q58, float(t))
            assert (pt.kappa_alpha[i], pt.kappa_beta[i]) == (
                one.kappa_alpha, one.kappa_beta)
        law = ChannelPairLaw.from_matrix((0, 1), [[0.1, 0.4], [0.2, 0.3]])
        d_min, d_max = channel_d_bounds(bsc35, law)
        thetas = np.linspace(-d_min, d_max, 30)
        pt = channel_region_point(bsc35, law, thetas)
        for i, t in enumerate(thetas):
            one = channel_region_point(bsc35, law, float(t))
            assert (pt.kappa_alpha[i], pt.kappa_beta[i]) == (
                one.kappa_alpha, one.kappa_beta)
        with pytest.raises(DomainError):
            channel_region_point(bsc35, law, np.append(thetas, d_max + 0.1))

    def test_region_points_take_a_list(self, bsc35):
        lo, hi = llr_interval(P58, Q58)
        thetas = np.linspace(lo + 1e-9, hi - 1e-9, 7)
        law = ChannelPairLaw.from_matrix((0, 1), [[0.1, 0.4], [0.2, 0.3]])
        d_min, d_max = channel_d_bounds(bsc35, law)
        for point, grid in [
                (functools.partial(direct_region_point, P58, Q58), thetas),
                (functools.partial(channel_region_point, bsc35, law),
                 np.linspace(-d_min, d_max, 7))]:
            listed, arrayed = point(grid.tolist()), point(grid)
            for field in ("kappa_alpha", "kappa_beta", "theta"):
                got = getattr(listed, field)
                assert isinstance(got, np.ndarray)
                assert got.tolist() == getattr(arrayed, field).tolist()
        with pytest.raises(DomainError):
            direct_region_point(P58, Q58, [0.0, hi + 0.1])


class TestRhtTradeoffArray:
    """rht_tradeoff on an array of kappa_alpha against its definition from
    the scalar branches, kappa_alpha by kappa_alpha, bit for bit."""

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), n_u=st.integers(2, 3),
           n_x=st.integers(2, 3), n_y=st.integers(2, 3),
           identical=st.booleans(),
           fracs=st.lists(st.one_of(st.floats(0.01, 1.5), st.just(1.0)),
                          min_size=1, max_size=6))
    def test_array_matches_scalar_branches(self, seed, n_u, n_x, n_y,
                                           identical, fracs):
        rng = np.random.default_rng(seed)
        p, q = random_pmf(rng, n_u), random_pmf(rng, n_u)
        rows = rng.dirichlet(np.ones(n_y), size=n_x)
        if identical:
            rows[:] = rows[0]
        ch = Channel(tuple(range(n_x)), tuple(range(n_y)), rows)
        # fractions of D(Q||P) on both sides of it, where the source branch
        # reaches 0
        kappas = np.array(fracs) * kl_divergence(q, p)
        expect = []
        for ka in kappas.tolist():
            source = direct_tradeoff(p, q, ka)
            expect.append(0.0 if source == 0.0 else min(
                source, max(best_channel_branch(ch, ka)[0], 0.0)))
        expect = np.array(expect)
        got = rht_tradeoff(p, q, ch, kappas)
        assert np.array_equal(got, expect)
        assert np.array_equal(np.signbit(got), np.signbit(expect))
        assert_bit_equal(rht_tradeoff(p, q, ch, float(kappas[-1])),
                         float(expect[-1]))

    @pytest.mark.parametrize("kappas", [[0.01, 0.0], [-1.0], [0.01, -0.0]])
    def test_non_positive_kappa_raises(self, bsc35, kappas):
        with pytest.raises(DomainError):
            rht_tradeoff(P58, Q58, bsc35, np.array(kappas))

    def test_nan_kappa_raises(self, bsc35):
        with pytest.raises(InputError):
            rht_tradeoff(P58, Q58, bsc35, np.array([0.01, np.nan]))

    @pytest.mark.parametrize("p, q", [(P58, Pmf((0, 1), [0.0, 1.0])),
                                      (Pmf((0, 1), [1.0, 0.0]), Q58)],
                             ids=["q-misses-p", "p-misses-q"])
    def test_non_ac_sources_raise(self, bsc35, p, q):
        with pytest.raises(DomainError, match="absolutely continuous"):
            rht_tradeoff(p, q, bsc35, np.array([0.01]))


class TestSymmetryProperties:
    """Swapping the hypotheses mirrors the direct region, and relabelling U,
    X and Y leaves the remote-HT trade-off unchanged."""

    @settings(max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 4),
           frac=st.floats(0.01, 0.99))
    def test_swapping_p_and_q_mirrors_direct_region(self, seed, size, frac):
        rng = np.random.default_rng(seed)
        p, q = random_pmf(rng, size), random_pmf(rng, size)
        d_pq = kl_divergence(p, q)
        theta = -d_pq + frac * (d_pq + kl_divergence(q, p))
        point = direct_region_point(p, q, theta)
        mirror = direct_region_point(q, p, -theta)
        assert abs(mirror.kappa_alpha - point.kappa_beta) <= 1e-9
        assert abs(mirror.kappa_beta - point.kappa_alpha) <= 1e-9

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.05, 0.95),
           perm_u=st.permutations(range(3)), perm_x=st.permutations(range(3)),
           perm_y=st.permutations(range(3)))
    def test_relabelling_leaves_rht_tradeoff_unchanged(self, seed, frac,
                                                       perm_u, perm_x, perm_y):
        rng = np.random.default_rng(seed)
        p, q = random_pmf(rng, 3), random_pmf(rng, 3)
        rows = rng.dirichlet(np.ones(3), size=3)
        kappa = frac * kl_divergence(q, p)
        labels = (0, 1, 2)
        base = rht_tradeoff(p, q, Channel(labels, labels, rows), kappa)
        relabelled = rht_tradeoff(
            Pmf(labels, p.probs[perm_u]), Pmf(labels, q.probs[perm_u]),
            Channel(labels, labels, rows[perm_x][:, perm_y]), kappa)
        assert abs(relabelled - base) <= 1e-9


class TestRhtTradeoffProperties:
    """Two properties of the exact remote-HT trade-off on 2-3-symbol
    sources and 2-3-input channels with 2-9 outputs, one of which may be
    dead (a zero column): kappa_beta does not increase with kappa_alpha,
    and garbling the channel's output, W to W G for a stochastic matrix G,
    does not raise it (data processing)."""

    @staticmethod
    def instance(seed, n_u, n_x, n_y, dead=False):
        rng = np.random.default_rng(seed)
        p, q = random_pmf(rng, n_u), random_pmf(rng, n_u)
        rows = rng.dirichlet(np.ones(n_y), size=n_x)
        if dead:
            rows[:, rng.integers(n_y)] = 0.0
            rows /= rows.sum(axis=1, keepdims=True)
        return rng, p, q, Channel(tuple(range(n_x)), tuple(range(n_y)), rows)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n_u=st.integers(2, 3),
           n_x=st.integers(2, 3), n_y=st.integers(2, 9), dead=st.booleans(),
           fracs=st.lists(st.floats(0.001, 1.2), min_size=2, max_size=8))
    def test_kappa_beta_does_not_increase_with_kappa_alpha(self, seed, n_u,
                                                           n_x, n_y, dead,
                                                           fracs):
        _, p, q, ch = self.instance(seed, n_u, n_x, n_y, dead)
        kappas = np.sort(fracs) * kl_divergence(q, p)
        beta = rht_tradeoff(p, q, ch, kappas)
        assert (np.diff(beta) <= 1e-12).all(), (kappas, beta)

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), n_u=st.integers(2, 3),
           n_x=st.integers(2, 3), n_y=st.integers(2, 9), dead=st.booleans(),
           n_z=st.integers(2, 9),
           fracs=st.lists(st.floats(0.001, 1.2), min_size=1, max_size=4))
    def test_garbled_channel_does_not_raise_kappa_beta(self, seed, n_u, n_x,
                                                       n_y, dead, n_z, fracs):
        rng, p, q, ch = self.instance(seed, n_u, n_x, n_y, dead)
        garbling = rng.dirichlet(np.ones(n_z), size=n_y)
        garbled = Channel(ch.input_alphabet, tuple(range(n_z)),
                          ch.rows @ garbling)
        kappas = np.array(fracs) * kl_divergence(q, p)
        beta = rht_tradeoff(p, q, ch, kappas)
        assert (rht_tradeoff(p, q, garbled, kappas) <= beta + 1e-12).all()


class TestKappa0:
    def test_min_of_source_and_channel(self, bsc35):
        expect = min(kl_divergence(P58, Q58), channel_max_divergence(bsc35)[0])
        assert kappa0(P58, Q58, bsc35) == pytest.approx(expect)


class TestCurves:
    def test_direct_curve_monotone_and_convex(self):
        curve = direct_curve(P58, Q58, n_points=60)
        kas = [pt.kappa_alpha for pt in curve]
        kbs = [pt.kappa_beta for pt in curve]
        assert all(b > a for a, b in zip(kas, kas[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(kbs, kbs[1:]))
        # three-point convexity of the conjugate sweep
        thetas = [pt.theta for pt in curve]
        for i in range(1, len(curve) - 1):
            t = (thetas[i] - thetas[i - 1]) / (thetas[i + 1] - thetas[i - 1])
            chord = (1 - t) * kas[i - 1] + t * kas[i + 1]
            assert kas[i] <= chord + 1e-10

    def test_tradeoff_curve_rejects_non_monotone(self):
        pts = [ExponentPoint(0.1, 0.5, 0.0), ExponentPoint(0.05, 0.6, 0.0)]
        with pytest.raises(InputError):
            TradeoffCurve("bad", pts)

    def test_rht_curve_monotone(self, bsc35):
        kas = np.linspace(0.002, 0.05, 6)
        kbs = [rht_tradeoff(P58, Q58, bsc35, float(k)) for k in kas]
        assert all(b <= a + 1e-9 for a, b in zip(kbs, kbs[1:]))


def test_channel_pair_law_constructors(bsc35):
    law = ChannelPairLaw.point_mass((0, 1), (0, 1))
    assert law.probs[0, 1] == 1.0
    assert law.alphabet == (0, 1)
    with pytest.raises(InputError):
        ChannelPairLaw(JointPmf((0, 1), (0, 2), np.full((2, 2), 0.25)))
