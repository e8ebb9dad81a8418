import copy
import functools
import itertools

import mpmath
import numpy as np
import pytest

from errexp import (AuxiliaryDesign, Channel, DhtSearchConfig, InputDesign,
                    InputError, JointPmf, Pmf, SourceModel, compare_schemes,
                    expurgated_exponent, jhtcc_uncoded, jhtcc_uncoded_opt,
                    kl_ball_projection, kl_divergence, mutual_information,
                    shtcc_tad, shtcc_tad_stein, shtcc_tai, shtcc_tai_stein,
                    special_message_exponent, zeta_rho)
from errexp.channel_exponents import (_rho_grid_objective,
                                      expurgated_exponent_opt,
                                      output_given_state)
from errexp.dht_bounds import (_ball_optimize, _conditional_vy_laws, _info_uw,
                               _info_vw, _project_components, _sx_caches,
                               _SxCache, _tad_first_term, _tai_first_term,
                               _uncoded_values)
from errexp.legendre import Mixture
from errexp.optimize import GRID_CHUNK
from errexp.prob_core import (kl_array, kl_rows, mutual_information_arrays,
                               mutual_information_rows)
from conftest import (assert_bit_equal, divergence_channels,
                      fit_geometric_family, frozen_bisect_monotone,
                      frozen_kl_array, frozen_mutual_information,
                      random_weights, sparse_rows)

FAST = DhtSearchConfig(design_resolution=3, ball_resolution=8,
                       sx_resolution=4, theta_points=17,
                       pattern_min_step=5e-3)

# two inputs whose output rows share no symbol: every design that mixes them
# has theta_l = +inf, and the zero-rate expurgated exponent is +inf
DISJOINT = Channel((0, 1), (0, 1, 2), np.array([[0.5, 0.5, 0.0],
                                                [0.0, 0.0, 1.0]]))


def skewed_tai_model() -> SourceModel:
    """TAI instance whose source entropy H(U) sits below the channel's
    zero-exponent rate, so the feasibility constraints stay inactive."""
    p = np.array([[0.996, 0.001], [0.001, 0.002]])
    q = np.outer(p.sum(axis=1), p.sum(axis=0))
    return SourceModel(JointPmf((0, 1), (0, 1), p),
                       JointPmf((0, 1), (0, 1), q / q.sum()))


class TestKlBallProjection:
    REF = JointPmf((0, 1), (0, 1), [[0.4, 0.1], [0.2, 0.3]])
    TGT = JointPmf((0, 1), (0, 1), [[0.1, 0.4], [0.3, 0.2]])

    def test_zero_radius_collapses_to_reference(self):
        minimizer, value = kl_ball_projection(self.REF, self.TGT, 0.0)
        assert np.allclose(minimizer.probs, self.REF.probs)
        assert value == pytest.approx(
            kl_array(self.REF.probs, self.TGT.probs))

    def test_large_radius_reaches_target(self):
        radius = kl_array(self.TGT.probs, self.REF.probs) + 0.01
        minimizer, value = kl_ball_projection(self.REF, self.TGT, radius)
        assert value == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(minimizer.probs, self.TGT.probs, atol=1e-6)

    def test_active_constraint_and_kkt(self):
        kappa = 0.02
        minimizer, value = kl_ball_projection(self.REF, self.TGT, kappa)
        assert 0 < value < kl_array(self.REF.probs, self.TGT.probs)
        assert kl_array(minimizer.probs, self.REF.probs) == pytest.approx(
            kappa, abs=1e-7)
        assert fit_geometric_family(self.REF.probs, self.TGT.probs,
                                    minimizer.probs) <= 1e-7

    def test_disjoint_supports_give_infinity(self):
        ref = JointPmf((0, 1), (0, 1), [[1.0, 0.0], [0.0, 0.0]])
        tgt = JointPmf((0, 1), (0, 1), [[0.0, 0.0], [0.0, 1.0]])
        _, value = kl_ball_projection(ref, tgt, 0.1)
        assert value == float("inf")

    def test_multiplier_cap_returns_last_minimizer(self):
        # every geometric mixture is [1, 0] at radius log 2, just above the
        # ball, so the multiplier grows to its 1e12 cap without a sign change
        ref, tgt = np.array([0.5, 0.5]), np.array([1.0, 0.0])
        [(ps, value)] = _project_components([[(1.0, ref, tgt)]],
                                            np.log(2.0) - 1e-13)
        assert ps[0].tolist() == [1.0, 0.0]
        assert value == 0.0

    def test_randomized_kkt_sweep(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            ref = JointPmf((0, 1), (0, 1), rng.dirichlet(np.ones(4)).reshape(2, 2))
            tgt = JointPmf((0, 1), (0, 1), rng.dirichlet(np.ones(4)).reshape(2, 2))
            kappa = float(rng.uniform(0.0, 0.1))
            minimizer, value = kl_ball_projection(ref, tgt, kappa)
            assert fit_geometric_family(ref.probs, tgt.probs,
                                        minimizer.probs) <= 1e-7
            if value > 0 and kappa < kl_array(tgt.probs, ref.probs):
                assert kl_array(minimizer.probs, ref.probs) <= kappa + 1e-7


def _overlapping_components(rng):
    """Two weighted (ref, tgt) pairs on 4 symbols; ref and tgt each miss one
    random symbol, so the common supports overlap only in part."""
    comps = []
    for w in rng.dirichlet(np.ones(2)):
        pair = []
        for _ in range(2):
            law = rng.dirichlet(np.ones(4))
            law[rng.integers(4)] = 0.0
            pair.append(law / law.sum())
        comps.append((float(w), *pair))
    return comps


def _free_radius(comps):
    """Radius g(1) of the unconstrained optimum: each tgt renormalised on
    its common support, measured against ref."""
    total = 0.0
    for w, r, t in comps:
        p = np.where(r > 0, t, 0.0)
        total += w * kl_array(p / p.sum(), r)
    return total


class TestProjectComponents:
    CASES = 12

    def test_binding_radius_and_shared_exponent(self):
        rng = np.random.default_rng(7)
        for _ in range(self.CASES):
            comps = _overlapping_components(rng)
            kappa_min = -sum(w * np.log(r[t > 0].sum()) for w, r, t in comps)
            kappa = float(rng.uniform(kappa_min, _free_radius(comps)))
            [(ps, value)] = _project_components([comps], kappa)
            radius = sum(w * kl_array(p, r) for (w, r, _), p in zip(comps, ps))
            assert radius == pytest.approx(kappa, abs=1e-9)
            assert value == sum(w * kl_array(p, t)
                                for (w, _, t), p in zip(comps, ps))
            slopes = []
            for (_, r, t), p in zip(comps, ps):
                common = (r > 0) & (t > 0)
                assert np.all(p[~common] == 0.0) and np.all(p[common] > 0)
                # log(P / ref) = lam log(tgt / ref) - c on the common support
                f = np.log(t[common] / r[common])
                y = np.log(p[common] / r[common])
                design = np.stack([f, np.ones_like(f)], axis=1)
                coef, *_ = np.linalg.lstsq(design, y, rcond=None)
                assert np.max(np.abs(design @ coef - y)) <= 1e-9
                slopes.append(coef[0])
            assert 0.0 < slopes[0] <= 1.0
            assert slopes[1] == pytest.approx(slopes[0], abs=1e-9)

    def test_saturated_ball_reaches_renormalised_targets(self):
        rng = np.random.default_rng(11)
        for _ in range(self.CASES):
            comps = _overlapping_components(rng)
            [(ps, value)] = _project_components(
                [comps], _free_radius(comps) + 0.01)
            assert value == sum(w * kl_array(p, t)
                                for (w, _, t), p in zip(comps, ps))
            assert value == pytest.approx(
                -sum(w * np.log(t[r > 0].sum()) for w, r, t in comps),
                abs=1e-12)


def frozen_project_components(components, kappa_alpha):
    """The scalar KL-ball projection with its mu schedule, kept as the
    reference that the stacked `_project_components` must reproduce."""
    comps = [(w, np.asarray(r, dtype=float).reshape(-1),
              np.asarray(t, dtype=float).reshape(-1))
             for w, r, t in components if w > 0]
    if kappa_alpha == 0:
        value = sum(w * kl_array(r, t) for w, r, t in comps)
        return [r.copy() for _, r, _ in comps], float(value)
    masks = [(r > 0) & (t > 0) for _, r, t in comps]
    if not all(np.any(m) for m in masks):
        return [r.copy() for _, r, _ in comps], float("inf")
    mix = Mixture([(w, r[m], np.log(t[m]) - np.log(r[m]))
                   for (w, r, t), m in zip(comps, masks)])
    if kappa_alpha < -mix.tilt(0.0)[0] - 1e-12:
        return [r.copy() for _, r, _ in comps], float("inf")

    @functools.cache
    def gap(mu):
        lam = 1.0 / (1.0 + mu)
        psi, dpsi = mix.tilt(lam)
        return lam * dpsi - psi - kappa_alpha

    mu, lo, hi = 0.0, 0.0, 1.0
    if gap(0.0) > 0.0:
        while gap(hi) > 0.0 and hi < 1e12:
            lo, hi = hi, hi * 2.0
        mu = hi if gap(hi) > 0.0 else frozen_bisect_monotone(
            gap, lo, hi, tol=1e-9, max_iter=200)
    ps = [np.zeros_like(r) for _, r, _ in comps]
    for p, m, row in zip(ps, masks, mix.tilted(1.0 / (1.0 + mu))):
        p[m] = row[:m.sum()]
    return ps, float(sum(w * kl_array(p, t) for (w, _, t), p in zip(comps, ps)))


def _radius_at(components, lam):
    """The ball radius lam psi'(lam) - psi(lam) of one problem's CGF, in the
    arithmetic of the projection, so a gap there is exactly zero."""
    mix = Mixture([(w, r[(r > 0) & (t > 0)],
                    np.log(t[(r > 0) & (t > 0)]) - np.log(r[(r > 0) & (t > 0)]))
                   for w, r, t in components if w > 0])
    psi, dpsi = mix.tilt(lam)
    return lam * dpsi - psi


def _random_problems(rng, n, size):
    """n problems of one or two components on `size` atoms, with zeros in
    ref and tgt (so supports differ within the stack), a zero weight, a
    component with disjoint supports and one near-disjoint problem."""
    problems = []
    for i in range(n):
        n_comp = 1 + i % 2
        weights = rng.dirichlet(np.ones(n_comp))
        if i % 7 == 3:
            weights = np.array([1.0, 0.0])  # K = 2 with a zero weight
        comps = []
        for w in weights:
            ref, tgt = sparse_rows(rng, 2, size, 0.25)
            comps.append((float(w), ref, tgt))
        problems.append(comps)
    disjoint = np.zeros(size), np.zeros(size)
    disjoint[0][:2], disjoint[1][2:4] = 0.5, 0.5
    problems.append([(1.0, *disjoint)])
    # common support of ref mass 0.02: kappa_min = -log 0.02 = 3.9
    thin = np.full(size, 0.98 / (size - 1)), np.full(size, 1.0 / size)
    thin[0][0], thin[1][1:] = 0.02, 0.0
    thin[1][0] = 1.0
    problems.append([(1.0, *thin)])
    return problems


class TestStackedProjection:
    """`_project_components` on lists of problems against the frozen scalar
    projection, problem by problem and bit for bit."""

    @staticmethod
    def check(problems, kappa):
        got = _project_components(problems, kappa)
        assert len(got) == len(problems)
        for comps, (laws, value) in zip(problems, got):
            ref_laws, ref_value = frozen_project_components(comps, kappa)
            assert value == ref_value
            assert len(laws) == len(ref_laws)
            for a, b in zip(laws, ref_laws):
                assert np.array_equal(a, b)
        return [value for _, value in got]

    @pytest.mark.parametrize("size", [4, 9])
    @pytest.mark.parametrize("kappa", [0.0, 1e-4, 0.01, 0.05, 0.3, 5.0])
    def test_random_stacks(self, size, kappa):
        rng = np.random.default_rng(size * 100 + int(kappa * 1e4))
        values = self.check(_random_problems(rng, 24, size), kappa)
        if kappa > 0:
            # the disjoint problem, and the thin one while kappa < 3.9
            assert values[-2] == np.inf
            assert (values[-1] == np.inf) == (kappa < 3.9)

    def test_unequal_widths_in_one_list(self):
        rng = np.random.default_rng(5)
        problems = (_random_problems(rng, 10, 4) + _random_problems(rng, 10, 9)
                    + [[(0.5, *sparse_rows(rng, 2, 3)),
                        (0.5, *sparse_rows(rng, 2, 6))]])
        self.check(problems, 0.02)

    def test_multiplier_cap_and_exact_zero_gaps(self):
        rng = np.random.default_rng(13)
        capped = [(1.0, np.array([0.5, 0.5]), np.array([1.0, 0.0]))]
        others = [[(1.0, *sparse_rows(rng, 2, 2, 0.0))] for _ in range(6)]
        kappa = np.log(2.0) - 1e-13
        values = self.check([capped, *others], kappa)
        assert values[0] == 0.0
        # gaps of exactly zero at mu = 0, at the first bracket end mu = 1
        # and at the doubled end mu = 2
        base = [(1.0, np.array([0.4, 0.3, 0.3]), np.array([0.1, 0.2, 0.7]))]
        for mu in (0.0, 1.0, 2.0):
            kappa = float(_radius_at(base, 1.0 / (1.0 + mu)))
            [(laws, _)] = _project_components([base], kappa)
            _, r, t = base[0]
            tilted = Mixture([(1.0, r, np.log(t) - np.log(r))])
            assert np.array_equal(laws[0], tilted.tilted(1.0 / (1.0 + mu))[0])
            self.check([base, *others], kappa)

    def test_rows_stop_at_different_iterations(self):
        rng = np.random.default_rng(31)
        problems = [[(1.0, *sparse_rows(rng, 2, 4, 0.0))] for _ in range(30)]
        kappa = 0.01
        tilts = [self._count_tilts(comps, kappa) for comps in problems]
        assert len(set(tilts)) > 3
        self.check(problems, kappa)

    @staticmethod
    def _count_tilts(comps, kappa):
        """Distinct multipliers the frozen schedule visits for one problem."""
        seen = set()
        w, r, t = comps[0]
        mix = Mixture([(w, r, np.log(t) - np.log(r))])

        def gap(mu):
            seen.add(mu)
            lam = 1.0 / (1.0 + mu)
            psi, dpsi = mix.tilt(lam)
            return lam * dpsi - psi - kappa
        mu, lo, hi = 0.0, 0.0, 1.0
        if gap(0.0) > 0.0:
            while gap(hi) > 0.0 and hi < 1e12:
                lo, hi = hi, hi * 2.0
            frozen_bisect_monotone(gap, lo, hi, tol=1e-9, max_iter=200)
        return len(seen)

    def test_uncoded_values_on_a_ternary_model(self):
        rng = np.random.default_rng(37)
        p_uv = sparse_rows(rng, 1, 9, 0.2)[0].reshape(3, 3)
        q_uv = sparse_rows(rng, 1, 9, 0.2)[0].reshape(3, 3)
        model = SourceModel(JointPmf((0, 1, 2), (0, 1, 2), p_uv),
                            JointPmf((0, 1, 2), (0, 1, 2), q_uv))
        ch = Channel((0, 1, 2), (0, 1, 2), sparse_rows(rng, 3, 3, 0.3))
        designs = []
        for i in range(20):
            p_s = Pmf((0, 1), [1.0, 0.0] if i % 5 == 0 else [0.3, 0.7])
            rows = sparse_rows(rng, 6, 3, 0.3).reshape(3, 2, 3)
            designs.append(AuxiliaryDesign(p_s=p_s, p_x_given_us=rows))
        for kappa in (0.0, 0.005, 0.05):
            values = _uncoded_values(model, ch, kappa, designs)
            expect = [frozen_project_components(
                _conditional_vy_laws(model, ch, d), kappa)[1] for d in designs]
            assert values.tolist() == expect
            assert jhtcc_uncoded(model, ch, kappa, designs[1]) == expect[1]


class TestJhtccUncoded:
    def test_example1_at_zero(self, example1, bsc35):
        design = AuxiliaryDesign.identity_uncoded(2)
        value = jhtcc_uncoded(example1, bsc35, 0.0, design)
        oracle = 0.5 * np.log(0.25 / 0.325) + 0.5 * np.log(0.25 / 0.175)
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_vanishes_for_large_radius(self, example1, bsc35):
        design = AuxiliaryDesign.identity_uncoded(2)
        # Q_VY entries {0.325 off-diagonal, 0.175 diagonal}; P_VY uniform
        q_vy = np.array([[0.175, 0.325], [0.325, 0.175]])
        radius = kl_array(q_vy.reshape(-1), np.full(4, 0.25)) + 1e-3
        assert jhtcc_uncoded(example1, bsc35, radius, design) == pytest.approx(
            0.0, abs=1e-9)

    def test_opt_dominates_identity_design(self, example1, bsc35):
        rep = jhtcc_uncoded_opt(example1, bsc35, 0.002, config=FAST)
        fixed = jhtcc_uncoded(example1, bsc35, 0.002,
                              AuxiliaryDesign.identity_uncoded(2))
        assert rep.value >= fixed - 1e-9
        assert rep.name == "jhtcc_uncoded" and rep.feasible

    def test_non_increasing_in_kappa(self, example1, bsc35):
        vals = [jhtcc_uncoded_opt(example1, bsc35, k, config=FAST).value
                for k in (0.0, 0.002, 0.01, 0.05)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_two_state_time_share_available(self, example1, bsc35):
        rep1 = jhtcc_uncoded_opt(example1, bsc35, 0.002, config=FAST)
        rep2 = jhtcc_uncoded_opt(example1, bsc35, 0.002, n_states=2,
                                 config=FAST)
        assert rep2.value >= rep1.value - 1e-6
        assert len(rep2.achiever["p_s"]) == 2


class TestZetaRho:
    W_SPLIT = Channel((0, 1), (0, 1), [[0.9, 0.1], [0.2, 0.8]])

    def test_zero_radius_is_pointwise(self, example1):
        zeta, rho = zeta_rho(example1, [self.W_SPLIT], 0.0)
        p_u = example1.p_uv.row_marginal().probs
        i_uw = mutual_information(
            JointPmf((0, 1), (0, 1), p_u[:, None] * self.W_SPLIT.rows))
        i_vw = mutual_information(
            JointPmf((0, 1), (0, 1),
                     example1.p_uv.probs.T @ self.W_SPLIT.rows))
        assert zeta == pytest.approx(i_uw, abs=1e-12)
        assert rho == pytest.approx(i_vw, abs=1e-12)

    def test_identical_rows_decouple(self, example1):
        blind = Channel((0, 1), (0, 1), [[0.5, 0.5], [0.5, 0.5]])
        assert zeta_rho(example1, [blind], 0.01, FAST) == (0.0, 0.0)

    def test_exhaustive_grid_oracle(self, example1):
        kappa = 0.01
        zeta, rho = zeta_rho(example1, [self.W_SPLIT], kappa, FAST)
        from errexp.optimize import simplex_grid_array
        grid = simplex_grid_array(4, 40)
        ref = example1.p_uv.probs.reshape(-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ball = np.where(grid > 0,
                            grid * (np.log(np.where(grid > 0, grid, 1.0))
                                    - np.log(ref)), 0.0).sum(axis=1)
        feasible = grid[ball <= kappa]
        joints = feasible.reshape(-1, 2, 2)
        w = self.W_SPLIT.rows

        def mi(j):  # vectorized over the first axis
            px = j.sum(axis=2)
            jw = np.einsum("nu,uw->nuw", px, w) if j.shape[1] == 2 else None
            return jw

        best_zeta, best_rho = 0.0, np.inf
        for j in joints:
            p_u = j.sum(axis=1)
            p_v = j.sum(axis=0)
            uw = p_u[:, None] * w
            vw = j.T @ w
            from errexp.prob_core import mutual_information_arrays
            best_zeta = max(best_zeta, mutual_information_arrays(uw))
            best_rho = min(best_rho, mutual_information_arrays(vw))
        assert zeta >= best_zeta - 1e-9
        assert rho <= best_rho + 1e-9
        assert zeta == pytest.approx(best_zeta, abs=2e-3)
        assert rho == pytest.approx(best_rho, abs=2e-3)


    @pytest.mark.parametrize("kappa", [0.0, 0.01])
    def test_stack_equals_per_channel_calls(self, example1, kappa):
        blind = Channel((0, 1), (0, 1), [[0.5, 0.5], [0.5, 0.5]])
        third = Channel((0, 1), (0, 1), [[0.3, 0.7], [1.0, 0.0]])
        channels = [self.W_SPLIT, blind, third]
        zeta, rho = zeta_rho(example1, channels, kappa, FAST)
        assert zeta.shape == rho.shape == (3,)
        for i, ch in enumerate(channels):
            [z], [r] = zeta_rho(example1, [ch], kappa, FAST)
            assert (zeta[i], rho[i]) == (z, r)

    def test_channels_of_two_shapes_rejected(self, example1):
        wide = Channel((0, 1), (0, 1, 2), [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
        with pytest.raises(InputError, match="one shape"):
            zeta_rho(example1, [self.W_SPLIT, wide], 0.01, FAST)


class TestBallOptimizeChunks:
    """The KL-ball searches score at most GRID_CHUNK rows per objective call,
    however many problems share the stack, and the cap leaves every bit of
    the result unchanged."""

    @staticmethod
    def run(example1, rows_seen):
        rng = np.random.default_rng(53)
        w_rows = rng.dirichlet(np.ones(3), size=(12, 2))
        shape = example1.p_uv.probs.shape

        def objective(ps, owner):
            rows_seen.append(len(ps))
            return _info_vw(ps, shape, w_rows[owner % len(w_rows)])

        signs = np.tile([1.0, -1.0], len(w_rows))
        # 56 feasible grid points, so the grid pass tiles 24 * 56 rows
        return _ball_optimize(example1.p_uv.probs, objective, signs, 0.2,
                              DhtSearchConfig(ball_resolution=10))

    @pytest.mark.parametrize("cap", [7, 64])
    def test_rows_per_call_capped(self, example1, monkeypatch, cap):
        default_rows = []
        expect = self.run(example1, default_rows)
        assert max(default_rows) == GRID_CHUNK
        monkeypatch.setattr("errexp.optimize.GRID_CHUNK", cap)
        rows = []
        assert np.array_equal(self.run(example1, rows), expect)
        assert max(rows) == cap


class TestBallOptimizeMinusInfReference:
    """A problem whose reference and feasible grid points all score -inf is
    still searched from the reference: dropping that search would leave a
    min such as E1 at +inf, on the optimistic side."""

    def test_search_from_minus_inf_reference(self):
        ref = np.array([0.23, 0.27, 0.5])
        # the first probe of a search from ref: +0.25 on the first coordinate
        first = (ref + [0.25, 0.0, 0.0]) / 1.25

        def objective(ps, owner):
            return np.where(np.isclose(ps, first).all(axis=1), 0.0, np.inf)

        config = DhtSearchConfig(ball_resolution=8, pattern_min_step=5e-3)
        assert _ball_optimize(ref, objective, [-1.0], 1.0, config).tolist() == [0.0]
        # beside a problem that finds a finite point on the grid, and one
        # that finds nothing at all
        def two(ps, owner):
            return np.where(owner == 0, objective(ps, owner),
                            np.where(owner == 1, ps[:, 0], np.inf))

        got = _ball_optimize(ref, two, [-1.0, -1.0, -1.0], 1.0, config)
        assert got[0] == 0.0 and np.isfinite(got[1]) and got[2] == np.inf
        assert got[1] == _ball_optimize(ref, lambda ps, o: ps[:, 0], [-1.0],
                                        1.0, config)[0]


class TestStackedBallObjectives:
    """The stacked objectives of the KL-ball searches equal the frozen scalar
    KL and mutual-information bodies bit for bit, row by row."""

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (3, 4)])
    def test_row_by_row(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        n_u, n_v = shape
        ps = sparse_rows(rng, 60, n_u * n_v, 0.25).reshape(-1, n_u, n_v)
        ps[::2, :, -1] = 0  # inside the support of p_uv below
        ps[::3, :, 0] = 0   # inside the support of q_uv below
        ps = ps.reshape(len(ps), -1)
        ps = ps[ps.sum(axis=1) > 0]
        ps /= ps.sum(axis=1, keepdims=True)
        # references with a zero column: the other rows leave their support
        p_uv = sparse_rows(rng, 1, n_u * n_v, 0.0)[0].reshape(shape)
        p_uv[:, -1] = 0
        p_uv /= p_uv.sum()
        ref = p_uv.reshape(-1)
        q_uv = np.roll(p_uv, 1, axis=1)
        w_rows = sparse_rows(rng, n_u, n_u + 1, 0.3)
        p_v, q_vw = p_uv.sum(axis=0), (q_uv.T @ w_rows).reshape(-1)
        owner = np.zeros(len(ps), dtype=int)  # one quantizer for every row

        stacked = {"ball": kl_rows(ps, ref),
                   "zeta": _info_uw(ps, shape, w_rows),
                   "rho": _info_vw(ps, shape, w_rows),
                   "tai_e1": _tai_first_term(p_uv, w_rows[None])(ps, owner),
                   "tad_e1": _tad_first_term(q_uv, w_rows[None])(ps, owner)}
        for b, p in enumerate(ps):
            joint = p.reshape(shape)
            scalar = {
                "ball": frozen_kl_array(p, ref),
                "zeta": frozen_mutual_information(
                    joint.sum(axis=1)[:, None] * w_rows),
                "rho": frozen_mutual_information(joint.T @ w_rows),
                "tai_e1": (frozen_mutual_information(joint.T @ w_rows)
                           + frozen_kl_array(joint.sum(axis=0), p_v)),
                "tad_e1": frozen_kl_array((joint.T @ w_rows).reshape(-1),
                                          q_vw)}
            for key, value in scalar.items():
                assert stacked[key][b] == value, (key, b)
        for key in ("ball", "tai_e1", "tad_e1"):
            assert np.isinf(stacked[key]).any() and np.isfinite(stacked[key]).any()


def frozen_tai_stein_objective(p_uv, cap):
    """The per-probe objective of shtcc_tai_stein before it took stacks."""
    p_u = p_uv.sum(axis=1)

    def f(blocks):
        w_rows = np.stack(blocks)
        if mutual_information_arrays(p_u[:, None] * w_rows) > cap + 1e-12:
            return -np.inf
        return mutual_information_arrays(p_uv.T @ w_rows)
    return f


def frozen_tad_stein_objective(q_uv, caches):
    """The per-probe objective of shtcc_tad_stein before it took stacks."""
    q_u = q_uv.sum(axis=1)
    max_rate = max(c.rate for c in caches)

    def f(blocks):
        w_rows = np.stack(blocks)
        i_q_uw = mutual_information_arrays(q_u[:, None] * w_rows)
        if not i_q_uw <= max_rate:
            return -np.inf
        q_vw = q_uv.T @ w_rows
        t1 = kl_array(np.outer(q_vw.sum(axis=1), q_vw.sum(axis=0)), q_vw)
        best = -np.inf
        for cache in caches:
            if not i_q_uw <= cache.rate:
                continue
            val = min(t1, cache.expurgated(i_q_uw), cache.theta_l)
            best = max(best, val)
        return best
    return f


def stein_score(monkeypatch, bound, model, ch):
    """The stacked objective that a Stein bound hands to grid_then_pattern."""
    seen = []

    def capture(score, *args, **kwargs):
        seen.append(score)
        return [None], np.array([-np.inf])

    monkeypatch.setattr("errexp.dht_bounds.grid_then_pattern", capture)
    assert bound(model, ch, FAST) == 0.0
    return seen[0]


def tad_model(n: int, rng) -> SourceModel:
    """A TAD instance on n x n with zeros in Q_UV: P_UV is Q's marginals'
    product."""
    q = sparse_rows(rng, 1, n * n, 0.3).reshape(n, n)
    alphabet = tuple(range(n))
    return SourceModel(JointPmf(alphabet, alphabet,
                                np.outer(q.sum(axis=1), q.sum(axis=0))),
                       JointPmf(alphabet, alphabet, q))


class TestStackedSteinObjectives:
    """The Stein bounds' stacked objectives equal their per-probe forms bit
    for bit, row by row, on random quantizer stacks P_{W|U} with zeros,
    including rows past the capacity or rate limit and rows exactly at it."""

    @pytest.mark.parametrize("ternary", [False, True])
    def test_tai(self, monkeypatch, ternary):
        model = ternary_tai_model() if ternary else skewed_tai_model()
        p_uv = model.p_uv.probs
        n_u = p_uv.shape[0]
        rng = np.random.default_rng(n_u)
        stack = sparse_rows(rng, 60 * n_u, n_u + 1).reshape(60, n_u, n_u + 1)
        i_uw = mutual_information_rows(p_uv.sum(axis=1)[:, None] * stack)
        # a capacity whose limit cap + 1e-12 is exactly the median row's I(U;W)
        k = int(np.argsort(i_uw)[len(i_uw) // 2])
        cap = i_uw[k] - 1e-12
        for _ in range(8):
            if cap + 1e-12 == i_uw[k]:
                break
            cap = np.nextafter(cap, -np.inf if cap + 1e-12 > i_uw[k] else np.inf)
        assert cap + 1e-12 == i_uw[k]
        monkeypatch.setattr("errexp.dht_bounds.capacity", lambda ch: cap)
        score = stein_score(monkeypatch, shtcc_tai_stein, model,
                            Channel.bsc(0.35))
        got = score(stack, np.zeros(len(stack), dtype=int))
        frozen = frozen_tai_stein_objective(p_uv, cap)
        assert got.tolist() == [frozen(list(w)) for w in stack]
        assert np.isfinite(got[k]) and np.isinf(got).any()

    @pytest.mark.parametrize("crossover", [0.35, 0.1])
    @pytest.mark.parametrize("n", [2, 3])
    def test_tad(self, monkeypatch, n, crossover):
        ch = Channel.bsc(crossover)
        rng = np.random.default_rng(10 + n)
        model = tad_model(n, rng)
        q_uv = model.q_uv.probs
        stack = sparse_rows(rng, 60 * n, n + 1).reshape(60, n, n + 1)
        rates = mutual_information_rows(q_uv.sum(axis=1)[:, None] * stack)
        # some caches take the rates of lower rows, so those rows sit exactly
        # at a cache's rate, and no cache admits the top four rows
        caches = [copy.copy(c) for c in _sx_caches(ch, FAST)]
        order = np.argsort(rates)
        assigned = order[5:25:5]
        for cache, k in zip(caches[::9], assigned, strict=True):
            cache.rate = rates[k]
        for cache in caches:
            cache.rate = min(cache.rate, rates[order[-5]])
            # scaled so that theta_l, too, is the least of the three terms
            # at the best cache of some rows
            cache.theta_l *= 0.1
        monkeypatch.setattr("errexp.dht_bounds._sx_caches",
                            lambda ch, config: tuple(caches))
        score = stein_score(monkeypatch, shtcc_tad_stein, model, ch)
        got = score(stack, np.zeros(len(stack), dtype=int))
        frozen = frozen_tad_stein_objective(q_uv, caches)
        assert got.tolist() == [frozen(list(w)) for w in stack]
        assert np.isfinite(got[assigned[-1]])
        assert (got[order[-4:]] == -np.inf).all()

    def test_cache_expurgated_is_elementwise(self, bsc35):
        rates = np.linspace(0.0, 0.1, 41)
        for cache in _sx_caches(bsc35, FAST)[::4]:
            cache = copy.copy(cache)
            # the rate below which E_x is +inf: none, mid-range, every rate
            for floor in (-np.inf, rates[17], np.inf):
                cache._inf_below = floor
                frozen = [float("inf") if rate < floor else float(np.max(
                    _rho_grid_objective(rate, cache.wl, cache._powers)))
                    for rate in rates]
                assert cache.expurgated(rates).tolist() == frozen
                assert [cache.expurgated(float(r)) for r in rates] == frozen
                assert type(cache.expurgated(0.05)) is float


# (crossover of the BSC, config): (shtcc_tai_stein on skewed_tai_model(),
# shtcc_tad_stein on example1), as the per-probe searches gave them
STEIN_PINS = {
    (0.35, "FAST"): (0.010609132861602491, 0.0235745396973739),
    (0.1, "FAST"): (0.010609132861602491, 0.25540925132307063),
    (0.5, "FAST"): (2.2137847111025616e-16, 0.0),
    (0.35, "default"): (0.010609132861602491, 0.0235745396973739),
    (0.1, "default"): (0.010609132861602491, 0.2554092747464046),
    (0.5, "default"): (0.0, 0.0),
}


@pytest.mark.parametrize("crossover, config", sorted(STEIN_PINS))
def test_stein_pins(crossover, config, example1):
    cfg = FAST if config == "FAST" else DhtSearchConfig()
    ch = Channel.bsc(crossover)
    got = (shtcc_tai_stein(skewed_tai_model(), ch, cfg),
           shtcc_tad_stein(example1, ch, cfg))
    assert got == STEIN_PINS[(crossover, config)]
    assert all(type(v) is float for v in got)


class TestShtccTaiStein:
    def test_product_source_is_zero(self, bsc35):
        p = JointPmf.product(Pmf((0, 1), [0.5, 0.5]), Pmf((0, 1), [0.3, 0.7]))
        model = SourceModel(p, p)
        assert shtcc_tai_stein(model, bsc35, FAST) == 0.0

    def test_clean_channel_reaches_source_information(self):
        p = JointPmf((0, 1), (0, 1), [[0.45, 0.05], [0.05, 0.45]])
        q = JointPmf.product(p.row_marginal(), p.col_marginal())
        model = SourceModel(p, q)
        clean = Channel((0, 1), (0, 1), [[0.999, 0.001], [0.001, 0.999]])
        value = shtcc_tai_stein(model, clean, FAST)
        assert value == pytest.approx(mutual_information(p), abs=2e-3)

    def test_rejects_non_tai(self, example1, bsc35):
        with pytest.raises(InputError):
            shtcc_tai_stein(example1, bsc35)


class TestShtccTai:
    def test_matches_stein_when_constraint_inactive(self, bsc35):
        model = skewed_tai_model()
        stein = shtcc_tai_stein(model, bsc35, FAST)
        report = shtcc_tai(model, bsc35, 0.0, FAST)
        assert report.feasible
        assert report.value == pytest.approx(stein, abs=2e-3)

    def test_non_increasing_in_kappa(self, bsc35):
        model = skewed_tai_model()
        vals = [shtcc_tai(model, bsc35, k, FAST).value
                for k in (0.0, 0.001, 0.01)]
        assert all(b <= a + 2e-3 for a, b in zip(vals, vals[1:]))

    def test_achiever_passes_feasibility_audit(self, bsc35):
        model = skewed_tai_model()
        report = shtcc_tai(model, bsc35, 0.001, FAST)
        ach = report.achiever
        design = InputDesign.from_matrix(
            (0, 1), np.asarray(ach["p_sx"]).reshape(2, 2))
        assert expurgated_exponent(ach["zeta"], design, bsc35) >= 0.001 - 1e-9
        assert special_message_exponent(design, bsc35,
                                        ach["theta"]) >= 0.001 - 1e-9
        # rate constraint: zeta < I_P(X;Y|S)
        ps = design.state_probs
        pys = output_given_state(design, bsc35)
        rate = sum(ps[s] * design.input_given_state[s][x]
                   * kl_array(bsc35.rows[x], pys[s])
                   for s in range(2) for x in range(2))
        assert ach["zeta"] < rate


class TestShtccTad:
    def test_stein_value_bounded_by_zero_rate_exponent(self, example1, bsc35):
        value = shtcc_tad_stein(example1, bsc35, FAST)
        assert 0.0 < value <= -0.25 * np.log(4 * 0.35 * 0.65) + 1e-9

    def test_positive_kappa_bounded_and_feasible(self, example1, bsc35):
        report = shtcc_tad(example1, bsc35, 0.002, FAST)
        assert report.feasible
        assert 0.0 < report.value <= -0.25 * np.log(4 * 0.35 * 0.65) + 1e-9

    def test_kappa_zero_matches_stein(self, example1, bsc35):
        stein = shtcc_tad_stein(example1, bsc35, FAST)
        report = shtcc_tad(example1, bsc35, 0.0, FAST)
        assert report.value == pytest.approx(stein, abs=2e-3)

    def test_rejects_non_tad(self, bsc35):
        model = skewed_tai_model()
        with pytest.raises(InputError):
            shtcc_tad_stein(model, bsc35)
        with pytest.raises(InputError):
            shtcc_tad(model, bsc35, 0.01)

    def test_useless_channel_is_zero(self, example1):
        assert shtcc_tad_stein(example1, Channel.bsc(0.5), FAST) == 0.0


# Values of the reference implementation at the FAST config, full precision.
# The TAI rows use skewed_tai_model(), the TAD rows example1; both over BSC(0.35).
SHTCC_PINS = {
    ("tai", 0.0): (0.010609132861602491, {
        "p_wu": (0.0, 0.0, 1.0, 0.2, 0.8, 0.0), "p_sx": (0.0, 0.0, 0.5, 0.5),
        "theta": -0.04715533973562064, "zeta": 0.020422924464179912,
        "rho": 0.010609132861602491, "e_x": 0.0028768178942868462}),
    ("tai", 0.001): (0.003968455611867234, {
        "p_wu": (0.0, 0.30889894419306185, 0.6911010558069381,
                 0.6666666666666666, 0.3333333333333333, 0.0),
        "p_sx": (0.0, 0.0, 0.5, 0.5),
        "theta": -0.029744861999195606, "zeta": 0.022290013111513247,
        "rho": 0.0032256612464994735, "e_x": 0.0010097292469535106}),
    ("tai", 0.004): (0.001083117999457548, {
        "p_wu": (0.07330316742081448, 0.30889894419306185, 0.6177978883861237,
                 0.0, 1.0, 0.0),
        "p_sx": (0.0, 0.0, 0.5, 0.5),
        "theta": -0.018137876841578922, "zeta": 0.00948601227930589,
        "rho": -2.2204460492503136e-16, "e_x": 0.013813730079160869}),
    ("tad", 0.0): (0.023546350722380035, {
        "p_wu": (2.5420193096806677e-06, 0.0, 0.9999974579806904, 0.0, 0.0, 1.0),
        "p_sx": (0.0, 0.0, 0.5, 0.5),
        "theta": -0.04715533973562064, "zeta": 8.809975664508446e-07,
        "rho": 0.0, "e_x": 0.023546350722380035}),
    ("tad", 0.001): (0.023546081242896786, {
        "p_wu": (2.54201930968067e-06, 0.0, 0.9999974579806904, 0.0, 0.0, 1.0),
        "p_sx": (0.0, 0.0, 0.5, 0.5),
        "theta": -0.029744861999195606, "zeta": 8.956093395996941e-07,
        "rho": 0.0, "e_x": 0.023546081242896786}),
    ("tad", 0.004): (0.02253886813149659, {
        "p_wu": (0.002083633851730725, 0.0, 0.9979163661482692, 0.0, 0.0, 1.0),
        "p_sx": (0.0, 0.0, 0.5, 0.5),
        "theta": -0.018137876841578922, "zeta": 0.0007453919860632756,
        "rho": 2.2204460492503126e-16, "e_x": 0.022554350372403484}),
}
PIN_REL = 1e-12


def ternary_tai_model() -> SourceModel:
    """A 3x3 TAI instance: U and V agree on their most likely symbol."""
    p = np.array([[0.30, 0.05, 0.02], [0.04, 0.25, 0.06], [0.03, 0.05, 0.20]])
    q = np.outer(p.sum(axis=1), p.sum(axis=0))
    return SourceModel(JointPmf((0, 1, 2), (0, 1, 2), p),
                       JointPmf((0, 1, 2), (0, 1, 2), q))


# A config cheap enough for 9-entry joints, and the values it gave on
# ternary_tai_model() over BSC(0.1) before the KL-ball sweeps were batched.
TERNARY_FAST = DhtSearchConfig(design_resolution=1, ball_resolution=3,
                               sx_resolution=2, theta_points=9,
                               pattern_min_step=0.02)
TERNARY_TAI_PINS = {
    0.01: (0.07501934378176296, {
        "p_wu": (0.21333333333333335, 0.26666666666666666, 0.0, 0.52,
                 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
        "p_sx": (0.0, 0.0, 0.5, 0.5),
        "theta": -0.29110316603236874, "zeta": 0.2121639756246504,
        "rho": 0.0726886687221834, "e_x": 0.010979575689559318}),
    0.05: (0.04777920450290338, {
        "p_wu": (0.16, 0.2, 0.0, 0.64, 0.0, 0.0,
                 0.06692810457516339, 0.9330718954248366, 0.0, 0.0, 0.0, 1.0),
        "p_sx": (0.0, 0.0, 0.5, 0.5),
        "theta": -0.07138070829874682, "zeta": 0.17251743293497596,
        "rho": 0.034405573314840454, "e_x": 0.05062611837923375}),
}


class TestPinnedValues:
    """Regression pins: the searches must keep returning the same numbers
    and the same achievers."""

    @pytest.mark.parametrize("kind,kappa", sorted(SHTCC_PINS))
    def test_shtcc(self, kind, kappa, example1, bsc35):
        value, achiever = SHTCC_PINS[(kind, kappa)]
        if kind == "tai":
            report = shtcc_tai(skewed_tai_model(), bsc35, kappa, FAST)
        else:
            report = shtcc_tad(example1, bsc35, kappa, FAST)
        assert report.feasible
        assert report.value == pytest.approx(value, rel=PIN_REL)
        assert set(report.achiever) == set(achiever)
        for key, expected in achiever.items():
            assert report.achiever[key] == pytest.approx(expected, rel=PIN_REL), key

    @pytest.mark.parametrize("kappa", sorted(TERNARY_TAI_PINS))
    def test_shtcc_tai_ternary(self, kappa):
        value, achiever = TERNARY_TAI_PINS[kappa]
        report = shtcc_tai(ternary_tai_model(), Channel.bsc(0.1), kappa,
                           TERNARY_FAST)
        assert report.feasible
        assert report.value == pytest.approx(value, rel=PIN_REL)
        assert set(report.achiever) == set(achiever)
        for key, expected in achiever.items():
            assert report.achiever[key] == pytest.approx(expected, rel=PIN_REL), key

    def test_shtcc_tai_stein(self, bsc35):
        assert shtcc_tai_stein(skewed_tai_model(), bsc35, FAST) == pytest.approx(
            0.010609132861602491, rel=PIN_REL)

    def test_shtcc_tad_stein(self, example1, bsc35):
        assert shtcc_tad_stein(example1, bsc35, FAST) == pytest.approx(
            0.0235745396973739, rel=PIN_REL)

    def test_jhtcc_uncoded_two_states(self, example1, bsc35):
        rep = jhtcc_uncoded_opt(example1, bsc35, 0.002, n_states=2, config=FAST)
        assert rep.value == pytest.approx(0.02958613211209734, rel=PIN_REL)
        assert rep.achiever["p_s"] == pytest.approx((0.0, 1.0), rel=PIN_REL)
        assert rep.achiever["p_x_given_us"] == pytest.approx(
            (0.5, 0.5, 0.0, 1.0, 0.5, 0.5, 1.0, 0.0), rel=PIN_REL)


def full_support_tad_model() -> SourceModel:
    """TAD with a fully supported Q_UV (row masses a = 0.48 and 0.52)."""
    q = np.array([[0.1, 0.38], [0.42, 0.1]])
    p = np.outer(q.sum(axis=1), q.sum(axis=0))
    return SourceModel(JointPmf((0, 1), (0, 1), p), JointPmf((0, 1), (0, 1), q))


def mp_identity_crossing(model: SourceModel, ch: Channel, radius) -> mpmath.mpf:
    """kappa_alpha_d of the single-state X = U design, to 50 digits: the
    minimum of D(P || P_VY) over D(P || Q_VY) <= radius, solved on the
    geometric family P ~ Q_VY^(1-lam) P_VY^lam by 200 halvings of lam."""
    with mpmath.workdps(50):
        def mp(a):
            return [[mpmath.mpf(float(x)) for x in r] for r in a]
        w, p_uv, q_uv = mp(ch.rows), mp(model.p_uv.probs), mp(model.q_uv.probs)
        n_u, n_v, n_y = len(p_uv), len(p_uv[0]), len(w[0])

        def vy(j):
            return [sum(j[u][v] * w[u][y] for u in range(n_u))
                    for v in range(n_v) for y in range(n_y)]
        p_vy, q_vy = vy(p_uv), vy(q_uv)

        def kl(a, b):
            return sum(x * mpmath.log(x / y) for x, y in zip(a, b) if x > 0)

        def tilted(lam):
            t = [q ** (1 - lam) * p ** lam for p, q in zip(p_vy, q_vy)]
            return [x / sum(t) for x in t]
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(200):
            mid = (lo + hi) / 2
            if kl(tilted(mid), q_vy) < mpmath.mpf(float(radius)):
                lo = mid
            else:
                hi = mid
        return kl(tilted(lo), p_vy)


class TestCompareSchemes:
    def test_useless_channel_all_zero(self, example1):
        rows, crossover = compare_schemes(example1, Channel.bsc(0.5),
                                          [0.0, 0.01], FAST)
        for shtcc_rep, jhtcc_rep in rows:
            assert shtcc_rep.value == pytest.approx(0.0, abs=1e-9)
            assert jhtcc_rep.value == pytest.approx(0.0, abs=1e-9)
        assert crossover is None

    def test_example1_rows(self, example1, bsc35):
        rows, crossover = compare_schemes(example1, bsc35, [0.0, 0.005], FAST)
        (s0, j0), (s1, j1) = rows
        assert s0.value == pytest.approx(0.0236, abs=2e-3)
        assert j0.value == pytest.approx(0.0471, abs=2e-4)
        assert j1.value < j0.value
        assert crossover is not None and 0.0 < crossover < 0.005

    def test_crossover_matches_mpmath_on_identity_design(self, example1,
                                                         bsc35):
        # X = U wins on example1; the 40-halving bisection was 4.7e-10 off
        _, crossover = compare_schemes(example1, bsc35, [0.001, 0.008])
        e_x0 = expurgated_exponent_opt(0.0, bsc35)[0]
        oracle = mp_identity_crossing(example1, bsc35, e_x0)
        assert abs(crossover - float(oracle)) <= 2e-10

    def test_crossover_dominates_dense_design_grid(self, example1, bsc35):
        _, crossover = compare_schemes(example1, bsc35, [0.001, 0.008], FAST)
        e_x0 = expurgated_exponent_opt(0.0, bsc35)[0]
        ts = np.linspace(0.0, 1.0, 101)
        problems = []
        for a, b in itertools.product(ts, ts):
            design = AuxiliaryDesign(p_s=Pmf((0,), [1.0]), p_x_given_us=np.array(
                [[[a, 1.0 - a]], [[b, 1.0 - b]]]))
            problems.append([(w, q_vy, p_vy) for w, p_vy, q_vy
                             in _conditional_vy_laws(example1, bsc35, design)])
        values = [value for _, value in _project_components(problems, e_x0)]
        assert crossover >= max(values) - 1e-12

    @pytest.mark.parametrize("grid", [[0.005, 0.008], [0.001, 0.003]],
                             ids=["below-grid", "above-grid"])
    def test_none_when_crossing_outside_grid(self, example1, bsc35, grid):
        # the crossing lies near 0.00396
        assert compare_schemes(example1, bsc35, grid, FAST)[1] is None

    def test_none_when_no_design_reaches_the_line(self):
        # kappa_u*(0) = 0.21 lies below E_x(0) = 0.81; unmasked, every design
        # would score a crossing at 0, inside the grid
        rows, crossover = compare_schemes(full_support_tad_model(),
                                          Channel.bsc(0.01), [0.0, 0.01], FAST)
        (ex0, uncoded_at_zero), _ = rows
        assert uncoded_at_zero.value < ex0.value
        assert crossover is None

    def test_none_when_zero_rate_exponent_infinite(self, example1):
        rows, crossover = compare_schemes(example1, DISJOINT, [0.01, 0.02],
                                          FAST)
        assert rows[0][0].value == np.inf
        assert crossover is None


class TestDisjointRowChannel:
    def test_infinite_theta_bound_gets_no_theta_grid(self):
        caches = _sx_caches(DISJOINT, FAST)
        skipped = [c for c in caches
                   if not (np.isfinite(c.theta_l) and np.isfinite(c.theta_u))]
        assert skipped and len(skipped) < len(caches)
        for cache in caches:
            if cache in skipped:
                assert cache.thetas.size == cache.e_sp.size == 0
                assert cache.best_theta_term(0.0)[0] == -np.inf
            else:
                assert cache.thetas.size == FAST.theta_points
                assert np.isfinite(cache.e_sp).all()

    def test_tad_stein_finite_on_full_support_source(self):
        value = shtcc_tad_stein(full_support_tad_model(), DISJOINT, FAST)
        assert np.isfinite(value) and value > 0.0

    def test_tad_stein_infinite_on_example1(self, example1):
        # the channel carries U without error and U != V always under H1,
        # so beta can be driven to zero: the exponent is +inf
        assert shtcc_tad_stein(example1, DISJOINT, FAST) == np.inf

    def test_shtcc_tad_skips_designs_without_theta_grid(self, example1):
        for model in (example1, full_support_tad_model()):
            report = shtcc_tad(model, DISJOINT, 0.01, FAST)
            assert not np.isnan(report.value)


def test_sx_cache_rate_equals_frozen_loop():
    """I(X;Y|S) of `_SxCache` against the hand loop it replaced, bit for bit
    and type for type: |S||X| = 4-25 terms, zero-weight states and inputs,
    and inputs of disjoint rows."""

    def frozen_rate(design, ch):
        ps = design.state_probs
        pys = output_given_state(design, ch)
        rate = 0.0
        for s, weight in enumerate(ps):
            if weight == 0:
                continue
            for x, px in enumerate(design.input_given_state[s]):
                if px > 0:
                    rate += weight * px * frozen_kl_array(ch.rows[x], pys[s])
        return rate

    rng = np.random.default_rng(37)
    for _, rows in divergence_channels(37, count=30):
        n, m = rows.shape
        ch = Channel(range(n), range(m), rows)
        for _ in range(2):
            design = InputDesign.from_matrix(
                range(n), random_weights(rng, n * n).reshape(n, n))
            cache = _SxCache(design, ch, theta_points=3)
            assert_bit_equal(cache.rate, frozen_rate(design, ch))


def test_auxiliary_design_validation():
    with pytest.raises(InputError):
        AuxiliaryDesign(p_x_given_us=np.full((2, 1, 2), 0.4))


def test_source_model_flags(example1):
    assert example1.is_tad and not example1.is_tai
    assert skewed_tai_model().is_tai
