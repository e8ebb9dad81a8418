import dataclasses
import functools
import itertools

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from errexp import (AuxiliaryDesign, BoundReport, Channel, DhtSearchConfig,
                    InputDesign, InputError, JointPmf, Pmf, SourceModel,
                    compare_schemes, jhtcc_uncoded, jhtcc_uncoded_opt,
                    kl_ball_projection, rht_tradeoff, shtcc_tad,
                    shtcc_tad_stein, shtcc_tai, shtcc_tai_stein,
                    special_message_exponent, theta_bounds, zeta_rho)
from errexp.channel_exponents import (RHO_GRID, ChannelTable, channel_table,
                                      expurgated_exponent_opt,
                                      output_given_state)
from errexp.dht_bounds import (_ball_objective, _crossing_values,
                               _design_search, _tad_first_term,
                               _tai_first_term, _uncoded_values, _vy_laws)
from errexp.kl_ball import ball_optimize, project_components
from errexp.legendre import Mixture
from errexp.optimize import GRID_CHUNK, grid_then_pattern, simplex_grid
from errexp.prob_core import (kl_array, kl_rows, mutual_information_arrays,
                               mutual_information_rows)
from conftest import (CYCLIC3, SPLIT3, assert_bit_equal, divergence_channels,
                      fit_geometric_family, frozen_bisect_monotone,
                      frozen_expurgation_terms, frozen_kl_array,
                      frozen_mutual_information, random_weights, sparse_rows)

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


def frozen_rate(design, ch):
    """I(X;Y|S) by the hand loop that the stacked channel side replaced."""
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


class FrozenSxCache:
    """The per-design channel-side cache that `ChannelTable` replaced, kept
    as its reference: one P_SX design's rate, theta grid, E_sp and E_x."""

    def __init__(self, design, ch, theta_points):
        self.wl, _, self.powers, self.inf_below = frozen_expurgation_terms(
            design.joint.probs, ch)
        self.rate = frozen_rate(design, ch)
        self.theta_l, self.theta_u = theta_bounds(design, ch)
        if np.isfinite(self.theta_l) and np.isfinite(self.theta_u):
            self.thetas = np.linspace(-self.theta_l, self.theta_u, theta_points)
            self.e_sp = special_message_exponent(design, ch, self.thetas)
        else:
            self.thetas = self.e_sp = np.empty(0)

    def expurgated(self, rate: float) -> float:
        if rate < self.inf_below:
            return float("inf")
        return float(np.max(-RHO_GRID * rate - RHO_GRID * np.log(
            (self.powers @ self.wl[:, None])[:, 0])))

    def best_theta_term(self, kappa_alpha: float) -> tuple[float, float]:
        ok = self.e_sp >= kappa_alpha
        if not np.any(ok):
            return float("-inf"), float("nan")
        vals = self.e_sp[ok] - self.thetas[ok]
        k = int(np.argmax(vals))
        return float(vals[k]), float(self.thetas[ok][k])


def frozen_caches(table, ch, theta_points):
    """A `FrozenSxCache` per row of a `ChannelTable`."""
    return [FrozenSxCache(InputDesign.from_matrix(ch.input_alphabet, joint),
                          ch, theta_points) for joint in table.p_sx]


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
        [(ps, value)] = project_lists([[(1.0, ref, tgt)]],
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


def padded(problems):
    """w (B, K), ref and tgt (B, K, n) of lists of (w, ref, tgt) components,
    zero-padded to the longest list and the widest component."""
    n_comp = max(len(comps) for comps in problems)
    n = max(np.size(r) for comps in problems for _, r, _ in comps)
    w = np.zeros((len(problems), n_comp))
    ref, tgt = np.zeros((2, len(problems), n_comp, n))
    for b, comps in enumerate(problems):
        for k, (wk, r, t) in enumerate(comps):
            w[b, k] = wk
            ref[b, k, :np.size(r)], tgt[b, k, :np.size(t)] = np.ravel(r), np.ravel(t)
    return w, ref, tgt


def project_lists(problems, kappa):
    """`project_components` on lists of problems, through zero padding: per
    problem, the laws of its positive-weight components cut to their own
    lengths, and the value. Every zero-weight or padded component must keep
    its reference as its law."""
    w, ref, tgt = padded(problems)
    laws, values = project_components(w, ref, tgt, kappa)
    assert np.array_equal(laws[w == 0], ref[w == 0])
    return [([law[:np.size(r)] for law, (wk, r, _) in zip(laws[b], comps)
              if wk > 0], values[b]) for b, comps in enumerate(problems)]


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
            [(ps, value)] = project_lists([comps], kappa)
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
            [(ps, value)] = project_lists([comps],
                                          _free_radius(comps) + 0.01)
            assert value == sum(w * kl_array(p, t)
                                for (w, _, t), p in zip(comps, ps))
            assert value == pytest.approx(
                -sum(w * np.log(t[r > 0].sum()) for w, r, t in comps),
                abs=1e-12)


class TestTargetInsideBall:
    """A target inside the ball, sum_k w_k D(tgt_k || ref_k) <= kappa_alpha,
    is feasible, so it is its own projection: the value is exactly 0 and
    the live components' laws are the target's."""

    def test_stack_with_targets_inside(self):
        rng = np.random.default_rng(83)
        problems = _random_problems(rng, 40, 4)
        # the oracle's radius, the components one at a time from 0.0
        radius = np.zeros(len(problems))
        for b, comps in enumerate(problems):
            for wk, r, t in comps:
                if wk > 0:
                    radius[b] += wk * frozen_kl_array(t, r)
        inside = np.isfinite(radius)
        scale = rng.choice([1.0, 1.5], len(problems))
        kappas = np.where(inside, radius * scale, 0.01)
        w, ref, tgt = padded(problems)
        laws, values = project_components(w, ref, tgt, kappas)
        assert inside.sum() >= 10 and (inside & (scale == 1.0)).any()
        assert values[inside].tolist() == [0.0] * int(inside.sum())
        live = inside[:, None] & (w > 0)
        assert np.array_equal(laws[live], tgt[live])
        assert np.array_equal(laws[w == 0], ref[w == 0])
        assert (values >= 0.0).all()

    def test_uncoded_identity_map_on_example1(self, example1, bsc35):
        # D(Q_VY || P_VY) = 0.0457 with X = U, so each radius holds Q_VY
        design = AuxiliaryDesign.identity_uncoded(2)
        for kappa in (0.0554, 0.05, 1.0):
            assert jhtcc_uncoded(example1, bsc35, kappa, design) == 0.0


def frozen_project_components(components, kappa_alpha):
    """The scalar KL-ball projection with its mu schedule, kept as the
    reference that the stacked `project_components` must reproduce."""
    comps = [(w, np.asarray(r, dtype=float).reshape(-1),
              np.asarray(t, dtype=float).reshape(-1))
             for w, r, t in components if w > 0]
    if kappa_alpha > 0 and sum(w * kl_array(t, r)
                               for w, r, t in comps) <= kappa_alpha:
        # the target lies inside the ball: it is its own projection
        return [t.copy() for _, _, t in comps], 0.0
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
    """`project_components` on zero-padded stacks of problems against the
    frozen scalar projection, problem by problem and bit for bit."""

    @staticmethod
    def check(problems, kappa):
        got = project_lists(problems, kappa)
        assert len(got) == len(problems)
        for comps, (laws, value) in zip(problems, got):
            ref_laws, ref_value = frozen_project_components(comps, kappa)
            assert value == ref_value and value >= 0.0
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
        # and at the doubled end mu = 2; at mu = 0 the radius holds the
        # target itself, which is then its own projection
        base = [(1.0, np.array([0.4, 0.3, 0.3]), np.array([0.1, 0.2, 0.7]))]
        for mu in (0.0, 1.0, 2.0):
            kappa = float(_radius_at(base, 1.0 / (1.0 + mu)))
            [(laws, _)] = project_lists([base], kappa)
            _, r, t = base[0]
            tilted = Mixture([(1.0, r, np.log(t) - np.log(r))])
            expect = t if mu == 0.0 else tilted.tilted(1.0 / (1.0 + mu))[0]
            assert np.array_equal(laws[0], expect)
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

    def test_zero_weight_component_first(self):
        rng = np.random.default_rng(41)
        problems = [[(0.0, *sparse_rows(rng, 2, 4, 0.25)),
                     (1.0, *sparse_rows(rng, 2, 4, 0.25))] for _ in range(8)]
        for kappa in (0.0, 0.01, 0.2):
            self.check(problems, kappa)

    @pytest.mark.parametrize("kappa", [0.0, 0.01])
    def test_zero_weight_component_of_infinite_divergence(self, kappa):
        # D(ref || tgt) = +inf on the zero-weight component: it must add
        # nothing, where 0 * inf would warn and give NaN
        live = (1.0, np.array([0.4, 0.6]), np.array([0.5, 0.5]))
        dead = (0.0, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        for comps in ([live, dead], [dead, live]):
            [value] = self.check([comps], kappa)
            assert np.isfinite(value)

    def test_kappa_per_row_equals_scalar_calls(self):
        """One stack mixing kappa_alpha = 0, binding, non-binding and +inf
        rows: each row keeps the bits of the scalar call at its own
        kappa_alpha and of the frozen projection."""
        rng = np.random.default_rng(59)
        problems = _random_problems(rng, 30, 4)
        kappas = np.resize([0.0, 1e-4, 0.01, 0.05, 5.0], len(problems))
        w, ref, tgt = padded(problems)
        laws, values = project_components(w, ref, tgt, kappas)
        free = project_components(w, ref, tgt, 1e3)[1]
        for ka in np.unique(kappas):
            at = np.flatnonzero(kappas == ka)
            sub_laws, sub_values = project_components(w[at], ref[at],
                                                      tgt[at], float(ka))
            assert np.array_equal(laws[at], sub_laws)
            assert values[at].tolist() == sub_values.tolist()
        for b, comps in enumerate(problems):
            assert values[b] == frozen_project_components(comps, kappas[b])[1]
        positive = (kappas > 0) & np.isfinite(values)
        assert (positive & (values > free)).any()    # the ball binds
        assert (positive & (values == free)).any()   # it does not
        assert (kappas == 0).any() and np.isinf(values[kappas > 0]).any()

    def test_uncoded_values_on_a_ternary_model(self):
        rng = np.random.default_rng(37)
        model, ch, p_s, pxus = ternary_uncoded_instance(rng, 20)
        for kappa in (0.0, 0.005, 0.05):
            values = _uncoded_values(model, ch, kappa, p_s, pxus)
            expect = [frozen_project_components(frozen_conditional_vy_laws(
                model, ch, p_s[b], pxus[b]), kappa)[1] for b in range(len(pxus))]
            assert values.tolist() == expect
            design = AuxiliaryDesign(p_s=Pmf((0, 1), p_s[1]),
                                     p_x_given_us=pxus[1])
            assert jhtcc_uncoded(model, ch, kappa, design) == expect[1]


def ternary_uncoded_instance(rng, n_designs):
    """A ternary model and channel with zeros, and a stack of two-state
    designs of which every fifth gives its first state zero weight."""
    p_uv = sparse_rows(rng, 1, 9, 0.2)[0].reshape(3, 3)
    q_uv = sparse_rows(rng, 1, 9, 0.2)[0].reshape(3, 3)
    model = SourceModel(JointPmf((0, 1, 2), (0, 1, 2), p_uv),
                        JointPmf((0, 1, 2), (0, 1, 2), q_uv))
    ch = Channel((0, 1, 2), (0, 1, 2), sparse_rows(rng, 3, 3, 0.3))
    p_s = np.array([[0.0, 1.0] if i % 5 == 0 else [0.3, 0.7]
                    for i in range(n_designs)])
    pxus = sparse_rows(rng, 6 * n_designs, 3, 0.3).reshape(-1, 3, 2, 3)
    return model, ch, p_s, pxus


def frozen_conditional_vy_laws(model, ch, p_s, pxus):
    """The per-design loop that `_vy_laws` replaced, kept as its reference:
    (weight, P_{VY|S=s}, Q_{VY|S=s}) of every state of positive weight."""
    triples = []
    for s, weight in enumerate(p_s):
        if weight == 0:
            continue
        y_given_u = pxus[:, s, :] @ ch.rows           # |U| x |Y|
        p_vy = model.p_uv.probs.T @ y_given_u         # |V| x |Y|
        q_vy = model.q_uv.probs.T @ y_given_u
        triples.append((float(weight), p_vy, q_vy))
    return triples


class TestUncodedStacks:
    """The uncoded bound's stacked laws and values against the frozen
    per-design loop and projection, bit for bit."""

    def test_vy_laws_equal_frozen_loop(self, example1, bsc35):
        rng = np.random.default_rng(43)
        model, ch, p_s, pxus = ternary_uncoded_instance(rng, 20)
        binary = rng.dirichlet(np.ones(2), size=(15, 2, 2))
        for model, ch, p_s, pxus in ((model, ch, p_s, pxus),
                                     (example1, bsc35, np.full((15, 2), 0.5),
                                      binary)):
            p_vy, q_vy = _vy_laws(model, ch, pxus)
            for b in range(len(pxus)):
                triples = frozen_conditional_vy_laws(model, ch, p_s[b], pxus[b])
                live = np.flatnonzero(p_s[b] > 0)
                assert len(triples) == len(live)
                for s, (_, p, q) in zip(live, triples):
                    assert np.array_equal(p_vy[b, s], p.reshape(-1))
                    assert np.array_equal(q_vy[b, s], q.reshape(-1))

    def test_design_shapes_checked(self, example1, bsc35):
        for design in (AuxiliaryDesign(p_s=Pmf((0,), [1.0]),
                                       p_x_given_us=np.full((3, 1, 2), 0.5)),
                       AuxiliaryDesign(p_s=Pmf((0, 1), [0.5, 0.5]),
                                       p_x_given_us=np.full((2, 1, 2), 0.5))):
            with pytest.raises(InputError):
                jhtcc_uncoded(example1, bsc35, 0.01, design)


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
        rep = jhtcc_uncoded_opt(example1, bsc35, 0.002)
        fixed = jhtcc_uncoded(example1, bsc35, 0.002,
                              AuxiliaryDesign.identity_uncoded(2))
        assert rep.value >= fixed - 1e-9
        assert rep.name == "jhtcc_uncoded" and rep.feasible

    def test_non_increasing_in_kappa(self, example1, bsc35):
        vals = [jhtcc_uncoded_opt(example1, bsc35, k).value
                for k in (0.0, 0.002, 0.01, 0.05)]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))

    def test_kappa_sequence_equals_scalar_calls(self, example1, bsc35):
        kappas = [0.0, 0.002, 0.01]
        reports = jhtcc_uncoded_opt(example1, bsc35, kappas)
        assert reports == tuple(jhtcc_uncoded_opt(example1, bsc35, k)
                                for k in kappas)
        assert [r.kappa_alpha for r in reports] == kappas

    def test_empty_kappa_sequence(self, example1, bsc35):
        assert jhtcc_uncoded_opt(example1, bsc35, []) == ()
        assert compare_schemes(example1, bsc35, []) == ([], None)


def item16_model() -> tuple[SourceModel, Channel]:
    """A ternary model over a 3-input channel on which a local search from
    the uniform rows and from X = U misses the best deterministic map."""
    p = [[.04, .09], [.19, .01], [.02, .65]]
    q = [[.03, .08], [.12, .29], [.14, .34]]
    ch = Channel((0, 1, 2), (0, 1, 2), [[.28, .45, .27], [.68, .09, .23],
                                        [.26, .18, .56]])
    return (SourceModel(JointPmf((0, 1, 2), (0, 1), p),
                        JointPmf((0, 1, 2), (0, 1), q)), ch)


def best_deterministic_map(model: SourceModel, ch: Channel,
                           kappa_alpha: float) -> tuple[float, tuple]:
    """The largest public `jhtcc_uncoded` over the |X|^|U| single-state
    maps u -> x, and the first map that attains it."""
    n_u, n_x = len(model.p_uv.row_alphabet), len(ch.input_alphabet)
    best = (-np.inf, None)
    for m in itertools.product(range(n_x), repeat=n_u):
        design = AuxiliaryDesign(p_s=Pmf((0,), [1.0]),
                                 p_x_given_us=np.eye(n_x)[list(m)][:, None])
        value = jhtcc_uncoded(model, ch, kappa_alpha, design)
        if value > best[0]:
            best = (value, m)
    return best


def random_uncoded_instance(rng, n_u, n_v, n_x, n_y):
    """A fully supported model on |U| x |V| and a channel |X| -> |Y|."""
    p, q = rng.dirichlet(np.ones(n_u * n_v), size=2).reshape(2, n_u, n_v)
    u, v = tuple(range(n_u)), tuple(range(n_v))
    return (SourceModel(JointPmf(u, v, p), JointPmf(u, v, q)),
            Channel(tuple(range(n_x)), tuple(range(n_y)),
                    rng.dirichlet(np.ones(n_y), size=n_x)))


def dims():
    return st.sampled_from([2, 3])


class TestUncodedEnumeration:
    """`jhtcc_uncoded_opt` is the exact maximum over every uncoded design
    (P_S, P_{X|US}): kappa_u is convex in P_{X|US} and in P_S, so one state
    and a deterministic map, a vertex of each product of simplices, hold
    its maximum."""

    @pytest.mark.parametrize("kappa,value", [(0.01, 0.03344955159008012),
                                             (0.05, 0.004461403261207046)])
    def test_item16_model_equals_best_map(self, kappa, value):
        model, ch = item16_model()
        assert best_deterministic_map(model, ch, kappa) == (value, (2, 0, 1))
        rep = jhtcc_uncoded_opt(model, ch, kappa)
        assert rep.value == value
        assert rep.achiever["p_x_given_us"] == tuple(
            np.eye(3)[[2, 0, 1]].reshape(-1))

    @settings(max_examples=30)
    @given(n_u=st.sampled_from([2, 3]), n_x=st.sampled_from([2, 3]),
           n_v=st.sampled_from([1, 2, 3]),
           kappa=st.sampled_from([0.0, 0.005, 0.02, 0.1]),
           seed=st.integers(0, 2**32 - 1))
    def test_opt_equals_best_map(self, n_u, n_x, n_v, kappa, seed):
        rng = np.random.default_rng(seed)
        model, ch = random_uncoded_instance(rng, n_u, n_v, n_x, 3)
        value, _ = best_deterministic_map(model, ch, kappa)
        assert jhtcc_uncoded_opt(model, ch, kappa).value == value

    @settings(max_examples=40)
    @given(n_s=st.sampled_from([2, 3]), n_u=dims(), n_v=dims(), n_x=dims(),
           n_y=dims(), kappa=st.sampled_from([0.0, 0.005, 0.02, 0.1]),
           seed=st.integers(0, 2**32 - 1))
    def test_time_share_no_better_than_best_state(self, n_s, n_u, n_v, n_x,
                                                  n_y, kappa, seed):
        """A time-shared design is worth at most its best state alone, and
        the search reaches at least that: time sharing adds nothing."""
        rng = np.random.default_rng(seed)
        model, ch = random_uncoded_instance(rng, n_u, n_v, n_x, n_y)
        pxus = rng.dirichlet(np.ones(n_x), size=(n_u, n_s))
        shared = jhtcc_uncoded(model, ch, kappa, AuxiliaryDesign(
            Pmf(tuple(range(n_s)), rng.dirichlet(np.ones(n_s))), pxus))
        best = max(jhtcc_uncoded(model, ch, kappa, AuxiliaryDesign(
            Pmf((0,), [1.0]), pxus[:, [s]])) for s in range(n_s))
        assert shared <= best + 1e-12
        assert jhtcc_uncoded_opt(model, ch, kappa).value >= best - 1e-12

    @pytest.mark.parametrize("p,delta", [(0.05, 0.35), (0.1, 0.1),
                                         (0.2, 0.01), (0.3, 0.45)])
    def test_dsbs_tai_closed_form(self, p, delta):
        """DSBS(p) against independence over BSC(delta): at kappa_alpha = 0
        the best map sends X = U, and V xor Y is Bernoulli(p * delta) under
        H0 and uniform under H1, so kappa_u* = log 2 - h(p * delta), with
        p * delta = p(1 - delta) + (1 - p) delta. The first case is the
        Mrs. Gerber's Lemma corner 0.036906309932277."""
        p_uv = np.array([[1 - p, p], [p, 1 - p]]) / 2
        model = SourceModel(JointPmf((0, 1), (0, 1), p_uv),
                            JointPmf((0, 1), (0, 1), np.full((2, 2), 0.25)))
        conv = p * (1 - delta) + (1 - p) * delta
        closed = np.log(2) + conv * np.log(conv) + (1 - conv) * np.log(1 - conv)
        value = jhtcc_uncoded_opt(model, Channel.bsc(delta), 0.0).value
        assert abs(value - closed) <= 1e-12

    @settings(max_examples=30)
    @given(n_u=dims(), n_x=dims(), n_y=dims(), seed=st.integers(0, 2**32 - 1))
    def test_marginal_testing_ceiling(self, n_u, n_x, n_y, seed):
        """With |V| = 1 the tester sees only the channel output, and
        `rht_tradeoff`, the exact trade-off of testing P_U against Q_U over
        the channel, bounds every scheme from above."""
        rng = np.random.default_rng(seed)
        model, ch = random_uncoded_instance(rng, n_u, 1, n_x, n_y)
        u = model.p_uv.row_alphabet
        kappas = [0.005, 0.02, 0.1]
        ceiling = rht_tradeoff(Pmf(u, model.p_uv.probs[:, 0]),
                               Pmf(u, model.q_uv.probs[:, 0]), ch, kappas)
        for rep, top in zip(jhtcc_uncoded_opt(model, ch, kappas), ceiling):
            assert rep.value <= top + 1e-12

    @settings(max_examples=40)
    @given(n_u=dims(), n_v=dims(), n_x=dims(), n_y=dims(),
           seed=st.integers(0, 2**32 - 1))
    def test_relabelling_invariance(self, n_u, n_v, n_x, n_y, seed):
        """Permuting the symbols of U, V, X and Y leaves kappa_u* as it is."""
        rng = np.random.default_rng(seed)
        model, ch = random_uncoded_instance(rng, n_u, n_v, n_x, n_y)
        pu, pv, px, py = (rng.permutation(n) for n in (n_u, n_v, n_x, n_y))
        u, v = model.p_uv.row_alphabet, model.p_uv.col_alphabet
        relabelled = SourceModel(
            JointPmf(u, v, model.p_uv.probs[pu][:, pv]),
            JointPmf(u, v, model.q_uv.probs[pu][:, pv]))
        ch2 = Channel(ch.input_alphabet, ch.output_alphabet,
                      ch.rows[px][:, py])
        kappas = [0.0, 0.005, 0.02, 0.1]
        for a, b in zip(jhtcc_uncoded_opt(model, ch, kappas),
                        jhtcc_uncoded_opt(relabelled, ch2, kappas)):
            assert abs(a.value - b.value) <= 1e-12

    @settings(max_examples=40)
    @given(n_s=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1))
    def test_midpoint_convex_at_fixed_time_share(self, n_s, seed):
        rng = np.random.default_rng(seed)
        model, ch, _, _ = ternary_uncoded_instance(rng, 1)
        p_s = rng.dirichlet(np.ones(n_s), size=1).repeat(3, axis=0)
        a, b = sparse_rows(rng, 2 * 3 * n_s, 3, 0.3).reshape(2, 3, n_s, 3)
        pxus = np.stack([a, b, 0.5 * (a + b)])
        kappa = rng.uniform(0.0, 0.1)
        uncoded = _uncoded_values(model, ch, kappa, p_s, pxus)
        # the crossover's -inf mask only replaces a 0, the swapped
        # projection's value where the design's kappa_u(d, 0) is below the
        # radius, so the projection itself is the convex function
        crossing = _crossing_values(model, ch, kappa, p_s, pxus)
        p_vy, q_vy = _vy_laws(model, ch, pxus)
        swapped = project_components(p_s, q_vy, p_vy, kappa)[1]
        assert np.all(np.where(np.isneginf(crossing), swapped, 0.0) <= 1e-10)
        for f in (uncoded, swapped):
            assert f[2] <= 0.5 * (f[0] + f[1]) + 1e-10


class TestNanKappa:
    """A NaN kappa_alpha is rejected with a typed error at every entry
    point, rather than read as +inf, 0 or an infeasible bound."""

    def test_jhtcc_uncoded_opt(self, example1, bsc35):
        with pytest.raises(InputError, match="kappa_alpha"):
            jhtcc_uncoded_opt(example1, bsc35, np.nan)
        with pytest.raises(InputError, match="kappa_alpha"):
            jhtcc_uncoded_opt(example1, bsc35, [0.01, np.nan])

    def test_kl_ball_projection(self):
        with pytest.raises(InputError, match="kappa_alpha"):
            kl_ball_projection(TestKlBallProjection.REF,
                               TestKlBallProjection.TGT, np.nan)

    def test_shtcc_tad(self, example1, bsc35):
        with pytest.raises(InputError, match="kappa_alpha"):
            shtcc_tad(example1, bsc35, np.nan, FAST)

    def test_zeta_rho(self, example1):
        with pytest.raises(InputError, match="kappa_alpha"):
            zeta_rho(example1, [TestZetaRho.W_SPLIT], np.nan, FAST)


class TestZetaRho:
    W_SPLIT = Channel((0, 1), (0, 1), [[0.9, 0.1], [0.2, 0.8]])

    def test_zero_radius_is_pointwise(self, example1):
        zeta, rho = zeta_rho(example1, [self.W_SPLIT], 0.0)
        p_u = example1.p_uv.row_marginal().probs
        i_uw = mutual_information_arrays(p_u[:, None] * self.W_SPLIT.rows)
        i_vw = mutual_information_arrays(
            example1.p_uv.probs.T @ self.W_SPLIT.rows)
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
        info = _ball_objective(w_rows)

        def objective(ps, owner):
            rows_seen.append(len(ps))
            # I(V;W), problem kind 1, of quantizer owner % 12
            return info(ps, owner % len(w_rows) + len(w_rows))

        signs = np.tile([1.0, -1.0], len(w_rows))
        # 56 feasible grid points, so the grid pass tiles 24 * 56 rows
        return ball_optimize(example1.p_uv.probs, objective, signs, 0.2, 10,
                             DhtSearchConfig().pattern_min_step)

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

        config = (8, 5e-3)  # grid resolution, pattern search step
        assert ball_optimize(ref, objective, [-1.0], 1.0, *config).tolist() == [0.0]
        # beside a problem that finds a finite point on the grid, and one
        # that finds nothing at all
        def two(ps, owner):
            return np.where(owner == 0, objective(ps, owner),
                            np.where(owner == 1, ps[:, 0], np.inf))

        got = ball_optimize(ref, two, [-1.0, -1.0, -1.0], 1.0, *config)
        assert got[0] == 0.0 and np.isfinite(got[1]) and got[2] == np.inf
        assert got[1] == ball_optimize(ref, lambda ps, o: ps[:, 0], [-1.0],
                                       1.0, *config)[0]


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
        # one quantizer for every row, so owner k is problem kind k
        tai = _ball_objective(w_rows[None],
                              functools.partial(_tai_first_term, p_uv))
        tad = _ball_objective(w_rows[None],
                              functools.partial(_tad_first_term, q_uv))
        kind = [np.full(len(ps), k) for k in range(3)]
        stacked = {"ball": kl_rows(ps, ref),
                   "zeta": tad(ps, kind[0]), "rho": tad(ps, kind[1]),
                   "tai_e1": tai(ps, kind[2]), "tad_e1": tad(ps, kind[2])}
        # all kinds in one call, each row keeping its own kind's bits
        mixed = np.arange(len(ps)) % 3
        for objective, e1 in ((tai, "tai_e1"), (tad, "tad_e1")):
            picked = np.choose(mixed, [stacked["zeta"], stacked["rho"],
                                       stacked[e1]])
            assert objective(ps, mixed).tolist() == picked.tolist()
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
        # some designs take the rates of lower rows, so those rows sit
        # exactly at a design's rate, and no design admits the top four rows
        table = channel_table(ch, FAST.sx_resolution, FAST.theta_points)
        order = np.argsort(rates)
        assigned = order[5:25:5]
        rate = table.rate.copy()
        rate[::9] = rates[assigned]
        # theta_l scaled so that it, too, is the least of the three terms at
        # the best design of some rows
        table = dataclasses.replace(
            table, rate=np.minimum(rate, rates[order[-5]]),
            theta_l=table.theta_l * 0.1)
        caches = frozen_caches(table, ch, FAST.theta_points)
        for cache, rate, theta_l in zip(caches, table.rate, table.theta_l,
                                        strict=True):
            cache.rate, cache.theta_l = rate, theta_l
        monkeypatch.setattr("errexp.dht_bounds.channel_table",
                            lambda ch, sx_resolution, theta_points: table)
        score = stein_score(monkeypatch, shtcc_tad_stein, model, ch)
        got = score(stack, np.zeros(len(stack), dtype=int))
        frozen = frozen_tad_stein_objective(q_uv, caches)
        assert got.tolist() == [frozen(list(w)) for w in stack]
        assert np.isfinite(got[assigned[-1]])
        assert (got[order[-4:]] == -np.inf).all()

    def test_cache_expurgated_is_elementwise(self, bsc35):
        """The table's (rates x designs) E_x equals the frozen per-design,
        per-rate E_x, and one rate alone gives the bits of its row."""
        rates = np.linspace(0.0, 0.1, 41)
        table = channel_table(bsc35, FAST.sx_resolution, FAST.theta_points)
        caches = frozen_caches(table, bsc35, FAST.theta_points)
        # the rate below which E_x is +inf: none, mid-range, every rate
        for floor in (-np.inf, rates[17], np.inf):
            patched = dataclasses.replace(
                table, inf_below=np.full(len(caches), floor))
            for cache in caches:
                cache.inf_below = floor
            frozen = [[c.expurgated(float(r)) for c in caches] for r in rates]
            assert patched.expurgated(rates).tolist() == frozen
            assert [patched.expurgated([r])[0].tolist()
                    for r in rates] == frozen


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
        p = JointPmf((0, 1), (0, 1), np.outer([0.5, 0.5], [0.3, 0.7]))
        model = SourceModel(p, p)
        assert shtcc_tai_stein(model, bsc35, FAST) == 0.0

    def test_clean_channel_reaches_source_information(self):
        p = JointPmf((0, 1), (0, 1), [[0.45, 0.05], [0.05, 0.45]])
        q = JointPmf((0, 1), (0, 1), np.outer(p.row_marginal().probs,
                                              p.col_marginal().probs))
        model = SourceModel(p, q)
        clean = Channel((0, 1), (0, 1), [[0.999, 0.001], [0.001, 0.999]])
        value = shtcc_tai_stein(model, clean, FAST)
        assert value == pytest.approx(mutual_information_arrays(p.probs),
                                      abs=2e-3)

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

    @pytest.mark.parametrize("kind, kappa", [
        ("tai", 0.001), ("tad", 0.002), ("tad", 0.008)])
    def test_achiever_passes_feasibility_audit(self, kind, kappa, example1,
                                               bsc35):
        """The reported P_SX is a row of the channel table; its E_x at zeta
        (that row's, bit for bit) and its E_sp at theta clear kappa_alpha,
        zeta sits below its rate, and the value is at most
        offset(rho) + min(e_x, E_sp(theta) - theta)."""
        model, bound, offset = self.kind(kind, example1)
        self.audit(bound(model, bsc35, kappa, FAST), kappa, offset, bsc35)

    @pytest.mark.parametrize("kind, kappas", [
        ("tai", (0.001, 0.0)), ("tad", (0.002, 0.008))])
    def test_batched_achievers_pass_feasibility_audit(self, kind, kappas,
                                                      example1, bsc35):
        """The same audit on every report of one sequence call."""
        model, bound, offset = self.kind(kind, example1)
        reports = bound(model, bsc35, kappas, FAST)
        assert [r.kappa_alpha for r in reports] == list(kappas)
        for report, kappa in zip(reports, kappas, strict=True):
            assert report.feasible
            self.audit(report, kappa, offset, bsc35)

    @staticmethod
    def kind(kind, example1):
        """(model, bound, offset of the channel term) of a TAI or TAD run."""
        if kind == "tai":
            return skewed_tai_model(), shtcc_tai, lambda r: r
        return example1, shtcc_tad, lambda r: 0.0

    @staticmethod
    def audit(report, kappa, offset, bsc35):
        ach = report.achiever
        table = channel_table(bsc35, FAST.sx_resolution, FAST.theta_points)
        [d] = np.flatnonzero((table.p_sx.reshape(len(table.p_sx), -1)
                              == ach["p_sx"]).all(axis=1))
        design = InputDesign.from_matrix((0, 1), table.p_sx[d])
        cache = FrozenSxCache(design, bsc35, FAST.theta_points)
        assert_bit_equal(ach["e_x"], cache.expurgated(ach["zeta"]))
        assert ach["e_x"] >= kappa
        e_sp = special_message_exponent(design, bsc35, ach["theta"])
        assert e_sp >= kappa
        # rate constraint: zeta < I_P(X;Y|S)
        assert ach["zeta"] < frozen_rate(design, bsc35)
        assert report.value <= offset(ach["rho"]) + min(ach["e_x"],
                                                        e_sp - ach["theta"])


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


class TestBatchedShtcc:
    """shtcc_tad and shtcc_tai over a kappa_alpha sequence run one search
    and give the reports of the per-kappa_alpha scalar calls, bit for bit
    and achievers included."""

    @pytest.mark.parametrize("kind, channel, kappas", [
        ("tad", "bsc35", (0.01, 0.0, 0.05, 0.01)),
        ("tai", "bsc35", (0.002, 0.0, 0.05, 0.002)),
        ("tad", "split3", (0.01, 0.0, 0.2, 0.01)),
        ("tad", "disjoint", (0.01, 0.0, 0.01)),
    ])
    def test_sequence_equals_scalar_calls(self, kind, channel, kappas,
                                          example1):
        ch = {"bsc35": Channel.bsc(0.35), "split3": SPLIT3,
              "disjoint": DISJOINT}[channel]
        model, bound, _ = TestShtccTai.kind(kind, example1)
        reports = bound(model, ch, list(kappas), FAST)
        assert type(reports) is tuple
        scalar = [bound(model, ch, kappa, FAST) for kappa in kappas]
        assert [repr(r) for r in reports] == [repr(r) for r in scalar]
        # kappa_alpha 0 and the duplicate feasible, the third one not
        feasible = [r.feasible for r in reports]
        assert feasible == ([False] * 3 if channel == "disjoint"
                            else [True, True, False, True])

    def test_rows_per_ball_call_capped(self, example1, bsc35, monkeypatch):
        """Every kappa_alpha's zeta, rho and E1 problems share the KL-ball
        searches, but no score call of any search gets more than GRID_ROWS
        rows (or one chunk of candidates), and the cap changes no bit."""
        kappas = [0.002, 0.0, 0.005, 0.01, 0.05]
        rows = []

        def counted(score, *args, **kwargs):
            def score_counted(stack, owner):
                rows.append(len(stack))
                return score(stack, owner)
            return grid_then_pattern(score_counted, *args, **kwargs)

        monkeypatch.setattr("errexp.dht_bounds.grid_then_pattern", counted)
        monkeypatch.setattr("errexp.kl_ball.grid_then_pattern", counted)
        expect = [repr(r) for r in shtcc_tad(example1, bsc35, kappas, FAST)]
        assert max(rows) > 2 * GRID_CHUNK
        rows.clear()
        monkeypatch.setattr("errexp.optimize.GRID_ROWS", 40)
        got = [repr(r) for r in shtcc_tad(example1, bsc35, kappas, FAST)]
        assert got == expect
        assert max(rows) <= GRID_CHUNK

    def test_empty_sequence(self, example1, bsc35):
        assert shtcc_tad(example1, bsc35, [], FAST) == ()
        assert shtcc_tai(skewed_tai_model(), bsc35, (), FAST) == ()

    @pytest.mark.parametrize("bad", [np.nan, -1e-3])
    def test_bad_entry_raises_before_any_search(self, bad, example1, bsc35,
                                                monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr("errexp.dht_bounds.grid_then_pattern", no_search)
        monkeypatch.setattr("errexp.dht_bounds.channel_table", no_search)
        for model, bound in ((example1, shtcc_tad),
                             (skewed_tai_model(), shtcc_tai)):
            with pytest.raises(InputError, match="kappa_alpha"):
                bound(model, bsc35, [0.01, bad, 0.0], FAST)


class TestPerProblemKappa:
    """`ball_optimize` and `zeta_rho` with one kappa_alpha per problem give
    what their calls at that kappa_alpha alone give, bit for bit."""

    # at the reference, binding, not binding (the ball around the uniform
    # 2 x 2 joint holds the whole simplex once kappa_alpha > log 4), and +inf
    KAPPAS = (0.0, 0.01, 5.0, np.inf)
    CONFIG = DhtSearchConfig(ball_resolution=6, pattern_min_step=5e-3)

    def test_ball_optimize(self, example1):
        rng = np.random.default_rng(61)
        w_rows = rng.dirichlet(np.ones(3), size=(4, 2))
        objective = _ball_objective(
            w_rows, functools.partial(_tad_first_term, example1.q_uv.probs))
        # zeta, rho and E1 of four quantizers, the four radii in turn
        signs = np.repeat([1.0, -1.0, -1.0], len(w_rows))
        kappas = np.resize(self.KAPPAS, len(signs))
        ref = example1.p_uv.probs
        sizes = self.CONFIG.ball_resolution, self.CONFIG.pattern_min_step
        got = ball_optimize(ref, objective, signs, kappas, *sizes)
        for r, kappa in enumerate(kappas):
            alone = ball_optimize(ref, objective, signs, kappa, *sizes)
            assert_bit_equal(got[r], alone[r])

    def test_zeta_rho(self, example1):
        channels = [TestZetaRho.W_SPLIT,
                    Channel((0, 1), (0, 1), [[0.5, 0.5], [0.5, 0.5]]),
                    Channel((0, 1), (0, 1), [[0.3, 0.7], [1.0, 0.0]]),
                    TestZetaRho.W_SPLIT]
        zeta, rho = zeta_rho(example1, channels, self.KAPPAS, self.CONFIG)
        for i, (ch, kappa) in enumerate(zip(channels, self.KAPPAS)):
            [z], [r] = zeta_rho(example1, [ch], kappa, self.CONFIG)
            assert_bit_equal(zeta[i], z)
            assert_bit_equal(rho[i], r)

    def test_bad_kappa_rejected(self, example1):
        with pytest.raises(InputError, match="kappa_alpha"):
            zeta_rho(example1, [TestZetaRho.W_SPLIT] * 2, [0.01, -1.0])


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


def item13_tai_model() -> SourceModel:
    """A TAI instance with |U| = 3 and |V| = 2, whose quantizer grid grows
    fastest with the resolution."""
    p = np.array([[.1557, .1169], [.197, .0465], [.4538, .0301]])
    q = np.outer(p.sum(axis=1), p.sum(axis=0))
    return SourceModel(JointPmf((0, 1, 2), (0, 1), p),
                       JointPmf((0, 1, 2), (0, 1), q))


BOUND_KAPPAS = (0.0, 0.002, 0.01, 0.05)


@functools.lru_cache(maxsize=None)
def shtcc_scorers(case: str):
    """The value and the zero-radius bound that `_shtcc` hands to its
    quantizer search on one of three instances, at BOUND_KAPPAS."""
    bound_fn, model, ch, config = {
        "tad": (shtcc_tad, SourceModel(
            JointPmf((0, 1), (0, 1), np.full((2, 2), 0.25)),
            JointPmf((0, 1), (0, 1), [[0.0, 0.5], [0.5, 0.0]])),
            Channel.bsc(0.35), FAST),
        "tai": (shtcc_tai, skewed_tai_model(), Channel.bsc(0.35), FAST),
        "tai3": (shtcc_tai, item13_tai_model(), Channel.bsc(0.1),
                 TERNARY_FAST),
    }[case]
    seen = {}

    def capture(score, *args, problems=1, bound=None, **kwargs):
        seen.update(score=score, bound=bound)
        return [None] * problems, np.full(problems, -np.inf)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("errexp.dht_bounds.grid_then_pattern", capture)
        bound_fn(model, ch, list(BOUND_KAPPAS), config)
    return model.p_uv.probs.shape[0], seen["score"], seen["bound"]


class TestShtccZeroRadiusBound:
    """The bound that lets the quantizer search skip rows is exact: on every
    row of a quantizer stack the value at the reference joint (a KL ball of
    radius 0) is >= the value the nested KL-ball searches give, and equal
    to it at kappa_alpha 0, where the ball is that point."""

    @settings(max_examples=40)
    @given(case=st.sampled_from(["tad", "tai", "tai3"]),
           rows=st.lists(st.tuples(
               st.sampled_from(["random", "blend", "constant", "identity"]),
               st.integers(0, 2**32 - 1),
               st.integers(0, len(BOUND_KAPPAS) - 1)), min_size=1, max_size=6))
    @example(case="tad", rows=[(kind, 5, k) for kind in ("blend", "identity")
                               for k in range(len(BOUND_KAPPAS))])
    @example(case="tai3", rows=[("constant", 3, 0), ("identity", 0, 2),
                                ("random", 9, 1)])
    def test_bound_dominates_value(self, case, rows):
        n_u, score, bound = shtcc_scorers(case)
        stack = np.array([self.quantizer(kind, seed, n_u)
                          for kind, seed, _ in rows])
        owner = np.array([k for *_, k in rows])
        value, upper = score(stack, owner), bound(stack, owner)
        assert not np.isnan(value).any() and not np.isnan(upper).any()
        assert np.all(value <= upper), (value, upper)
        at_ref = owner == 0
        assert np.array_equal(value[at_ref], upper[at_ref])

    @staticmethod
    def quantizer(kind: str, seed: int, n_u: int) -> np.ndarray:
        """A P_{W|U} with |W| = |U| + 1: W = U embedded ("identity"), W
        independent of U ("constant"), random rows with zeros ("random"),
        or a constant row mixed with a fifth of random ones ("blend", whose
        small I(U;W) the channel can carry)."""
        rng = np.random.default_rng(seed)
        if kind == "identity":
            return np.eye(n_u, n_u + 1)
        constant = np.repeat(sparse_rows(rng, 1, n_u + 1), n_u, axis=0)
        rows = sparse_rows(rng, n_u, n_u + 1)
        return {"constant": constant, "random": rows,
                "blend": 0.8 * constant + 0.2 * rows}[kind]

    @pytest.mark.parametrize("case", ["tad", "tai", "tai3"])
    def test_bound_is_not_vacuous(self, case):
        """Blended quantizers are feasible on every instance, and at a
        positive kappa_alpha their bound is often strictly above their
        value, so both sides of the comparison are exercised."""
        n_u, score, bound = shtcc_scorers(case)
        stack = np.array([self.quantizer("blend", seed, n_u)
                          for seed in range(40)])
        owner = np.resize(np.arange(len(BOUND_KAPPAS)), len(stack))
        value, upper = score(stack, owner), bound(stack, owner)
        assert np.isfinite(value).sum() >= 5
        assert (value < upper).sum() >= 5


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

    def test_jhtcc_uncoded_one_state(self, example1, bsc35):
        # the map u -> 1 - u; a second time-share state would add nothing
        rep = jhtcc_uncoded_opt(example1, bsc35, 0.002)
        assert rep.value == pytest.approx(0.02958613211209734, rel=PIN_REL)
        assert rep.achiever["p_s"] == (1.0,)
        assert rep.achiever["p_x_given_us"] == pytest.approx(
            (0.0, 1.0, 1.0, 0.0), rel=PIN_REL)

    def test_jhtcc_uncoded_one_state_bits(self, example1, bsc35):
        # value and achiever are pinned bit for bit and type for type
        rep = jhtcc_uncoded_opt(example1, bsc35, 0.002)
        assert repr(rep.value) == "0.029586132112097395"
        f64 = "np.float64({})".format
        assert repr(rep.achiever) == (
            "{'p_s': (1.0,), 'p_x_given_us': (%s)}"
            % ", ".join(map(f64, ("0.0", "1.0", "1.0", "0.0"))))


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
                                          [0.0, 0.01])
        for shtcc_rep, jhtcc_rep in rows:
            assert shtcc_rep.value == pytest.approx(0.0, abs=1e-9)
            assert jhtcc_rep.value == pytest.approx(0.0, abs=1e-9)
        assert crossover is None

    def test_example1_rows(self, example1, bsc35):
        rows, crossover = compare_schemes(example1, bsc35, [0.0, 0.005])
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
        _, crossover = compare_schemes(example1, bsc35, [0.001, 0.008])
        e_x0 = expurgated_exponent_opt(0.0, bsc35)[0]
        ts = np.linspace(0.0, 1.0, 101)
        pxus = np.array([[[[a, 1.0 - a]], [[b, 1.0 - b]]]
                         for a, b in itertools.product(ts, ts)])
        p_vy, q_vy = _vy_laws(example1, bsc35, pxus)
        _, values = project_components(np.ones((len(pxus), 1)), q_vy, p_vy,
                                       e_x0)
        assert crossover >= values.max() - 1e-12

    @pytest.mark.parametrize("grid", [[0.005, 0.008], [0.001, 0.003]],
                             ids=["below-grid", "above-grid"])
    def test_none_when_crossing_outside_grid(self, example1, bsc35, grid):
        # the crossing lies near 0.00396
        assert compare_schemes(example1, bsc35, grid)[1] is None

    def test_none_when_no_design_reaches_the_line(self):
        # kappa_u*(0) = 0.21 lies below E_x(0) = 0.81; unmasked, every design
        # would score a crossing at 0, inside the grid
        rows, crossover = compare_schemes(full_support_tad_model(),
                                          Channel.bsc(0.01), [0.0, 0.01])
        (ex0, uncoded_at_zero), _ = rows
        assert uncoded_at_zero.value < ex0.value
        assert crossover is None

    def test_none_when_zero_rate_exponent_infinite(self, example1):
        rows, crossover = compare_schemes(example1, DISJOINT, [0.01, 0.02])
        assert rows[0][0].value == np.inf
        assert crossover is None


class TestDisjointRowChannel:
    def test_infinite_theta_bound_gets_no_theta_grid(self):
        table = channel_table(DISJOINT, FAST.sx_resolution,
                              FAST.theta_points)
        caches = frozen_caches(table, DISJOINT, FAST.theta_points)
        skipped = np.array([not (np.isfinite(c.theta_l)
                                 and np.isfinite(c.theta_u)) for c in caches])
        assert skipped.any() and not skipped.all()
        assert table.thetas.shape == (len(caches), FAST.theta_points)
        # no theta is feasible for a design of an infinite theta bound
        assert np.isnan(table.thetas[skipped]).all()
        assert (table.e_sp[skipped] == -np.inf).all()
        term, theta = table.theta_terms(0.0)
        assert (term[skipped] == -np.inf).all() and np.isnan(theta[skipped]).all()
        assert np.isfinite(table.thetas[~skipped]).all()
        assert np.isfinite(table.e_sp[~skipped]).all()
        assert np.isfinite(term[~skipped]).all()

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
    """I(X;Y|S) of the `ChannelTable` rows against the hand loop it
    replaced, bit for bit and type for type: |S||X| = 4-25 terms,
    zero-weight states and inputs, and inputs of disjoint rows."""
    rng = np.random.default_rng(37)
    for _, rows in divergence_channels(37, count=30):
        n, m = rows.shape
        ch = Channel(range(n), range(m), rows)
        p_sx = np.stack([random_weights(rng, n * n).reshape(n, n)
                         for _ in range(2)])
        table = ChannelTable.of(p_sx, ch, 3)
        for joint, rate in zip(p_sx, table.rate, strict=True):
            assert_bit_equal(rate, frozen_rate(
                InputDesign.from_matrix(range(n), joint), ch))


# channels of the table check: BSCs, a 2 x 3 channel of partial supports,
# two 3-input channels (one with disjoint rows) and the identity channel
TABLE_CHANNELS = {
    "bsc35": Channel.bsc(0.35), "bsc10": Channel.bsc(0.1),
    "partial": Channel((0, 1), (0, 1, 2), np.array([[0.6, 0.4, 0.0],
                                                    [0.0, 0.3, 0.7]])),
    "disjoint": DISJOINT, "cyclic3": CYCLIC3, "split3": SPLIT3,
    "identity": Channel((0, 1), (0, 1), np.eye(2)),
}


@pytest.mark.parametrize("name", sorted(TABLE_CHANNELS))
def test_table_rows_equal_frozen_caches(name):
    """Every row of `ChannelTable` against the per-design cache it
    replaced, bit for bit: rate, theta_l, the theta grid and its E_sp, the
    best theta term at several kappa_alpha, and E_x at rates through the
    +inf floors. The designs are grid designs and sparse random ones."""
    ch = TABLE_CHANNELS[name]
    n = len(ch.input_alphabet)
    rng = np.random.default_rng(len(name))
    p_sx = np.concatenate([
        np.reshape(list(simplex_grid(n * n, 2)), (-1, n * n)),
        sparse_rows(rng, 30, n * n, 0.4)]).reshape(-1, n, n)
    table = ChannelTable.of(p_sx, ch, 9)
    caches = frozen_caches(table, ch, 9)
    rates = np.concatenate([np.linspace(0.0, 0.8, 17), [np.log(2.0)]])
    e_x = table.expurgated(rates)
    for d, cache in enumerate(caches):
        assert_bit_equal(table.rate[d], cache.rate)
        assert table.theta_l[d] == cache.theta_l
        if cache.thetas.size:
            assert table.thetas[d].tolist() == cache.thetas.tolist()
            assert table.e_sp[d].tolist() == cache.e_sp.tolist()
        assert e_x[:, d].tolist() == [cache.expurgated(r) for r in rates]
    for kappa in (0.0, 0.004, 0.02, 0.3):
        term, theta = table.theta_terms(kappa)
        frozen = [cache.best_theta_term(kappa) for cache in caches]
        assert [repr(t) for t in term.tolist()] == [repr(f[0]) for f in frozen]
        assert [repr(t) for t in theta.tolist()] == [repr(f[1]) for f in frozen]


@pytest.mark.parametrize("field, value", [
    ("design_resolution", 0), ("ball_resolution", -1), ("sx_resolution", 2.5),
    ("theta_points", 0), ("pattern_min_step", 0.0),
    ("pattern_min_step", -1e-3), ("pattern_min_step", float("nan")),
    ("pattern_min_step", float("inf"))])
def test_search_config_rejects_hanging_or_empty_searches(field, value):
    """A zero resolution empties a search and a zero step never ends one;
    the config is only built here, no search runs."""
    with pytest.raises(InputError):
        DhtSearchConfig(**{field: value})


def test_bound_report_records_no_grid_resolution():
    """A report names its value, achiever and feasibility; no search
    resolution, which the uncoded bound and E_x(0) rows do not have."""
    assert [f.name for f in dataclasses.fields(BoundReport)] == [
        "name", "kappa_alpha", "value", "achiever", "feasible"]


@pytest.mark.parametrize("ch", [Channel.bsc(0.35), CYCLIC3, DISJOINT],
                         ids=["bsc35", "cyclic3", "disjoint"])
def test_channel_table_rebuilds_bit_for_bit(ch):
    """Two `channel_table` calls build two tables with the same bits in
    every field, NaN thetas and -inf E_sp included."""
    first, second = (channel_table(ch, 2, 9) for _ in range(2))
    assert first is not second
    for field in dataclasses.fields(ChannelTable):
        a, b = getattr(first, field.name), getattr(second, field.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name


def test_auxiliary_design_validation():
    with pytest.raises(InputError):
        AuxiliaryDesign(p_s=Pmf((0,), [1.0]),
                        p_x_given_us=np.full((2, 1, 2), 0.4))


def test_source_model_flags(example1):
    assert example1.is_tad and not example1.is_tai
    assert skewed_tai_model().is_tai
