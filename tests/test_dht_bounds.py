import numpy as np
import pytest

from errexp import (AuxiliaryDesign, Channel, DhtSearchConfig, InputDesign,
                    InputError, JointPmf, Pmf, SourceModel, compare_schemes,
                    expurgated_exponent, jhtcc_uncoded, jhtcc_uncoded_opt,
                    kl_ball_projection, kl_divergence, mutual_information,
                    shtcc_tad, shtcc_tad_stein, shtcc_tai, shtcc_tai_stein,
                    special_message_exponent, zeta_rho)
from errexp.channel_exponents import output_given_state
from errexp.dht_bounds import (_info_uw, _info_vw, _project_components,
                               _tad_first_term, _tai_first_term)
from errexp.prob_core import kl_array, kl_rows, mutual_information_arrays
from conftest import fit_geometric_family, sparse_rows

FAST = DhtSearchConfig(design_resolution=3, ball_resolution=8,
                       sx_resolution=4, theta_points=17,
                       pattern_min_step=5e-3)


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
        ps, value = _project_components([(1.0, ref, tgt)], np.log(2.0) - 1e-13)
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
            ps, value = _project_components(comps, kappa)
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
            ps, value = _project_components(comps, _free_radius(comps) + 0.01)
            assert value == sum(w * kl_array(p, t)
                                for (w, _, t), p in zip(comps, ps))
            assert value == pytest.approx(
                -sum(w * np.log(t[r > 0].sum()) for w, r, t in comps),
                abs=1e-12)


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
        zeta, rho = zeta_rho(example1, self.W_SPLIT, 0.0)
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
        assert zeta_rho(example1, blind, 0.01, FAST) == (0.0, 0.0)

    def test_exhaustive_grid_oracle(self, example1):
        kappa = 0.01
        zeta, rho = zeta_rho(example1, self.W_SPLIT, kappa, FAST)
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


class TestStackedBallObjectives:
    """The stacked objectives of the KL-ball searches equal the scalar
    kl_array / mutual_information_arrays formulas bit for bit, row by row."""

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

        stacked = {"ball": kl_rows(ps, ref),
                   "zeta": _info_uw(ps, shape, w_rows),
                   "rho": _info_vw(ps, shape, w_rows),
                   "tai_e1": _tai_first_term(p_uv, w_rows)(ps),
                   "tad_e1": _tad_first_term(q_uv, w_rows)(ps)}
        for b, p in enumerate(ps):
            joint = p.reshape(shape)
            scalar = {
                "ball": kl_array(p, ref),
                "zeta": mutual_information_arrays(
                    joint.sum(axis=1)[:, None] * w_rows),
                "rho": mutual_information_arrays(joint.T @ w_rows),
                "tai_e1": (mutual_information_arrays(joint.T @ w_rows)
                           + kl_array(joint.sum(axis=0), p_v)),
                "tad_e1": kl_array((joint.T @ w_rows).reshape(-1), q_vw)}
            for key, value in scalar.items():
                assert stacked[key][b] == value, (key, b)
        for key in ("ball", "tai_e1", "tad_e1"):
            assert np.isinf(stacked[key]).any() and np.isfinite(stacked[key]).any()


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


class TestCompareSchemes:
    def test_useless_channel_all_zero(self, example1):
        rows, crossover = compare_schemes(example1, Channel.bsc(0.5),
                                          [0.0, 0.01], FAST)
        for shtcc_rep, jhtcc_rep in rows:
            assert shtcc_rep.value == pytest.approx(0.0, abs=1e-9)
            assert jhtcc_rep.value == pytest.approx(0.0, abs=1e-9)

    def test_example1_rows(self, example1, bsc35):
        rows, crossover = compare_schemes(example1, bsc35, [0.0, 0.005], FAST)
        (s0, j0), (s1, j1) = rows
        assert s0.value == pytest.approx(0.0236, abs=2e-3)
        assert j0.value == pytest.approx(0.0471, abs=2e-4)
        assert j1.value < j0.value
        assert crossover is not None and 0.0 < crossover < 0.005


def test_auxiliary_design_validation():
    with pytest.raises(InputError):
        AuxiliaryDesign(p_wu=Channel((0, 1), (0, 1, 2, 3),
                                     np.full((2, 4), 0.25)))
    with pytest.raises(InputError):
        AuxiliaryDesign(p_x_given_us=np.full((2, 1, 2), 0.4))


def test_source_model_flags(example1):
    assert example1.is_tad and not example1.is_tai
    assert skewed_tai_model().is_tai
