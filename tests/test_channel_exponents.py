import numpy as np
import pytest

from errexp import (Channel, DomainError, InputDesign, Pmf, ScoredPmf,
                    bsc_expurgated_zero_rate, conjugate, expurgated_exponent,
                    expurgated_exponent_opt, special_message_exponent,
                    theta_bounds)
from errexp.channel_exponents import (RHO_GRID, RHO_GRID_POINTS,
                                      _expurgation_terms, _rho_grid_objective,
                                      bhattacharyya_kernel,
                                      expurgated_exponents, output_given_state)
from errexp.optimize import grid_then_pattern, simplex_grid
from conftest import (assert_bit_equal, dense_grid_conjugate,
                      divergence_channels, frozen_kl_array, frozen_maximize_1d,
                      random_weights, sparse_rows, stacked)

UNIFORM2 = InputDesign.from_matrix((0, 1), np.full((2, 2), 0.25))


class TestExpurgatedExponent:
    def test_identical_row_channel_is_zero(self):
        ch = Channel((0, 1), (0, 1), [[0.3, 0.7], [0.3, 0.7]])
        assert expurgated_exponent(0.0, UNIFORM2, ch) == pytest.approx(0.0,
                                                                       abs=1e-9)

    def test_identity_channel_diverges_below_ln2(self):
        ident = Channel((0, 1), (0, 1), np.eye(2))
        assert expurgated_exponent(0.1, UNIFORM2, ident) == float("inf")
        # above ln 2 the off-diagonal mass no longer supports divergence
        assert np.isfinite(expurgated_exponent(np.log(2.0) + 0.1, UNIFORM2,
                                               ident))

    def test_divergence_oracle(self):
        """The identity-channel objective is rho*(ln 2 - R): confirm it grows
        along rho before trusting the +inf classification."""
        w = np.full(4, 0.25)
        b = bhattacharyya_kernel(Channel((0, 1), (0, 1), np.eye(2))).reshape(-1)
        for rho in (1.0, 10.0, 100.0):
            val = -rho * 0.1 - rho * np.log(np.sum(w[b > 0] * b[b > 0] ** (1 / rho)))
            assert val == pytest.approx(rho * (np.log(2.0) - 0.1))

    def test_non_increasing_in_rate(self, bsc35):
        rates = np.linspace(0.0, 1.0, 11)
        vals = [expurgated_exponent(float(r), UNIFORM2, bsc35) for r in rates]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_negative_rate_rejected(self, bsc35):
        with pytest.raises(DomainError):
            expurgated_exponent(-0.1, UNIFORM2, bsc35)


class TestExpurgatedOpt:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.35])
    def test_matches_bsc_closed_form(self, p):
        value, design = expurgated_exponent_opt(0.0, Channel.bsc(p))
        assert value == pytest.approx(bsc_expurgated_zero_rate(p), abs=2e-3)
        assert design.joint.probs.sum() == pytest.approx(1.0)

    def test_never_improves_past_zero_rate(self, bsc35):
        v0, _ = expurgated_exponent_opt(0.0, bsc35, grid_resolution=8)
        v1, _ = expurgated_exponent_opt(np.log(2.0), bsc35, grid_resolution=8)
        assert v1 <= v0 + 1e-12


def frozen_expurgated_exponent(rate, design, ch):
    """The scalar expurgated exponent with its golden section, kept as the
    reference that the lockstep `expurgated_exponents` must reproduce."""
    wl, logb, powers, inf_below = _expurgation_terms(design, ch)
    if rate < inf_below:
        return float("inf")

    def objective(rho):
        kernel = float(np.sum(wl * np.exp(logb / rho)))
        return -rho * rate - rho * np.log(kernel)

    k = int(np.argmax(_rho_grid_objective(rate, wl, powers)))
    lo = RHO_GRID[max(k - 1, 0)]
    hi = RHO_GRID[min(k + 1, RHO_GRID_POINTS - 1)]
    return frozen_maximize_1d(objective, lo, hi, tol=1e-9)[1]


# 3-input channels: overlapping rows, and rows 0 and 1 disjoint (a zero
# Bhattacharyya entry, so weight there makes the exponent +inf at low rates)
CYCLIC3 = Channel((0, 1, 2), (0, 1, 2),
                  [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
SPLIT3 = Channel((0, 1, 2), (0, 1, 2),
                 [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.0, 0.5, 0.5]])


class TestLockstepExpurgated:
    """expurgated_exponents on lists of designs against the frozen scalar
    refinement, design by design and bit for bit."""

    @pytest.mark.parametrize("ch", [CYCLIC3, SPLIT3], ids=["cyclic", "split"])
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 1.2])
    def test_designs_match_scalar(self, ch, rate):
        rng = np.random.default_rng(int(rate * 100) + len(ch.rows[1].nonzero()[0]))
        designs = [InputDesign.from_matrix((0, 1, 2), row.reshape(3, 3))
                   for row in sparse_rows(rng, 40, 9, 0.4)]
        designs.append(InputDesign.from_matrix((0, 1, 2), np.eye(3) / 3))
        values = expurgated_exponents(rate, designs, ch)
        expect = [frozen_expurgated_exponent(rate, d, ch) for d in designs]
        assert values.tolist() == expect
        assert expurgated_exponent(rate, designs[0], ch) == expect[0]
        if ch is SPLIT3 and rate == 0.0:
            assert np.isinf(expect).any() and np.isfinite(expect).any()

    def test_binary_designs_match_scalar(self, bsc35):
        rng = np.random.default_rng(3)
        designs = [InputDesign.from_matrix((0, 1), row.reshape(2, 2))
                   for row in sparse_rows(rng, 30, 4, 0.3)]
        for rate in (0.0, 0.1):
            values = expurgated_exponents(rate, designs, bsc35)
            assert values.tolist() == [frozen_expurgated_exponent(rate, d, bsc35)
                                       for d in designs]

    @pytest.mark.parametrize("ch", [CYCLIC3, SPLIT3], ids=["cyclic", "split"])
    def test_opt_matches_scalar_search(self, ch):
        def f(blocks):
            design = InputDesign.from_matrix((0, 1, 2), blocks[0].reshape(3, 3))
            return frozen_expurgated_exponent(0.0, design, ch)

        candidates = ([v] for v in simplex_grid(9, 2))
        [blocks], [value] = grid_then_pattern(stacked(f), candidates,
                                              min_step=1e-2)
        got, design = expurgated_exponent_opt(0.0, ch, grid_resolution=2,
                                              pattern_min_step=1e-2)
        assert got == value
        assert np.array_equal(design.joint.probs.reshape(-1), blocks[0])


class TestBscZeroRate:
    def test_paper_value(self):
        assert bsc_expurgated_zero_rate(0.35) == pytest.approx(0.0236, abs=2e-4)
        assert bsc_expurgated_zero_rate(0.35) == pytest.approx(
            -0.25 * np.log(4 * 0.35 * 0.65), abs=1e-15)

    def test_useless_and_perfect(self):
        assert bsc_expurgated_zero_rate(0.5) == 0.0
        assert bsc_expurgated_zero_rate(0.0) == float("inf")
        assert bsc_expurgated_zero_rate(1.0) == float("inf")

    def test_direct_formula(self):
        assert bsc_expurgated_zero_rate(0.1) == pytest.approx(
            -0.25 * np.log(0.36), abs=1e-12)


class TestThetaBounds:
    def test_deterministic_design_is_degenerate(self, bsc35):
        assert theta_bounds(InputDesign.deterministic((0, 1)), bsc35) == (0.0, 0.0)

    def test_identical_row_channel(self):
        ch = Channel((0, 1), (0, 1), [[0.3, 0.7], [0.3, 0.7]])
        tl, tu = theta_bounds(UNIFORM2, ch)
        assert tl == pytest.approx(0.0, abs=1e-12)
        assert tu == pytest.approx(0.0, abs=1e-12)

    def test_direct_formula(self, bsc35):
        # S uniform binary, P(X=s|S=s) = 0.9
        design = InputDesign.from_matrix((0, 1), [[0.45, 0.05], [0.05, 0.45]])
        pys = 0.9 * bsc35.rows + 0.1 * bsc35.rows[::-1]
        tl = sum(0.5 * np.sum(pys[s] * np.log(pys[s] / bsc35.rows[s]))
                 for s in range(2))
        tu = sum(0.5 * np.sum(bsc35.rows[s] * np.log(bsc35.rows[s] / pys[s]))
                 for s in range(2))
        got_l, got_u = theta_bounds(design, bsc35)
        assert got_l == pytest.approx(tl, abs=1e-12)
        assert got_u == pytest.approx(tu, abs=1e-12)


    def test_equals_frozen_loop(self):
        """The hand loop that theta_bounds replaced, bit for bit and type for
        type, on random channels with 2-5 inputs and designs with zero-weight
        states."""

        def frozen(design, ch):
            ps = design.state_probs
            pys = output_given_state(design, ch)
            theta_l = 0.0
            theta_u = 0.0
            for s, weight in enumerate(ps):
                if weight == 0:
                    continue
                theta_l += weight * frozen_kl_array(pys[s], ch.rows[s])
                theta_u += weight * frozen_kl_array(ch.rows[s], pys[s])
            return theta_l, theta_u

        rng = np.random.default_rng(23)
        infinite = 0
        for _, rows in divergence_channels(23):
            n, m = rows.shape
            ch = Channel(range(n), range(m), rows)
            for _ in range(3):
                design = InputDesign.from_matrix(
                    range(n), random_weights(rng, n * n).reshape(n, n))
                got, expect = theta_bounds(design, ch), frozen(design, ch)
                for g, e in zip(got, expect):
                    assert_bit_equal(g, e)
                infinite += np.isinf(expect[0])
        assert infinite > 0


class TestSpecialMessageExponent:
    DESIGN = InputDesign.from_matrix((0, 1), [[0.45, 0.05], [0.05, 0.45]])

    def test_zero_at_lower_endpoint(self, bsc35):
        tl, _ = theta_bounds(self.DESIGN, bsc35)
        assert special_message_exponent(self.DESIGN, bsc35, -tl) == pytest.approx(
            0.0, abs=1e-9)

    def test_shift_identity_at_upper_endpoint(self, bsc35):
        _, tu = theta_bounds(self.DESIGN, bsc35)
        val = special_message_exponent(self.DESIGN, bsc35, tu)
        assert val - tu == pytest.approx(0.0, abs=1e-9)

    def test_interior_vs_dense_grid(self, bsc35):
        tl, tu = theta_bounds(self.DESIGN, bsc35)
        pys = output_given_state(self.DESIGN, bsc35)
        for theta in np.linspace(-tl * 0.9, tu * 0.9, 5):
            oracle = 0.0
            for s in range(2):
                base = Pmf((0, 1), pys[s])
                scores = np.log(bsc35.rows[s]) - np.log(pys[s])
                oracle += 0.5 * dense_grid_conjugate(
                    ScoredPmf(base, scores), float(theta))
            assert special_message_exponent(
                self.DESIGN, bsc35, float(theta)) == pytest.approx(oracle,
                                                                   abs=1e-6)

    def test_convex_nonnegative_on_interval(self, bsc35):
        tl, tu = theta_bounds(self.DESIGN, bsc35)
        thetas = np.linspace(-tl, tu, 11)
        vals = [special_message_exponent(self.DESIGN, bsc35, float(t))
                for t in thetas]
        assert all(v >= -1e-12 for v in vals)
        for a, b, c in zip(vals, vals[1:], vals[2:]):
            assert b <= 0.5 * (a + c) + 1e-10

    def test_theta_outside_interval(self, bsc35):
        tl, tu = theta_bounds(self.DESIGN, bsc35)
        with pytest.raises(DomainError):
            special_message_exponent(self.DESIGN, bsc35, tu + 0.01)
        with pytest.raises(DomainError):
            special_message_exponent(self.DESIGN, bsc35, -tl - 0.01)

    @pytest.mark.parametrize("ch", [CYCLIC3, SPLIT3], ids=["cyclic", "split"])
    def test_theta_array_matches_scalars(self, ch, bsc35):
        rng = np.random.default_rng(9)
        for design in [self.DESIGN] + [
                InputDesign.from_matrix((0, 1, 2), row.reshape(3, 3))
                for row in sparse_rows(rng, 4, 9, 0.3)]:
            chan = bsc35 if len(design.state_probs) == 2 else ch
            tl, tu = theta_bounds(design, chan)
            # the bounds are +inf where a state's outputs leave a row's support
            thetas = np.linspace(max(-tl, -3.0), min(tu, 3.0), 33)
            values = special_message_exponent(design, chan, thetas)
            assert values.tolist() == [
                special_message_exponent(design, chan, float(t)) for t in thetas]
            outside = tu + 0.01 if np.isfinite(tu) else np.nan
            with pytest.raises(DomainError):
                special_message_exponent(design, chan, np.append(thetas, outside))
