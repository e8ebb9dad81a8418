import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from errexp import (Channel, DomainError, InputDesign, InputError, Pmf,
                    ScoredPmf, bsc_expurgated_zero_rate, expurgated_exponent,
                    expurgated_exponent_opt, special_message_exponent,
                    theta_bounds)
from errexp.channel_exponents import (RHO_BLOCK, RHO_CAP, RHO_GRID,
                                      RHO_GRID_POINTS, _expurgation_terms,
                                      _input_given_state, _rho_grids,
                                      bhattacharyya_kernel,
                                      expurgated_exponents)
from errexp.optimize import grid_then_pattern, simplex_grid
from conftest import (CYCLIC3, SPLIT3, assert_bit_equal, dense_grid_conjugate,
                      divergence_channels, frozen_expurgation_terms,
                      frozen_kl_array, frozen_maximize_1d,
                      frozen_special_message_exponent, frozen_theta_bounds,
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

    def test_nan_rate_rejected(self, bsc35):
        with pytest.raises(DomainError, match="rate"):
            expurgated_exponent(np.nan, UNIFORM2, bsc35)

    def test_design_alphabet_checked(self, bsc35):
        design = InputDesign.from_matrix(("a", "b"), np.full((2, 2), 0.25))
        with pytest.raises(InputError, match="alphabet"):
            expurgated_exponent(0.0, design, bsc35)


class TestExpurgatedOpt:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.35])
    def test_matches_bsc_closed_form(self, p):
        value, design = expurgated_exponent_opt(0.0, Channel.bsc(p))
        assert value == pytest.approx(bsc_expurgated_zero_rate(p), abs=2e-3)
        assert design.joint.probs.sum() == pytest.approx(1.0)

    def test_nan_rate_rejected(self, bsc35):
        with pytest.raises(DomainError, match="rate"):
            expurgated_exponent_opt(np.nan, bsc35)

    def test_never_improves_past_zero_rate(self, bsc35):
        v0, _ = expurgated_exponent_opt(0.0, bsc35, grid_resolution=8)
        v1, _ = expurgated_exponent_opt(np.log(2.0), bsc35, grid_resolution=8)
        assert v1 <= v0 + 1e-12


def frozen_golden_section(rate, design, ch):
    """The scalar expurgated exponent with its golden section, kept as the
    reference that the lockstep `expurgated_exponents` must reproduce at
    positive rates, and that the rate-0 evaluation at RHO_CAP must meet
    within 1e-11."""
    wl, logb, powers, inf_below = frozen_expurgation_terms(design.joint.probs,
                                                           ch)
    if rate < inf_below:
        return float("inf")

    def objective(rho):
        kernel = float(np.sum(wl * np.exp(logb / rho)))
        return -rho * rate - rho * np.log(kernel)

    k = int(np.argmax(-RHO_GRID * rate - RHO_GRID * np.log(powers @ wl)))
    lo = RHO_GRID[max(k - 1, 0)]
    hi = RHO_GRID[min(k + 1, RHO_GRID_POINTS - 1)]
    return frozen_maximize_1d(objective, lo, hi, tol=1e-9)[1]


def frozen_expurgated_exponent(rate, design, ch):
    """The scalar expurgated exponent: the golden section at positive rates
    and, at rate 0, the one evaluation at RHO_CAP with log B clipped at 0
    and the kernel sum divided by its mass."""
    if rate > 0:
        return frozen_golden_section(rate, design, ch)
    wl, logb, _, inf_below = frozen_expurgation_terms(design.joint.probs, ch)
    if rate < inf_below:
        return float("inf")
    kernel = float(np.sum(wl * np.exp(np.minimum(logb, 0.0) / RHO_CAP)))
    return -RHO_CAP * np.log(kernel / float(np.sum(wl))) + 0.0


def close_to_golden(values, designs, ch) -> None:
    """Rate-0 values within 1e-11 of the frozen golden section, infinite
    exactly where it is."""
    golden = np.array([frozen_golden_section(0.0, d, ch) for d in designs])
    values = np.asarray(values)
    assert np.array_equal(np.isinf(values), np.isinf(golden))
    finite = np.isfinite(golden)
    assert np.all(np.abs(values[finite] - golden[finite]) <= 1e-11)


def joints(designs) -> np.ndarray:
    """The (B, |X|, |X|) stack of the designs' joints P_SX."""
    return np.stack([d.joint.probs for d in designs])


class TestLockstepExpurgated:
    """expurgated_exponents on stacks of joints P_SX against the frozen
    scalar refinement and the per-design `expurgated_exponent`, design by
    design and bit for bit."""

    @pytest.mark.parametrize("ch", [CYCLIC3, SPLIT3], ids=["cyclic", "split"])
    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.3, 1.2])
    def test_designs_match_scalar(self, ch, rate):
        rng = np.random.default_rng(int(rate * 100) + len(ch.rows[1].nonzero()[0]))
        designs = [InputDesign.from_matrix((0, 1, 2), row.reshape(3, 3))
                   for row in sparse_rows(rng, 40, 9, 0.4)]
        designs.append(InputDesign.from_matrix((0, 1, 2), np.eye(3) / 3))
        values = expurgated_exponents(rate, joints(designs), ch)
        expect = [frozen_expurgated_exponent(rate, d, ch) for d in designs]
        assert values.tolist() == expect
        assert [expurgated_exponent(rate, d, ch) for d in designs] == expect
        if rate == 0.0:
            close_to_golden(values, designs, ch)
        if ch is SPLIT3 and rate == 0.0:
            assert np.isinf(expect).any() and np.isfinite(expect).any()

    def test_binary_designs_match_scalar(self, bsc35):
        rng = np.random.default_rng(3)
        designs = [InputDesign.from_matrix((0, 1), row.reshape(2, 2))
                   for row in sparse_rows(rng, 30, 4, 0.3)]
        for rate in (0.0, 0.1):
            values = expurgated_exponents(rate, joints(designs), bsc35)
            expect = [frozen_expurgated_exponent(rate, d, bsc35)
                      for d in designs]
            assert values.tolist() == expect
            assert [expurgated_exponent(rate, d, bsc35)
                    for d in designs] == expect
        close_to_golden(expurgated_exponents(0.0, joints(designs), bsc35),
                        designs, bsc35)

    @pytest.mark.parametrize("ch", [CYCLIC3, SPLIT3], ids=["cyclic", "split"])
    def test_terms_equal_frozen_per_design(self, ch):
        rng = np.random.default_rng(17)
        p_sx = np.concatenate([sparse_rows(rng, 60, 9, 0.4),
                               np.eye(3).reshape(1, 9) / 3]).reshape(-1, 3, 3)
        groups, inf_below = _expurgation_terms(p_sx, ch)
        assert len(groups) > 3 and np.isinf(inf_below).any()
        at_zero = _rho_grids(groups, len(p_sx))
        packed = {b: (wl[i], logb[i]) for rows, (wl, logb) in groups
                  for i, b in enumerate(rows)}
        assert sorted(packed) == list(range(len(p_sx)))
        for b, joint in enumerate(p_sx):
            f_wl, f_logb, f_powers, f_inf = frozen_expurgation_terms(joint, ch)
            assert inf_below[b] == f_inf
            assert np.array_equal(packed[b][0], f_wl)
            assert np.array_equal(packed[b][1], f_logb)
            # the rho grid at rate 0 as one design alone scored it
            assert np.array_equal(
                at_zero[b], -RHO_GRID * np.log((f_powers @ f_wl[:, None])[:, 0]))

    def test_more_designs_than_a_rho_block(self, bsc35):
        rng = np.random.default_rng(29)
        p_sx = sparse_rows(rng, 3 * RHO_BLOCK + 5, 4, 0.2).reshape(-1, 2, 2)
        groups = _expurgation_terms(p_sx, bsc35)[0]
        assert max(len(rows) for rows, _ in groups) > RHO_BLOCK
        values = expurgated_exponents(0.05, p_sx, bsc35)
        designs = [InputDesign.from_matrix((0, 1), joint) for joint in p_sx]
        assert values.tolist() == [
            frozen_expurgated_exponent(0.05, d, bsc35) for d in designs]

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
        close_to_golden([got], [design], ch)


class TestZeroRate:
    """E_x(0) as one evaluation at RHO_CAP: the objective at rate 0 is
    non-decreasing in rho, the cap value is the mpmath value there, and it
    is exactly 0, never -0.0, on useless and one-input channels."""

    @given(seed=st.integers(0, 2**32 - 1), n_x=st.integers(2, 3),
           n_y=st.integers(2, 4))
    def test_rho_grid_never_falls(self, seed, n_x, n_y):
        rng = np.random.default_rng(seed)
        ch = Channel(tuple(range(n_x)), tuple(range(n_y)),
                     sparse_rows(rng, n_x, n_y, 0.3))
        p_sx = sparse_rows(rng, 20, n_x * n_x, 0.4).reshape(-1, n_x, n_x)
        groups, inf_below = _expurgation_terms(p_sx, ch)
        at_zero = _rho_grids(groups, len(p_sx))
        fall = np.maximum.accumulate(at_zero, axis=1) - at_zero
        assert fall.max() <= 1e-11
        # the grid's last point is RHO_CAP, where rate 0 takes its value
        values = expurgated_exponents(0.0, p_sx, ch)
        finite = np.isfinite(values)
        assert np.all(values[~finite] == np.inf)
        assert np.all(inf_below[~finite] > 0)
        assert np.all(np.abs(values[finite] - at_zero[finite, -1]) <= 1e-11)
        assert np.all(values[finite] >= 0.0)

    def test_cap_value_matches_mpmath(self, bsc35):
        value, design = expurgated_exponent_opt(0.0, bsc35)
        pxs = _input_given_state(design.joint.probs)
        w = (pxs.T * design.joint.probs.sum(axis=1)) @ pxs
        b = bhattacharyya_kernel(bsc35)
        with mpmath.workdps(50):
            pairs = [(mpmath.mpf(float(wi)), mpmath.mpf(float(bi)))
                     for wi, bi in zip(w.reshape(-1), b.reshape(-1)) if wi > 0]
            cap = mpmath.mpf(RHO_CAP)
            at_cap = -cap * mpmath.log(sum(wi * bi ** (1 / cap)
                                           for wi, bi in pairs))
            limit = -sum(wi * mpmath.log(bi) for wi, bi in pairs)
            assert abs(value - at_cap) <= 1e-12
            # the rho -> inf limit lies above the cap (ROADMAP item 5)
            gap = limit - at_cap
            assert 2.7e-8 < gap < 2.9e-8

    @pytest.mark.parametrize("rows", [[[0.5, 0.5], [0.5, 0.5]], [[0.3, 0.7]],
                                      [[0.2, 0.3, 0.5]] * 3],
                             ids=["useless-bsc", "one-input", "identical3"])
    def test_exactly_zero_without_information(self, rows):
        n_x = len(rows)
        ch = Channel(tuple(range(n_x)), tuple(range(len(rows[0]))), rows)
        value, _ = expurgated_exponent_opt(0.0, ch, grid_resolution=4)
        assert_bit_equal(float(value), 0.0)
        rng = np.random.default_rng(5)
        p_sx = rng.dirichlet(np.ones(n_x * n_x), 16).reshape(-1, n_x, n_x)
        assert all(repr(v) == "0.0" for v in
                   expurgated_exponents(0.0, p_sx, ch).tolist())


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
        # X = S with uniform S
        design = InputDesign.from_matrix((0, 1), np.eye(2) / 2)
        assert theta_bounds(design, bsc35) == (0.0, 0.0)

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
            ps = design.joint.probs.sum(axis=1)
            pys = _input_given_state(design.joint.probs) @ ch.rows
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
        pys = _input_given_state(self.DESIGN.joint.probs) @ bsc35.rows
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
            chan = bsc35 if len(design.joint.probs) == 2 else ch
            tl, tu = theta_bounds(design, chan)
            # the bounds are +inf where a state's outputs leave a row's support
            thetas = np.linspace(max(-tl, -3.0), min(tu, 3.0), 33)
            values = special_message_exponent(design, chan, thetas)
            assert values.tolist() == [
                special_message_exponent(design, chan, float(t)) for t in thetas]
            outside = tu + 0.01 if np.isfinite(tu) else np.nan
            with pytest.raises(DomainError):
                special_message_exponent(design, chan, np.append(thetas, outside))


    def test_equals_frozen_state_loop(self):
        """`theta_bounds` and `special_message_exponent`, one-design cases of
        the stacked kernels, against the per-state loop they replaced: bit
        for bit and type for type, at scalar and array theta, on random
        channels with zero entries and designs with zero-weight states."""
        rng = np.random.default_rng(43)
        checked = 0
        for _, rows in divergence_channels(43, count=40):
            n, m = rows.shape
            ch = Channel(range(n), range(m), rows)
            for _ in range(3):
                design = InputDesign.from_matrix(
                    range(n), random_weights(rng, n * n).reshape(n, n))
                bounds = theta_bounds(design, ch)
                for got, expect in zip(bounds, frozen_theta_bounds(design, ch),
                                       strict=True):
                    assert_bit_equal(got, expect)
                tl, tu = bounds
                if not np.isfinite(tu):
                    continue
                lo = -tl if np.isfinite(tl) else -2.0
                thetas = np.concatenate([np.linspace(lo, tu, 7),
                                         rng.uniform(lo, tu, 4)])
                for theta in [float(t) for t in thetas] + [thetas]:
                    got = special_message_exponent(design, ch, theta)
                    expect = frozen_special_message_exponent(design, ch, theta)
                    assert type(got) is type(expect)
                    assert np.asarray(got).tobytes() == np.asarray(
                        expect).tobytes()
                checked += 1
        assert checked > 40


def mp_special_message(design, ch, theta) -> mpmath.mpf:
    """sum_s P(s) sup_lam [lam theta - log sum_y P(y|s) e^(lam f_s(y))] in
    mpmath, with f_s(y) = log W(y|s) - log P(y|s).

    A -inf score (W(y|s) = 0) confines lam to lam > 0, where its atom drops
    out, so such a state's sup is the larger of the lam -> 0+ value
    -log(finite mass) and the stationary point. The stationary point of the
    concave objective is bisected in lam, after doubling a bracket until
    the tilted mean straddles theta. Beyond the end of a state's score range
    the supremum is +inf; there the state takes, as `conjugate` does, its
    value at that end: -log of the mass of the atoms that attain it."""
    probs = [[mpmath.mpf(float(v)) for v in row] for row in design.joint.probs]
    w = [[mpmath.mpf(float(v)) for v in row] for row in ch.rows]
    theta = mpmath.mpf(float(theta))
    total = mpmath.mpf(0)
    for s, row in enumerate(probs):
        ps = sum(row)
        if ps == 0:
            continue
        pys = [sum(row[x] / ps * w[x][y] for x in range(len(row)))
               for y in range(len(w[0]))]
        atoms = [(pys[y], mpmath.log(w[s][y] / pys[y]))
                 for y in range(len(pys)) if pys[y] > 0 and w[s][y] > 0]
        floored = any(pys[y] > 0 and w[s][y] == 0 for y in range(len(pys)))
        top, bottom = (ext(f for _, f in atoms) for ext in (max, min))

        def psi(lam):
            return mpmath.log(sum(p * mpmath.exp(lam * f) for p, f in atoms))

        def mean(lam):
            z = [p * mpmath.exp(lam * f) for p, f in atoms]
            return sum(zi * f for zi, (_, f) in zip(z, atoms)) / sum(z)

        if theta >= top or (theta <= bottom and not floored):
            end = top if theta >= top else bottom
            best = -mpmath.log(sum(p for p, f in atoms if f == end))
        elif floored and mean(0) >= theta:
            best = -psi(0)  # the lam -> 0+ edge
        else:
            lo, hi = mpmath.mpf(0 if floored else -1), mpmath.mpf(1)
            while mean(hi) < theta:
                hi *= 2
            while mean(lo) > theta:
                lo *= 2
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if mean(mid) < theta else (lo, mid)
            best = theta * lo - psi(lo)
        total += ps * best
    return total


@pytest.mark.parametrize("ch, p_sx", [
    (Channel.bsc(0.35), [[0.0, 0.25], [0.25, 0.5]]),
    (Channel.bsc(0.1), [[0.45, 0.05], [0.05, 0.45]]),
    (Channel(range(3), range(3), [[0.8, 0.2, 0.0], [0.1, 0.7, 0.2],
                                  [0.3, 0.3, 0.4]]),
     [[0.2, 0.1, 0.0], [0.1, 0.2, 0.1], [0.0, 0.1, 0.2]]),
], ids=["bsc35", "bsc10", "ternary-neg-inf"])
def test_special_message_matches_mpmath(ch, p_sx):
    """The special-message exponent at 9 thetas from -theta_l (or -1 where
    theta_l = inf) to theta_u, against the definition at 40 digits."""
    design = InputDesign.from_matrix(ch.input_alphabet, p_sx)
    tl, tu = theta_bounds(design, ch)
    thetas = np.linspace(-tl if np.isfinite(tl) else -1.0, tu, 9)
    values = special_message_exponent(design, ch, thetas)
    with mpmath.workdps(40):
        for theta, value in zip(thetas, values, strict=True):
            assert abs(value - mp_special_message(design, ch, theta)) <= 1e-12


@pytest.mark.parametrize("evaluate", [
    theta_bounds,
    lambda design, ch: special_message_exponent(design, ch, 0.0),
], ids=["theta_bounds", "special_message_exponent"])
@pytest.mark.parametrize("design, ch", [
    # the right size, relabelled: once computed silently
    (InputDesign.from_matrix(("a", "b"), np.full((2, 2), 0.25)),
     Channel.bsc(0.1)),
    # the wrong size: once an untyped numpy shape error from matmul
    (UNIFORM2, CYCLIC3),
], ids=["relabelled", "two-inputs-on-three"])
def test_design_alphabet_checked(evaluate, design, ch):
    with pytest.raises(InputError, match="design alphabet"):
        evaluate(design, ch)
