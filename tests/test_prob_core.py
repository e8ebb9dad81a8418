import numpy as np
import pytest
from hypothesis import given, strategies as st

from errexp import (Channel, InputError, JointPmf, Pmf, capacity,
                    kl_divergence)
from errexp.prob_core import (conditional_kl_arrays, conditional_kl_rows,
                              kl_array, kl_row_groups, kl_rows,
                              live_groups, mutual_information_arrays,
                              mutual_information_rows)
from conftest import (assert_bit_equal, divergence_channels, frozen_kl_array,
                      frozen_mutual_information, random_pmf, random_weights,
                      row_pmf, sparse_rows)


def frozen_conditional_kl(p_rows, q_rows, px) -> float:
    """The hand loop that `conditional_kl_arrays` replaced."""
    total = 0.0
    for i, w in enumerate(px):
        if w == 0:
            continue
        d = frozen_kl_array(p_rows[i], q_rows[i])
        if np.isinf(d):
            return float("inf")
        total += w * d
    return total


def binary_entropy(p: float) -> float:
    return -p * np.log(p) - (1 - p) * np.log(1 - p)


def product_joint(row: Pmf, col: Pmf) -> JointPmf:
    return JointPmf(row.alphabet, col.alphabet, np.outer(row.probs, col.probs))


class TestPmf:
    def test_rejects_bad_vectors(self):
        with pytest.raises(InputError):
            Pmf((0, 1), [0.6, 0.6])
        with pytest.raises(InputError):
            Pmf((0, 1), [1.2, -0.2])
        with pytest.raises(InputError):
            Pmf((0, 0), [0.5, 0.5])

    def test_accessors(self):
        p = Pmf(("a", "b"), [0.3, 0.7])
        assert p.alphabet == ("a", "b") and p.probs.tolist() == [0.3, 0.7]
        assert len(p) == 2
        assert not p.probs.flags.writeable


class TestJointPmf:
    def test_marginals_are_valid(self):
        j = JointPmf((0, 1), ("x", "y"), [[0.1, 0.2], [0.3, 0.4]])
        assert j.row_marginal().probs.tolist() == pytest.approx([0.3, 0.7])
        assert j.col_marginal().probs.tolist() == pytest.approx([0.4, 0.6])

    def test_product_and_flatten(self):
        j = product_joint(Pmf((0, 1), [0.5, 0.5]), Pmf((0, 1), [0.2, 0.8]))
        assert mutual_information_arrays(j.probs) == 0.0
        flat = j.flatten()
        assert flat.alphabet == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestChannel:
    def test_row_stochastic_enforced(self):
        with pytest.raises(InputError):
            Channel((0, 1), (0, 1), [[0.5, 0.4], [0.5, 0.5]])

    def test_absolute_continuity_flag(self):
        assert Channel.bsc(0.35).violating_row_pair() is None
        ident = Channel((0, 1), (0, 1), np.eye(2))
        assert ident.violating_row_pair() == (0, 1)
        three = Channel((0, 1, 2), (0, 1, 2),
                        [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0], [0.1, 0.1, 0.8]])
        assert three.violating_row_pair() == (0, 2)

    def test_pair_scores(self):
        ch = Channel((0, 1), (0, 1, 2), [[0.5, 0.5, 0.0], [0.25, 0.0, 0.75]])
        s = ch.pair_scores
        assert s.shape == (2, 2, 3)
        assert s[0, 1].tolist() == [np.log(0.25) - np.log(0.5), -np.inf, np.inf]
        assert s[1, 0].tolist() == [np.log(0.5) - np.log(0.25), np.inf, -np.inf]
        assert s[0, 0].tolist() == [0.0, 0.0, 0.0]
        assert s[1, 1].tolist() == [0.0, 0.0, 0.0]


class TestKlDivergence:
    def test_identity_is_zero(self):
        p = Pmf((0, 1), [0.4, 0.6])
        assert kl_divergence(p, p) == 0.0

    def test_bernoulli_half_vs_quarter(self):
        p = Pmf((0, 1), [0.5, 0.5])
        q = Pmf((0, 1), [0.25, 0.75])
        expect = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        assert kl_divergence(p, q) == pytest.approx(expect, abs=1e-12)

    def test_support_conventions(self):
        point = Pmf((0, 1), [1.0, 0.0])
        half = Pmf((0, 1), [0.5, 0.5])
        assert kl_divergence(point, half) == pytest.approx(np.log(2.0))
        assert kl_divergence(half, point) == float("inf")

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            kl_divergence(Pmf((0, 1), [0.5, 0.5]), Pmf(("a", "b"), [0.5, 0.5]))

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = random_pmf(rng, 3)
            q = random_pmf(rng, 3)
            assert kl_divergence(p, q) >= 0.0
            assert kl_divergence(p, p) == 0.0
            if np.max(np.abs(p.probs - q.probs)) > 1e-3:
                assert kl_divergence(p, q) > 0.0


class TestConditionalKl:
    """conditional_kl_arrays, sum_x px(x) D(p(.|x) || q(.|x)), on channel
    rows."""

    def test_identical_channels(self, bsc35):
        assert conditional_kl_arrays(np.array([0.5, 0.5]), bsc35.rows,
                                     bsc35.rows) == 0.0

    def test_point_mass_degenerates(self, bsc35):
        other = Channel.bsc(0.2)
        expect = kl_divergence(row_pmf(bsc35, 0), row_pmf(other, 0))
        assert conditional_kl_arrays(np.array([1.0, 0.0]), bsc35.rows,
                                     other.rows) == pytest.approx(expect)

    def test_weighted_two_row_case(self, bsc35):
        other = Channel.bsc(0.1)
        px = np.array([0.3, 0.7])
        expect = sum(px[i] * kl_divergence(row_pmf(bsc35, i), row_pmf(other, i))
                     for i in range(2))
        assert conditional_kl_arrays(px, bsc35.rows, other.rows) == \
            pytest.approx(expect, abs=1e-12)

    def test_matches_brute_force_4x4(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.dirichlet(np.ones(4), size=4)
            b = rng.dirichlet(np.ones(4), size=4)
            px = random_pmf(rng, 4).probs
            brute = sum(px[i] * np.sum(a[i] * np.log(a[i] / b[i]))
                        for i in range(4))
            assert conditional_kl_arrays(px, a, b) == pytest.approx(
                brute, abs=1e-12)


class TestMutualInformation:
    def test_product_is_zero(self):
        j = product_joint(Pmf((0, 1), [0.3, 0.7]), Pmf((0, 1), [0.6, 0.4]))
        assert mutual_information_arrays(j.probs) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation(self):
        j = JointPmf((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information_arrays(j.probs) == pytest.approx(np.log(2.0))

    def test_doubly_symmetric_binary_source(self):
        eps = 0.1
        j = JointPmf((0, 1), (0, 1),
                     [[(1 - eps) / 2, eps / 2], [eps / 2, (1 - eps) / 2]])
        assert mutual_information_arrays(j.probs) == pytest.approx(
            np.log(2.0) - binary_entropy(eps), abs=1e-12)

    def test_equals_kl_against_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(6)).reshape(2, 3)
            j = JointPmf((0, 1), (0, 1, 2), probs)
            prod = product_joint(j.row_marginal(), j.col_marginal())
            assert mutual_information_arrays(j.probs) == pytest.approx(
                kl_divergence(j.flatten(), prod.flatten()), abs=1e-12)


@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(0, 12),
       width=st.integers(1, 12), live_frac=st.floats(0.0, 1.0))
def test_live_groups_pack_each_row_alone(seed, n_rows, width, live_frac):
    """The groups partition the rows with a live entry, their counts
    ascend, and each packed row is the row's live entries in order, for
    every array passed (one broadcast from a single row)."""
    rng = np.random.default_rng(seed)
    live = rng.random((n_rows, width)) < live_frac
    a = rng.normal(size=(n_rows, width))
    b = rng.integers(0, 100, size=width)
    groups = list(live_groups(live, a, b))
    rows = np.concatenate([r for r, _ in groups] + [np.empty(0, dtype=int)])
    assert sorted(rows.tolist()) == np.flatnonzero(live.any(axis=1)).tolist()
    counts = [packed[0].shape[1] for _, packed in groups]
    assert counts == sorted(set(counts)) and 0 not in counts
    for group_rows, (pa, pb) in groups:
        assert pa.dtype == a.dtype and pb.dtype == b.dtype
        for i, row in enumerate(group_rows):
            assert pa[i].tolist() == a[row][live[row]].tolist()
            assert pb[i].tolist() == b[live[row]].tolist()


class TestRowWiseForms:
    """kl_rows and mutual_information_rows equal the frozen scalar bodies bit
    for bit; rows of 8 or more entries reach numpy's pairwise summation."""

    @pytest.mark.parametrize("size", [1, 2, 4, 7, 8, 9, 12, 16, 20])
    def test_kl_rows_equals_kl_array(self, size):
        rng = np.random.default_rng(size)
        for trial in range(40):
            p = sparse_rows(rng, int(rng.integers(1, 9)), size)
            shared = sparse_rows(rng, 1, size, zero_frac=0.15)[0]
            per_row = sparse_rows(rng, len(p), size, zero_frac=0.15)
            if trial % 4 == 0:
                p[:] = p[0]  # one support shared by every row
            got_shared, got_rows = kl_rows(p, shared), kl_rows(p, per_row)
            for b in range(len(p)):
                assert got_shared[b] == frozen_kl_array(p[b], shared)
                assert got_rows[b] == frozen_kl_array(p[b], per_row[b])
                assert_bit_equal(kl_array(p[b], per_row[b]),
                                 frozen_kl_array(p[b], per_row[b]))

    def test_kl_rows_off_support_and_empty(self):
        p = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0]])
        q = np.array([0.5, 0.5, 0.0])
        got = kl_rows(p, q)
        assert got[0] == 0.0 and got[1] == np.inf and got[2] == np.log(2.0)
        assert kl_rows(np.empty((0, 3)), q).shape == (0,)

    @pytest.mark.parametrize("size", [2, 6, 8, 12, 20])
    def test_kl_rows_zero_padding_keeps_bits(self, size):
        """Zero-p columns appended to a stack, with any q under them, leave
        every row's divergence bit for bit: stacks of one support and of
        many, rows summed one term at a time (under 8 live terms) and
        pairwise (8 or more), and rows off q's support. `kl_row_groups` pads
        stacks of several widths into one call on this property."""
        rng = np.random.default_rng(100 + size)
        shared, long_rows, values = set(), set(), set()
        for trial in range(40):
            p = sparse_rows(rng, int(rng.integers(1, 9)), size)
            q = sparse_rows(rng, len(p), size, zero_frac=0.15)
            if trial % 2 == 0:
                p[:] = p[0]  # one support shared by every row
            pad = int(rng.integers(1, 5))
            padded_p = np.hstack([p, np.zeros((len(p), pad))])
            padded_q = np.hstack([q, rng.choice([0.0, 0.4, 1.0], (len(p), pad))])
            got, expect = kl_rows(padded_p, padded_q), kl_rows(p, q)
            for b in range(len(p)):
                assert_bit_equal(float(got[b]), float(expect[b]))
                assert got[b] == frozen_kl_array(p[b], q[b])
            mask = p > 0
            shared.add(bool((mask == mask[0]).all()))
            long_rows |= set((mask.sum(axis=1) >= 8).tolist())
            values |= {bool(np.isfinite(v)) for v in got}
        assert shared == values == {True, False}
        assert (True in long_rows) == (size >= 8)

    def test_kl_row_groups_equals_separate_calls(self):
        rng = np.random.default_rng(71)
        pairs = [(sparse_rows(rng, 5, 6), sparse_rows(rng, 5, 6, 0.15)),
                 (sparse_rows(rng, 3, 2), sparse_rows(rng, 1, 2)[0]),
                 (np.empty((0, 4)), np.empty((0, 4))),
                 (sparse_rows(rng, 4, 11), sparse_rows(rng, 4, 11, 0.15))]
        got = kl_row_groups(pairs)
        assert len(got) == len(pairs)
        for div, (p, q) in zip(got, pairs):
            expect = kl_rows(p, q)
            assert div.shape == expect.shape
            for a, b in zip(div, expect):
                assert_bit_equal(float(a), float(b))

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)])
    def test_mutual_information_rows(self, shape):
        rng = np.random.default_rng(sum(shape))
        joints = sparse_rows(rng, 50, shape[0] * shape[1]).reshape(-1, *shape)
        got = mutual_information_rows(joints)
        for b, joint in enumerate(joints):
            expect = frozen_mutual_information(joint)
            assert got[b] == expect
            assert_bit_equal(mutual_information_arrays(joint), expect)


class TestConditionalKlArrays:
    """conditional_kl_arrays against the frozen hand loop, bit for bit, on
    random channels with 2-5 inputs."""

    def test_equals_frozen_loop(self):
        rng = np.random.default_rng(17)
        seen = set()
        for kind, rows in divergence_channels(17):
            n, m = rows.shape
            px = random_weights(rng, n)
            for other in (rows[::-1], sparse_rows(rng, n, m, 0.35)):
                for p_rows, q_rows in ((rows, other), (other, rows)):
                    expect = frozen_conditional_kl(p_rows, q_rows, px)
                    got = conditional_kl_arrays(px, p_rows, q_rows)
                    if np.isfinite(expect):
                        assert_bit_equal(got, expect)
                    else:  # the hand loop returns a Python float +inf
                        assert got == np.inf
                    seen.add((kind, bool(np.isinf(expect))))
        assert {(k, True) for k in ("sparse", "disjoint")} <= seen
        assert {(k, False) for k in ("dense", "identical")} <= seen

    def test_zero_weight_beside_infinite_divergence(self):
        p = np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.2, 0.3, 0.5]])
        q = np.array([[0.4, 0.6, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]])
        w = np.array([0.25, 0.0, 0.75])  # row 1 is off q's support: D = +inf
        expect = frozen_conditional_kl(p, q, w)
        assert np.isfinite(expect)
        assert_bit_equal(conditional_kl_arrays(w, p, q), expect)
        assert conditional_kl_arrays(np.array([0.25, 0.5, 0.25]), p, q) == np.inf

    def test_stacked_kernel_equals_frozen_loop(self):
        """conditional_kl_rows over stacks of problems equals the frozen hand
        loop problem by problem, bit for bit: zero weights, off-support
        atoms (+inf divergences) with and without a weight, and problems of
        8 or more components."""
        rng = np.random.default_rng(23)
        seen = set()
        for _ in range(80):
            b, k = int(rng.integers(1, 7)), int(rng.integers(1, 12))
            n = int(rng.integers(2, 10))
            w = np.stack([random_weights(rng, k) for _ in range(b)])
            p = sparse_rows(rng, b * k, n).reshape(b, k, n)
            q = sparse_rows(rng, b * k, n, 0.2).reshape(b, k, n)
            got = conditional_kl_rows(w, p, q)
            assert got.shape == (b,)
            for i in range(b):
                expect = frozen_conditional_kl(p[i], q[i], w[i])
                if np.isfinite(expect):
                    assert_bit_equal(got[i], expect)
                else:  # the hand loop returns a Python float +inf
                    assert got[i] == np.inf
                off = [frozen_kl_array(p[i, j], q[i, j]) == np.inf
                       for j in range(k)]
                seen.add((bool(np.isinf(expect)),
                          any(o and w[i, j] == 0 for j, o in enumerate(off))))
            # the one-problem form is its one-row case
            assert_bit_equal(conditional_kl_arrays(w[0], p[0], q[0]), got[0])
        assert seen == {(False, False), (False, True), (True, False),
                        (True, True)}

    def test_sums_in_row_order_past_eight_terms(self):
        # numpy's own sum regroups 9 or more terms; the hand loop adds them
        # one at a time, and so must the array form
        rng = np.random.default_rng(4)
        regrouped = 0
        for _ in range(200):
            p, q = sparse_rows(rng, 12, 3, 0.0), sparse_rows(rng, 12, 3, 0.0)
            w = rng.dirichlet(np.ones(12))
            expect = 0.0
            for k in range(12):
                expect += w[k] * frozen_kl_array(p[k], q[k])
            assert_bit_equal(conditional_kl_arrays(w, p, q), expect)
            regrouped += np.sum(w * kl_rows(p, q)) != expect
        assert regrouped > 0


class TestCapacity:
    def test_useless_channel(self):
        assert capacity(Channel.bsc(0.5)) == pytest.approx(0.0, abs=1e-9)

    def test_identity_channel(self):
        ident = Channel((0, 1), (0, 1), np.eye(2))
        assert capacity(ident) == pytest.approx(np.log(2.0), abs=1e-9)

    def test_bsc_closed_form(self, bsc35):
        expect = np.log(2.0) - binary_entropy(0.35)
        assert capacity(bsc35) == pytest.approx(expect, abs=1e-8)

    def test_dominates_every_input(self, bsc35):
        rng = np.random.default_rng(9)
        cap = capacity(bsc35)
        for _ in range(100):
            px = random_pmf(rng, 2, floor=0.0)
            joint = JointPmf((0, 1), (0, 1), px.probs[:, None] * bsc35.rows)
            assert mutual_information_arrays(joint.probs) <= cap + 1e-9

    def test_identical_rows_is_zero(self):
        ch = Channel((0, 1), (0, 1), [[0.3, 0.7], [0.3, 0.7]])
        assert capacity(ch) == pytest.approx(0.0, abs=1e-12)

    def test_z_channel_closed_form(self):
        """Input 1 flips to 0 with probability p: not symmetric, so the
        uniform start is not optimal and the input law is updated;
        C = log(1 + (1 - p) p^(p / (1 - p)))."""
        p = 0.3
        assert np.log(1 + (1 - p) * p ** (p / (1 - p))) == pytest.approx(
            0.3491326435657887, abs=1e-15)
        ch = Channel((0, 1), (0, 1), [[1.0, 0.0], [p, 1 - p]])
        assert capacity(ch) == pytest.approx(0.3491326435657887, abs=1e-9)

    def test_asymmetric_three_inputs_vs_dense_grid(self):
        """The maximum of I(X;Y) over a grid of step 1/400 on the input
        simplex lies within 1e-6 below the capacity, and never above it."""
        rows = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.25, 0.25, 0.5]])
        cap = capacity(Channel((0, 1, 2), (0, 1, 2), rows))
        n = 400
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
        keep = i + j <= n
        px = np.stack([i[keep], j[keep], n - i[keep] - j[keep]], axis=1) / n
        grid = mutual_information_rows(px[:, :, None] * rows).max()
        assert grid <= cap + 1e-12
        assert cap - grid < 1e-6

