import numpy as np
import pytest

from errexp import (Channel, EmpiricalType, InputError, JointPmf, Pmf,
                    capacity, conditional_kl, empirical_type, kl_divergence,
                    mutual_information)
from conftest import random_pmf


def binary_entropy(p: float) -> float:
    return -p * np.log(p) - (1 - p) * np.log(1 - p)


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
        assert p.prob("b") == 0.7
        assert len(p) == 2
        with pytest.raises(InputError):
            p.index("c")

    def test_point_mass_and_uniform(self):
        assert Pmf.point_mass((0, 1, 2), 1).probs.tolist() == [0.0, 1.0, 0.0]
        assert Pmf.uniform((0, 1)).probs.tolist() == [0.5, 0.5]


class TestJointPmf:
    def test_marginals_are_valid(self):
        j = JointPmf((0, 1), ("x", "y"), [[0.1, 0.2], [0.3, 0.4]])
        assert j.row_marginal().probs.tolist() == pytest.approx([0.3, 0.7])
        assert j.col_marginal().probs.tolist() == pytest.approx([0.4, 0.6])

    def test_product_and_flatten(self):
        j = JointPmf.product(Pmf((0, 1), [0.5, 0.5]), Pmf((0, 1), [0.2, 0.8]))
        assert mutual_information(j) == 0.0
        flat = j.flatten()
        assert flat.alphabet == ((0, 0), (0, 1), (1, 0), (1, 1))


class TestChannel:
    def test_row_stochastic_enforced(self):
        with pytest.raises(InputError):
            Channel((0, 1), (0, 1), [[0.5, 0.4], [0.5, 0.5]])

    def test_absolute_continuity_flag(self):
        assert Channel.bsc(0.35).absolutely_continuous
        ident = Channel((0, 1), (0, 1), np.eye(2))
        assert not ident.absolutely_continuous
        assert ident.violating_row_pair() == (0, 1)

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
    def test_identical_channels(self, bsc35):
        assert conditional_kl(bsc35, bsc35, Pmf((0, 1), [0.5, 0.5])) == 0.0

    def test_point_mass_degenerates(self, bsc35):
        other = Channel.bsc(0.2)
        px = Pmf((0, 1), [1.0, 0.0])
        expect = kl_divergence(bsc35.row_at(0), other.row_at(0))
        assert conditional_kl(bsc35, other, px) == pytest.approx(expect)

    def test_weighted_two_row_case(self, bsc35):
        other = Channel.bsc(0.1)
        px = Pmf((0, 1), [0.3, 0.7])
        expect = sum(px.probs[i] * kl_divergence(bsc35.row_at(i), other.row_at(i))
                     for i in range(2))
        assert conditional_kl(bsc35, other, px) == pytest.approx(expect, abs=1e-12)

    def test_matches_brute_force_4x4(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.dirichlet(np.ones(4), size=4)
            b = rng.dirichlet(np.ones(4), size=4)
            pa = Channel(range(4), range(4), a)
            pb = Channel(range(4), range(4), b)
            px = random_pmf(rng, 4)
            brute = sum(px.probs[i] * np.sum(a[i] * np.log(a[i] / b[i]))
                        for i in range(4))
            assert conditional_kl(pa, pb, px) == pytest.approx(brute, abs=1e-12)


class TestMutualInformation:
    def test_product_is_zero(self):
        j = JointPmf.product(Pmf((0, 1), [0.3, 0.7]), Pmf((0, 1), [0.6, 0.4]))
        assert mutual_information(j) == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation(self):
        j = JointPmf((0, 1), (0, 1), [[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(j) == pytest.approx(np.log(2.0))

    def test_doubly_symmetric_binary_source(self):
        eps = 0.1
        j = JointPmf((0, 1), (0, 1),
                     [[(1 - eps) / 2, eps / 2], [eps / 2, (1 - eps) / 2]])
        assert mutual_information(j) == pytest.approx(
            np.log(2.0) - binary_entropy(eps), abs=1e-12)

    def test_equals_kl_against_product(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(6)).reshape(2, 3)
            j = JointPmf((0, 1), (0, 1, 2), probs)
            prod = JointPmf.product(j.row_marginal(), j.col_marginal())
            assert mutual_information(j) == pytest.approx(
                kl_divergence(j.flatten(), prod.flatten()), abs=1e-12)


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
            assert mutual_information(joint) <= cap + 1e-9

    def test_identical_rows_is_zero(self):
        ch = Channel((0, 1), (0, 1), [[0.3, 0.7], [0.3, 0.7]])
        assert capacity(ch) == pytest.approx(0.0, abs=1e-12)


class TestEmpiricalType:
    def test_basic_counts(self):
        t = empirical_type((0, 1, 1, 0), (0, 1))
        assert t.counts.tolist() == [2, 2] and t.n == 4
        assert t.pmf().probs.tolist() == [0.5, 0.5]

    def test_unseen_symbols_count_zero(self):
        t = empirical_type("aab", "abc")
        assert t.counts.tolist() == [2, 1, 0]

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError):
            empirical_type((), (0, 1))
        with pytest.raises(InputError):
            EmpiricalType((0, 1), [0, 0])

    def test_unknown_symbol_rejected(self):
        with pytest.raises(InputError):
            empirical_type((0, 2), (0, 1))
