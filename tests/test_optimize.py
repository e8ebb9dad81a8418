from math import comb

import numpy as np
import pytest

from errexp import Pmf, ScoredPmf, tilted_mean
from errexp.exceptions import BracketError
from errexp.optimize import (GridSpec, bisect_monotone, grid_then_pattern,
                             maximize_1d, pattern_search, simplex_grid,
                             simplex_grid_array)


class TestBisectMonotone:
    def test_linear_root(self):
        assert bisect_monotone(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0)

    def test_tilted_mean_root_vs_dense_grid(self):
        sp = ScoredPmf(Pmf((0, 1), [0.3, 0.7]), np.array([-1.0, 2.0]))
        theta = 0.5
        root = bisect_monotone(lambda lam: tilted_mean(sp, lam) - theta,
                               -20.0, 20.0, tol=1e-12)
        lams = np.arange(-20.0, 20.0, 1e-5)
        p, f = sp.effective()
        w = p[None, :] * np.exp(lams[:, None] * f[None, :])
        means = (w * f[None, :]).sum(axis=1) / w.sum(axis=1)
        dense = lams[np.argmin(np.abs(means - theta))]
        assert root == pytest.approx(dense, abs=1e-4)
        assert tilted_mean(sp, root) == pytest.approx(theta, abs=1e-8)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            bisect_monotone(lambda x: x + 1.0, 0.0, 2.0)

    def test_relative_width_stop(self):
        calls = []

        def g(x):
            calls.append(x)
            return x - 1234567.891

        root = bisect_monotone(g, 1e6, 2e6, tol=0.0, xtol=1e-9)
        assert abs(root - 1234567.891) <= 1e-9 * root
        # two ends, then 31 midpoints: the 31st sits in a bracket of width
        # 1e6 / 2**30 < 1e-9 * 1.23e6, long before max_iter = 200
        assert len(calls) == 2 + 31

    def test_max_iter_returns_final_midpoint(self):
        # 0.5 -> hi, 0.25 -> lo, 0.375 -> hi; midpoint of [0.25, 0.375]
        root = bisect_monotone(lambda x: x - 1.0 / 3.0, 0.0, 1.0, tol=0.0,
                               max_iter=3)
        assert root == 0.3125

    def test_exact_zero_at_an_end(self):
        assert bisect_monotone(lambda x: x, 0.0, 1.0) == 0.0
        assert bisect_monotone(lambda x: x - 1.0, 0.0, 1.0) == 1.0
        # an exact zero wins over a missing sign change
        assert bisect_monotone(lambda x: x * x, 0.0, 1.0) == 0.0

    def test_decreasing_function(self):
        assert bisect_monotone(lambda x: 1.0 / 3.0 - x, 0.0, 1.0, tol=0.0,
                               max_iter=3) == 0.3125
        root = bisect_monotone(lambda x: np.exp(-x) - 0.5, 0.0, 5.0, tol=1e-13)
        assert root == pytest.approx(np.log(2.0), abs=1e-12)


class TestMaximize1d:
    def test_interior_quadratic(self):
        x, v = maximize_1d(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=1e-12)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_monotone_returns_boundary(self):
        x, v = maximize_1d(lambda x: x, 0.0, 2.0)
        assert x == 2.0 and v == 2.0


class TestSimplexGrid:
    def test_dim2_k2(self):
        pts = [p.tolist() for p in simplex_grid(GridSpec(2, 2))]
        assert pts == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]

    def test_dim3_k1_vertices(self):
        pts = [p.tolist() for p in simplex_grid(GridSpec(3, 1))]
        assert pts == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_counts_and_validity(self):
        for d, k in [(3, 4), (2, 7), (4, 3)]:
            pts = list(simplex_grid(GridSpec(d, k)))
            assert len(pts) == comb(k + d - 1, d - 1)
            for p in pts:
                assert np.all(p >= 0) and p.sum() == pytest.approx(1.0)

    def test_array_form_is_cached_and_frozen(self):
        a = simplex_grid_array(3, 4)
        assert a is simplex_grid_array(3, 4)
        assert a.shape == (15, 3)
        assert not a.flags.writeable


class TestPatternSearch:
    def test_concave_quadratic_on_simplex(self):
        target = np.array([0.6, 0.3, 0.1])

        def f(blocks):
            return -float(np.sum((blocks[0] - target) ** 2))

        x, v = pattern_search(f, [np.full(3, 1 / 3)], min_step=1e-6)
        assert np.allclose(x[0], target, atol=1e-4)
        assert v == pytest.approx(0.0, abs=1e-7)

    def test_constant_objective_returns_start(self):
        start = np.array([0.25, 0.75])
        x, v = pattern_search(lambda b: 1.0, [start])
        assert v == 1.0
        assert np.allclose(x[0], start)

    def test_never_below_start(self):
        rng = np.random.default_rng(41)
        coef = rng.normal(size=4)

        def f(blocks):
            return float(coef @ blocks[0])

        start = rng.dirichlet(np.ones(4))
        _, v = pattern_search(f, [start])
        assert v >= f([start])


class TestGridThenPattern:
    def test_equal_values_keep_first_candidate(self):
        # constant objective: every candidate ties and no probe improves
        cands = [[np.array([0.0, 1.0])], [np.array([0.5, 0.5])],
                 [np.array([1.0, 0.0])]]
        blocks, v = grid_then_pattern(lambda b: 1.0, cands)
        assert v == 1.0
        assert blocks is cands[0]

    def test_never_below_best_candidate(self):
        rng = np.random.default_rng(43)
        coef = rng.normal(size=3)

        def f(blocks):
            return float(coef @ blocks[0])

        cands = [[p] for p in simplex_grid(GridSpec(3, 4))]
        blocks, v = grid_then_pattern(f, cands, min_step=1e-3)
        assert v >= max(f(c) for c in cands)
        assert v == pytest.approx(f(blocks))

    def test_seeds_only(self):
        target = np.array([0.6, 0.3, 0.1])

        def f(blocks):
            return -float(np.sum((blocks[0] - target) ** 2))

        seeds = [[np.full(3, 1 / 3)], [np.array([1.0, 0.0, 0.0])]]
        blocks, v = grid_then_pattern(f, [], seeds, min_step=1e-6)
        assert np.allclose(blocks[0], target, atol=1e-4)
        assert v == pytest.approx(0.0, abs=1e-7)

    def test_nothing_to_search(self):
        assert grid_then_pattern(lambda b: 0.0, []) == (None, -np.inf)
