from math import comb

import numpy as np
import pytest

from errexp import Pmf, ScoredPmf, tilted_mean
from errexp.exceptions import BracketError, InputError
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


def frozen_pattern_search(f, start, step=0.25, min_step=1e-4, min_improve=0.0):
    """The probe-by-probe pattern search loop, kept as the reference that the
    batched sweeps must reproduce."""
    def project(v):
        w = np.clip(v, 0.0, None)
        total = w.sum()
        if total <= 0:
            return np.full_like(w, 1.0 / w.size)
        return w / total

    x = [project(np.asarray(b, dtype=float)) for b in start]
    best = f(x)
    while step >= min_step:
        improved = False
        for bi in range(len(x)):
            for ci in range(x[bi].size):
                for sign in (+1.0, -1.0):
                    probe = [b.copy() for b in x]
                    probe[bi][ci] += sign * step
                    probe[bi] = project(probe[bi])
                    val = f(probe)
                    if val > best:
                        if val > best + min_improve:
                            improved = True
                        x, best = probe, val
        if not improved:
            step *= 0.5
    return x, best


def _objectives():
    """(name, objective of a (B, n_blocks, size) probe stack, start): smooth
    random objectives, the same rounded coarsely (ties), with a -inf region,
    and a flat plateau."""
    rng = np.random.default_rng(7)
    cases = []
    for n_blocks, size in [(1, 2), (1, 4), (2, 3), (3, 4), (1, 9)]:
        coef = rng.normal(size=(n_blocks, size))
        target = rng.dirichlet(np.ones(size), size=n_blocks)
        start = list(rng.dirichlet(np.ones(size), size=n_blocks))

        def smooth(p, coef=coef, target=target):
            return (p * coef - 3.0 * (p - target) ** 2).sum(axis=(1, 2))

        def ties(p, smooth=smooth):
            return np.round(smooth(p), 1)

        def walled(p, smooth=smooth):
            return np.where(p[:, 0, 0] > 0.6, -np.inf, smooth(p))

        def plateau(p):
            return np.zeros(len(p))

        shape = f"{n_blocks}x{size}"
        cases += [(f"smooth{shape}", smooth, start),
                  (f"ties{shape}", ties, start),
                  (f"walled{shape}", walled, start),
                  (f"plateau{shape}", plateau, start)]
    return cases


class TestBatchedPatternSearch:
    """pattern_search with and without f_many against the frozen loop."""

    @pytest.mark.parametrize("min_improve", [0.0, 1e-3])
    @pytest.mark.parametrize("name,many,start", _objectives(),
                             ids=[c[0] for c in _objectives()])
    def test_same_result_probe_order_and_calls(self, name, many, start,
                                               min_improve):
        kw = dict(step=0.25, min_step=1e-3, min_improve=min_improve)
        calls = {"frozen": [], "lazy": [], "start": [], "batches": []}

        def scalar(key):
            def f(blocks):
                probe = np.stack(blocks)
                calls[key].append(probe)
                return float(many(probe[None])[0])
            return f

        def f_many(probes):
            assert probes.ndim == 3 and probes.shape[1:] == np.shape(start)
            calls["batches"].append(probes.copy())
            return many(probes)

        x0, v0 = frozen_pattern_search(scalar("frozen"), start, **kw)
        x1, v1 = pattern_search(scalar("lazy"), start, **kw)
        x2, v2 = pattern_search(scalar("start"), start, f_many=f_many, **kw)
        assert v0 == v1 == v2
        assert np.array_equal(np.stack(x0), np.stack(x1))
        assert np.array_equal(np.stack(x0), np.stack(x2))
        frozen = np.stack(calls["frozen"])
        # a scalar-only objective sees exactly the frozen loop's calls
        assert np.array_equal(frozen, np.stack(calls["lazy"]))
        # with f_many, f scores only the start; the batches, each cut after
        # its first improving probe, replay the frozen probe order
        assert len(calls["start"]) == 1
        replay, best = calls["start"], many(calls["start"][0][None])[0]
        for stack in calls["batches"]:
            hits = np.flatnonzero(many(stack) > best)
            if hits.size:
                best = many(stack)[hits[0]]
                stack = stack[:hits[0] + 1]
            replay.extend(stack)
        assert np.array_equal(frozen, np.stack(replay))

    def test_ragged_blocks_rejected(self):
        with pytest.raises(InputError):
            pattern_search(lambda b: 0.0, [np.ones(2) / 2, np.ones(3) / 3])


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
