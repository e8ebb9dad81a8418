import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from errexp import Pmf, ScoredPmf
from errexp.exceptions import BracketError, InputError
from errexp.optimize import (bisect_monotone, grid_then_pattern,
                             lockstep_pattern_search, maximize_1d,
                             pattern_search, project_rows, simplex_grid,
                             simplex_grid_array)
from conftest import (frozen_bisect_monotone, frozen_maximize_1d,
                      packed_mixture, stacked)


def row(*ends):
    """Each end as a one-element array: one problem for the elementwise
    `bisect_monotone` and `maximize_1d`."""
    return [np.array([end], dtype=float) for end in ends]


class TestBisectMonotone:
    def test_linear_root(self):
        [root] = bisect_monotone(lambda x: x - 1.0, *row(0.0, 2.0))
        assert root == pytest.approx(1.0)

    def test_tilted_mean_root_vs_dense_grid(self):
        sp = ScoredPmf(Pmf((0, 1), [0.3, 0.7]), np.array([-1.0, 2.0]))
        theta = 0.5
        mix = packed_mixture([(1.0, sp.base.probs, sp.scores)])
        [root] = bisect_monotone(
            lambda lam: np.array([mix.tilt(lam[0])[1] - theta]),
            *row(-20.0, 20.0), tol=1e-12)
        lams = np.arange(-20.0, 20.0, 1e-5)
        p, f = sp.base.probs, sp.scores
        w = p[None, :] * np.exp(lams[:, None] * f[None, :])
        means = (w * f[None, :]).sum(axis=1) / w.sum(axis=1)
        dense = lams[np.argmin(np.abs(means - theta))]
        assert root == pytest.approx(dense, abs=1e-4)
        assert mix.tilt(root)[1] == pytest.approx(theta, abs=1e-8)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            bisect_monotone(lambda x: x + 1.0, *row(0.0, 2.0))

    def test_relative_width_stop(self):
        calls = []

        def g(x):
            calls.append(x)
            return x - 1234567.891

        [root] = bisect_monotone(g, *row(1e6, 2e6), tol=0.0, xtol=1e-9)
        assert abs(root - 1234567.891) <= 1e-9 * root
        # two ends, then 31 midpoints: the 31st sits in a bracket of width
        # 1e6 / 2**30 < 1e-9 * 1.23e6, long before max_iter = 200
        assert len(calls) == 2 + 31

    def test_max_iter_returns_final_midpoint(self):
        # 0.5 -> hi, 0.25 -> lo, 0.375 -> hi; midpoint of [0.25, 0.375]
        [root] = bisect_monotone(lambda x: x - 1.0 / 3.0, *row(0.0, 1.0),
                                 tol=0.0, max_iter=3)
        assert root == 0.3125

    def test_exact_zero_at_an_end(self):
        assert bisect_monotone(lambda x: x, *row(0.0, 1.0)) == [0.0]
        assert bisect_monotone(lambda x: x - 1.0, *row(0.0, 1.0)) == [1.0]
        # an exact zero wins over a missing sign change
        assert bisect_monotone(lambda x: x * x, *row(0.0, 1.0)) == [0.0]

    def test_decreasing_function(self):
        assert bisect_monotone(lambda x: 1.0 / 3.0 - x, *row(0.0, 1.0),
                               tol=0.0, max_iter=3) == [0.3125]
        [root] = bisect_monotone(lambda x: np.exp(-x) - 0.5, *row(0.0, 5.0),
                                 tol=1e-13)
        assert root == pytest.approx(np.log(2.0), abs=1e-12)


class TestMaximize1d:
    def test_interior_quadratic(self):
        [x], [v] = maximize_1d(lambda x: -(x - 0.3) ** 2, *row(0.0, 1.0),
                               tol=1e-12)
        assert x == pytest.approx(0.3, abs=1e-6)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_monotone_returns_boundary(self):
        [x], [v] = maximize_1d(lambda x: x, *row(0.0, 2.0))
        assert x == 2.0 and v == 2.0


def _monotone_rows(rng, n):
    """n monotone cubics s * ((x - r)^3 + c (x - r)) with a root r inside
    [lo, hi]; the first rows have their root exactly at lo or at hi."""
    r = rng.uniform(-3.0, 3.0, n)
    lo = r - rng.uniform(0.0, 4.0, n)
    hi = r + rng.uniform(0.0, 4.0, n)
    lo[0], hi[1] = r[0], r[1]
    s = rng.choice([-1.0, 1.0], n)
    c = rng.uniform(0.0, 2.0, n)

    def g(x, rows=slice(None)):
        t = x - r[rows]
        return s[rows] * (t * t * t + c[rows] * t)
    return g, lo, hi


class TestElementwiseBisect:
    """bisect_monotone on stacks against the frozen scalar loop, row by row."""

    @pytest.mark.parametrize("tol,xtol,max_iter", [
        (1e-10, 0.0, 200), (1e-3, 0.0, 200), (0.0, 1e-6, 200),
        (0.0, 0.0, 7), (1e-2, 0.0, 9)])
    def test_rows_match_scalar_loop(self, tol, xtol, max_iter):
        rng = np.random.default_rng(17)
        g, lo, hi = _monotone_rows(rng, 40)
        kw = dict(tol=tol, xtol=xtol, max_iter=max_iter)
        roots = bisect_monotone(g, lo, hi, **kw)
        expect = [frozen_bisect_monotone(lambda x, i=i: float(g(x, i)),
                                         lo[i], hi[i], **kw)
                  for i in range(len(lo))]
        assert roots.tolist() == expect
        # exact zeros at the ends are returned as they are
        assert roots[0] == lo[0] and roots[1] == hi[1]

    def test_rows_stop_at_different_iterations(self):
        rng = np.random.default_rng(19)
        g, lo, hi = _monotone_rows(rng, 30)
        stops = []
        for i in range(len(lo)):
            calls = []

            def gi(x, i=i):
                calls.append(x)
                return float(g(x, i))
            frozen_bisect_monotone(gi, lo[i], hi[i], tol=1e-4)
            stops.append(len(calls))
        assert len(set(stops)) > 3
        roots = bisect_monotone(g, lo, hi, tol=1e-4)
        assert roots.tolist() == [
            frozen_bisect_monotone(lambda x, i=i: float(g(x, i)), lo[i],
                                   hi[i], tol=1e-4) for i in range(len(lo))]

    def test_carried_ends_are_not_recomputed(self):
        rng = np.random.default_rng(23)
        g, lo, hi = _monotone_rows(rng, 8)
        seen = []

        def counted(x):
            seen.append(x.copy())
            return g(x)
        roots = bisect_monotone(counted, lo, hi, glo=g(lo), ghi=g(hi))
        assert roots.tolist() == bisect_monotone(g, lo, hi).tolist()
        assert not any(np.array_equal(x, lo) or np.array_equal(x, hi)
                       for x in seen)

    def test_one_row_matches_scalar_loop(self):
        root = bisect_monotone(lambda x: x - 0.3, *row(0.0, 1.0), tol=1e-12)
        assert root.shape == (1,)
        assert root[0] == frozen_bisect_monotone(lambda x: x - 0.3, 0.0, 1.0,
                                                 tol=1e-12)

    def test_any_row_without_sign_change_raises(self):
        lo, hi = np.array([0.0, 2.0]), np.array([2.0, 3.0])
        with pytest.raises(BracketError):
            bisect_monotone(lambda x: x - 1.0, lo, hi)


def _unimodal_rows(rng, n):
    """n concave quadratics on intervals of widths from 1e-11 to 1e3, with
    peaks inside, at an end, or flat (all ends tie)."""
    lo = rng.uniform(-5.0, 5.0, n)
    hi = lo + 10.0 ** rng.uniform(-11.0, 3.0, n)
    peak = lo + (hi - lo) * rng.uniform(-0.5, 1.5, n)
    curve = rng.uniform(0.0, 3.0, n)
    curve[:3] = 0.0

    def g(x, rows=slice(None)):
        t = x - peak[rows]
        return -curve[rows] * t * t
    return g, lo, hi


class TestElementwiseMaximize1d:
    """maximize_1d on stacks against the frozen golden section, row by row."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-9, 1e-3])
    def test_rows_match_scalar_loop(self, tol):
        rng = np.random.default_rng(29)
        g, lo, hi = _unimodal_rows(rng, 60)
        xs, vals = maximize_1d(g, lo, hi, tol=tol)
        for i in range(len(lo)):
            x, v = frozen_maximize_1d(lambda t, i=i: float(g(t, i)), lo[i],
                                      hi[i], tol=tol)
            assert (xs[i], vals[i]) == (x, v)
        # flat rows keep the first of equal maxima: the lower end
        assert xs[:3].tolist() == lo[:3].tolist()

    def test_one_row_matches_scalar_loop(self):
        x, v = maximize_1d(lambda t: -(t - 0.3) ** 2, *row(0.0, 1.0))
        assert x.shape == v.shape == (1,)
        assert (x[0], v[0]) == frozen_maximize_1d(lambda t: -(t - 0.3) ** 2,
                                                  0.0, 1.0)


def frozen_simplex_grid(dimension, resolution):
    """The per-point stars-and-bars formula that the chunked `simplex_grid`
    replaced, kept as its reference: one `np.diff` per grid point."""
    slots = resolution + dimension - 1
    return [(np.diff((-1, *bars, slots)) - 1) / resolution
            for bars in itertools.combinations(range(slots), dimension - 1)]


# (dimension, resolution): d = 1..5, and grids of several GRID_CHUNK (256)
# chunks with a partial last one: (4, 20) has 1,771 points, (5, 12) 1,820
FROZEN_GRIDS = [(1, 1), (1, 7), (2, 1), (2, 9), (3, 4), (3, 30), (4, 20),
                (5, 3), (5, 12)]


class TestSimplexGrid:
    @pytest.mark.parametrize("dimension, resolution", FROZEN_GRIDS)
    def test_rows_equal_frozen_formula(self, dimension, resolution):
        got = list(simplex_grid(dimension, resolution))
        expect = frozen_simplex_grid(dimension, resolution)
        assert len(got) == comb(resolution + dimension - 1, dimension - 1)
        assert len(got) == len(expect)
        for a, b in zip(got, expect):
            assert a.dtype == b.dtype and a.shape == b.shape == (dimension,)
            assert a.tobytes() == b.tobytes()

    def test_rows_are_independent(self):
        expect = frozen_simplex_grid(4, 20)
        seen = []
        for point, want in zip(simplex_grid(4, 20), expect):
            # writing to a row changes no later row
            assert np.array_equal(point, want)
            assert not any(np.shares_memory(point, p) for p in seen[-3:])
            point[:] = -1.0
            seen.append(point)
        assert len(seen) == len(expect)

    @pytest.mark.parametrize("dimension, resolution", [(3, 4), (4, 20), (9, 2)])
    def test_array_form_keeps_bits(self, dimension, resolution):
        grid = simplex_grid_array(dimension, resolution)
        assert grid.tobytes() == np.stack(
            frozen_simplex_grid(dimension, resolution)).tobytes()

    def test_dim2_k2(self):
        pts = [p.tolist() for p in simplex_grid(2, 2)]
        assert pts == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]

    def test_dim3_k1_vertices(self):
        pts = [p.tolist() for p in simplex_grid(3, 1)]
        assert pts == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_counts_and_validity(self):
        for d, k in [(3, 4), (2, 7), (4, 3)]:
            pts = list(simplex_grid(d, k))
            assert len(pts) == comb(k + d - 1, d - 1)
            for p in pts:
                assert np.all(p >= 0) and p.sum() == pytest.approx(1.0)

    def test_one_part(self):
        assert [p.tolist() for p in simplex_grid(1, 3)] == [[1.0]]

    @pytest.mark.parametrize("dimension, resolution",
                             [(0, 2), (2, 0), (-1, 3), (3, -2)])
    def test_sizes_below_one_rejected(self, dimension, resolution):
        with pytest.raises(InputError, match="must be >= 1"):
            simplex_grid(dimension, resolution)
        with pytest.raises(InputError, match="must be >= 1"):
            simplex_grid_array(dimension, resolution)

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
    """pattern_search against the frozen probe-by-probe loop and against a
    one-search lockstep run."""

    @pytest.mark.parametrize("min_improve", [0.0, 1e-3])
    @pytest.mark.parametrize("name,many,start", _objectives(),
                             ids=[c[0] for c in _objectives()])
    def test_same_result_probe_order_and_calls(self, name, many, start,
                                               min_improve):
        kw = dict(min_step=1e-3, min_improve=min_improve)
        calls = {"frozen": [], "search": [], "batches": []}

        def scalar(key):
            def f(blocks):
                probe = np.stack(blocks)
                calls[key].append(probe)
                return float(many(probe[None])[0])
            return f

        def score(probes, owner):
            assert probes.ndim == 3 and probes.shape[1:] == np.shape(start)
            assert not owner.any()
            calls["batches"].append(probes.copy())
            return many(probes)

        x0, v0 = frozen_pattern_search(scalar("frozen"), start, **kw)
        x1, v1 = pattern_search(scalar("search"), start, **kw)
        x = project_rows(np.asarray(start))
        xs, vals = lockstep_pattern_search(score, x[None], many(x[None]), **kw)
        assert v0 == v1 == vals[0]
        assert np.array_equal(np.stack(x0), np.stack(x1))
        assert np.array_equal(np.stack(x0), xs[0])
        # f scores the start, then every probe of each lockstep round
        assert np.array_equal(np.stack(calls["search"]),
                              np.concatenate([x[None], *calls["batches"]]))
        # the rounds, each cut after its first improving probe, replay the
        # frozen probe order
        replay, best = [x], many(x[None])[0]
        for stack in calls["batches"]:
            hits = np.flatnonzero(many(stack) > best)
            if hits.size:
                best = many(stack)[hits[0]]
                stack = stack[:hits[0] + 1]
            replay.extend(stack)
        assert np.array_equal(np.stack(calls["frozen"]), np.stack(replay))

    def test_ragged_blocks_rejected(self):
        with pytest.raises(InputError):
            pattern_search(lambda b: 0.0, [np.ones(2) / 2, np.ones(3) / 3])


KINDS = ("smooth", "ties", "walled", "plateau")


def _problem(kind, seed, n_blocks, size):
    """(objective of a (B, n_blocks, size) probe stack, start) of one search:
    a smooth random objective, the same rounded coarsely (ties), with a -inf
    wall, or a flat plateau."""
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=(n_blocks, size))
    target = rng.dirichlet(np.ones(size), size=n_blocks)
    start = rng.dirichlet(np.ones(size), size=n_blocks)

    def smooth(p):
        return (p * coef - 3.0 * (p - target) ** 2).sum(axis=(1, 2))

    many = {"smooth": smooth,
            "ties": lambda p: np.round(smooth(p), 1),
            "walled": lambda p: np.where(p[:, 0, 0] > target[0, 0], -np.inf,
                                         smooth(p)),
            "plateau": lambda p: np.zeros(len(p))}[kind]
    return many, start


class TestLockstepPatternSearch:
    """R searches run in lockstep each give their own one-search run's
    result, bit for bit, after the same sequence of probe stacks; and that
    result is the frozen probe-by-probe loop's."""

    @staticmethod
    def check(problems, n_blocks, size, min_step, min_improve):
        fs, starts = zip(*(_problem(kind, seed, n_blocks, size)
                           for kind, seed in problems))
        kw = dict(min_step=min_step, min_improve=min_improve)
        # projected as pattern_search projects its start
        x = np.stack([project_rows(s) for s in starts])
        alone = []
        for f, start, x1 in zip(fs, starts, x):
            batches = []

            def one(probes, owner, f=f):
                batches.append(probes.copy())
                return f(probes)

            xs, vals = lockstep_pattern_search(one, x1[None], f(x1[None]), **kw)
            x0, v0 = frozen_pattern_search(
                lambda b, f=f: float(f(np.stack(b)[None])[0]), start, **kw)
            assert v0 == vals[0] and np.array_equal(np.stack(x0), xs[0])
            alone.append((xs[0], vals[0], batches))

        seen = [[] for _ in problems]

        def score(probes, owner):
            assert np.all(np.diff(owner) >= 0)  # searches in order
            vals = np.empty(len(probes))
            for r in np.unique(owner):
                rows = owner == r
                seen[r].append(probes[rows].copy())
                vals[rows] = fs[r](probes[rows])
            return vals

        best = [f(s[None])[0] for f, s in zip(fs, x)]
        xs, vals = lockstep_pattern_search(score, x, best, **kw)
        for r, (x1, v1, batches) in enumerate(alone):
            assert vals[r] == v1
            assert np.array_equal(xs[r], x1)
            assert len(seen[r]) == len(batches)
            assert all(np.array_equal(a, b) for a, b in zip(seen[r], batches))
        return [len(s) for s in seen]

    @settings(max_examples=40)
    @given(problems=st.lists(st.tuples(st.sampled_from(KINDS),
                                       st.integers(0, 2**32 - 1)),
                             min_size=1, max_size=6),
           n_blocks=st.integers(1, 3), size=st.integers(2, 4),
           min_step=st.sampled_from([1e-2, 3e-3]),
           min_improve=st.sampled_from([0.0, 1e-3]))
    @example(problems=[(kind, 11) for kind in KINDS], n_blocks=2, size=3,
             min_step=1e-2, min_improve=0.0)
    def test_each_search_matches_its_own_run(self, problems, n_blocks, size,
                                             min_step, min_improve):
        self.check(problems, n_blocks, size, min_step, min_improve)

    @pytest.mark.parametrize("min_improve", [0.0, 1e-3])
    def test_searches_finish_in_different_rounds(self, min_improve):
        rounds = self.check([(kind, 3) for kind in KINDS] + [("smooth", 4)],
                            2, 3, 1e-3, min_improve)
        assert len(set(rounds)) > 2

    def test_no_searches(self):
        xs, vals = lockstep_pattern_search(lambda p, o: np.zeros(len(p)),
                                           np.empty((0, 1, 3)), [])
        assert xs.shape == (0, 1, 3) and vals.shape == (0,)


class TestGridThenPattern:
    def test_equal_values_keep_first_candidate(self):
        # constant objective: every candidate ties and no probe improves
        cands = [[np.array([0.0, 1.0])], [np.array([0.5, 0.5])],
                 [np.array([1.0, 0.0])]]
        [blocks], [v] = grid_then_pattern(stacked(lambda b: 1.0), cands)
        assert v == 1.0
        assert blocks is cands[0]

    def test_never_below_best_candidate(self):
        rng = np.random.default_rng(43)
        coef = rng.normal(size=3)

        def f(blocks):
            return float(coef @ blocks[0])

        cands = [[p] for p in simplex_grid(3, 4)]
        [blocks], [v] = grid_then_pattern(stacked(f), cands, min_step=1e-3)
        assert v >= max(f(c) for c in cands)
        assert v == pytest.approx(f(blocks))

    def test_seeds_only(self):
        target = np.array([0.6, 0.3, 0.1])

        def f(blocks):
            return -float(np.sum((blocks[0] - target) ** 2))

        seeds = [[np.full(3, 1 / 3)], [np.array([1.0, 0.0, 0.0])]]
        [blocks], [v] = grid_then_pattern(stacked(f), [], seeds, min_step=1e-6)
        assert np.allclose(blocks[0], target, atol=1e-4)
        assert v == pytest.approx(0.0, abs=1e-7)

    @pytest.mark.parametrize("chunk", [1, 4, 4096])
    def test_batch_scorer_matches_scalar_pass(self, monkeypatch, chunk):
        monkeypatch.setattr("errexp.optimize.GRID_CHUNK", chunk)
        target = np.random.default_rng(47).dirichlet(np.ones(3), size=2)

        def many(p, owner=None):
            # rounded to create ties across chunk boundaries, -inf on a wall
            vals = np.round(-((p - target) ** 2).sum(axis=(1, 2)), 1)
            return np.where(p[:, 0, 0] > 0.7, -np.inf, vals)

        cands = [[a, b] for a in simplex_grid(3, 3)
                 for b in simplex_grid(3, 2)]

        def f(blocks):
            return float(many(np.stack(blocks)[None])[0])

        # reference: a running `>` over the candidates, then the frozen
        # probe-by-probe pattern search from the winner
        first, first_val = None, -np.inf
        for cand in cands:
            if f(cand) > first_val:
                first, first_val = cand, f(cand)
        lazy, lazy_val = frozen_pattern_search(f, first, min_step=1e-2)
        [blocks], [val] = grid_then_pattern(many, cands, min_step=1e-2)
        assert lazy_val > first_val and val == lazy_val
        assert np.array_equal(np.stack(blocks), np.stack(lazy))
        # without pattern steps, the winner is the first of equal maxima
        vals = many(np.asarray(cands))
        assert np.count_nonzero(vals == vals.max()) > 1
        [blocks], [val] = grid_then_pattern(many, cands, min_step=1.0)
        assert blocks is cands[int(np.argmax(vals))] is first
        assert val == first_val

    def test_start_scored_as_one_row_stack(self):
        target = np.array([0.6, 0.3, 0.1])
        calls = []

        def score(stack, owner):
            calls.append(stack.copy())
            return -((stack[:, 0] - target) ** 2).sum(axis=1)

        seed = [np.array([2.0, 1.0, 1.0])]  # projected before it is scored
        grid_then_pattern(score, [], [seed], min_step=1e-2)
        assert calls[0].shape == (1, 1, 3)
        assert calls[0][0, 0].tolist() == [0.5, 0.25, 0.25]
        # each sweep is one stack of the remaining probes, two per coordinate
        assert all(len(c) <= 6 for c in calls[1:]) and len(calls[1]) == 6

    def test_batch_scorer_all_minus_inf(self):
        cands = [[p] for p in simplex_grid(2, 3)]
        calls = []

        def score(stack, owner):
            calls.append(len(stack))
            return np.full(len(stack), -np.inf)

        winners, vals = grid_then_pattern(score, cands)
        assert winners == [None] and vals.tolist() == [-np.inf]
        assert calls == [len(cands)]  # no search starts from a -inf grid
        # a seed is still searched, and a search that finds nothing finite
        # leaves the result at (None, -inf)
        winners, vals = grid_then_pattern(score, cands, [cands[0]])
        assert winners == [None] and vals.tolist() == [-np.inf]
        assert calls[1:3] == [len(cands), 1]

    def test_nothing_to_search(self):
        winners, vals = grid_then_pattern(stacked(lambda b: 0.0), [])
        assert winners == [None] and vals.tolist() == [-np.inf]


def _driver_problems():
    """Four one-problem scorers of (B, 2, 3) stacks: rounded (ties across
    chunks), rounded with a -inf wall, -inf on every point of the test grid
    and of the seeds but finite off it, and -inf everywhere."""
    target = np.random.default_rng(59).dirichlet(np.ones(3), size=(2, 2))

    def rounded(p, t=target[0]):
        return np.round(-2.0 * ((p - t) ** 2).sum(axis=(1, 2))) / 2.0

    def walled(p):
        return np.where(p[:, 0, 0] > 0.7, -np.inf, rounded(p, target[1]))

    def off_grid(p):
        thirds = p[:, 0, 0] * 6
        return np.where(np.isclose(thirds, np.round(thirds)), -np.inf,
                        rounded(p))

    def nowhere(p):
        return np.full(len(p), -np.inf)

    return [rounded, walled, off_grid, nowhere]


class TestGridThenPatternProblems:
    """R problems in one grid_then_pattern call each get, bit for bit, the
    winner and value of their own one-problem call."""

    CANDS = [[a, b] for a in simplex_grid(3, 3) for b in simplex_grid(3, 2)]
    SEEDS = [[np.full(3, 1 / 3), np.full(3, 1 / 3)],
             [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.5])]]

    @pytest.mark.parametrize("chunk", [1, 4, 4096])
    @pytest.mark.parametrize("seeded", [False, True])
    @pytest.mark.parametrize("min_step", [1.0, 1e-2])
    def test_each_problem_matches_its_own_call(self, monkeypatch, chunk,
                                               seeded, min_step):
        monkeypatch.setattr("errexp.optimize.GRID_CHUNK", chunk)
        fs = _driver_problems()
        seeds = self.SEEDS if seeded else []
        rows = []

        def score(stack, owner):
            rows.append(len(stack))
            vals = np.empty(len(stack))
            for r in np.unique(owner):
                vals[owner == r] = fs[r](stack[owner == r])
            return vals

        winners, vals = grid_then_pattern(score, self.CANDS, seeds,
                                          problems=len(fs), min_step=min_step)
        # every candidate is scored for every problem, chunk by chunk
        n = len(self.CANDS)
        grid_rows = [len(fs) * min(chunk, n - s) for s in range(0, n, chunk)]
        assert rows[:len(grid_rows)] == grid_rows
        for r, f in enumerate(fs):
            [alone], [val] = grid_then_pattern(lambda p, o, f=f: f(p),
                                               self.CANDS, seeds,
                                               min_step=min_step)
            assert vals[r] == val
            if alone is None:
                assert winners[r] is None
            else:
                assert np.array_equal(np.stack(winners[r]), np.stack(alone))
            if min_step == 1.0 and not seeded and alone is not None:
                # no pattern step: the winner is the candidate itself
                assert any(winners[r] is c for c in self.CANDS)
        # -inf everywhere gives None; -inf on the grid and seeds only is
        # still found by a seed's search
        assert winners[3] is None and vals[3] == -np.inf
        assert (winners[2] is None) == (not seeded or min_step == 1.0)
        assert np.isfinite(vals[:2]).all()

    @pytest.mark.parametrize("cap", [1, 7, 50])
    @pytest.mark.parametrize("chunk", [4, 4096])
    def test_rows_per_call_capped(self, monkeypatch, cap, chunk):
        """No score call gets more than GRID_ROWS rows, or one chunk of
        candidates for one problem, in the grid pass and in every round of
        the searches, and the cap changes no bit of the result."""
        monkeypatch.setattr("errexp.optimize.GRID_CHUNK", chunk)
        fs = _driver_problems()
        rows = []

        def score(stack, owner):
            rows.append(len(stack))
            vals = np.empty(len(stack))
            for r in np.unique(owner):
                vals[owner == r] = fs[r](stack[owner == r])
            return vals

        def run():
            return grid_then_pattern(score, self.CANDS, self.SEEDS,
                                     problems=len(fs), min_step=1e-2)

        winners, vals = run()
        assert max(rows) > cap
        monkeypatch.setattr("errexp.optimize.GRID_ROWS", cap)
        rows.clear()
        capped, capped_vals = run()
        assert max(rows) <= max(cap, min(chunk, len(self.CANDS)))
        assert capped_vals.tolist() == vals.tolist()
        for got, want in zip(capped, winners):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(np.stack(got), np.stack(want))

    @pytest.mark.parametrize("chunk", [4, 4096])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_bound_skips_rows_and_keeps_every_bit(self, monkeypatch, chunk,
                                                  seeded):
        """With an upper bound (the value plus a non-negative slack, NaN on
        some rows), the rows whose bound is <= their problem's best so far
        go unscored, every NaN-bound row is scored, and the winners and
        values are those of the call without a bound."""
        monkeypatch.setattr("errexp.optimize.GRID_CHUNK", chunk)
        fs = _driver_problems()
        seeds = self.SEEDS if seeded else []

        def values(stack, owner):
            vals = np.empty(len(stack))
            for r in np.unique(owner):
                vals[owner == r] = fs[r](stack[owner == r])
            return vals

        offered, nan_rows, scored = [0], set(), set()

        def bound(stack, owner):
            offered[0] += len(stack)
            # zero slack on a third of the grid, NaN on a few rows
            slack = np.round(stack[:, 1, 0], 1) * 0.5
            upper = np.where(stack[:, 1, 2] == 0.5, np.nan,
                             values(stack, owner) + slack)
            nan_rows.update((p.tobytes(), r) for p, r, u
                            in zip(stack, owner, upper) if np.isnan(u))
            return upper

        def score(stack, owner):
            scored.update((p.tobytes(), r) for p, r in zip(stack, owner))
            return values(stack, owner)

        winners, vals = grid_then_pattern(values, self.CANDS, seeds,
                                          problems=len(fs), min_step=1e-2)
        bounded, bounded_vals = grid_then_pattern(
            score, self.CANDS, seeds, problems=len(fs), bound=bound,
            min_step=1e-2)
        assert np.array_equal(bounded_vals, vals)
        for got, want in zip(bounded, winners):
            assert (got is None) == (want is None)
            if want is not None:
                assert np.array_equal(np.stack(got), np.stack(want))
        assert winners[3] is None and bounded[3] is None
        assert nan_rows and nan_rows <= scored
        assert len(scored) < offered[0]

    def test_ties_keep_first_per_problem(self, monkeypatch):
        monkeypatch.setattr("errexp.optimize.GRID_CHUNK", 4)
        fs = _driver_problems()[:2]
        stack = np.asarray(self.CANDS)
        winners, vals = grid_then_pattern(
            lambda p, o: np.where(o == 0, fs[0](p), fs[1](p)), self.CANDS,
            problems=2, min_step=1.0)
        for r, f in enumerate(fs):
            grid = f(stack)
            assert np.count_nonzero(grid == grid.max()) > 1
            assert winners[r] is self.CANDS[int(np.argmax(grid))]
            assert vals[r] == grid.max()
