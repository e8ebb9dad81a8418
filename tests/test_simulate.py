import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import errexp.simulate as simulate
from errexp import (Channel, ChannelPairLaw, EstimationError, InputError, Pmf,
                    SimConfig, SimReport, channel_region_point, conjugate,
                    direct_region_point, fit_exponent, loglik_scores,
                    simulate_direct, simulate_rht)
from errexp.simulate import (_count_scores, _llr_vector, _pair_counts,
                             _substream, _try_fit)

ROOT = Path(__file__).resolve().parents[1]
P58 = Pmf((0, 1), [0.5, 0.5])
Q58 = Pmf((0, 1), [0.2, 0.8])


class TestNpDecide:
    """The NP decision of the counting path: a trial rejects, deciding H1,
    iff its accumulated score reaches n*theta."""

    def test_tie_goes_to_h1(self):
        # p against itself scores every symbol 0, so every statistic ties
        # with the threshold 0 exactly: every trial rejects
        for p in (Pmf((0, 1), [0.5, 0.5]), Pmf((0, 1, 2), [0.2, 0.3, 0.5])):
            rep = simulate_direct(p, p, 0.0, SimConfig((1, 2, 7), 50, seed=3))
            assert rep.alpha_hat == (1.0, 1.0, 1.0)
            assert rep.beta_hat == (0.0, 0.0, 0.0)

    def test_very_low_threshold_always_h1(self):
        rep = simulate_direct(P58, Q58, -1e6, SimConfig((3, 30), 200, seed=4))
        assert rep.alpha_hat == (1.0, 1.0)
        assert rep.beta_hat == (0.0, 0.0)

    def test_single_letter_enumeration(self):
        # a one-hot count row's statistic is its symbol's score, infinite
        # scores included
        for p, q in ((P58, Q58), (P3, Q3)):
            scores = _llr_vector(p, q)
            got = _count_scores(np.eye(len(p), dtype=np.int64), scores)
            assert got.tolist() == scores.tolist()

    def test_dead_symbol_rejected(self):
        p = Pmf((0, 1), [1.0, 0.0])
        with pytest.raises(InputError, match="zero probability under both"):
            simulate_direct(p, p, 0.0, SimConfig((1,), 10, seed=0))


class TestBuildTypeSequences:
    """The joint types that `simulate_rht` sends: largest-remainder
    apportionment of n times the pair law, ties broken in lexicographic pair
    order, read off `SimReport.realized_types`."""

    @staticmethod
    def realized(law, ns):
        cfg = SimConfig(tuple(ns), 1, seed=0)
        return simulate_rht(P58, Q58, Channel.bsc(0.35), 0.0, 0.0, law,
                            cfg).realized_types

    def test_uniform_diagonal(self):
        law = ChannelPairLaw.from_matrix((0, 1), [[0.5, 0.0], [0.0, 0.5]])
        assert self.realized(law, [4]) == (((0, 0, 0.5), (1, 1, 0.5)),)

    def test_point_mass(self):
        law = ChannelPairLaw.point_mass((0, 1), (0, 1))
        assert self.realized(law, [3]) == (((0, 1, 1.0),),)

    def test_largest_remainder_tie_break(self):
        law = ChannelPairLaw.from_matrix((0, 1), [[0.5, 0.5], [0.0, 0.0]])
        assert self.realized(law, [3]) == (((0, 0, 2 / 3), (0, 1, 1 / 3)),)

    def test_type_gap_bound(self):
        rng = np.random.default_rng(61)
        ns = (7, 23, 100)
        for _ in range(3):
            law = ChannelPairLaw.from_matrix(
                (0, 1), rng.dirichlet(np.ones(4)).reshape(2, 2))
            for n, classes in zip(ns, self.realized(law, ns)):
                freq = np.zeros((2, 2))
                for a, b, f in classes:
                    freq[a, b] = f
                assert freq.sum() == pytest.approx(1.0, abs=1e-12)
                assert np.abs(freq - law.probs).sum() <= 4.0 / n


class TestFitExponent:
    def test_exact_exponential(self):
        ns = np.array([10, 20, 30, 40])
        fit = fit_exponent(ns, np.exp(-0.1 * ns))
        assert fit.slope == pytest.approx(0.1, abs=1e-12)
        assert not fit.censored

    def test_all_zero_rates(self):
        with pytest.raises(EstimationError):
            fit_exponent([10, 20, 30], [0.0, 0.0, 0.0])

    def test_noisy_synthetic(self):
        ns = np.arange(10, 200, 10)
        eta = 0.2 * np.cos(ns)  # bounded deterministic perturbation
        rates = np.exp(-0.1 * ns) * (1 + eta)
        assert fit_exponent(ns, rates).slope == pytest.approx(0.1, abs=0.01)

    def test_censoring(self):
        fit = fit_exponent([10, 20, 30], [0.1, 0.01, 0.0])
        assert fit.censored
        with pytest.raises(EstimationError):
            fit_exponent([10, 20, 30], [0.1, 0.0, 0.0])


class TestSimulateDirect:
    def test_degenerate_hypotheses(self):
        cfg = SimConfig((10, 20), 500, seed=1)
        rep = simulate_direct(P58, P58, 0.0, cfg)
        assert rep.alpha_hat == (1.0, 1.0)
        assert rep.beta_hat == (0.0, 0.0)
        assert rep.beta_fit is None

    def test_deterministic(self):
        cfg = SimConfig((50, 100), 2000, seed=77)
        assert simulate_direct(P58, Q58, 0.0, cfg) == simulate_direct(
            P58, Q58, 0.0, cfg)

    def test_slopes_track_analytic_exponents(self):
        cfg = SimConfig((50, 100, 150, 200), 10**5, seed=7)
        rep = simulate_direct(P58, Q58, 0.0, cfg)
        pt = direct_region_point(P58, Q58, 0.0)
        for fit, expect in ((rep.alpha_fit, pt.kappa_alpha),
                            (rep.beta_fit, pt.kappa_beta)):
            assert fit is not None
            assert abs(fit.slope - expect) <= max(0.15 * expect, 0.01)

    def test_single_letter_matches_enumeration(self):
        cfg = SimConfig((1,), 10**5, seed=13)
        rep = simulate_direct(P58, Q58, 0.0, cfg)
        scores = loglik_scores(P58, Q58).scores
        alpha_exact = float(P58.probs[scores >= 0.0].sum())
        sigma = np.sqrt(alpha_exact * (1 - alpha_exact) / cfg.trials)
        assert abs(rep.alpha_hat[0] - alpha_exact) <= 3 * sigma


class TestSimulateRht:
    LAW = ChannelPairLaw.point_mass((0, 1), (0, 1))

    def test_deterministic(self, bsc35):
        cfg = SimConfig((40, 80), 2000, seed=19)
        a = simulate_rht(P58, Q58, bsc35, 0.0, 0.0, self.LAW, cfg)
        b = simulate_rht(P58, Q58, bsc35, 0.0, 0.0, self.LAW, cfg)
        assert a == b

    def test_degenerate_source_splits_mass(self, bsc35):
        cfg = SimConfig((60,), 4000, seed=23)
        rep = simulate_rht(P58, P58, bsc35, 0.0, 0.0, self.LAW, cfg)
        assert rep.alpha_hat[0] + rep.beta_hat[0] == pytest.approx(1.0,
                                                                  abs=0.05)

    def test_realized_types_reported(self, bsc35):
        cfg = SimConfig((30,), 100, seed=3)
        rep = simulate_rht(P58, Q58, bsc35, 0.0, 0.0, self.LAW, cfg)
        assert rep.realized_types == (((0, 1, 1.0),),)

    def test_near_noiseless_channel_matches_direct(self):
        ch = Channel.bsc(1e-6)
        cfg = SimConfig((50, 100, 150), 10**4, seed=29)
        rep = simulate_rht(P58, Q58, ch, 0.0, 0.05, self.LAW, cfg)
        direct = simulate_direct(P58, Q58, 0.0, cfg)
        # channel stage is essentially error-free: error counts match the
        # local source test alone
        for got, want in zip(rep.alpha_hat, direct.alpha_hat):
            assert abs(got - want) <= 0.02

    def test_error_rates_decay_at_least_analytically(self, bsc35):
        """Light-budget sanity: empirical rates decay with n and never beat
        chance while staying at or below the large-deviations envelope up to
        Monte Carlo slack (the quantitative 15% slope check runs with the
        full trial budget in the acceptance suite)."""
        cfg = SimConfig((50, 100, 150), 10**5, seed=11)
        rep = simulate_rht(P58, Q58, bsc35, 0.0, 0.0, self.LAW, cfg)
        src = conjugate(loglik_scores(P58, Q58), 0.0).value
        chn = channel_region_point(bsc35, self.LAW, 0.0)
        zeta0 = min(src, chn.kappa_alpha)
        assert all(b < a for a, b in zip(rep.alpha_hat, rep.alpha_hat[1:]))
        for n, rate in zip(cfg.blocklengths, rep.alpha_hat):
            envelope = np.exp(-zeta0 * n)
            slack = 3 * np.sqrt(envelope / cfg.trials)
            assert rate <= envelope + slack


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            SimConfig((100, 100), 10, seed=0)
        with pytest.raises(InputError):
            SimConfig((100, 50), 10, seed=0)
        with pytest.raises(InputError):
            SimConfig((100,), 0, seed=0)

    @pytest.mark.parametrize("ns, trials, seed, name", [
        ((10.5,), 10, 0, "blocklengths"),
        ((10, np.float64(20.0)), 10, 0, "blocklengths"),
        ((True,), 10, 0, "blocklengths"),
        ((10,), 2.5, 0, "trials"),
        ((10,), True, 0, "trials"),
        ((10,), 10, 1.5, "seed"),
        ((10,), 10, False, "seed"),
    ])
    def test_non_integer_rejected(self, ns, trials, seed, name):
        with pytest.raises(InputError, match=f"{name}: expected an integer"):
            SimConfig(ns, trials, seed)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig((np.int64(10), np.int32(20)), np.int64(30),
                        np.uint32(4))
        assert cfg == SimConfig((10, 20), 30, 4)
        assert all(type(v) is int
                   for v in (*cfg.blocklengths, cfg.trials, cfg.seed))
        assert simulate_direct(P58, Q58, 0.0, cfg) == simulate_direct(
            P58, Q58, 0.0, SimConfig((10, 20), 30, 4))


# ---------------------------------------------------------------------------
# The serial loops that the concurrent, blocked run replaced, kept as the
# oracle: one task after another, each chunk drawn in one call per source
# and per (class, mask), scored with one matvec per call.


def _serial_count_scores(counts, scores):
    finite = np.isfinite(scores)
    total = counts[:, finite].astype(float) @ scores[finite]
    pos = counts[:, np.isposinf(scores)].sum(axis=1) > 0
    neg = counts[:, np.isneginf(scores)].sum(axis=1) > 0
    total = np.where(pos, np.inf, total)
    total = np.where(neg, -np.inf, total)
    return total


def _serial_direct_error_count(rng, sampling, scores, n, trials, theta,
                               reject_is_error, chunk):
    errors = 0
    done = 0
    while done < trials:
        batch = min(chunk, trials - done)
        counts = rng.multinomial(n, sampling, size=batch)
        stat = _serial_count_scores(counts, scores)
        reject = stat >= n * theta
        errors += int(np.count_nonzero(reject if reject_is_error else ~reject))
        done += batch
    return errors


def _serial_direct(p, q, theta, cfg, chunk):
    scores = _llr_vector(p, q)
    alpha_err, beta_err = [], []
    for n in cfg.blocklengths:
        alpha_err.append(_serial_direct_error_count(
            _substream(cfg.seed, n, 0), p.probs, scores, n, cfg.trials,
            theta, True, chunk))
        beta_err.append(_serial_direct_error_count(
            _substream(cfg.seed, n, 1), q.probs, scores, n, cfg.trials,
            theta, False, chunk))
    alpha_hat = tuple(e / cfg.trials for e in alpha_err)
    beta_hat = tuple(e / cfg.trials for e in beta_err)
    return SimReport(cfg.blocklengths, cfg.trials, alpha_hat, beta_hat,
                     tuple(alpha_err), tuple(beta_err),
                     _try_fit(cfg.blocklengths, alpha_hat),
                     _try_fit(cfg.blocklengths, beta_hat))


def _serial_channel_stat(rng, ch, classes, transmit_prime, n_trials,
                         mask_sizes):
    stat = np.zeros(n_trials)
    rows = ch.rows
    for a, b, count in classes:
        score = ch.pair_scores[a, b]
        for transmit_b in (False, True):
            mask = transmit_prime == transmit_b
            m = int(np.count_nonzero(mask))
            if m == 0:
                continue
            mask_sizes.append(m)
            y_counts = rng.multinomial(count, rows[b if transmit_b else a],
                                       size=m)
            stat[mask] += _serial_count_scores(y_counts, score)
    return stat


def _serial_rht(p_u, q_u, ch, theta0, theta1, law, cfg, chunk, mask_sizes):
    source_scores = _llr_vector(p_u, q_u)
    alpha_err, beta_err = [], []
    realized = []
    for n in cfg.blocklengths:
        classes = _pair_counts(law, n)
        realized.append(tuple((law.alphabet[a], law.alphabet[b], c / n)
                              for a, b, c in classes))
        for stage, (source, reject_is_error) in enumerate(
                [(p_u, True), (q_u, False)]):
            rng = _substream(cfg.seed, n, stage)
            errors = 0
            done = 0
            while done < cfg.trials:
                batch = min(chunk, cfg.trials - done)
                u_counts = rng.multinomial(n, source.probs, size=batch)
                local_stat = _serial_count_scores(u_counts, source_scores)
                transmit_prime = local_stat >= n * theta0
                stat = _serial_channel_stat(rng, ch, classes, transmit_prime,
                                            batch, mask_sizes)
                reject = stat >= n * theta1
                errors += int(np.count_nonzero(
                    reject if reject_is_error else ~reject))
                done += batch
            if reject_is_error:
                alpha_err.append(errors)
            else:
                beta_err.append(errors)
    alpha_hat = tuple(e / cfg.trials for e in alpha_err)
    beta_hat = tuple(e / cfg.trials for e in beta_err)
    return SimReport(cfg.blocklengths, cfg.trials, alpha_hat, beta_hat,
                     tuple(alpha_err), tuple(beta_err),
                     _try_fit(cfg.blocklengths, alpha_hat),
                     _try_fit(cfg.blocklengths, beta_hat),
                     realized_types=tuple(realized))


# a 3-symbol pair whose scores hold both +inf and -inf
P3 = Pmf((0, 1, 2), [0.6, 0.4, 0.0])
Q3 = Pmf((0, 1, 2), [0.0, 0.5, 0.5])
MULTI_CLASS_LAW = ChannelPairLaw.from_matrix((0, 1), [[0.3, 0.2], [0.1, 0.4]])


class TestConcurrentRunMatchesSerialLoop:
    """Small chunks and blocks, so every path runs many times: a trial count
    that is not a multiple of the chunk, blocks that split draws, and masks
    of every size modulo 4. The blocks keep a multiple of 4 rows, so each
    row's matvec follows the same kernel path as in the oracle's one call,
    and exact ties (the BSC's pair scores are exact negations) get the same
    sign."""

    CHUNK = 64
    BLOCK = 8
    TRIALS = 250
    SEEDS = (0, 1, 5, 12)

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", self.CHUNK)
        monkeypatch.setattr(simulate, "BLOCK_ROWS", self.BLOCK)

    def test_infinite_scores_on_both_sides(self):
        scores = _llr_vector(P3, Q3)
        assert np.isposinf(scores).any() and np.isneginf(scores).any()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("p, q, theta", [(P58, Q58, 0.0), (P58, Q58, -0.2),
                                             (P3, Q3, 0.0)],
                             ids=["binary", "binary-low-theta", "ternary-inf"])
    def test_direct(self, seed, p, q, theta):
        cfg = SimConfig((5, 12, 30), self.TRIALS, seed)
        assert simulate_direct(p, q, theta, cfg) == _serial_direct(
            p, q, theta, cfg, self.CHUNK)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("p, q, law", [
        (P58, Q58, ChannelPairLaw.point_mass((0, 1), (0, 1))),
        (P58, Q58, MULTI_CLASS_LAW),
        (P3, Q3, MULTI_CLASS_LAW),
    ], ids=["point-mass", "four-classes", "ternary-inf-four-classes"])
    def test_rht(self, bsc35, seed, p, q, law):
        cfg = SimConfig((6, 10, 17), self.TRIALS, seed)
        mask_sizes: list[int] = []
        expect = _serial_rht(p, q, bsc35, 0.0, 0.0, law, cfg, self.CHUNK,
                             mask_sizes)
        assert simulate_rht(p, q, bsc35, 0.0, 0.0, law, cfg) == expect
        assert any(m % 4 for m in mask_sizes)
        assert any(m > self.BLOCK for m in mask_sizes)

    def test_classes_of_the_multi_class_law(self):
        assert len(_pair_counts(MULTI_CLASS_LAW, 10)) == 4


def _pmf(weights) -> Pmf:
    return Pmf(range(len(weights)), np.array(weights) / sum(weights))


@st.composite
def _source_pairs(draw):
    """P and Q on 2-3 symbols, each symbol live under at least one: a
    symbol dead under one side scores +inf or -inf."""
    k = draw(st.integers(2, 3))
    cells = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
        min_size=k, max_size=k).filter(
            lambda cs: all(sum(side) > 0 for side in zip(*cs))))
    p, q = zip(*cells)
    return _pmf(p), _pmf(q)


@st.composite
def _channels_and_laws(draw):
    """A channel with full-support rows on 2-3 inputs and outputs, and a
    pair law of 1-4 classes over its inputs."""
    m, k = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    rows = [_pmf(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
            .probs for _ in range(m)]
    ch = Channel(range(m), range(k), rows)
    cells = draw(st.lists(st.integers(0, m * m - 1), min_size=1,
                          max_size=min(4, m * m), unique=True))
    law = np.zeros(m * m)
    law[cells] = draw(st.lists(st.integers(1, 4), min_size=len(cells),
                               max_size=len(cells)))
    return ch, ChannelPairLaw.from_matrix(range(m), (law / law.sum())
                                          .reshape(m, m))


_THETAS = st.sampled_from([0.0, -0.05, 0.1]) | st.floats(-0.5, 0.5)


@st.composite
def _run_shapes(draw):
    """Small multiples of 4 for CHUNK_TRIALS and BLOCK_ROWS, a trial count
    that is not a multiple of the chunk, and a blocklength grid."""
    chunk = 4 * draw(st.integers(1, 8))
    block = 4 * draw(st.integers(1, 4))
    trials = chunk * draw(st.integers(0, 3)) + draw(st.integers(1, chunk - 1))
    ns = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3,
                       unique=True))
    cfg = SimConfig(tuple(sorted(ns)), trials, draw(st.integers(0, 2**32)))
    return chunk, block, cfg


class TestStreamedCountsMatchSerialLoop:
    """Random inputs for the counts decided block by block: the reports of
    `simulate_direct` and `simulate_rht` equal the serial oracles'."""

    @settings(max_examples=60)
    @given(_source_pairs(), _THETAS, _run_shapes())
    def test_direct(self, pq, theta, shape):
        (p, q), (chunk, block, cfg) = pq, shape
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "CHUNK_TRIALS", chunk)
            mp.setattr(simulate, "BLOCK_ROWS", block)
            got = simulate_direct(p, q, theta, cfg)
        assert got == _serial_direct(p, q, theta, cfg, chunk)

    @settings(max_examples=60)
    @given(_source_pairs(), _channels_and_laws(), _THETAS, _THETAS,
           _run_shapes())
    def test_rht(self, pq, channel_law, theta0, theta1, shape):
        (p, q), (ch, law), (chunk, block, cfg) = pq, channel_law, shape
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "CHUNK_TRIALS", chunk)
            mp.setattr(simulate, "BLOCK_ROWS", block)
            got = simulate_rht(p, q, ch, theta0, theta1, law, cfg)
        assert got == _serial_rht(p, q, ch, theta0, theta1, law, cfg, chunk,
                                  [])


class TestTaskPool:
    def test_worker_error_reaches_caller_and_threads_are_joined(
            self, monkeypatch):
        def failing(seed, n, stage, *args):
            if (n, stage) == (20, 1):
                raise RuntimeError("task failed")
            return 0

        monkeypatch.setattr(simulate, "_error_count", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="task failed"):
            simulate_direct(P58, Q58, 0.0, SimConfig((10, 20, 30), 10, 0))
        assert threading.active_count() == before

    def test_no_thread_outlives_the_run(self, bsc35):
        before = threading.active_count()
        simulate_rht(P58, Q58, bsc35, 0.0, 0.0, TestSimulateRht.LAW,
                     SimConfig((10, 20, 30, 40), 100, 0))
        assert threading.active_count() == before


def _subprocess_env(**extra):
    """This interpreter's environment with the checkout's sources first and
    BLAS threads at their default unless extra sets them."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(extra, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return env


class TestBlasThreadIndependence:
    """A one-call matvec over more rows than OpenBLAS's threading cutoff is
    split between threads, and a row at the end of a thread's share takes
    the kernel's scalar tail, so an exact tie's sign depended on the core
    count. The blocked sums must equal a single-threaded one-call matvec."""

    ROWS = (4095, 4096, 4097, 4098, 4099, 4100, 4101, 8193, 250_001)
    SINGLE_THREADED = (
        "import sys\n"
        "import numpy as np\n"
        "scores = np.load(sys.argv[1])\n"
        "finite = np.isfinite(scores)\n"
        "np.savez(sys.argv[2], *[\n"
        "    np.tile([50, 50], (int(m), 1))[:, finite].astype(float)"
        " @ scores[finite]\n"
        "    for m in sys.argv[3:]])\n")

    def test_count_scores_matches_single_threaded_matvec(self, bsc35,
                                                         tmp_path):
        scores = bsc35.pair_scores[0, 1]
        assert scores[0] == -scores[1]
        np.save(tmp_path / "scores.npy", scores)
        done = subprocess.run(
            [sys.executable, "-c", self.SINGLE_THREADED,
             str(tmp_path / "scores.npy"), str(tmp_path / "sums.npz"),
             *map(str, self.ROWS)],
            env=_subprocess_env(OPENBLAS_NUM_THREADS="1"),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        with np.load(tmp_path / "sums.npz") as expect:
            for i, m in enumerate(self.ROWS):
                want = expect[f"arr_{i}"]
                got = _count_scores(np.tile([50, 50], (m, 1)), scores)
                assert got.tobytes() == want.tobytes(), m
                # ties of both signs: the kernel's scalar tail is the last
                # m % 4 rows
                assert np.count_nonzero(want < 0) == m % 4

    def test_cli_output_does_not_depend_on_blas_threads(self, tmp_path):
        # theta0 = -10 sends x_prime in every trial, so one mask holds all
        # 240,002 trials of the chunk; a one-call matvec over them was
        # split between two threads, and at seed 0 the tie at the split
        # row flipped one alpha error at n = 20
        argv = [sys.executable, "-m", "errexp.cli", "simulate",
                "bench/models/mc.json", "--n-grid", "10,20", "--trials",
                "240002", "--theta0", "-10", "--seed", "0"]
        outputs = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            done = subprocess.run(argv, cwd=ROOT,
                                  env=_subprocess_env(**threads),
                                  capture_output=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert b"\n20,0.94720044,0.0531703902,227330,12761\n" in outputs[0]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
class TestMemoryBoundedByBlock:
    """Each block is decided as it is drawn, so a thousand times more trials
    costs no more memory: the CLI's point-mass law keeps no per-trial array.
    A per-chunk statistic of CHUNK_TRIALS floats added about 7 MB."""

    # A child's ru_maxrss starts at the resident size of the process that
    # spawned it, so a small launcher, not the test process, waits for it.
    LAUNCHER = (
        "import os, subprocess, sys\n"
        "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
        "_, status, usage = os.wait4(proc.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")

    def peak_rss_mb(self, trials: int) -> float:
        argv = [sys.executable, "-c", self.LAUNCHER, sys.executable, "-m",
                "errexp.cli", "simulate", "bench/models/mc.json", "--n-grid",
                "10,20", "--trials", str(trials)]
        done = subprocess.run(argv, cwd=ROOT, env=_subprocess_env(),
                              capture_output=True, text=True, timeout=120)
        status, maxrss_kib = map(int, done.stdout.split())
        assert status == 0, done.stderr
        return maxrss_kib / 1024.0

    def test_peak_rss_does_not_grow_with_trials(self):
        small = self.peak_rss_mb(1_000)
        large = self.peak_rss_mb(1_000_000)
        assert large - small <= 2.0, (small, large)
