"""Monte Carlo verification of the analytic exponents.

Simulates the Neyman-Pearson test for direct hypothesis testing and the
two-codeword separation scheme for remote testing over a channel, then fits
empirical error exponents against blocklength. Sequences are never
materialized: the tests depend on the data only through symbol counts, so
trials are drawn as multinomial types.

A run is 2 x |n-grid| independent tasks, one per (blocklength, hypothesis)
pair, each drawing from its own substream (``_substream``). The tasks run
concurrently on a thread pool with at most one thread per usable core; the
multinomial draws release the interpreter lock. Within a task, trials come in
chunks of ``CHUNK_TRIALS``: a chunk draws all its source rows, then its
channel rows class by class and, within a class, first for the trials that
send x_tilde and then for those that send x_prime. That order fixes which
generator output each trial gets, so changing ``CHUNK_TRIALS`` changes the
output. Each of those draws is made and scored in blocks of ``BLOCK_ROWS``
rows, and each block is decided as soon as it is scored: only counts are
kept, so a task's memory is bounded by a block and ``CHUNK_TRIALS`` only
fixes the draw order. The one exception is a pair law of several classes,
whose classes before the last add to a per-trial accumulator of
``CHUNK_TRIALS`` entries. A multinomial draw split over several calls
consumes the generator exactly as one call does, so the blocks change no
count; they also keep each score matvec on one BLAS thread (see
``_count_scores``), so no BLAS helper thread competes with the workers and
tie signs do not depend on the core count.
"""

from __future__ import annotations

import numbers
import os
from dataclasses import dataclass

import numpy as np

from .exact_regions import ChannelPairLaw, _check_assumption
from .exceptions import EstimationError, InputError
from .legendre import loglik_scores
from .prob_core import Channel, Pmf

# Trials per chunk. It fixes the draw order, so changing it changes the output.
CHUNK_TRIALS = 250_000
# Rows per multinomial draw and per score matvec; a multiple of 4.
BLOCK_ROWS = 4096
# OpenBLAS runs a matvec with fewer matrix elements than this on one thread
# (2304 x its default GEMM_MULTITHREAD_THRESHOLD of 4, the smallest cutoff its
# releases have used; release 0.3.31 threads only from about 460,800).
BLAS_THREAD_MIN_ELEMENTS = 9216
MIN_FIT_POINTS = 2


@dataclass(frozen=True)
class SimConfig:
    """Blocklength grid, trial budget and seed."""

    blocklengths: tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        ns = tuple(_integer(n, "blocklengths") for n in self.blocklengths)
        if len(ns) == 0 or any(n < 1 for n in ns):
            raise InputError("blocklengths must be positive")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InputError("blocklengths must be strictly increasing")
        if _integer(self.trials, "trials") < 1:
            raise InputError("trials must be >= 1")
        if _integer(self.seed, "seed") < 0:
            raise InputError("seed must be non-negative")
        object.__setattr__(self, "blocklengths", ns)
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


def _integer(value, name: str) -> int:
    """value as an int; numpy integers pass, bools and floats do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name}: expected an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class FitResult:
    """Least-squares exponent estimate with its residual and censoring flag."""

    slope: float
    residual: float
    censored: bool


@dataclass(frozen=True)
class SimReport:
    """Empirical error rates per blocklength and the fitted exponents."""

    blocklengths: tuple[int, ...]
    trials: int
    alpha_hat: tuple[float, ...]
    beta_hat: tuple[float, ...]
    alpha_errors: tuple[int, ...]
    beta_errors: tuple[int, ...]
    alpha_fit: FitResult | None
    beta_fit: FitResult | None
    realized_types: tuple | None = None

    def __post_init__(self) -> None:
        for rate in (*self.alpha_hat, *self.beta_hat):
            if not 0.0 <= rate <= 1.0:
                raise InputError("error rates must lie in [0, 1]")


def _llr_vector(p: Pmf, q: Pmf) -> np.ndarray:
    scores = loglik_scores(p, q).scores
    if np.any((p.probs == 0) & (q.probs == 0)):
        raise InputError("symbol with zero probability under both hypotheses")
    return scores


def _count_scores(counts: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Accumulated score per trial row, with infinities dominating.

    The finite part is a matvec per block of rows. Each block has a multiple
    of 4 rows (except the last) and fewer than ``BLAS_THREAD_MIN_ELEMENTS``
    elements, so OpenBLAS computes it on one thread, and every row follows
    the same kernel path as in one single-threaded matvec over all rows: only
    the last ``len(counts) % 4`` rows take the kernel's scalar tail. Row sums
    that differ in their last bits, such as the sign of an exact tie, thus do
    not depend on the number of cores.

    Within one hypothesis a trial never holds both +inf and -inf atoms (the
    signs are tied to which support the samples came from), so the two
    infinite cases are exclusive; scores with no infinite entry skip them.
    """
    finite = np.isfinite(scores)
    width = max(1, int(np.count_nonzero(finite)))
    step = max(4, min(BLOCK_ROWS,
                      (BLAS_THREAD_MIN_ELEMENTS - 1) // width // 4 * 4))
    total = np.empty(len(counts))
    for start in range(0, len(counts), step):
        block = counts[start:start + step, finite].astype(float)
        total[start:start + step] = block @ scores[finite]
    for sign in (np.inf, -np.inf):
        hit = scores == sign
        if hit.any():
            total[counts[:, hit].sum(axis=1) > 0] = sign
    return total


def _pair_counts(law: ChannelPairLaw, n: int) -> list[tuple[int, int, int]]:
    """(index of x_tilde, index of x_prime, count) classes, in lexicographic
    index order, of the length-n sequence pair whose joint type tracks the
    law by largest-remainder apportionment (lexicographic tie-break on
    pairs)."""
    if n < 1:
        raise InputError("n must be >= 1")
    raw = n * law.probs.reshape(-1)
    counts = np.floor(raw).astype(np.int64)
    remainder = raw - counts
    short = n - int(counts.sum())
    # stable sort: descending remainder, lexicographic pair order on ties
    order = sorted(range(len(raw)), key=lambda i: (-remainder[i], i))
    for i in order[:short]:
        counts[i] += 1
    size = len(law.alphabet)
    return [(*divmod(i, size), int(c)) for i, c in enumerate(counts) if c]


def _substream(seed: int, n: int, stage: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(n, stage)))


def _add_draws(rng: np.random.Generator, n: int, probs: np.ndarray,
               scores: np.ndarray, size: int, acc: np.ndarray | None = None,
               threshold: float | None = None) -> int:
    """Draws size fresh multinomial(n, probs) rows and scores them,
    BLOCK_ROWS rows at a time, so memory is bounded by a block whatever the
    size; the CHUNK_TRIALS that sets size only fixes the draw order.

    Without a threshold, adds each row's accumulated score to its entry of
    acc and returns 0. With one, returns how many rows' total, their entry
    of acc (if given) plus their score, reaches it.
    """
    reached = 0
    for start in range(0, size, BLOCK_ROWS):
        block = rng.multinomial(n, probs, size=min(BLOCK_ROWS, size - start))
        score = _count_scores(block, scores)
        if acc is not None:
            part = acc[start:start + len(block)]
            if threshold is None:
                part += score
                continue
            score += part
        reached += int(np.count_nonzero(score >= threshold))
    return reached


def _error_count(seed: int, n: int, stage: int, source: np.ndarray,
                 source_scores: np.ndarray, theta0: float, trials: int,
                 channel: tuple | None) -> int:
    """Errors of one task: trials of blocklength n drawn from source, the
    law of hypothesis H<stage>, so a rejection is an error at stage 0 and an
    acceptance at stage 1.

    The local NP test rejects iff the source score reaches n*theta0. With a
    channel, given as (ch, classes, theta1), the local decision instead
    selects x_prime (reject) or x_tilde for transmission, and the decision
    maker rejects iff the accumulated pair score of the channel output
    reaches n*theta1. So a tie decides H1 where it is exact in floating
    point, as for p = q, whose scores are all 0. Scores that cancel only in
    exact arithmetic, such as a BSC's pair scores at equal output counts,
    sum to a few ulps whose sign the row's place in its block sets
    (`_count_scores`).

    Each block is decided as it is drawn, and only counts are kept. Trials
    are exchangeable, so of the source stage only the number that send
    x_tilde is kept, and each class's channel draws cover those trials
    first. Only the classes before the last add to a per-trial accumulator,
    so a one-class law (the CLI's default point mass) keeps no per-trial
    array and memory is bounded by a block; ``CHUNK_TRIALS`` only fixes the
    draw order.
    """
    rng = _substream(seed, n, stage)
    rejects = 0
    for done in range(0, trials, CHUNK_TRIALS):
        size = min(CHUNK_TRIALS, trials - done)
        reached = _add_draws(rng, n, source, source_scores, size,
                             threshold=n * theta0)
        if channel is not None:
            ch, classes, theta1 = channel
            split = size - reached
            acc = np.zeros(size) if len(classes) > 1 else None
            reached = 0
            for i, (a, b, count) in enumerate(classes):
                threshold = n * theta1 if i == len(classes) - 1 else None
                score = ch.pair_scores[a, b]
                for row, lo, hi in ((a, 0, split), (b, split, size)):
                    reached += _add_draws(
                        rng, count, ch.rows[row], score, hi - lo,
                        None if acc is None else acc[lo:hi], threshold)
        rejects += reached
    return rejects if stage == 0 else trials - rejects


def _simulate(p: Pmf, q: Pmf, theta0: float, cfg: SimConfig,
              channels: dict | None = None,
              realized_types: tuple | None = None) -> SimReport:
    """Runs the (n, hypothesis) tasks concurrently and fits the report;
    channels maps each n to its (ch, classes, theta1) for the separation
    scheme."""
    from concurrent.futures import ThreadPoolExecutor

    scores = _llr_vector(p, q)
    tasks = [(n, stage) for n in cfg.blocklengths for stage in (0, 1)]

    def run(task: tuple[int, int]) -> int:
        n, stage = task
        return _error_count(cfg.seed, n, stage, (p, q)[stage].probs, scores,
                            theta0, cfg.trials,
                            None if channels is None else channels[n])

    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    workers = min(cores, len(tasks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        errors = list(pool.map(run, tasks))
    alpha_err, beta_err = tuple(errors[0::2]), tuple(errors[1::2])
    alpha_hat = tuple(e / cfg.trials for e in alpha_err)
    beta_hat = tuple(e / cfg.trials for e in beta_err)
    return SimReport(cfg.blocklengths, cfg.trials, alpha_hat, beta_hat,
                     alpha_err, beta_err,
                     _try_fit(cfg.blocklengths, alpha_hat),
                     _try_fit(cfg.blocklengths, beta_hat),
                     realized_types=realized_types)


def fit_exponent(blocklengths, rates) -> FitResult:
    """Least-squares slope of -log(rate) against n.

    Zero rates are censored out; at least two positive points are required
    for a fit (two suffice when the exponent is large enough that longer
    blocklengths see no errors at a finite trial budget).
    """
    ns = np.asarray(blocklengths, dtype=float)
    rs = np.asarray(rates, dtype=float)
    if ns.shape != rs.shape or ns.size == 0:
        raise InputError("blocklengths and rates must align")
    positive = rs > 0
    censored = bool(np.any(~positive))
    if int(positive.sum()) < MIN_FIT_POINTS:
        raise EstimationError("too few positive error rates to fit an exponent")
    x = ns[positive]
    y = -np.log(rs[positive])
    coeffs, residuals, _, _ = np.linalg.lstsq(
        np.stack([x, np.ones_like(x)], axis=1), y, rcond=None)
    residual = float(residuals[0]) if residuals.size else 0.0
    return FitResult(float(coeffs[0]), residual, censored)


def _try_fit(blocklengths, rates) -> FitResult | None:
    try:
        return fit_exponent(blocklengths, rates)
    except EstimationError:
        return None


def simulate_direct(p: Pmf, q: Pmf, theta: float, cfg: SimConfig) -> SimReport:
    """Monte Carlo run of the direct NP test at threshold theta."""
    return _simulate(p, q, theta, cfg)


def simulate_rht(p_u: Pmf, q_u: Pmf, ch: Channel, theta0: float, theta1: float,
                 law: ChannelPairLaw, cfg: SimConfig) -> SimReport:
    """Monte Carlo run of the separation scheme: a local NP test on the
    source selects one of two type sequences, the channel corrupts it, and
    the decision maker thresholds the accumulated pair score."""
    _check_assumption(ch)
    channels = {n: (ch, _pair_counts(law, n), theta1) for n in cfg.blocklengths}
    realized = tuple(
        tuple((law.alphabet[a], law.alphabet[b], c / n) for a, b, c in classes)
        for n, (_, classes, _) in channels.items())
    return _simulate(p_u, q_u, theta0, cfg, channels, realized)
