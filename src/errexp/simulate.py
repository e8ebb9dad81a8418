"""Monte Carlo verification of the analytic exponents.

Simulates the Neyman-Pearson test for direct hypothesis testing and the
two-codeword separation scheme for remote testing over a channel, then fits
empirical error exponents against blocklength. Sequences are never
materialized: the tests depend on the data only through symbol counts, so
trials are drawn as multinomial types.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact_regions import ChannelPairLaw, _check_assumption
from .exceptions import EstimationError, InputError
from .legendre import loglik_scores
from .prob_core import Channel, Pmf

CHUNK_TRIALS = 250_000
MIN_FIT_POINTS = 2


@dataclass(frozen=True)
class SimConfig:
    """Blocklength grid, trial budget and seed."""

    blocklengths: tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self) -> None:
        ns = tuple(int(n) for n in self.blocklengths)
        if len(ns) == 0 or any(n < 1 for n in ns):
            raise InputError("blocklengths must be positive")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise InputError("blocklengths must be strictly increasing")
        if self.trials < 1:
            raise InputError("trials must be >= 1")
        if self.seed < 0:
            raise InputError("seed must be non-negative")
        object.__setattr__(self, "blocklengths", ns)


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

    Within one hypothesis a trial never holds both +inf and -inf atoms (the
    signs are tied to which support the samples came from), so the two
    infinite cases are exclusive.
    """
    finite = np.isfinite(scores)
    total = counts[:, finite].astype(float) @ scores[finite]
    pos = counts[:, np.isposinf(scores)].sum(axis=1) > 0
    neg = counts[:, np.isneginf(scores)].sum(axis=1) > 0
    total = np.where(pos, np.inf, total)
    total = np.where(neg, -np.inf, total)
    return total


def np_decide(seq, p: Pmf, q: Pmf, theta: float) -> str:
    """Neyman-Pearson threshold test; returns "H1" iff the accumulated
    log-likelihood ratio reaches n*theta (ties decide H1)."""
    scores = _llr_vector(p, q)
    seq = tuple(seq)
    counts = np.zeros(len(p), dtype=np.int64)
    for z in seq:
        counts[p.index(z)] += 1
    stat = _count_scores(counts[None, :], scores)[0]
    return "H1" if stat >= len(seq) * theta else "H0"


def build_type_sequences(law: ChannelPairLaw, n: int):
    """Length-n sequence pair whose joint type tracks the law by
    largest-remainder apportionment (lexicographic tie-break on pairs)."""
    if n < 1:
        raise InputError("n must be >= 1")
    alphabet = law.alphabet
    pairs = [(a, b) for a in alphabet for b in alphabet]
    probs = law.probs.reshape(-1)
    raw = n * probs
    counts = np.floor(raw).astype(np.int64)
    remainder = raw - counts
    short = n - int(counts.sum())
    # stable sort: descending remainder, lexicographic pair order on ties
    order = sorted(range(len(pairs)), key=lambda i: (-remainder[i], i))
    for i in order[:short]:
        counts[i] += 1
    x_tilde, x_prime = [], []
    for (a, b), c in zip(pairs, counts):
        x_tilde.extend([a] * int(c))
        x_prime.extend([b] * int(c))
    return tuple(x_tilde), tuple(x_prime)


def _substream(seed: int, n: int, stage: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(n, stage)))


def _direct_error_count(rng: np.random.Generator, sampling: np.ndarray,
                        scores: np.ndarray, n: int, trials: int,
                        theta: float, reject_is_error: bool) -> int:
    errors = 0
    done = 0
    while done < trials:
        batch = min(CHUNK_TRIALS, trials - done)
        counts = rng.multinomial(n, sampling, size=batch)
        stat = _count_scores(counts, scores)
        reject = stat >= n * theta
        errors += int(np.count_nonzero(reject if reject_is_error else ~reject))
        done += batch
    return errors


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
    scores = _llr_vector(p, q)
    alpha_err, beta_err = [], []
    for n in cfg.blocklengths:
        alpha_err.append(_direct_error_count(
            _substream(cfg.seed, n, 0), p.probs, scores, n, cfg.trials,
            theta, reject_is_error=True))
        beta_err.append(_direct_error_count(
            _substream(cfg.seed, n, 1), q.probs, scores, n, cfg.trials,
            theta, reject_is_error=False))
    alpha_hat = tuple(e / cfg.trials for e in alpha_err)
    beta_hat = tuple(e / cfg.trials for e in beta_err)
    return SimReport(cfg.blocklengths, cfg.trials, alpha_hat, beta_hat,
                     tuple(alpha_err), tuple(beta_err),
                     _try_fit(cfg.blocklengths, alpha_hat),
                     _try_fit(cfg.blocklengths, beta_hat))


def _pair_counts(law: ChannelPairLaw, n: int) -> list[tuple[int, int, int]]:
    """(index of x_tilde, index of x_prime, count) classes of the realized
    sequence pair."""
    x_tilde, x_prime = build_type_sequences(law, n)
    classes: dict[tuple[int, int], int] = {}
    alphabet = list(law.alphabet)
    for a, b in zip(x_tilde, x_prime):
        key = (alphabet.index(a), alphabet.index(b))
        classes[key] = classes.get(key, 0) + 1
    return [(a, b, c) for (a, b), c in sorted(classes.items())]


def _channel_stat(rng: np.random.Generator, ch: Channel,
                  classes: list[tuple[int, int, int]], transmit_prime: np.ndarray,
                  n_trials: int) -> np.ndarray:
    """Decoder statistic per trial: accumulated pair score of the channel
    output, with the transmitted row selected per trial."""
    stat = np.zeros(n_trials)
    rows = ch.rows
    for a, b, count in classes:
        score = ch.pair_scores[a, b]
        for transmit_b in (False, True):
            mask = transmit_prime == transmit_b
            m = int(np.count_nonzero(mask))
            if m == 0:
                continue
            y_counts = rng.multinomial(count, rows[b if transmit_b else a], size=m)
            stat[mask] += _count_scores(y_counts, score)
    return stat


def simulate_rht(p_u: Pmf, q_u: Pmf, ch: Channel, theta0: float, theta1: float,
                 law: ChannelPairLaw, cfg: SimConfig) -> SimReport:
    """Monte Carlo run of the separation scheme: a local NP test on the
    source selects one of two type sequences, the channel corrupts it, and
    the decision maker thresholds the accumulated pair score."""
    _check_assumption(ch)
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
                batch = min(CHUNK_TRIALS, cfg.trials - done)
                u_counts = rng.multinomial(n, source.probs, size=batch)
                local_stat = _count_scores(u_counts, source_scores)
                transmit_prime = local_stat >= n * theta0
                stat = _channel_stat(rng, ch, classes, transmit_prime, batch)
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
