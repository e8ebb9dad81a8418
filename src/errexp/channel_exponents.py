"""Channel-coding exponent ingredients for unequal error protection.

Expurgated exponent over Bhattacharyya kernels, the special-message
protection exponent, the threshold interval it lives on, and the table of
all three over a grid of input designs that the SHTCC bounds share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InputError
from .legendre import ScoredPmf, conjugate
from .optimize import grid_then_pattern, maximize_1d, simplex_grid
from .prob_core import Channel, JointPmf, Pmf, conditional_kl_arrays

RHO_CAP = 1e4
RHO_GRID_POINTS = 80
RHO_GRID = np.geomspace(1.0, RHO_CAP, RHO_GRID_POINTS)
RHO_GRID.flags.writeable = False
# designs whose rho grids are scored at once: the (RHO_BLOCK, RHO_GRID_POINTS,
# k) power stacks stay small; a 256-design stack in one piece raised the peak
# memory of a command by about 1 MB
RHO_BLOCK = 32


@dataclass(frozen=True)
class InputDesign:
    """Joint law of a state S and the channel input X, with S and X sharing
    the channel input alphabet."""

    joint: JointPmf

    def __post_init__(self) -> None:
        if self.joint.row_alphabet != self.joint.col_alphabet:
            raise InputError("design requires the state alphabet to equal the input alphabet")

    @property
    def state_probs(self) -> np.ndarray:
        return self.joint.probs.sum(axis=1)

    @property
    def input_given_state(self) -> np.ndarray:
        return _input_given_state(self.joint.probs)

    @staticmethod
    def from_matrix(alphabet, matrix) -> "InputDesign":
        alphabet = tuple(alphabet)
        return InputDesign(JointPmf(alphabet, alphabet, matrix))


def _input_given_state(p_sx: np.ndarray) -> np.ndarray:
    """P_{X|S} rows of a joint P_SX (or of each of a stack); uniform rows
    where P_S(s) = 0."""
    marg = p_sx.sum(axis=-1)[..., None]
    return np.where(marg > 0, p_sx / np.where(marg > 0, marg, 1.0),
                    1.0 / p_sx.shape[-1])


def _check_alphabet(design: InputDesign, ch: Channel) -> None:
    if design.joint.row_alphabet != ch.input_alphabet:
        raise InputError("design alphabet does not match channel input alphabet")


def bhattacharyya_kernel(ch: Channel) -> np.ndarray:
    """B[x, x'] = sum_y sqrt(P(y|x) P(y|x'))."""
    return np.sqrt(ch.rows) @ np.sqrt(ch.rows).T


def _expurgation_terms(p_sx: np.ndarray, ch: Channel):
    """(wl, logb, k, inf_below) of the expurgated objective
    -rho*R - rho*log(sum wl * exp(logb / rho)) of every joint P_SX of a
    (B, |X|, |X|) stack.

    Row b of wl and logb holds the pair weights and log Bhattacharyya
    entries of its k[b] live entries, where both are positive, packed to the
    front in index order, then zeros; a sum over a row runs over its first
    k[b] entries only, as over the live entries alone. Every diagonal entry
    of positive weight is live, so k >= 1. Weight on zero kernel entries
    makes the objective grow linearly in rho once R < -log(sum wl), so the
    exponent is +inf for every rate below inf_below (-inf when no weight
    sits on a zero entry).
    """
    # pair weights w[x, x'] = sum_s P_S(s) P_{X|S}(x|s) P_{X|S}(x'|s)
    pxs = _input_given_state(p_sx)
    w = ((pxs.transpose(0, 2, 1) * p_sx.sum(axis=2)[:, None, :])
         @ pxs).reshape(len(p_sx), -1)
    b = bhattacharyya_kernel(ch).reshape(-1)
    live = (w > 0) & (b > 0)
    k = live.sum(axis=1)
    order = np.argsort(~live, axis=1, kind="stable")
    packed = np.arange(b.size) < k[:, None]
    wl = np.where(packed, np.take_along_axis(w, order, axis=1), 0.0)
    logb = np.where(packed, np.log(np.where(b > 0, b, 1.0))[order], 0.0)
    heavy = ((w > 0) & (b == 0)).any(axis=1)
    inf_below = np.empty(len(w))
    for rows, n in _live_groups(k):
        inf_below[rows] = np.where(heavy[rows],
                                   -np.log(wl[rows, :n].sum(axis=1)), -np.inf)
    return wl, logb, k, inf_below


def _live_groups(k: np.ndarray) -> list[tuple[np.ndarray, int]]:
    """(rows, n) of each live-entry count n in the array k."""
    return [(np.flatnonzero(k == n), int(n))
            for n in np.flatnonzero(np.bincount(k))]


def _rho_grid_at_zero(wl: np.ndarray, logb: np.ndarray,
                      k: np.ndarray) -> np.ndarray:
    """-rho*log(sum wl B^(1/rho)) on RHO_GRID (last axis) of every row of
    `_expurgation_terms`, the objective at rate 0: at R add -RHO_GRID * R.
    A row sums its own k live entries, rows of one count k stacked."""
    out = np.empty((len(k), RHO_GRID_POINTS))
    for rows, n in _live_groups(k):
        powers = np.exp(logb[rows, None, :n] / RHO_GRID[:, None])
        out[rows] = -RHO_GRID * np.log((powers @ wl[rows, :n, None])[..., 0])
    return out


def expurgated_exponent(rate: float, design: InputDesign, ch: Channel) -> float:
    """Expurgated channel exponent at the given rate, in nats.

    Maximizes -rho*R - rho*log(sum w B^(1/rho)) over 1 <= rho <= RHO_CAP:
    at R = 0 by one evaluation at RHO_CAP, otherwise via a log-spaced grid
    and golden-section refinement (see `expurgated_exponents`). Diverges to
    +inf exactly when the kernel has zero entries carrying weight and the
    remaining mass is small enough that the objective grows linearly in rho.
    """
    _check_alphabet(design, ch)
    return float(expurgated_exponents(rate, design.joint.probs[None], ch)[0])


def _kernel_sums(groups, rho: np.ndarray) -> np.ndarray:
    """sum wl B^(1/rho) of every design, at its own entry of rho, a sum
    over each (rows, wl, logb) group's live entries."""
    kernel = np.empty(rho.size)
    for rows, w_n, b_n in groups:
        kernel[rows] = np.sum(w_n * np.exp(b_n / rho[rows, None]), axis=1)
    return kernel


def expurgated_exponents(rate: float, p_sx: np.ndarray,
                         ch: Channel) -> np.ndarray:
    """`expurgated_exponent` of every joint P_SX of a (B, |X|, |X|) stack,
    in lockstep, each value replaced by +inf below its inf_below.

    At R = 0 the maximum over rho sits at RHO_CAP. Write
    f(s) = log sum w B^s with s = 1/rho; f is convex (a log-sum-exp of
    lines in s), and f(0) = log sum w = 0 for every design with no weight
    on a zero kernel entry (the others are +inf at rate 0). So the objective
    -rho*f(1/rho) = -(f(s) - f(0)) / (s - 0) is minus the chord slope of f
    from 0. That slope does not rise as s falls, so the objective is
    non-decreasing in rho = 1/s, and each design takes one evaluation at
    RHO_CAP, the end of [1, RHO_CAP]. There log B is clipped at 0 (B <= 1
    by Cauchy-Schwarz, so only rounding lies above) and the kernel sum is
    divided by sum w, so that every term is at most its weight: the value
    is never below 0, exactly 0 on a useless or one-input channel, and
    never -0.0.

    At R > 0 every design runs in one golden section around its best point
    of RHO_GRID, which is scored RHO_BLOCK designs at a time. Sums run over
    each design's own live kernel entries, with the designs of one
    live-entry count stacked as (designs, entries), so each row keeps the
    bits it would have alone.
    """
    if not rate >= 0:
        raise DomainError("rate must be non-negative")
    wl, logb, k, inf_below = _expurgation_terms(p_sx, ch)
    groups = [(rows, wl[rows, :n], logb[rows, :n])
              for rows, n in _live_groups(k)]
    if rate == 0:
        mass = np.empty(len(k))
        for rows, w_n, _ in groups:
            mass[rows] = np.sum(w_n, axis=1)
        kernel = _kernel_sums([(rows, w_n, np.minimum(b_n, 0.0))
                               for rows, w_n, b_n in groups],
                              np.full(len(k), RHO_CAP))
        values = -RHO_CAP * np.log(kernel / mass) + 0.0
    else:
        top = np.empty(len(k), dtype=int)
        for s in range(0, len(k), RHO_BLOCK):
            block = slice(s, s + RHO_BLOCK)
            top[block] = np.argmax(-RHO_GRID * rate + _rho_grid_at_zero(
                wl[block], logb[block], k[block]), axis=-1)
        lo = RHO_GRID[np.maximum(top - 1, 0)]
        hi = RHO_GRID[np.minimum(top + 1, RHO_GRID_POINTS - 1)]
        values = maximize_1d(
            lambda rho: -rho * rate - rho * np.log(_kernel_sums(groups, rho)),
            lo, hi, tol=1e-9)[1]
    return np.where(rate < inf_below, np.inf, values)


def expurgated_exponent_opt(rate: float, ch: Channel,
                            grid_resolution: int = 20,
                            pattern_min_step: float = 1e-4) -> tuple[float, InputDesign]:
    """Expurgated exponent maximized over input designs (grid + pattern
    search); the grid and every pattern-search sweep are scored as one
    stack."""
    n = len(ch.input_alphabet)

    def score(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return expurgated_exponents(rate, stack.reshape(-1, n, n), ch)

    candidates = ([vec] for vec in simplex_grid(n * n, grid_resolution))
    [blocks], [val] = grid_then_pattern(score, candidates,
                                        min_step=pattern_min_step)
    return val, InputDesign.from_matrix(ch.input_alphabet,
                                        blocks[0].reshape(n, n))


def bsc_expurgated_zero_rate(p: float) -> float:
    """Closed-form zero-rate expurgated exponent of a binary symmetric channel."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("crossover must lie in [0, 1]")
    if p in (0.0, 1.0):
        return float("inf")
    return -0.25 * float(np.log(4.0 * p * (1.0 - p)))


def output_given_state(design: InputDesign, ch: Channel) -> np.ndarray:
    """Rows P(y | S=s) = sum_x P(x|s) P(y|x)."""
    return design.input_given_state @ ch.rows


def theta_bounds(design: InputDesign, ch: Channel) -> tuple[float, float]:
    """State-averaged divergences between P(.|S=s) and the channel row at x=s."""
    _check_alphabet(design, ch)
    ps = design.state_probs
    pys = output_given_state(design, ch)
    return (conditional_kl_arrays(ps, pys, ch.rows),
            conditional_kl_arrays(ps, ch.rows, pys))


def special_message_exponent(design: InputDesign, ch: Channel, theta):
    """State-averaged conjugate of the special-message log-likelihood score.

    theta must lie in the closed interval [-theta_l, theta_u]; endpoint
    evaluations return the limiting values. Elementwise over an array of
    theta, whose conjugates are solved in lockstep.
    """
    theta_l, theta_u = theta_bounds(design, ch)
    if not np.all((-theta_l <= np.asarray(theta)) & (theta <= theta_u)):
        raise DomainError(
            f"theta={theta} outside the admissible interval ({-theta_l}, {theta_u})")
    ps = design.state_probs
    pys = output_given_state(design, ch)
    total = 0.0
    for s, weight in enumerate(ps):
        if weight == 0:
            continue
        base = Pmf(ch.output_alphabet, pys[s])
        mask = pys[s] > 0
        scores = np.zeros(len(ch.output_alphabet))
        with np.errstate(divide="ignore"):
            scores[mask] = np.log(ch.rows[s][mask]) - np.log(pys[s][mask])
        total += weight * conjugate(ScoredPmf(base, scores), theta).value
    return total


# ---------------------------------------------------------------------------
# Channel-side design table shared by the SHTCC bounds


@dataclass(frozen=True, eq=False)
class ChannelTable:
    """The channel side of D designs P_SX, a row each: the joint, the rate
    I(X;Y|S), theta_l, the expurgated objective at rate 0 on RHO_GRID, the
    rate below which E_x is +inf, and thetas on [-theta_l, theta_u] with
    their E_sp. A design with an infinite theta bound (inputs of disjoint
    rows) has NaN thetas and E_sp -inf: no theta is feasible for it."""

    p_sx: np.ndarray
    rate: np.ndarray
    theta_l: np.ndarray
    at_zero: np.ndarray
    inf_below: np.ndarray
    thetas: np.ndarray
    e_sp: np.ndarray

    def __post_init__(self) -> None:
        for arr in vars(self).values():
            arr.flags.writeable = False  # the table is shared

    @staticmethod
    def of(p_sx: np.ndarray, ch: Channel, theta_points: int) -> "ChannelTable":
        """The table of a (D, |X|, |X|) stack of joints."""
        wl, logb, k, inf_below = _expurgation_terms(p_sx, ch)
        rate, theta_l = np.empty(len(p_sx)), np.empty(len(p_sx))
        thetas = np.full((len(p_sx), theta_points), np.nan)
        e_sp = np.full(thetas.shape, -np.inf)
        for d, joint in enumerate(p_sx):
            design = InputDesign.from_matrix(ch.input_alphabet, joint)
            # I(X;Y|S) = sum_{s,x} P(s) P(x|s) D(W(.|x) || P(.|s)), s-major
            w_sx = design.state_probs[:, None] * design.input_given_state
            rate[d] = conditional_kl_arrays(
                w_sx.reshape(-1), np.tile(ch.rows, (len(w_sx), 1)),
                np.repeat(output_given_state(design, ch), len(w_sx), axis=0))
            theta_l[d], theta_u = theta_bounds(design, ch)
            if np.isfinite(theta_l[d]) and np.isfinite(theta_u):
                thetas[d] = np.linspace(-theta_l[d], theta_u, theta_points)
                e_sp[d] = special_message_exponent(design, ch, thetas[d])
        at_zero = _rho_grid_at_zero(wl, logb, k)
        return ChannelTable(p_sx, rate, theta_l, at_zero, inf_below, thetas, e_sp)

    def expurgated(self, rates) -> np.ndarray:
        """E_x (R, D) at each of R rates of every design."""
        rates = np.asarray(rates, dtype=float)[:, None]
        # a design at a time: an (R, D, RHO_GRID_POINTS) block raised memory
        out = np.stack([np.max(-RHO_GRID * rates + at_zero, axis=1)
                        for at_zero in self.at_zero], axis=1)
        return np.where(rates < self.inf_below, np.inf, out)

    def theta_terms(self, kappa_alpha) -> tuple[np.ndarray, np.ndarray]:
        """Per design, at a kappa_alpha or at each of an array of them (one
        row each): the max of E_sp - theta over thetas with E_sp >=
        kappa_alpha and the first theta attaining it (-inf and NaN if none)."""
        kappa = np.asarray(kappa_alpha, dtype=float)[..., None, None]
        vals = np.where(self.e_sp >= kappa, self.e_sp - self.thetas, -np.inf)
        top = vals.argmax(axis=-1)[..., None]  # the first of equal maxima
        term, theta = (np.take_along_axis(a, top, axis=-1)[..., 0]
                       for a in (vals, np.broadcast_to(self.thetas, vals.shape)))
        return term, np.where(term > -np.inf, theta, np.nan)


def channel_table(ch: Channel, sx_resolution: int,
                  theta_points: int) -> ChannelTable:
    """The `ChannelTable` of the P_SX designs on the simplex grid of the
    given resolution, with theta_points thresholds each."""
    n = len(ch.input_alphabet)
    return ChannelTable.of(
        np.reshape(list(simplex_grid(n * n, sx_resolution)), (-1, n, n)),
        ch, theta_points)
