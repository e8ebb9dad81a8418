"""Channel-coding exponent ingredients for unequal error protection.

Expurgated exponent over Bhattacharyya kernels, the special-message
protection exponent, the threshold interval it lives on, and the table of
all three over a grid of input designs that the SHTCC bounds share.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, InputError
from .legendre import conjugate_rows
from .optimize import (GRID_ROWS, chunked, grid_then_pattern, maximize_1d,
                       simplex_grid)
from .prob_core import Channel, JointPmf, conditional_kl_rows, live_groups

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
    """(groups, inf_below) of the expurgated objective
    -rho*R - rho*log(sum wl * exp(logb / rho)) of every joint P_SX of a
    (B, |X|, |X|) stack.

    groups are the `live_groups` (rows, (wl, logb)) of the pair weights and
    log Bhattacharyya entries, live where both are positive; a sum over a
    row runs over its live entries alone. Every diagonal entry of positive
    weight is live, so every design is in a group. Weight on zero kernel
    entries makes the objective grow linearly in rho once R < -log(sum wl),
    so the exponent is +inf for every rate below inf_below (-inf when no
    weight sits on a zero entry).
    """
    # pair weights w[x, x'] = sum_s P_S(s) P_{X|S}(x|s) P_{X|S}(x'|s)
    pxs = _input_given_state(p_sx)
    w = ((pxs.transpose(0, 2, 1) * p_sx.sum(axis=2)[:, None, :])
         @ pxs).reshape(len(p_sx), -1)
    b = bhattacharyya_kernel(ch).reshape(-1)
    live = (w > 0) & (b > 0)
    groups = list(live_groups(live, w, np.log(np.where(b > 0, b, 1.0))))
    heavy = ((w > 0) & (b == 0)).any(axis=1)
    inf_below = np.empty(len(w))
    for rows, (wl, _) in groups:
        inf_below[rows] = np.where(heavy[rows], -np.log(wl.sum(axis=1)),
                                   -np.inf)
    return groups, inf_below


def _rho_grids(groups, size: int) -> np.ndarray:
    """-rho*log(sum wl B^(1/rho)) on RHO_GRID (last axis) of each of the
    `size` designs of `_expurgation_terms` groups, the objective at rate 0:
    at R add -RHO_GRID * R. The (designs, RHO_GRID_POINTS, entries) powers
    of a group are built RHO_BLOCK designs at a time."""
    out = np.empty((size, RHO_GRID_POINTS))
    for rows, (wl, logb) in groups:
        def block(t):
            powers = np.exp(logb[t, None, :] / RHO_GRID[:, None])
            return -RHO_GRID * np.log((powers @ wl[t, :, None])[..., 0])
        out[rows] = chunked(block, len(rows), RHO_BLOCK)
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
    over each `_expurgation_terms` group's live entries."""
    kernel = np.empty(rho.size)
    for rows, (wl, logb) in groups:
        kernel[rows] = np.sum(wl * np.exp(logb / rho[rows, None]), axis=1)
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
    of RHO_GRID, from `_rho_grids`. Sums run over each design's own live
    kernel entries in the layout of `live_groups`, so each row keeps the
    bits it would have alone.
    """
    if not rate >= 0:
        raise DomainError("rate must be non-negative")
    groups, inf_below = _expurgation_terms(p_sx, ch)
    if rate == 0:
        values = np.empty(len(inf_below))
        for rows, (wl, logb) in groups:
            kernel = np.sum(wl * np.exp(np.minimum(logb, 0.0) / RHO_CAP),
                            axis=1)
            values[rows] = -RHO_CAP * np.log(kernel / np.sum(wl, axis=1)) + 0.0
    else:
        top = np.argmax(-RHO_GRID * rate + _rho_grids(groups, len(inf_below)),
                        axis=-1)
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


def _state_outputs(p_sx: np.ndarray, ch: Channel):
    """(P_S, rows P(y|S=s) = sum_x P(x|s) P(y|x)) of every joint P_SX of a
    (D, |X|, |X|) stack."""
    return p_sx.sum(axis=2), _input_given_state(p_sx) @ ch.rows


def _theta_bounds(ps: np.ndarray, pys: np.ndarray, ch: Channel):
    """(theta_l, theta_u) of every design of `_state_outputs`: the
    state-averaged divergences sum_s P(s) D(P(.|s) || W(.|s)) and
    sum_s P(s) D(W(.|s) || P(.|s))."""
    rows = np.broadcast_to(ch.rows, pys.shape)
    return conditional_kl_rows(ps, pys, rows), conditional_kl_rows(ps, rows, pys)


def theta_bounds(design: InputDesign, ch: Channel) -> tuple[float, float]:
    """State-averaged divergences between P(.|S=s) and the channel row at x=s."""
    _check_alphabet(design, ch)
    ps, pys = _state_outputs(design.joint.probs[None], ch)
    return tuple(bound[0] for bound in _theta_bounds(ps, pys, ch))


def _special_messages(ps: np.ndarray, pys: np.ndarray, ch: Channel,
                      thetas: np.ndarray) -> np.ndarray:
    """sum_s P(s) psi*_s(theta) of every design of `_state_outputs` at each
    of its thetas (D, T): psi*_s is the conjugate of the score
    log W(y|s) - log P(y|s) under P(.|s). Every (design, state, theta) with
    P(s) > 0 is one row of a `conjugate_rows` call, GRID_ROWS // T
    (design, state) pairs per call; the conjugates are summed over states
    in state order from 0.0, a zero-weight state adding nothing."""
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(pys > 0, np.log(ch.rows) - np.log(pys), 0.0)
    d, s = np.nonzero(ps > 0)
    t = thetas.shape[1]

    def solve(pairs: np.ndarray) -> np.ndarray:
        at = d[pairs], s[pairs]
        return conjugate_rows(np.repeat(pys[at], t, axis=0),
                              np.repeat(scores[at], t, axis=0),
                              thetas[at[0]].reshape(-1)).value

    psi = np.zeros(ps.shape + (t,))
    # reshaped after `chunked`: a stack with no pair makes no call
    psi[d, s] = chunked(solve, d.size, max(1, GRID_ROWS // t)).reshape(-1, t)
    total = 0.0
    for state in range(ps.shape[1]):
        total = total + ps[:, state, None] * psi[:, state]
    return total


def special_message_exponent(design: InputDesign, ch: Channel, theta):
    """State-averaged conjugate of the special-message log-likelihood score.

    theta must lie in the closed interval [-theta_l, theta_u]; endpoint
    evaluations return the limiting values. Elementwise over an array of
    theta: the one-design `_special_messages`.
    """
    theta_l, theta_u = theta_bounds(design, ch)
    if not np.all((-theta_l <= np.asarray(theta)) & (theta <= theta_u)):
        raise DomainError(
            f"theta={theta} outside the admissible interval ({-theta_l}, {theta_u})")
    values = _special_messages(*_state_outputs(design.joint.probs[None], ch),
                               ch, np.reshape(theta, (1, -1)))
    return values.reshape(np.shape(theta))[()]


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
        """The table of a (D, |X|, |X|) stack of joints, every column
        computed for all designs at once."""
        groups, inf_below = _expurgation_terms(p_sx, ch)
        d, n = p_sx.shape[:2]
        ps, pys = _state_outputs(p_sx, ch)
        # I(X;Y|S) = sum_{s,x} P(s) P(x|s) D(W(.|x) || P(.|s)), s-major
        rate = conditional_kl_rows(
            (ps[..., None] * _input_given_state(p_sx)).reshape(d, -1),
            np.tile(ch.rows, (d, n, 1)), np.repeat(pys, n, axis=1))
        theta_l, theta_u = _theta_bounds(ps, pys, ch)
        ok = np.isfinite(theta_l) & np.isfinite(theta_u)
        thetas = np.full((d, theta_points), np.nan)
        # numpy's linspace takes its zero-step formula for a whole stack of
        # ranges once one has a zero step: those ranges go in a call apart
        zero = (theta_u + theta_l) / max(theta_points - 1, 1) == 0
        for rows in (ok & zero, ok & ~zero):
            thetas[rows] = np.linspace(-theta_l[rows], theta_u[rows],
                                       theta_points, axis=-1)
        e_sp = np.full(thetas.shape, -np.inf)
        e_sp[ok] = _special_messages(ps[ok], pys[ok], ch, thetas[ok])
        at_zero = _rho_grids(groups, d)
        return ChannelTable(p_sx, rate, theta_l, at_zero, inf_below, thetas, e_sp)

    def expurgated(self, rates) -> np.ndarray:
        """E_x (R, D) at each of R rates of every design."""
        rates = np.asarray(rates, dtype=float)[:, None]
        # a design at a time: an (R, D, RHO_GRID_POINTS) block raised memory
        out = np.stack([np.max(-RHO_GRID * rates + at_zero, axis=1)
                        for at_zero in self.at_zero], axis=1)
        # + 0.0: a design that carries no information reads 0.0, not -0.0
        return np.where(rates < self.inf_below, np.inf, out + 0.0)

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
