"""Channel-coding exponent ingredients for unequal error protection.

Expurgated exponent over Bhattacharyya kernels, the special-message
protection exponent, and the threshold interval it lives on.
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

    @staticmethod
    def deterministic(alphabet) -> "InputDesign":
        """X = S with uniform S."""
        alphabet = tuple(alphabet)
        n = len(alphabet)
        return InputDesign(JointPmf(alphabet, alphabet, np.eye(n) / n))


def _input_given_state(p_sx: np.ndarray) -> np.ndarray:
    """P_{X|S} rows of a joint P_SX; uniform rows where P_S(s) = 0."""
    marg = p_sx.sum(axis=1)[:, None]
    return np.where(marg > 0, p_sx / np.where(marg > 0, marg, 1.0),
                    1.0 / p_sx.shape[1])


def bhattacharyya_kernel(ch: Channel) -> np.ndarray:
    """B[x, x'] = sum_y sqrt(P(y|x) P(y|x'))."""
    return np.sqrt(ch.rows) @ np.sqrt(ch.rows).T


def _pair_weights(p_sx: np.ndarray) -> np.ndarray:
    """w[x, x'] = sum_s P_S(s) P_{X|S}(x|s) P_{X|S}(x'|s) of a joint P_SX."""
    pxs = _input_given_state(p_sx)
    return (pxs.T * p_sx.sum(axis=1)) @ pxs


def _expurgation_terms(p_sx: np.ndarray, ch: Channel):
    """(wl, logb, powers, inf_below) of the expurgated objective
    -rho*R - rho*log(sum wl * exp(logb / rho)) of a joint P_SX.

    wl and logb are the pair weights and log Bhattacharyya entries where both
    are positive; powers holds exp(logb / rho) per RHO_GRID point (rows) and
    entry (columns). Weight on zero kernel entries makes the objective grow
    linearly in rho once R < -log(sum wl), so the exponent is +inf for every
    rate below inf_below (-inf when no weight sits on a zero entry).
    """
    w = _pair_weights(p_sx).reshape(-1)
    b = bhattacharyya_kernel(ch).reshape(-1)
    live = (w > 0) & (b > 0)
    wl = w[live]
    inf_below = -np.inf
    if float(w[(w > 0) & (b == 0)].sum()) > 0:
        live_mass = float(wl.sum())
        inf_below = np.inf if live_mass == 0.0 else -float(np.log(live_mass))
    logb = np.log(b[live])
    return wl, logb, np.exp(logb[None, :] / RHO_GRID[:, None]), inf_below


def _rho_grid_objective(rate: float, wl: np.ndarray,
                        powers: np.ndarray) -> np.ndarray:
    """The expurgated objective -rho*R - rho*log(sum wl B^(1/rho)) on RHO_GRID."""
    return -RHO_GRID * rate - RHO_GRID * np.log(powers @ wl)


def expurgated_exponent(rate: float, design: InputDesign, ch: Channel) -> float:
    """Expurgated channel exponent at the given rate, in nats.

    Maximizes -rho*R - rho*log(sum w B^(1/rho)) over rho >= 1 via a
    log-spaced grid and golden-section refinement. Diverges to +inf exactly
    when the kernel has zero entries carrying weight and the remaining mass
    is small enough that the objective grows linearly in rho.
    """
    if design.joint.row_alphabet != ch.input_alphabet:
        raise InputError("design alphabet does not match channel input alphabet")
    return float(expurgated_exponents(rate, design.joint.probs[None], ch)[0])


def expurgated_exponents(rate: float, p_sx: np.ndarray,
                         ch: Channel) -> np.ndarray:
    """`expurgated_exponent` of every joint P_SX of a (B, |X|, |X|) stack,
    refined in lockstep.

    Designs whose objectives have one number of live kernel entries share
    one golden section over a (designs, entries) stack, so each row's sums
    keep the bits of its own refinement.
    """
    if rate < 0:
        raise DomainError("rate must be non-negative")
    values = np.full(len(p_sx), np.inf)
    stacks: dict[int, list] = {}
    for i, joint in enumerate(p_sx):
        wl, logb, powers, inf_below = _expurgation_terms(joint, ch)
        if rate < inf_below:
            continue
        k = int(np.argmax(_rho_grid_objective(rate, wl, powers)))
        stacks.setdefault(wl.size, []).append(
            (i, wl, logb, RHO_GRID[max(k - 1, 0)],
             RHO_GRID[min(k + 1, RHO_GRID_POINTS - 1)]))
    for rows in stacks.values():
        idx, wl, logb, lo, hi = (np.array(col) for col in zip(*rows))

        def objective(rho: np.ndarray) -> np.ndarray:
            kernel = np.sum(wl * np.exp(logb / rho[:, None]), axis=1)
            return -rho * rate - rho * np.log(kernel)

        values[idx] = maximize_1d(objective, lo, hi, tol=1e-9)[1]
    return values


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
        scores[(pys[s] == 0)] = 0.0
        total += weight * conjugate(ScoredPmf(base, scores), theta).value
    return total
