"""Computable inner bounds for distributed hypothesis testing over a channel.

Separation-based (SHTCC) bounds specialized to testing against independence
and against dependence, their Stein limits, and the uncoded joint-scheme
bound, all expressed through KL-ball projections and information quantities.
The KL-ball layer is `kl_ball` and the channel-coding layer
`channel_exponents`; this module holds the schemes, their objectives and
their configs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .channel_exponents import channel_table, expurgated_exponent_opt
from .exceptions import InputError
from .kl_ball import ball_optimize, project_components
from .optimize import grid_pass, grid_then_pattern, simplex_grid
from .prob_core import (Channel, JointPmf, Pmf, capacity,
                        conditional_kl_rows, kl_row_groups, kl_rows,
                        mutual_information_pairs, mutual_information_rows)

PRODUCT_TOL = 1e-12


@dataclass(frozen=True)
class SourceModel:
    """The two hypotheses on (U, V): H0 law P_UV versus H1 law Q_UV."""

    p_uv: JointPmf
    q_uv: JointPmf

    def __post_init__(self) -> None:
        if (self.p_uv.row_alphabet != self.q_uv.row_alphabet
                or self.p_uv.col_alphabet != self.q_uv.col_alphabet):
            raise InputError("P_UV and Q_UV must share alphabets")

    @property
    def is_tai(self) -> bool:
        """Testing against independence: Q_UV is the product of P's marginals."""
        return _is_product_of_marginals(self.q_uv, self.p_uv)

    @property
    def is_tad(self) -> bool:
        """Testing against dependence: P_UV is the product of Q's marginals."""
        return _is_product_of_marginals(self.p_uv, self.q_uv)


def _is_product_of_marginals(joint: JointPmf, of: JointPmf) -> bool:
    """Whether joint is within PRODUCT_TOL of the product of of's marginals."""
    prod = np.outer(of.row_marginal().probs, of.col_marginal().probs)
    return bool(np.max(np.abs(joint.probs - prod)) <= PRODUCT_TOL)


@dataclass(frozen=True)
class AuxiliaryDesign:
    """Time-share P_S and per-(u, s) channel-input rows P_{X|US} (shape
    |U| x |S| x |X|) of the uncoded JHTCC scheme."""

    p_s: Pmf
    p_x_given_us: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.p_x_given_us, dtype=float)
        if arr.ndim != 3:
            raise InputError("P_{X|US} must have shape (|U|, |S|, |X|)")
        if np.any(arr < 0) or np.max(np.abs(arr.sum(axis=2) - 1.0)) > 1e-9:
            raise InputError("P_{X|US} rows must be stochastic")
        object.__setattr__(self, "p_x_given_us", arr)

    @staticmethod
    def identity_uncoded(n_u: int) -> "AuxiliaryDesign":
        """X = U with a single time-share state."""
        rows = np.eye(n_u)[:, None, :]
        return AuxiliaryDesign(p_s=Pmf((0,), [1.0]), p_x_given_us=rows)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: its value, the achieving design, and the
    feasibility record needed to audit it."""

    name: str
    kappa_alpha: float
    value: float
    achiever: dict
    feasible: bool


@dataclass(frozen=True)
class DhtSearchConfig:
    """Grid resolutions and step of the SHTCC searches and zeta_rho."""

    design_resolution: int = 4
    ball_resolution: int = 10
    sx_resolution: int = 6
    theta_points: int = 33
    pattern_min_step: float = 1e-3

    def __post_init__(self) -> None:
        # a zero resolution empties a search; a zero step never ends one
        sizes = (self.design_resolution, self.ball_resolution,
                 self.sx_resolution, self.theta_points)
        if not (all(isinstance(v, (int, np.integer)) and v >= 1 for v in sizes)
                and 0 < self.pattern_min_step < np.inf):
            raise InputError("resolutions must be integers >= 1 and "
                             f"pattern_min_step finite and > 0: {self}")


# ---------------------------------------------------------------------------
# Uncoded joint scheme


def _vy_laws(model: SourceModel, ch: Channel,
             pxus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_{VY|S=s} and Q_{VY|S=s} of every design in a (B, |U|, |S|, |X|)
    stack of P_{X|US} rows, as two (B, |S|, |V||Y|) stacks."""
    b, _, n_s, _ = pxus.shape
    y_given_us = pxus.transpose(0, 2, 1, 3) @ ch.rows   # B x |S| x |U| x |Y|
    return ((model.p_uv.probs.T @ y_given_us).reshape(b, n_s, -1),
            (model.q_uv.probs.T @ y_given_us).reshape(b, n_s, -1))


def jhtcc_uncoded(model: SourceModel, ch: Channel, kappa_alpha: float,
                  design: AuxiliaryDesign) -> float:
    """Uncoded-transmission bound kappa_u for a fixed (P_S, P_{X|US}) design."""
    pxus = design.p_x_given_us
    if (pxus.shape[0] != len(model.p_uv.row_alphabet)
            or pxus.shape[2] != len(ch.input_alphabet)):
        raise InputError("P_{X|US} shape does not match |U| and |X|")
    if pxus.shape[1] != len(design.p_s):
        raise InputError("P_{X|US} state count does not match P_S")
    return float(_uncoded_values(model, ch, kappa_alpha, design.p_s.probs[None],
                                 pxus[None])[0])


def _uncoded_values(model: SourceModel, ch: Channel, kappa_alpha,
                    p_s: np.ndarray, pxus: np.ndarray) -> np.ndarray:
    """`jhtcc_uncoded` of every design of a stack: time shares p_s
    (B, |S|) and P_{X|US} rows pxus (B, |U|, |S|, |X|), at one kappa_alpha
    for all or one per design."""
    return project_components(p_s, *_vy_laws(model, ch, pxus), kappa_alpha)[1]


def _design_search(values, model: SourceModel, ch: Channel,
                   kappa: np.ndarray) -> tuple[list, np.ndarray]:
    """Best single-state P_{X|U} rows, as (|U|, |X|) arrays (None where all
    score -inf), and values of R problems, problem r at the radius kappa[r]
    of the (R,) array, scored by `values(model, ch, kappa, p_s, pxus)` on
    stacks, one radius per row, with the time share p_s a column of ones
    and pxus of shape (B, |U|, 1, |X|): every deterministic map u -> x, for
    every problem, in one `grid_pass`.

    The enumeration is exact over every uncoded design (P_S, P_{X|US}).
    Both P_{VY|S=s} and Q_{VY|S=s} are linear in P_{X|US}, and kappa_u, the
    KL-ball projection, has the dual sup_{mu >= 0} -mu kappa - (1 + mu)
    sum_s P(s) log sum P_s^{mu/(1+mu)} Q_s^{1/(1+mu)} (Hoeffding, Ann.
    Math. Stat. 1965). The inner sum is a weighted geometric mean, jointly
    concave in (P_s, Q_s), so minus its log is convex, and a supremum of
    convex functions is convex: at a fixed P_S, kappa_u is convex in
    P_{X|US}. At fixed rows P_{X|US}, the laws P_s and Q_s do not depend on
    P_S, which enters the dual linearly inside the supremum: kappa_u is
    convex in P_S too. A convex function on a product of simplices attains
    its maximum at a vertex (Rockafellar, Convex Analysis, Cor. 32.3.2). In
    P_S the vertex is one state s, where kappa_u is the single-state value
    of the rows P_{X|U,S=s}; in those rows the vertices are the |X|^|U|
    maps. So time sharing never beats the best single-state map. The
    crossing of `_crossing_values` is the swapped projection, convex by the
    same argument; its -inf mask only replaces a 0.

    The maps are one-hot rows in `itertools.product` order over u, made
    lazily, and each problem keeps the first of its equal maxima. There are
    27 maps at |U| = |X| = 3. The work grows with the map count: on random
    models with 25 kappa_alpha, one call took 0.04 s at |U| = |X| = 4 (256
    maps) and 0.11 s at |U| = 10, |X| = 2 (1,024 maps) on a 2-core Intel
    Xeon.
    """
    n_u, n_x = len(model.p_uv.row_alphabet), len(ch.input_alphabet)

    def score(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return values(model, ch, kappa[owner], np.ones((len(owner), 1)),
                      stack.reshape(-1, n_u, 1, n_x))

    maps = (np.eye(n_x)[list(m)]
            for m in itertools.product(range(n_x), repeat=n_u))
    return grid_pass(score, maps, problems=len(kappa))


def jhtcc_uncoded_opt(model: SourceModel, ch: Channel, kappa_alpha):
    """kappa_u* : the uncoded bound maximized over P_S and P_{X|US}, exact
    over every uncoded design.

    Elementwise over a sequence of kappa_alpha, as one design search: a
    float gives one BoundReport, a sequence a tuple of them. kappa_u is
    convex in P_S and in P_{X|US}, so one state and a deterministic map
    u -> x attain its maximum (see `_design_search`), and the search scores
    all |X|^|U| maps. The achiever holds P_S = (1.0,) and the flat (u, s)
    rows of the first of equal maxima."""
    kappas = np.atleast_1d(np.asarray(kappa_alpha, dtype=float))
    rows, values = _design_search(_uncoded_values, model, ch, kappas)
    reports = tuple(BoundReport(
        "jhtcc_uncoded", float(ka), float(value),
        {"p_s": (1.0,), "p_x_given_us": tuple(r.reshape(-1))}, feasible=True)
        for ka, value, r in zip(kappas, values, rows))
    return reports[0] if np.ndim(kappa_alpha) == 0 else reports


def _crossing_values(model: SourceModel, ch: Channel, radius,
                     p_s: np.ndarray, pxus: np.ndarray) -> np.ndarray:
    """kappa_alpha_d of every design of a stack, where kappa_u(d, .) falls
    to `radius` (one for all, or one per design): the KL-ball projection
    with reference and target swapped. A design whose kappa_u(d, 0) is
    already below its radius gets -inf."""
    p_vy, q_vy = _vy_laws(model, ch, pxus)
    at_zero = conditional_kl_rows(p_s, p_vy, q_vy)
    crossing = project_components(p_s, q_vy, p_vy, radius)[1]
    return np.where(at_zero < radius, -np.inf, crossing)


# ---------------------------------------------------------------------------
# Ball-constrained information quantities for the separation scheme


def _joint_vw(joints: np.ndarray, w_rows: np.ndarray) -> np.ndarray:
    """P_VW of each joint P_UV of a (B, |U|, |V|) stack, W drawn from U by
    w_rows (one matrix, or one per joint), as a (B, |V|, |W|) stack."""
    return joints.transpose(0, 2, 1) @ w_rows


def _ball_objective(w_rows: np.ndarray, first_term=None):
    """The owner-indexed objective of the KL-ball problems of a quantizer
    stack w_rows (R, |U|, |W|), on a stack of flat joints P'_UV: owner
    k * R + r is problem k of quantizer r, with k = 0 for I(U;W), 1 for
    I(V;W) and 2 for `first_term(w_rows)(joints, r)`, given as (P, Q) row
    pairs whose divergences add up in order. Every divergence of a call is
    summed by one `kl_row_groups` call."""
    n_q, n_u = w_rows.shape[:2]
    terms = first_term(w_rows) if first_term is not None else None

    def objective(ps: np.ndarray, owner: np.ndarray) -> np.ndarray:
        joints = ps.reshape(len(ps), n_u, -1)
        kind, quant = np.divmod(owner, n_q)
        zeta, rho, e1 = (np.flatnonzero(kind == k) for k in range(3))
        p_u = joints[zeta].sum(axis=2)
        pairs = [mutual_information_pairs(p_u[:, :, None] * w_rows[quant[zeta]]),
                 mutual_information_pairs(
                     _joint_vw(joints[rho], w_rows[quant[rho]]))]
        if e1.size:
            pairs += terms(joints[e1], quant[e1])
        div = kl_row_groups(pairs)
        out = np.empty(len(ps))
        out[zeta], out[rho] = div[0], div[1]
        if e1.size:
            out[e1] = functools.reduce(np.add, div[2:])
        return out
    return objective


def _tai_first_term(p_uv: np.ndarray, w_rows: np.ndarray):
    """The TAI first term I(V;W) + D(P'_V || P_V) of a stack of joints
    P'_UV, quantizer w_rows[r] for each, as (P, Q) row pairs: a function
    of (joints, r). P_V is the V-marginal of p_uv."""
    p_v = p_uv.sum(axis=0)
    return lambda joints, r: [
        mutual_information_pairs(_joint_vw(joints, w_rows[r])),
        (joints.sum(axis=1), p_v)]


def _tad_first_term(q_uv: np.ndarray, w_rows: np.ndarray):
    """The TAD surrogate first term D(P'_VW || Q_VW) of a stack of joints
    P'_UV, quantizer w_rows[r] for each, as a (P, Q) row pair: a function
    of (joints, r)."""
    q_vw = (q_uv.T @ w_rows).reshape(len(w_rows), -1)
    return lambda joints, r: [
        (_joint_vw(joints, w_rows[r]).reshape(q_vw[r].shape), q_vw[r])]


def zeta_rho(model: SourceModel, p_wus, kappa_alpha,
             config: DhtSearchConfig = DhtSearchConfig()
             ) -> tuple[np.ndarray, np.ndarray]:
    """(zeta, rho) arrays, one entry per test channel in `p_wus`: the extremes
    of I(U;W) and I(V;W) over the KL ball of joints around P_UV, with W
    generated by that fixed channel, at one kappa_alpha for all channels or
    one per channel. The channels share one output alphabet size, and all
    2R searches run as one `ball_optimize`."""
    if len({p_wu.rows.shape for p_wu in p_wus}) != 1:
        raise InputError("zeta_rho: test channels must share one shape")
    w_rows = np.stack([p_wu.rows for p_wu in p_wus])
    n = len(w_rows)
    kappa = np.broadcast_to(np.asarray(kappa_alpha, dtype=float), n)
    both = ball_optimize(model.p_uv.probs, _ball_objective(w_rows),
                         np.repeat([1.0, -1.0], n), np.tile(kappa, 2),
                         config.ball_resolution, config.pattern_min_step)
    return both[:n], both[n:]


# ---------------------------------------------------------------------------
# SHTCC bounds


def _wu_candidates(n_u: int, n_w: int, resolution: int):
    """All row-wise simplex-grid stochastic matrices P_{W|U}, the last row
    varying fastest."""
    rows = list(simplex_grid(n_w, resolution))
    return (np.stack(combo) for combo in itertools.product(rows, repeat=n_u))


def _shtcc(name: str, model: SourceModel, ch: Channel, kappa_alpha,
           config: DhtSearchConfig, first_term, offset):
    """Separation bound at each kappa_alpha: max over the quantizer P_{W|U},
    the channel design and the threshold of min{E1, offset + channel term}.
    Elementwise like `jhtcc_uncoded_opt`: a float gives one BoundReport, a
    sequence a tuple of them.

    `first_term(w_rows)` gives the first term of a (R, |U|, |W|) quantizer
    stack as (P, Q) row pairs (see `_ball_objective`), minimized over the KL
    ball around P_UV; `offset(rho)` is added to the channel term,
    elementwise. One quantizer search serves every kappa_alpha, and the
    grid and every round of its pattern searches are scored as stacks: one
    `ball_optimize` per stack covers zeta, rho and E1 of every row, each
    at its row's kappa_alpha.

    The search skips the rows that cannot win, exactly. `value_of` is
    non-increasing in zeta and non-decreasing in rho and E1, in floating
    point too: E_x is a max of lines of non-positive slope in the rate, so
    it does not rise with zeta; a larger zeta meets fewer of the rate and
    floor conditions, so fewer designs are feasible; `offset` is
    non-decreasing; and min and + are monotone. `ball_optimize` scores
    P_UV first and keeps only strict gains, so its zeta is >= and its rho
    and E1 are <= their values at P_UV. So `value_of` the extrema at P_UV,
    a ball of radius 0, bounds each row's value from above, and
    `grid_then_pattern` leaves unscored every row whose bound cannot beat
    its problem's best. The rows it does score are searched once per
    (quantizer, kappa_alpha) and call: a repeated row of a stack, or one
    met in an earlier stack, reads the extrema of a cache. Each problem of
    a `ball_optimize` gets the bits it would get alone, so neither the
    skipped rows nor the cache changes a bit of the result.
    """
    kappas = np.atleast_1d(np.asarray(kappa_alpha, dtype=float))
    if not np.all(kappas >= 0):
        raise InputError("kappa_alpha must be non-negative")
    if not kappas.size:
        return ()
    p_uv = model.p_uv.probs
    n_u = p_uv.shape[0]
    n_w = n_u + 1
    table = channel_table(ch, config.sx_resolution, config.theta_points)
    terms, thetas = table.theta_terms(kappas)

    def value_of(zeta, rho, e1, owner: np.ndarray):
        """(value, design, E_x) arrays of quantizer rows with KL-ball
        extrema (zeta, rho, e1), row b at kappas[owner[b]]: the design is
        the first of equal maxima of min{E_x(zeta), E_sp - theta} among
        those meeting the rate and the floor; value -inf where none does."""
        kappa, term = kappas[owner], terms[owner]
        e_x = table.expurgated(zeta)
        # min(e_x, term) as Python's: term only if strictly smaller
        channel = np.where((term > -np.inf) & (zeta[:, None] < table.rate)
                           & ~(e_x < kappa[:, None]),
                           np.where(term < e_x, term, e_x), -np.inf)
        top = channel.argmax(axis=1)[:, None]
        channel, e_x = (np.take_along_axis(a, top, axis=1)[:, 0]
                        for a in (channel, e_x))
        ok = channel > -np.inf
        # min(e1, offset + channel) as Python's: the second only if smaller
        part = offset(rho) + channel
        value = np.where(ok, np.where(part < e1, part, e1), -np.inf)
        return value, top[:, 0], e_x

    def extrema(stack: np.ndarray, radius: np.ndarray) -> np.ndarray:
        """(zeta, rho, E1) of a quantizer stack as a (3, B) array, row b in
        the KL ball of radius[b] around P_UV: one `ball_optimize`."""
        return ball_optimize(
            p_uv, _ball_objective(stack, first_term),
            np.repeat([1.0, -1.0, -1.0], len(stack)),
            np.tile(radius, 3), config.ball_resolution,
            config.pattern_min_step).reshape(3, -1)

    cache = {}  # (quantizer bytes, kappa index) -> (zeta, rho, E1)

    def searched(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """`extrema` of a quantizer stack, row b at kappas[owner[b]], with
        each (quantizer, kappa_alpha) searched once per call."""
        keys = [(w.tobytes(), k) for w, k in zip(stack, owner.tolist())]
        first = {}
        for b, key in enumerate(keys):
            if key not in cache:
                first.setdefault(key, b)
        if first:
            rows = list(first.values())
            cache.update(zip(first, extrema(stack[rows],
                                            kappas[owner[rows]]).T))
        return np.array([cache[key] for key in keys]).T

    def bound(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """An upper bound of each row's value: `value_of` the extrema at
        P_UV itself, a ball of radius 0."""
        return value_of(*extrema(stack, np.zeros(len(stack))), owner)[0]

    candidates = _wu_candidates(n_u, n_w, config.design_resolution)
    blocks, _ = grid_then_pattern(
        lambda stack, owner: value_of(*searched(stack, owner), owner)[0],
        candidates, problems=kappas.size, bound=bound,
        min_step=max(config.pattern_min_step, 0.01), min_improve=1e-6)
    found = np.array([k for k, b in enumerate(blocks) if b is not None],
                     dtype=int)
    reports = [BoundReport(name, float(ka), 0.0, {}, feasible=False)
               for ka in kappas]
    if found.size:
        w_rows = np.array([blocks[k] for k in found])
        zeta, rho, e1 = searched(w_rows, found)
        value, which, e_x = value_of(zeta, rho, e1, found)
        for i, (k, d) in enumerate(zip(found, which)):
            achiever = {"p_wu": tuple(w_rows[i].reshape(-1)),
                        "p_sx": tuple(table.p_sx[d].reshape(-1)),
                        "theta": float(thetas[k, d]),
                        "zeta": float(zeta[i]), "rho": float(rho[i]),
                        "e_x": float(e_x[i])}
            reports[k] = BoundReport(
                name, float(kappas[k]), max(float(value[i]), 0.0), achiever,
                feasible=True)
    return reports[0] if np.ndim(kappa_alpha) == 0 else tuple(reports)


def shtcc_tai_stein(model: SourceModel, ch: Channel,
                    config: DhtSearchConfig = DhtSearchConfig()) -> float:
    """Stein-regime separation bound for testing against independence:
    max I(V;W) over P_{W|U} with I(U;W) <= capacity, |W| <= |U|+1."""
    if not model.is_tai:
        raise InputError("model is not testing against independence")
    if _is_product_of_marginals(model.p_uv, model.p_uv):
        return 0.0  # I(V;W) <= I(V;U) = 0 for any quantizer
    cap = capacity(ch)
    p_uv = model.p_uv.probs
    p_u = p_uv.sum(axis=1)
    n_u = p_uv.shape[0]
    n_w = n_u + 1

    def score(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
        i_uw = mutual_information_rows(p_u[:, None] * stack)
        return np.where(i_uw > cap + 1e-12, -np.inf,
                        mutual_information_rows(p_uv.T @ stack))

    candidates = _wu_candidates(n_u, n_w, config.design_resolution)
    identity = np.eye(n_u, n_w)  # W = U embedded
    _, [best_val] = grid_then_pattern(score, candidates, [identity],
                                      min_step=config.pattern_min_step)
    return float(max(best_val, 0.0))


def shtcc_tai(model: SourceModel, ch: Channel, kappa_alpha,
              config: DhtSearchConfig = DhtSearchConfig()):
    """Separation bound for TAI at positive kappa_alpha: max over quantizer,
    channel design, and threshold of the three-way minimum.

    Elementwise over a sequence of kappa_alpha, as one search: a float
    gives one BoundReport, a sequence a tuple of them."""
    if not model.is_tai:
        raise InputError("model is not testing against independence")
    return _shtcc("shtcc_tai", model, ch, kappa_alpha, config,
                  functools.partial(_tai_first_term, model.p_uv.probs),
                  offset=lambda rho: rho)


def shtcc_tad_stein(model: SourceModel, ch: Channel,
                    config: DhtSearchConfig = DhtSearchConfig()) -> float:
    """Stein-regime separation bound for testing against dependence."""
    if not model.is_tad:
        raise InputError("model is not testing against dependence")
    q_uv = model.q_uv.probs
    n_u = q_uv.shape[0]
    n_w = n_u + 1
    q_u = q_uv.sum(axis=1)
    table = channel_table(ch, config.sx_resolution, config.theta_points)

    def score(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
        rates = mutual_information_rows(q_u[:, None] * stack)
        q_vw = q_uv.T @ stack
        product = q_vw.sum(axis=2)[:, :, None] * q_vw.sum(axis=1)[:, None, :]
        t1 = kl_rows(product.reshape(len(stack), -1),
                     q_vw.reshape(len(stack), -1))
        # min and max as Python's: a later value replaces only if strictly
        # smaller (larger), so ties keep the earlier one's sign of zero
        e_x = table.expurgated(rates)
        val = np.where(e_x < t1[:, None], e_x, t1[:, None])
        val = np.where(table.theta_l < val, table.theta_l, val)
        val = np.where(rates[:, None] <= table.rate, val, -np.inf)
        return np.take_along_axis(val, val.argmax(axis=1)[:, None], axis=1)[:, 0]

    candidates = _wu_candidates(n_u, n_w, config.design_resolution)
    _, [best_val] = grid_then_pattern(
        score, candidates, min_step=max(config.pattern_min_step, 0.01),
        min_improve=1e-7)
    return float(max(best_val, 0.0))


def shtcc_tad(model: SourceModel, ch: Channel, kappa_alpha,
              config: DhtSearchConfig = DhtSearchConfig()):
    """Separation bound for TAD at positive kappa_alpha, using the
    surrogate first term D(P'_VW || Q_VW) for E1; elementwise over a
    sequence of kappa_alpha like `shtcc_tai`.

    Not a certified lower bound: zeta (a max), rho and E1 (mins) over the
    KL ball come from grid plus pattern search, so a zeta found too low or
    a rho or E1 found too high can put the value above the true bound."""
    if not model.is_tad:
        raise InputError("model is not testing against dependence")
    return _shtcc("shtcc_tad", model, ch, kappa_alpha, config,
                  functools.partial(_tad_first_term, model.q_uv.probs),
                  offset=lambda rho: 0.0)


# ---------------------------------------------------------------------------
# Scheme comparison


def compare_schemes(model: SourceModel, ch: Channel, kappa_grid):
    """Per kappa_alpha: the separation scheme's zero-rate expurgated upper
    bound next to the uncoded joint bound, plus the crossover point where
    the uncoded curve meets that line.

    Returns (rows, crossover) where each row is a (shtcc BoundReport,
    jhtcc BoundReport) pair and crossover is the kappa_alpha at which
    kappa_u* falls to the expurgated zero-rate value E_x(0) (None when
    E_x(0) is infinite, or 0, where the two lines meet everywhere, or when
    the crossing lies outside the grid span).

    Each design's kappa_u(d, .) is non-increasing, so kappa_u* >= E_x(0)
    exactly up to max_d kappa_alpha_d, with kappa_alpha_d = min D(P || P_VY)
    over D(P || Q_VY) <= E_x(0) (Hoeffding, Ann. Math. Stat. 1965; Csiszar,
    Ann. Probab. 1975): one design search. kappa_alpha_d is the KL-ball
    projection with reference and target swapped, convex in P_{X|US} and in
    P_S by the same dual argument as kappa_u, so its maximum sits at one
    state and one of the |X|^|U| deterministic maps u -> x (Rockafellar,
    Convex Analysis, Cor. 32.3.2; see `_design_search`), and the search
    scores them all: the crossover is exact over every uncoded design.
    """
    e_x0, design0 = expurgated_exponent_opt(0.0, ch)
    grid = [float(ka) for ka in kappa_grid]
    rows = [(BoundReport("shtcc_ex0_upper", jr.kappa_alpha, e_x0,
                         {"p_sx": tuple(design0.joint.probs.reshape(-1))},
                         feasible=True),
             jr) for jr in jhtcc_uncoded_opt(model, ch, grid)]
    crossover = None
    if grid and 0.0 < e_x0 < np.inf:
        _, [value] = _design_search(_crossing_values, model, ch,
                                    np.array([e_x0]))
        if min(grid) <= value <= max(grid):
            crossover = float(value)
    return rows, crossover
