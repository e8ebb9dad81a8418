"""Computable inner bounds for distributed hypothesis testing over a channel.

Separation-based (SHTCC) bounds specialized to testing against independence
and against dependence, their Stein limits, and the uncoded joint-scheme
bound, all expressed through KL-ball projections and information quantities.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .channel_exponents import (InputDesign, _expurgation_terms,
                                _rho_grid_objective, expurgated_exponent_opt,
                                output_given_state, special_message_exponent,
                                theta_bounds)
from .exceptions import InputError
from .legendre import Mixture
from .optimize import (bisect_monotone, chunked, grid_then_pattern,
                       simplex_grid, simplex_grid_array)
from .prob_core import (Channel, JointPmf, Pmf, capacity, conditional_kl_arrays,
                        kl_array, kl_rows, mutual_information_rows)

PRODUCT_TOL = 1e-12
BALL_ACTIVE_TOL = 1e-9


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
        prod = np.outer(self.p_uv.row_marginal().probs,
                        self.p_uv.col_marginal().probs)
        return bool(np.max(np.abs(self.q_uv.probs - prod)) <= PRODUCT_TOL)

    @property
    def is_tad(self) -> bool:
        """Testing against dependence: P_UV is the product of Q's marginals."""
        prod = np.outer(self.q_uv.row_marginal().probs,
                        self.q_uv.col_marginal().probs)
        return bool(np.max(np.abs(self.p_uv.probs - prod)) <= PRODUCT_TOL)


@dataclass(frozen=True)
class AuxiliaryDesign:
    """Time-share P_S and per-(u, s) channel-input rows P_{X|US} (shape
    |U| x |S| x |X|) of the uncoded JHTCC scheme."""

    p_s: Pmf | None = None
    p_x_given_us: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.p_x_given_us is not None:
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
    grid_resolution: int


@dataclass(frozen=True)
class DhtSearchConfig:
    """Grid resolutions for the nested design searches."""

    design_resolution: int = 4
    ball_resolution: int = 10
    sx_resolution: int = 6
    theta_points: int = 33
    pattern_min_step: float = 1e-3


# ---------------------------------------------------------------------------
# KL-ball projection


def _project_components(problems, kappa_alpha: float
                        ) -> list[tuple[list[np.ndarray], float]]:
    """Shared-multiplier KL-ball projections across weighted components.

    Each problem is a list of (w_s, ref_s, tgt_s) components and gets its
    (laws, value). It minimizes sum_s w_s D(P_s || tgt_s) subject to
    sum_s w_s D(P_s || ref_s) <= kappa_alpha. A single Lagrange multiplier
    mu serves every component; each component's optimum is then the tilted
    law P_s ~ ref_s exp(lam f_s), f_s = log(tgt_s / ref_s) on the common
    support, at lam = 1 / (1 + mu), and the ball radius is
    lam psi'(lam) - psi(lam) of the weighted CGF. The multiplier is
    bracketed by doubling up to a 1e12 cap and then bisected in
    mu = (1 - lam) / lam; that schedule fixes the returned digits. The value
    is re-evaluated on the returned laws.

    Problems whose CGFs have one shape (components, width) are solved as one
    `Mixture.stack`, every step one tilt with a lam per problem, so each
    visits the multipliers it would visit alone and gets the same bits.
    """
    if kappa_alpha < 0:
        raise InputError("kappa_alpha must be non-negative")
    problems = [[(w, np.asarray(r, dtype=float).reshape(-1),
                  np.asarray(t, dtype=float).reshape(-1))
                 for w, r, t in components if w > 0]
                for components in problems]
    out = [None] * len(problems)
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, comps in enumerate(problems):
        if kappa_alpha == 0:
            value = sum(w * kl_array(r, t) for w, r, t in comps)
            out[i] = [r.copy() for _, r, _ in comps], float(value)
        elif not comps:
            raise InputError("mixture has no components")
        else:
            key = (len(comps), max(r.size for _, r, _ in comps))
            shapes.setdefault(key, []).append(i)
    for (n_comp, n), idx in shapes.items():
        w = np.array([[c[0] for c in problems[i]] for i in idx])
        ref, tgt = np.zeros((2, len(idx), n_comp, n))
        for b, i in enumerate(idx):
            for k, (_, r, t) in enumerate(problems[i]):
                ref[b, k, :r.size], tgt[b, k, :t.size] = r, t
        values = _project_stack(w, ref, tgt, kappa_alpha)
        for b, i in enumerate(idx):
            laws, value = values[b]
            out[i] = ([law[:r.size] for law, (_, r, _)
                       in zip(laws, problems[i])], value)
    return out


def _project_stack(w: np.ndarray, ref: np.ndarray, tgt: np.ndarray,
                   kappa_alpha: float) -> list[tuple[np.ndarray, float]]:
    """`_project_components` on B problems of K components, as w (B, K) and
    zero-padded ref and tgt (B, K, n), at kappa_alpha > 0; (laws (K, n),
    value) per problem."""
    # feasible supports: P_s must be << ref_s, and << tgt_s for finite value
    masks = (ref > 0) & (tgt > 0)
    counts = masks.sum(axis=-1)
    result = [(ref[b].copy(), float("inf")) for b in range(len(w))]
    live = counts.min(axis=-1) > 0
    # the CGF of a problem is as wide as its widest common support; only
    # problems of one width share a stack, so every row sum keeps its bits
    for m in sorted(set(counts.max(axis=-1)[live].tolist())):
        idx = np.flatnonzero(live & (counts.max(axis=-1) == m))
        mk, cnt = masks[idx], counts[idx]
        # each row's support atoms packed to the front, in order
        order = np.argsort(~mk, axis=-1, kind="stable")[..., :m]
        p = np.take_along_axis(ref[idx], order, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.take_along_axis(np.log(tgt[idx]) - np.log(ref[idx]),
                                   order, axis=-1)
        # padded atoms get mass zero and repeat the row's first live score
        pad = np.arange(m) >= cnt[..., None]
        mix = Mixture.stack(w[idx], np.where(pad, 0.0, p),
                            np.where(pad, f[..., :1], f))
        feasible = ~(kappa_alpha < -mix.tilt(np.zeros(len(idx)))[0] - 1e-12)
        mix, idx, pad = mix.rows(feasible), idx[feasible], pad[feasible]
        if not len(idx):
            continue
        lam = 1.0 / (1.0 + _ball_multipliers(mix, kappa_alpha))
        laws = np.zeros(ref[idx].shape)
        laws[masks[idx]] = mix.tilted(lam)[~pad]
        div = kl_rows(laws.reshape(-1, laws.shape[-1]),
                      tgt[idx].reshape(-1, laws.shape[-1])).reshape(pad.shape[:2])
        value = 0.0
        for k in range(div.shape[1]):
            value = value + w[idx, k] * div[:, k]
        for b, i in enumerate(idx):
            result[i] = laws[b], float(value[b])
    return result


def _ball_multipliers(mix: Mixture, kappa_alpha: float) -> np.ndarray:
    """The multiplier mu of every problem of a stack: 0 when the ball does
    not bind, else doubled from 1 until the radius gap changes sign (at most
    to the 1e12 cap, where the last multiplier is kept) and bisected to a gap
    of BALL_ACTIVE_TOL. All problems step in lockstep, and the gaps at the
    bracket ends are carried into the bisection."""

    def gap(mix: Mixture, mu: np.ndarray) -> np.ndarray:
        lam = 1.0 / (1.0 + mu)
        psi, dpsi = mix.tilt(lam)
        return lam * dpsi - psi - kappa_alpha

    mu = np.zeros(len(mix.w))
    g0 = gap(mix, mu)
    binds = np.flatnonzero(g0 > 0.0)
    if not binds.size:
        return mu
    mix = mix.rows(binds)
    lo, glo = np.zeros(binds.size), g0[binds]
    hi = np.ones(binds.size)
    ghi = gap(mix, hi)
    while (grow := (ghi > 0.0) & (hi < 1e12)).any():
        lo, glo = np.where(grow, hi, lo), np.where(grow, ghi, glo)
        hi = np.where(grow, hi * 2.0, hi)
        ghi = np.where(grow, gap(mix, hi), ghi)
    # the radius falls in mu; past the 1e12 cap keep the last multiplier
    mu[binds] = hi
    run = ~(ghi > 0.0)
    if run.any():
        sub = mix.rows(run)
        mu[binds[run]] = bisect_monotone(
            lambda x: gap(sub, x), lo[run], hi[run], tol=BALL_ACTIVE_TOL,
            max_iter=200, glo=glo[run], ghi=ghi[run])
    return mu


def kl_ball_projection(p_ref: JointPmf, q_target: JointPmf,
                       kappa_alpha: float) -> tuple[JointPmf, float]:
    """min over P of D(P || Q_target) subject to D(P || P_ref) <= kappa_alpha.

    The minimizer lies on the tilted family P_ref (Q_target / P_ref)^lam;
    the ball constraint is driven active within 1e-9 whenever it binds.
    """
    if (p_ref.row_alphabet != q_target.row_alphabet
            or p_ref.col_alphabet != q_target.col_alphabet):
        raise InputError("reference and target must share alphabets")
    [(mins, value)] = _project_components(
        [[(1.0, p_ref.probs, q_target.probs)]], kappa_alpha)
    shape = p_ref.probs.shape
    minimizer = JointPmf(p_ref.row_alphabet, p_ref.col_alphabet,
                         mins[0].reshape(shape))
    return minimizer, value


# ---------------------------------------------------------------------------
# Uncoded joint scheme


def _conditional_vy_laws(model: SourceModel, ch: Channel,
                         design: AuxiliaryDesign):
    """Per-state (weight, P_{VY|S=s}, Q_{VY|S=s}) triples."""
    if design.p_s is None or design.p_x_given_us is None:
        raise InputError("uncoded bound needs P_S and P_{X|US}")
    n_u = len(model.p_uv.row_alphabet)
    pxus = design.p_x_given_us
    if pxus.shape[0] != n_u or pxus.shape[2] != len(ch.input_alphabet):
        raise InputError("P_{X|US} shape does not match |U| and |X|")
    if pxus.shape[1] != len(design.p_s):
        raise InputError("P_{X|US} state count does not match P_S")
    triples = []
    for s, weight in enumerate(design.p_s.probs):
        if weight == 0:
            continue
        y_given_u = pxus[:, s, :] @ ch.rows           # |U| x |Y|
        p_vy = model.p_uv.probs.T @ y_given_u         # |V| x |Y|
        q_vy = model.q_uv.probs.T @ y_given_u
        triples.append((float(weight), p_vy, q_vy))
    return triples


def jhtcc_uncoded(model: SourceModel, ch: Channel, kappa_alpha: float,
                  design: AuxiliaryDesign) -> float:
    """Uncoded-transmission bound kappa_u for a fixed (P_S, P_{X|US}) design."""
    return float(_uncoded_values(model, ch, kappa_alpha, [design])[0])


def _uncoded_values(model: SourceModel, ch: Channel, kappa_alpha: float,
                    designs) -> np.ndarray:
    """`jhtcc_uncoded` of every design, as one list of projections."""
    problems = [_conditional_vy_laws(model, ch, d) for d in designs]
    return np.array([value for _, value
                     in _project_components(problems, kappa_alpha)])


def _design_search(values, model: SourceModel, ch: Channel, p_ss: list[Pmf],
                   config: DhtSearchConfig) -> tuple[np.ndarray, list]:
    """Best values and P_{X|US} rows (None where all score -inf) over designs
    with each time-share P_S in `p_ss` (of one size), scored by
    `values(designs)`: one `grid_then_pattern` call for all of them, from the
    uniform rows and, when |X| = |U|, from X = U."""
    n_u, n_s, n_x = (len(model.p_uv.row_alphabet), len(p_ss[0]),
                     len(ch.input_alphabet))

    def score(probes: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return values([AuxiliaryDesign(p_s=p_ss[r], p_x_given_us=np.reshape(
            probe, (n_u, n_s, n_x))) for probe, r in zip(probes, owner)])

    seeds = [[np.full(n_x, 1.0 / n_x) for _ in range(n_u * n_s)]]
    if n_x == n_u:
        seeds.append([np.eye(n_u)[u] for u in range(n_u) for _ in range(n_s)])
    blocks, vals = grid_then_pattern(score, [], seeds, problems=len(p_ss),
                                     min_step=config.pattern_min_step)
    return vals, [None if b is None else np.reshape(b, (n_u, n_s, n_x))
                  for b in blocks]


def jhtcc_uncoded_opt(model: SourceModel, ch: Channel, kappa_alpha: float,
                      n_states: int = 1,
                      config: DhtSearchConfig = DhtSearchConfig()) -> BoundReport:
    """kappa_u* : the uncoded bound maximized over P_{X|US} (and P_S when
    two time-share states are enabled)."""
    if n_states not in (1, 2):
        raise InputError("n_states must be 1 or 2")
    res = config.sx_resolution
    p_s_grid = ([Pmf((0,), [1.0])] if n_states == 1 else
                [Pmf((0, 1), [k / res, 1.0 - k / res]) for k in range(res + 1)])
    values, rows = _design_search(
        functools.partial(_uncoded_values, model, ch, kappa_alpha), model, ch,
        p_s_grid, config)
    k = int(np.argmax(values))  # the first of equal maxima
    achiever = {"p_s": tuple(p_s_grid[k].probs),
                "p_x_given_us": tuple(rows[k].reshape(-1))}
    return BoundReport("jhtcc_uncoded", kappa_alpha, float(values[k]), achiever,
                       feasible=True, grid_resolution=config.sx_resolution)


def _crossing_values(model: SourceModel, ch: Channel, radius: float,
                     designs) -> np.ndarray:
    """kappa_alpha_d of every design, where kappa_u(d, .) falls to `radius`:
    the KL-ball projection with reference and target swapped. A design whose
    kappa_u(d, 0) is already below the radius gets -inf."""
    problems = [_conditional_vy_laws(model, ch, d) for d in designs]
    at_zero = np.array([value for _, value
                        in _project_components(problems, 0.0)])
    swapped = [[(w, q_vy, p_vy) for w, p_vy, q_vy in comps]
               for comps in problems]
    crossing = np.array([value for _, value
                         in _project_components(swapped, radius)])
    return np.where(at_zero < radius, -np.inf, crossing)


# ---------------------------------------------------------------------------
# Ball-constrained information quantities for the separation scheme


def _ball_optimize(p_ref: np.ndarray, objective, signs: np.ndarray,
                   kappa_alpha: float, config: DhtSearchConfig) -> np.ndarray:
    """Extremize R objectives over joints within the KL ball around p_ref.

    `objective(ps, owner)` maps a (B, n) stack of flat joints and the (B,)
    index of the problem that owns each row to their B values; problem r is
    maximized when signs[r] is +1 and minimized when it is -1. The R
    problems run as one `grid_then_pattern` call over the reference and
    then the feasible grid points, so a grid point must beat the reference
    strictly. Points outside the ball score -inf, and every point inside it
    at least the lowest finite float: so a problem that is -inf at the
    reference and on the whole grid is still searched from the reference,
    lest a min such as E1 stay at +inf, on the optimistic side; if the
    search finds nothing either, its value reads -inf again. `objective`
    never sees more than GRID_CHUNK rows at once. Returns the R extrema.
    """
    ref = p_ref.reshape(-1)
    signs = np.asarray(signs, dtype=float)
    limit = kappa_alpha + 1e-12
    floor = -np.finfo(float).max

    def signed(ps: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return chunked(lambda t: signs[owner[t]] * objective(ps[t], owner[t]),
                       len(ps))

    def penalized(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
        ps = stack[:, 0]
        return np.where(kl_rows(ps, ref) > limit, -np.inf,
                        np.maximum(signed(ps, owner), floor))

    if not kappa_alpha > 0:
        return signs * signed(np.repeat(ref[None], len(signs), axis=0),
                              np.arange(len(signs)))
    grid = simplex_grid_array(ref.size, config.ball_resolution)
    candidates = [[ref], *([p] for p in grid[kl_rows(grid, ref) <= limit])]
    _, best = grid_then_pattern(penalized, candidates, problems=len(signs),
                                min_step=config.pattern_min_step,
                                min_improve=1e-9)
    return signs * np.where(best == floor, -np.inf, best)


def _info_uw(ps: np.ndarray, shape: tuple[int, int],
             w_rows: np.ndarray) -> np.ndarray:
    """I(U;W) of each flat joint P_UV in a stack, W drawn from U by w_rows
    (one matrix, or one per joint)."""
    p_u = ps.reshape(-1, *shape).sum(axis=2)
    return mutual_information_rows(p_u[:, :, None] * w_rows)


def _joint_vw(ps: np.ndarray, shape: tuple[int, int],
              w_rows: np.ndarray) -> np.ndarray:
    """P_VW of each flat joint P_UV in a stack, as a (B, |V|, |W|) stack."""
    return ps.reshape(-1, *shape).transpose(0, 2, 1) @ w_rows


def _info_vw(ps: np.ndarray, shape: tuple[int, int],
             w_rows: np.ndarray) -> np.ndarray:
    """I(V;W) of each flat joint P_UV in a stack, W drawn from U by w_rows
    (one matrix, or one per joint)."""
    return mutual_information_rows(_joint_vw(ps, shape, w_rows))


def _tai_first_term(p_uv: np.ndarray, w_rows: np.ndarray):
    """The TAI first term I(V;W) + D(P'_V || P_V), as an owner-indexed
    objective of a stack of flat joints P'_UV: quantizer w_rows[owner] for
    each row. P_V is the V-marginal of p_uv."""
    shape = p_uv.shape
    p_v = p_uv.sum(axis=0)
    return lambda ps, owner: (
        _info_vw(ps, shape, w_rows[owner])
        + kl_rows(ps.reshape(-1, *shape).sum(axis=1), p_v))


def _tad_first_term(q_uv: np.ndarray, w_rows: np.ndarray):
    """The TAD surrogate first term D(P'_VW || Q_VW), as an owner-indexed
    objective of a stack of flat joints P'_UV: quantizer w_rows[owner] for
    each row."""
    shape = q_uv.shape
    q_vw = (q_uv.T @ w_rows).reshape(len(w_rows), -1)
    return lambda ps, owner: kl_rows(
        _joint_vw(ps, shape, w_rows[owner]).reshape(len(ps), -1), q_vw[owner])


def zeta_rho(model: SourceModel, p_wus, kappa_alpha: float,
             config: DhtSearchConfig = DhtSearchConfig()
             ) -> tuple[np.ndarray, np.ndarray]:
    """(zeta, rho) arrays, one entry per test channel in `p_wus`: the extremes
    of I(U;W) and I(V;W) over the KL ball of joints around P_UV, with W
    generated by that fixed channel. The channels share one output alphabet
    size, and all 2R searches run as one `_ball_optimize`."""
    if len({p_wu.rows.shape for p_wu in p_wus}) != 1:
        raise InputError("zeta_rho: test channels must share one shape")
    shape = model.p_uv.probs.shape
    w_rows = np.stack([p_wu.rows for p_wu in p_wus])
    n = len(w_rows)

    def objective(ps: np.ndarray, owner: np.ndarray) -> np.ndarray:
        # owners below n are the zeta problems, the others the rho problems
        out = np.empty(len(ps))
        zeta = owner < n
        out[zeta] = _info_uw(ps[zeta], shape, w_rows[owner[zeta]])
        out[~zeta] = _info_vw(ps[~zeta], shape, w_rows[owner[~zeta] - n])
        return out

    both = _ball_optimize(model.p_uv.probs, objective,
                          np.repeat([1.0, -1.0], n), kappa_alpha, config)
    return both[:n], both[n:]


# ---------------------------------------------------------------------------
# Channel-side design cache shared by the SHTCC bounds


class _SxCache:
    """Precomputed channel-coding quantities for one P_SX design."""

    def __init__(self, design: InputDesign, ch: Channel, theta_points: int):
        self.design = design
        self.wl, _, self._powers, self._inf_below = _expurgation_terms(design, ch)
        # I(X;Y|S) = sum_{s,x} P(s) P(x|s) D(W(.|x) || P(.|s)), s-major
        pys = output_given_state(design, ch)
        n = len(ch.rows)
        self.rate = conditional_kl_arrays(
            (design.state_probs[:, None] * design.input_given_state).reshape(-1),
            np.tile(ch.rows, (n, 1)), np.repeat(pys, n, axis=0))
        self.theta_l, self.theta_u = theta_bounds(design, ch)
        # a design that mixes inputs of disjoint rows has an infinite theta
        # bound: it gets no theta grid, so best_theta_term gives -inf
        if np.isfinite(self.theta_l) and np.isfinite(self.theta_u):
            self.thetas = np.linspace(-self.theta_l, self.theta_u, theta_points)
            self.e_sp = special_message_exponent(design, ch, self.thetas)
        else:
            self.thetas = self.e_sp = np.empty(0)
        for arr in (self.wl, self._powers, self.thetas, self.e_sp):
            arr.flags.writeable = False  # the caches are shared

    def expurgated(self, rate):
        """E_x at `rate`; elementwise over an array of rates."""
        rate = np.asarray(rate)
        value = np.max(_rho_grid_objective(rate[..., None], self.wl,
                                           self._powers), axis=-1)
        value = np.where(rate < self._inf_below, np.inf, value)
        return value if rate.ndim else float(value)

    def best_theta_term(self, kappa_alpha: float) -> tuple[float, float]:
        """(max over feasible theta of E_sp - theta, that theta); -inf if no
        theta satisfies E_sp >= kappa_alpha."""
        ok = self.e_sp >= kappa_alpha
        if not np.any(ok):
            return float("-inf"), float("nan")
        vals = self.e_sp[ok] - self.thetas[ok]
        k = int(np.argmax(vals))
        return float(vals[k]), float(self.thetas[ok][k])


def _sx_caches(ch: Channel, config: DhtSearchConfig) -> tuple[_SxCache, ...]:
    """The `_SxCache` of every grid P_SX design, built once per channel and
    config and shared by every kappa_alpha."""
    return _sx_caches_of(ch.input_alphabet, ch.output_alphabet,
                         ch.rows.tobytes(), config)


@functools.lru_cache(maxsize=4)
def _sx_caches_of(inputs: tuple, outputs: tuple, rows: bytes,
                  config: DhtSearchConfig) -> tuple[_SxCache, ...]:
    ch = Channel(inputs, outputs,
                 np.frombuffer(rows).reshape(len(inputs), len(outputs)))
    n = len(inputs)
    return tuple(
        _SxCache(InputDesign(JointPmf(inputs, inputs, vec.reshape(n, n))), ch,
                 config.theta_points)
        for vec in simplex_grid(n * n, config.sx_resolution))


def _best_channel_terms(caches: tuple[_SxCache, ...], zeta: np.ndarray,
                        kappa_alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per entry of the zeta array: the max over cached P_SX designs of
    min{E_x(zeta), E_sp - theta}, subject to the rate constraint and the
    feasibility floor, and the index of the first design that attains it.
    Both are arrays; the index is -1 and the value -inf where every design
    is infeasible."""
    best = np.full(zeta.shape, -np.inf)
    which = np.full(zeta.shape, -1)
    for i, cache in enumerate(caches):
        term, _ = cache.best_theta_term(kappa_alpha)
        if term == float("-inf"):
            continue
        e_x = cache.expurgated(zeta)
        ok = (zeta < cache.rate) & ~(e_x < kappa_alpha)
        # min(e_x, term) as Python's: term only if strictly smaller
        value = np.where(term < e_x, term, e_x)
        better = ok & ((which < 0) | (value > best))
        best = np.where(better, value, best)
        which = np.where(better, i, which)
    return best, which


def _wu_candidates(n_u: int, n_w: int, resolution: int):
    """All row-wise simplex-grid stochastic matrices P_{W|U}, the last row
    varying fastest."""
    rows = list(simplex_grid(n_w, resolution))
    return (np.stack(combo) for combo in itertools.product(rows, repeat=n_u))


# ---------------------------------------------------------------------------
# SHTCC bounds


def _shtcc(name: str, model: SourceModel, ch: Channel, kappa_alpha: float,
           config: DhtSearchConfig, first_term, offset) -> BoundReport:
    """Separation bound at kappa_alpha: max over the quantizer P_{W|U}, the
    channel design and the threshold of min{E1, offset + channel term}.

    `first_term(w_rows)` gives the owner-indexed first-term objective of a
    stack of joint laws (as flat rows) for a (R, |U|, |W|) quantizer stack,
    minimized over the KL ball around P_UV; `offset(rho)` is added to the
    channel term, elementwise. The quantizer grid and every sweep of the
    pattern search that follows are scored as stacks: one `zeta_rho` call
    for the stack, then one lockstep E1 search over its feasible rows.
    """
    p_uv = model.p_uv.probs
    n_u = p_uv.shape[0]
    n_w = n_u + 1
    caches = _sx_caches(ch, config)

    def evaluate(stack: np.ndarray):
        """(value, zeta, rho, design index) arrays of a quantizer stack; the
        value is -inf and the index -1 where no channel design is feasible."""
        zeta, rho = zeta_rho(model, [Channel(range(n_u), range(n_w), w_rows)
                                     for w_rows in stack], kappa_alpha, config)
        term, which = _best_channel_terms(caches, zeta, kappa_alpha)
        ok = which >= 0
        e1 = np.full(len(stack), np.inf)
        if ok.any():
            e1[ok] = _ball_optimize(p_uv, first_term(stack[ok]),
                                    np.full(np.count_nonzero(ok), -1.0),
                                    kappa_alpha, config)
        # min(e1, offset + term) as Python's: the second only if smaller
        part = offset(rho) + term
        value = np.where(ok, np.where(part < e1, part, e1), -np.inf)
        return value, zeta, rho, which

    candidates = _wu_candidates(n_u, n_w, config.design_resolution)
    [blocks], _ = grid_then_pattern(
        lambda stack, owner: evaluate(stack)[0], candidates,
        min_step=max(config.pattern_min_step, 0.01), min_improve=1e-6)
    if blocks is None:
        return BoundReport(name, kappa_alpha, 0.0, {}, feasible=False,
                           grid_resolution=config.design_resolution)
    w_rows = np.stack(blocks)
    [value], [zeta], [rho], [which] = evaluate(w_rows[None])
    cache = caches[which]
    achiever = {"p_wu": tuple(w_rows.reshape(-1)),
                "p_sx": tuple(cache.design.joint.probs.reshape(-1)),
                "theta": cache.best_theta_term(kappa_alpha)[1],
                "zeta": float(zeta), "rho": float(rho),
                "e_x": cache.expurgated(float(zeta))}
    return BoundReport(name, kappa_alpha, max(float(value), 0.0), achiever,
                       feasible=True, grid_resolution=config.design_resolution)


def shtcc_tai_stein(model: SourceModel, ch: Channel,
                    config: DhtSearchConfig = DhtSearchConfig()) -> float:
    """Stein-regime separation bound for testing against independence:
    max I(V;W) over P_{W|U} with I(U;W) <= capacity, |W| <= |U|+1."""
    if not model.is_tai:
        raise InputError("model is not testing against independence")
    cap = capacity(ch)
    p_uv = model.p_uv.probs
    p_u = p_uv.sum(axis=1)
    marg_product = np.outer(p_u, p_uv.sum(axis=0))
    if np.max(np.abs(p_uv - marg_product)) <= PRODUCT_TOL:
        return 0.0  # I(V;W) <= I(V;U) = 0 for any quantizer
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


def shtcc_tai(model: SourceModel, ch: Channel, kappa_alpha: float,
              config: DhtSearchConfig = DhtSearchConfig()) -> BoundReport:
    """Separation bound for TAI at positive kappa_alpha: max over quantizer,
    channel design, and threshold of the three-way minimum."""
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
    caches = _sx_caches(ch, config)

    def score(stack: np.ndarray, owner: np.ndarray) -> np.ndarray:
        rates = mutual_information_rows(q_u[:, None] * stack)
        q_vw = q_uv.T @ stack
        product = q_vw.sum(axis=2)[:, :, None] * q_vw.sum(axis=1)[:, None, :]
        t1 = kl_rows(product.reshape(len(stack), -1),
                     q_vw.reshape(len(stack), -1))
        # min and max as Python's: a later value replaces only if strictly
        # smaller (larger), so ties keep the earlier one's sign of zero
        best = np.full(len(stack), -np.inf)
        for cache in caches:
            e_x = cache.expurgated(rates)
            val = np.where(e_x < t1, e_x, t1)
            val = np.where(cache.theta_l < val, cache.theta_l, val)
            best = np.where((rates <= cache.rate) & (val > best), val, best)
        return best

    candidates = _wu_candidates(n_u, n_w, config.design_resolution)
    _, [best_val] = grid_then_pattern(
        score, candidates, min_step=max(config.pattern_min_step, 0.01),
        min_improve=1e-7)
    return float(max(best_val, 0.0))


def shtcc_tad(model: SourceModel, ch: Channel, kappa_alpha: float,
              config: DhtSearchConfig = DhtSearchConfig()) -> BoundReport:
    """Separation bound for TAD at positive kappa_alpha, using the
    surrogate first term D(P'_VW || Q_VW) for E1.

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


def compare_schemes(model: SourceModel, ch: Channel, kappa_grid,
                    config: DhtSearchConfig = DhtSearchConfig()):
    """Per kappa_alpha: the separation scheme's zero-rate expurgated upper
    bound next to the uncoded joint bound, plus the crossover point where
    the uncoded curve meets that line.

    Returns (rows, crossover) where each row is a (shtcc BoundReport,
    jhtcc BoundReport) pair and crossover is the kappa_alpha at which
    kappa_u* falls to the expurgated zero-rate value E_x(0) (None when
    E_x(0) is infinite or the crossing lies outside the grid span).

    Each design's kappa_u(d, .) is non-increasing, so kappa_u* >= E_x(0)
    exactly up to max_d kappa_alpha_d, with kappa_alpha_d = min D(P || P_VY)
    over D(P || Q_VY) <= E_x(0) (Hoeffding, Ann. Math. Stat. 1965; Csiszar,
    Ann. Probab. 1975): one design search over single-state designs.
    """
    e_x0, design0 = expurgated_exponent_opt(0.0, ch)
    rows = []
    for ka in kappa_grid:
        jr = jhtcc_uncoded_opt(model, ch, float(ka), config=config)
        sr = BoundReport("shtcc_ex0_upper", float(ka), e_x0,
                         {"p_sx": tuple(design0.joint.probs.reshape(-1))},
                         feasible=True, grid_resolution=config.sx_resolution)
        rows.append((sr, jr))
    crossover = None
    grid = [jr.kappa_alpha for _, jr in rows]
    if grid and np.isfinite(e_x0):
        crossing = functools.partial(_crossing_values, model, ch, e_x0)
        [value], _ = _design_search(crossing, model, ch, [Pmf((0,), [1.0])],
                                    config)
        if min(grid) <= value <= max(grid):
            crossover = float(value)
    return rows, crossover
