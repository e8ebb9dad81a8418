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
from .optimize import (GridSpec, bisect_monotone, grid_then_pattern,
                       pattern_search, simplex_grid, simplex_grid_array)
from .prob_core import (Channel, JointPmf, Pmf, capacity, kl_array, kl_rows,
                        mutual_information_arrays, mutual_information_rows)

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
    """Quantization channel P_{W|U}, optional time-share P_S and per-(u, s)
    channel-input rows P_{X|US} (shape |U| x |S| x |X|)."""

    p_wu: Channel | None = None
    p_s: Pmf | None = None
    p_x_given_us: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.p_wu is not None:
            n_u = len(self.p_wu.input_alphabet)
            n_w = len(self.p_wu.output_alphabet)
            if n_w > n_u + 1:
                raise InputError("auxiliary alphabet larger than |U|+1")
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


def _project_components(components: list[tuple[float, np.ndarray, np.ndarray]],
                        kappa_alpha: float) -> tuple[list[np.ndarray], float]:
    """Shared-multiplier KL-ball projection across weighted components.

    Minimizes sum_s w_s D(P_s || tgt_s) subject to
    sum_s w_s D(P_s || ref_s) <= kappa_alpha. A single Lagrange multiplier mu
    serves every component; each component's optimum is then the tilted law
    P_s ~ ref_s exp(lam f_s), f_s = log(tgt_s / ref_s) on the common support,
    at lam = 1 / (1 + mu), and the ball radius is lam psi'(lam) - psi(lam) of
    the weighted CGF. The multiplier is bracketed by doubling up to a 1e12
    cap and then bisected in mu = (1 - lam) / lam; that schedule fixes the
    returned digits. The value is re-evaluated on the returned laws.
    """
    if kappa_alpha < 0:
        raise InputError("kappa_alpha must be non-negative")
    comps = [(w, np.asarray(r, dtype=float).reshape(-1),
              np.asarray(t, dtype=float).reshape(-1))
             for w, r, t in components if w > 0]
    if kappa_alpha == 0:
        value = sum(w * kl_array(r, t) for w, r, t in comps)
        return [r.copy() for _, r, _ in comps], float(value)
    # feasible supports: P_s must be << ref_s, and << tgt_s for finite value
    masks = [(r > 0) & (t > 0) for _, r, t in comps]
    if not all(np.any(m) for m in masks):
        return [r.copy() for _, r, _ in comps], float("inf")
    mix = Mixture([(w, r[m], np.log(t[m]) - np.log(r[m]))
                   for (w, r, t), m in zip(comps, masks)])
    if kappa_alpha < -mix.tilt(0.0)[0] - 1e-12:
        return [r.copy() for _, r, _ in comps], float("inf")

    @functools.cache
    def gap(mu: float) -> float:
        lam = 1.0 / (1.0 + mu)
        psi, dpsi = mix.tilt(lam)
        return lam * dpsi - psi - kappa_alpha

    mu, lo, hi = 0.0, 0.0, 1.0
    if gap(0.0) > 0.0:
        while gap(hi) > 0.0 and hi < 1e12:
            lo, hi = hi, hi * 2.0
        # the radius falls in mu; past the 1e12 cap keep the last multiplier
        mu = hi if gap(hi) > 0.0 else bisect_monotone(
            gap, lo, hi, tol=BALL_ACTIVE_TOL, max_iter=200)
    ps = [np.zeros_like(r) for _, r, _ in comps]
    for p, m, row in zip(ps, masks, mix.tilted(1.0 / (1.0 + mu))):
        p[m] = row[:m.sum()]
    return ps, float(sum(w * kl_array(p, t) for (w, _, t), p in zip(comps, ps)))


def kl_ball_projection(p_ref: JointPmf, q_target: JointPmf,
                       kappa_alpha: float) -> tuple[JointPmf, float]:
    """min over P of D(P || Q_target) subject to D(P || P_ref) <= kappa_alpha.

    The minimizer lies on the tilted family P_ref (Q_target / P_ref)^lam;
    the ball constraint is driven active within 1e-9 whenever it binds.
    """
    if (p_ref.row_alphabet != q_target.row_alphabet
            or p_ref.col_alphabet != q_target.col_alphabet):
        raise InputError("reference and target must share alphabets")
    mins, value = _project_components(
        [(1.0, p_ref.probs, q_target.probs)], kappa_alpha)
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
    triples = _conditional_vy_laws(model, ch, design)
    _, value = _project_components(triples, kappa_alpha)
    return value


def jhtcc_uncoded_opt(model: SourceModel, ch: Channel, kappa_alpha: float,
                      n_states: int = 1,
                      config: DhtSearchConfig = DhtSearchConfig()) -> BoundReport:
    """kappa_u* : the uncoded bound maximized over P_{X|US} (and P_S when
    two time-share states are enabled)."""
    n_u = len(model.p_uv.row_alphabet)
    n_x = len(ch.input_alphabet)
    if n_states not in (1, 2):
        raise InputError("n_states must be 1 or 2")

    def evaluate(rows: np.ndarray, p_s: Pmf) -> float:
        design = AuxiliaryDesign(p_s=p_s, p_x_given_us=rows)
        return jhtcc_uncoded(model, ch, kappa_alpha, design)

    def search(p_s: Pmf) -> tuple[float, np.ndarray]:
        n_s = len(p_s)

        def f(blocks):
            rows = np.stack(blocks).reshape(n_u, n_s, n_x)
            return evaluate(rows, p_s)

        seeds = [[np.full(n_x, 1.0 / n_x) for _ in range(n_u * n_s)]]
        if n_x == n_u:
            seeds.append([np.eye(n_u)[u] for u in range(n_u) for _ in range(n_s)])
        blocks, val = grid_then_pattern(f, [], seeds, step=0.25,
                                        min_step=config.pattern_min_step)
        return val, np.stack(blocks).reshape(n_u, n_s, n_x)

    if n_states == 1:
        p_s = Pmf((0,), [1.0])
        value, rows = search(p_s)
        achiever = {"p_s": (1.0,), "p_x_given_us": tuple(rows.reshape(-1))}
    else:
        value, rows, p_s = -np.inf, None, None
        for k in range(config.sx_resolution + 1):
            cand = Pmf((0, 1), [k / config.sx_resolution,
                                1.0 - k / config.sx_resolution])
            val, r = search(cand)
            if val > value:
                value, rows, p_s = val, r, cand
        achiever = {"p_s": tuple(p_s.probs), "p_x_given_us": tuple(rows.reshape(-1))}
    return BoundReport("jhtcc_uncoded", kappa_alpha, value, achiever,
                       feasible=True, grid_resolution=config.sx_resolution)


# ---------------------------------------------------------------------------
# Ball-constrained information quantities for the separation scheme


def _ball_optimize(p_ref: np.ndarray, objective, kappa_alpha: float,
                   maximize: bool, config: DhtSearchConfig) -> float:
    """Extremize `objective` over joints within the KL ball around p_ref.

    `objective` maps a (B, n) stack of flat joints to their B values. Grid
    seeding plus pattern search, with infeasible points discarded; the grid
    and every pattern-search sweep are scored as one stack. The reference
    point itself is always a feasible fallback.
    """
    ref = p_ref.reshape(-1)
    sign = 1.0 if maximize else -1.0
    limit = kappa_alpha + 1e-12

    def penalized(ps: np.ndarray) -> np.ndarray:
        return np.where(kl_rows(ps, ref) > limit, -np.inf, sign * objective(ps))

    best_val = sign * objective(ref[None])[0]
    best_vec = ref
    if kappa_alpha > 0:
        grid = simplex_grid_array(ref.size, config.ball_resolution)
        feasible = grid[kl_rows(grid, ref) <= limit]
        if len(feasible):
            vals = sign * objective(feasible)
            k = int(np.argmax(vals))  # the first of equal maxima
            if vals[k] > best_val:
                best_val, best_vec = vals[k], feasible[k]
        _, val = pattern_search(lambda blocks: penalized(blocks[0][None])[0],
                                [best_vec], step=0.25,
                                min_step=config.pattern_min_step,
                                min_improve=1e-9,
                                f_many=lambda probes: penalized(probes[:, 0]))
        best_val = max(best_val, val)
    return float(sign * best_val)


def _info_uw(ps: np.ndarray, shape: tuple[int, int],
             w_rows: np.ndarray) -> np.ndarray:
    """I(U;W) of each flat joint P_UV in a stack, W drawn from U by w_rows."""
    p_u = ps.reshape(-1, *shape).sum(axis=2)
    return mutual_information_rows(p_u[:, :, None] * w_rows)


def _joint_vw(ps: np.ndarray, shape: tuple[int, int],
              w_rows: np.ndarray) -> np.ndarray:
    """P_VW of each flat joint P_UV in a stack, as a (B, |V|, |W|) stack."""
    return ps.reshape(-1, *shape).transpose(0, 2, 1) @ w_rows


def _info_vw(ps: np.ndarray, shape: tuple[int, int],
             w_rows: np.ndarray) -> np.ndarray:
    """I(V;W) of each flat joint P_UV in a stack, W drawn from U by w_rows."""
    return mutual_information_rows(_joint_vw(ps, shape, w_rows))


def _tai_first_term(p_uv: np.ndarray, w_rows: np.ndarray):
    """The TAI first term I(V;W) + D(P'_V || P_V), as an objective of a stack
    of flat joints P'_UV; P_V is the V-marginal of p_uv."""
    shape = p_uv.shape
    p_v = p_uv.sum(axis=0)
    return lambda ps: (_info_vw(ps, shape, w_rows)
                       + kl_rows(ps.reshape(-1, *shape).sum(axis=1), p_v))


def _tad_first_term(q_uv: np.ndarray, w_rows: np.ndarray):
    """The TAD surrogate first term D(P'_VW || Q_VW), as an objective of a
    stack of flat joints P'_UV."""
    shape = q_uv.shape
    q_vw = (q_uv.T @ w_rows).reshape(-1)
    return lambda ps: kl_rows(
        _joint_vw(ps, shape, w_rows).reshape(len(ps), -1), q_vw)


def zeta_rho(model: SourceModel, p_wu: Channel, kappa_alpha: float,
             config: DhtSearchConfig = DhtSearchConfig()) -> tuple[float, float]:
    """(zeta, rho): the extremes of I(U;W) and I(V;W) over the KL ball of
    joints around P_UV, with W generated by the fixed test channel."""
    shape = model.p_uv.probs.shape
    w_rows = p_wu.rows
    zeta = _ball_optimize(model.p_uv.probs,
                          lambda p: _info_uw(p, shape, w_rows),
                          kappa_alpha, maximize=True, config=config)
    rho = _ball_optimize(model.p_uv.probs,
                         lambda p: _info_vw(p, shape, w_rows),
                         kappa_alpha, maximize=False, config=config)
    return zeta, rho


# ---------------------------------------------------------------------------
# Channel-side design cache shared by the SHTCC bounds


class _SxCache:
    """Precomputed channel-coding quantities for one P_SX design."""

    def __init__(self, design: InputDesign, ch: Channel, theta_points: int):
        self.design = design
        self.wl, _, self._powers, self._inf_below = _expurgation_terms(design, ch)
        ps = design.state_probs
        pys = output_given_state(design, ch)
        self.rate = 0.0
        for s, weight in enumerate(ps):
            if weight == 0:
                continue
            for x, px in enumerate(design.input_given_state[s]):
                if px > 0:
                    self.rate += weight * px * kl_array(ch.rows[x], pys[s])
        self.theta_l, self.theta_u = theta_bounds(design, ch)
        self.thetas = np.linspace(-self.theta_l, self.theta_u, theta_points)
        self.e_sp = np.array([special_message_exponent(design, ch, t)
                              for t in self.thetas])
        for arr in (self.wl, self._powers, self.thetas, self.e_sp):
            arr.flags.writeable = False  # the caches are shared

    def expurgated(self, rate: float) -> float:
        if rate < self._inf_below:
            return float("inf")
        return float(np.max(_rho_grid_objective(rate, self.wl, self._powers)))

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
        for vec in simplex_grid(GridSpec(n * n, config.sx_resolution)))


def _best_channel_terms(caches: tuple[_SxCache, ...], zeta: float,
                        kappa_alpha: float):
    """Max over cached P_SX designs of min{E_x(zeta), E_sp - theta} subject to
    the rate constraint and the feasibility floor; returns (value, cache,
    e_x, theta) or None when every design is infeasible."""
    best = None
    for cache in caches:
        if not zeta < cache.rate:
            continue
        e_x = cache.expurgated(zeta)
        if e_x < kappa_alpha:
            continue
        term, theta = cache.best_theta_term(kappa_alpha)
        if term == float("-inf"):
            continue
        value = min(e_x, term)
        if best is None or value > best[0]:
            best = (value, cache, e_x, theta)
    return best


def _wu_candidates(n_u: int, n_w: int, resolution: int):
    """All row-wise simplex-grid stochastic matrices P_{W|U}, the last row
    varying fastest."""
    rows = list(simplex_grid(GridSpec(n_w, resolution)))
    return (np.stack(combo) for combo in itertools.product(rows, repeat=n_u))


# ---------------------------------------------------------------------------
# SHTCC bounds


def _shtcc(name: str, model: SourceModel, ch: Channel, kappa_alpha: float,
           config: DhtSearchConfig, first_term, offset) -> BoundReport:
    """Separation bound at kappa_alpha: max over the quantizer P_{W|U}, the
    channel design and the threshold of min{E1, offset + channel term}.

    `first_term(w_rows)` gives the first-term objective of a stack of joint
    laws (as flat rows), minimized over the KL ball around P_UV;
    `offset(rho)` is added to the channel term.
    """
    p_uv = model.p_uv.probs
    n_u = p_uv.shape[0]
    n_w = n_u + 1
    caches = _sx_caches(ch, config)

    def evaluate(w_rows: np.ndarray):
        zeta, rho = zeta_rho(model, Channel(tuple(range(n_u)),
                                            tuple(range(n_w)), w_rows),
                             kappa_alpha, config)
        channel_part = _best_channel_terms(caches, zeta, kappa_alpha)
        if channel_part is None:
            return None
        term, cache, e_x, theta = channel_part
        e1 = _ball_optimize(p_uv, first_term(w_rows), kappa_alpha,
                            maximize=False, config=config)
        value = min(e1, offset(rho) + term)
        return value, {"p_wu": tuple(w_rows.reshape(-1)),
                       "p_sx": tuple(cache.design.joint.probs.reshape(-1)),
                       "theta": theta, "zeta": zeta, "rho": rho, "e_x": e_x}

    best_val, best_ach = -np.inf, None
    for w_rows in _wu_candidates(n_u, n_w, config.design_resolution):
        result = evaluate(w_rows)
        if result is not None and result[0] > best_val:
            best_val, best_ach = result
    if best_ach is None:
        return BoundReport(name, kappa_alpha, 0.0, {}, feasible=False,
                           grid_resolution=config.design_resolution)

    def f(blocks) -> float:
        result = evaluate(np.stack(blocks))
        return -np.inf if result is None else result[0]

    start = [np.asarray(best_ach["p_wu"]).reshape(n_u, n_w)[u]
             for u in range(n_u)]
    blocks, val = pattern_search(f, start, step=0.25,
                                 min_step=max(config.pattern_min_step, 0.01),
                                 min_improve=1e-6)
    if val > best_val:
        best_val, best_ach = evaluate(np.stack(blocks))
    return BoundReport(name, kappa_alpha, max(best_val, 0.0), best_ach,
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

    def f(blocks) -> float:
        w_rows = np.stack(blocks)
        if mutual_information_arrays(p_u[:, None] * w_rows) > cap + 1e-12:
            return -np.inf
        return mutual_information_arrays(p_uv.T @ w_rows)

    candidates = (list(w_rows) for w_rows in
                  _wu_candidates(n_u, n_w, config.design_resolution))
    identity = [np.eye(n_u, n_w)[u] for u in range(n_u)]  # W = U embedded
    _, best_val = grid_then_pattern(f, candidates, [identity], step=0.25,
                                    min_step=config.pattern_min_step)
    return max(best_val, 0.0)


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
    max_rate = max(c.rate for c in caches)

    def f(blocks) -> float:
        w_rows = np.stack(blocks)
        i_q_uw = mutual_information_arrays(q_u[:, None] * w_rows)
        if not i_q_uw <= max_rate:
            return -np.inf
        q_vw = q_uv.T @ w_rows
        t1 = kl_array(np.outer(q_vw.sum(axis=1), q_vw.sum(axis=0)), q_vw)
        best = -np.inf
        for cache in caches:
            if not i_q_uw <= cache.rate:
                continue
            val = min(t1, cache.expurgated(i_q_uw), cache.theta_l)
            best = max(best, val)
        return best

    candidates = (list(w_rows) for w_rows in
                  _wu_candidates(n_u, n_w, config.design_resolution))
    _, best_val = grid_then_pattern(f, candidates, step=0.25,
                                    min_step=max(config.pattern_min_step, 0.01),
                                    min_improve=1e-7)
    return max(best_val, 0.0)


def shtcc_tad(model: SourceModel, ch: Channel, kappa_alpha: float,
              config: DhtSearchConfig = DhtSearchConfig()) -> BoundReport:
    """Separation bound for TAD at positive kappa_alpha, using the
    surrogate first term (a certified lower bound)."""
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
    kappa_u* falls to the expurgated zero-rate value (None if no crossing
    inside the grid span).
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
    # kappa_u* per kappa_alpha, seeded with the grid rows' values
    known = {jr.kappa_alpha: jr.value for _, jr in rows}
    if known and np.isfinite(e_x0):
        lo, hi = min(known), max(known)

        def gap(ka: float) -> float:
            if ka not in known:
                known[ka] = jhtcc_uncoded_opt(model, ch, ka, config=config).value
            return known[ka] - e_x0

        if gap(lo) >= 0 >= gap(hi):
            crossover = bisect_monotone(gap, lo, hi, tol=0.0, max_iter=40)
    return rows, crossover
