"""Command-line front end: model ingestion, region/bound computation,
Monte Carlo runs, and CSV/JSON emission.

Model files are JSON with every probability written as a decimal string;
outputs open with a reproducible run-manifest comment header and use fixed
9-significant-digit formatting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

import numpy as np

from . import __version__
from .dht_bounds import (AuxiliaryDesign, DhtSearchConfig, SourceModel,
                         compare_schemes, jhtcc_uncoded_opt, shtcc_tad,
                         shtcc_tai)
from .exact_regions import (ChannelPairLaw, channel_d_bounds,
                            channel_max_divergence, channel_region_point,
                            direct_tradeoff, rht_tradeoff)
from .exceptions import (BracketError, ConvergenceError, DomainError,
                         ErrexpError, EstimationError, InputError)
from .legendre import conjugate, llr_interval, loglik_scores
from .prob_core import Channel, JointPmf, Pmf, kl_divergence
from .simulate import SimConfig, simulate_direct, simulate_rht

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4

STOCHASTIC_TOL = 1e-9


# ---------------------------------------------------------------------------
# Model files


@dataclass(frozen=True)
class ModelFile:
    """Parsed model: the two source hypotheses plus an optional channel and
    transmitted-pair law."""

    name: str
    p_uv: JointPmf
    q_uv: JointPmf
    channel: Channel | None
    pair_law: ChannelPairLaw | None
    digest: str


def _decimal_matrix(rows, what: str) -> np.ndarray:
    try:
        arr = np.array([[float(Decimal(str(v))) for v in row] for row in rows],
                       dtype=float)
    except (InvalidOperation, TypeError, ValueError) as exc:
        raise InputError(f"{what}: probabilities must be decimal strings") from exc
    if arr.ndim != 2:
        raise InputError(f"{what}: expected a matrix")
    return arr


def _as_joint(rows, row_alphabet, col_alphabet, what: str) -> JointPmf:
    arr = _decimal_matrix(rows, what)
    if np.any(arr < 0) or abs(arr.sum() - 1.0) > STOCHASTIC_TOL:
        raise InputError(f"{what}: entries must be a joint PMF within 1e-9")
    return JointPmf(row_alphabet, col_alphabet, arr / arr.sum())


def _as_channel(spec, what: str) -> Channel:
    if not isinstance(spec, dict):
        raise InputError(f"{what}: expected a JSON object")
    arr = _decimal_matrix(spec["rows"], what)
    if np.any(arr < 0) or np.max(np.abs(arr.sum(axis=1) - 1.0)) > STOCHASTIC_TOL:
        raise InputError(f"{what}: rows must be stochastic within 1e-9")
    arr = arr / arr.sum(axis=1, keepdims=True)
    return Channel(tuple(spec["input_alphabet"]), tuple(spec["output_alphabet"]), arr)


def load_model(path: str) -> ModelFile:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        data = json.loads(raw)
    except OSError as exc:
        raise InputError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("model file must hold a JSON object")
    digest = hashlib.sha256(raw).hexdigest()
    try:
        u_alpha = tuple(data["u_alphabet"])
        v_alpha = tuple(data["v_alphabet"])
        p_uv = _as_joint(data["p_uv"], u_alpha, v_alpha, "p_uv")
        q_uv = _as_joint(data["q_uv"], u_alpha, v_alpha, "q_uv")
        channel = (_as_channel(data["channel"], "channel")
                   if "channel" in data else None)
    except KeyError as exc:
        raise InputError(f"model file missing field {exc}") from exc
    pair_law = None
    if "pair_law" in data:
        if channel is None:
            raise InputError("pair_law given without a channel")
        pair_law = ChannelPairLaw(_as_joint(
            data["pair_law"], channel.input_alphabet, channel.input_alphabet,
            "pair_law"))
    return ModelFile(str(data.get("name", "model")), p_uv, q_uv, channel,
                     pair_law, digest)


# ---------------------------------------------------------------------------
# Output plumbing


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == float("inf"):
            return "inf"
        if value == float("-inf"):
            return "-inf"
        return "%.9g" % value
    return str(value)


def _manifest_lines(subcommand: str, model: ModelFile, params: dict) -> list[str]:
    items = ",".join(f"{k}={params[k]}" for k in sorted(params))
    return [
        f"# errexp {__version__} subcommand={subcommand}",
        f"# model={model.name} sha256={model.digest}",
        f"# params {items}",
    ]


def _emit(out_path: str | None, header: list[str], columns: list[str],
          rows: list[list], json_path: str | None, extra: list[str] = ()):
    lines = list(header)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    lines.extend(extra)
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if json_path:
        payload = {"manifest": [h.lstrip("# ") for h in header],
                   "rows": [dict(zip(columns, row)) for row in rows]}
        with open(json_path, "w") as fh:
            json.dump(payload, fh, indent=2, default=_fmt)
            fh.write("\n")


def _number_list(text: str, convert, option: str) -> list:
    try:
        return [convert(v) for v in text.split(",")]
    except (InvalidOperation, ValueError) as exc:
        raise InputError(
            f"{option}: expected comma-separated numbers, got {text!r}") from exc


def _kappa_grid(args, upper: float) -> list[float]:
    if args.kappa_grid:
        kappas = _number_list(args.kappa_grid, lambda v: float(Decimal(v)),
                              "--kappa-grid")
        if not all(0.0 <= k < np.inf for k in kappas):
            raise InputError("--kappa-grid: values must be finite and "
                             f"non-negative, got {args.kappa_grid!r}")
        return kappas
    points = args.points
    if not np.isfinite(upper) or upper <= 0:
        return []
    return list(np.linspace(upper / points, upper * (1 - 1e-9), points))


def _digest_achiever(achiever: dict) -> str:
    payload = json.dumps({k: _fmt(v) if isinstance(v, float)
                          else [_fmt(float(x)) for x in v]
                          for k, v in sorted(achiever.items())}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _pair_law(model: ModelFile) -> ChannelPairLaw:
    """The model's transmitted-pair law; by default the point mass on the
    input pair of largest divergence."""
    if model.pair_law is not None:
        return model.pair_law
    _, pair = channel_max_divergence(model.channel)
    return ChannelPairLaw.point_mass(model.channel.input_alphabet, pair)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_region(args) -> int:
    model = load_model(args.model)
    p = model.p_uv.flatten()
    q = model.q_uv.flatten()
    columns = ["kappa_alpha", "kappa_beta", "theta0", "theta1", "bound"]
    rows: list[list] = []
    if args.kind == "direct":
        upper = kl_divergence(q, p)
        if upper <= 0:
            print("warning: degenerate model, empty positive boundary",
                  file=sys.stderr)
        kappas = _kappa_grid(args, upper)
        betas = direct_tradeoff(p, q, np.array(kappas)) if kappas else []
        for ka, kb in zip(kappas, map(float, betas)):
            rows.append([ka, kb, ka - kb, "", "direct"])
    elif args.kind == "channel":
        if model.channel is None:
            raise InputError("channel region requires a channel in the model")
        law = _pair_law(model)
        _, d_max = channel_d_bounds(model.channel, law)
        if d_max <= 0:
            print("warning: degenerate law, empty positive boundary",
                  file=sys.stderr)
        curve = channel_region_point(
            model.channel, law, np.linspace(0.0, d_max * (1 - 1e-9), args.points))
        for ka, kb, theta in zip(curve.kappa_alpha, curve.kappa_beta, curve.theta):
            rows.append([float(ka), float(kb), "", theta, "channel"])
    else:  # rht
        if model.channel is None:
            raise InputError("rht region requires a channel in the model")
        upper = kl_divergence(q, p)
        if upper <= 0:
            print("warning: degenerate model, empty positive boundary",
                  file=sys.stderr)
        for ka in _kappa_grid(args, upper):
            kb = rht_tradeoff(p, q, model.channel, ka)
            rows.append([ka, kb, "", "", "rht"])
    header = _manifest_lines("region", model, {
        "kind": args.kind, "points": args.points, "grid": args.grid,
        "kappa_grid": args.kappa_grid or ""})
    _emit(args.out, header, columns, rows, args.json)
    return EXIT_OK


def cmd_bounds(args) -> int:
    model_file = load_model(args.model)
    if model_file.channel is None:
        raise InputError("bounds require a channel in the model")
    model = SourceModel(model_file.p_uv, model_file.q_uv)
    config = DhtSearchConfig(design_resolution=min(args.grid, 4),
                             ball_resolution=args.grid,
                             sx_resolution=min(args.grid, 6))
    kappas = _kappa_grid(args, kl_divergence(model_file.q_uv.flatten(),
                                             model_file.p_uv.flatten()))
    columns = ["kappa_alpha", "bound", "value", "feasible", "achiever_digest"]
    rows: list[list] = []
    extra: list[str] = []
    if not (model.is_tai or model.is_tad) and args.scheme != "jhtcc-uncoded":
        raise DomainError("general models support only the jhtcc-uncoded scheme")
    if args.scheme == "both":
        pair_rows, crossover = compare_schemes(model, model_file.channel,
                                               kappas, config)
        for shtcc_rep, jhtcc_rep in pair_rows:
            for rep in (shtcc_rep, jhtcc_rep):
                rows.append([rep.kappa_alpha, rep.name, rep.value,
                             int(rep.feasible), _digest_achiever(rep.achiever)])
        if crossover is not None:
            extra.append(f"# crossover kappa_alpha={_fmt(crossover)}")
    else:
        for ka in kappas:
            if args.scheme == "jhtcc-uncoded":
                rep = jhtcc_uncoded_opt(model, model_file.channel, ka,
                                        config=config)
            elif model.is_tai:
                rep = shtcc_tai(model, model_file.channel, ka, config)
            else:
                rep = shtcc_tad(model, model_file.channel, ka, config)
            rows.append([rep.kappa_alpha, rep.name, rep.value,
                         int(rep.feasible), _digest_achiever(rep.achiever)])
    header = _manifest_lines("bounds", model_file, {
        "scheme": args.scheme, "grid": args.grid, "points": args.points,
        "kappa_grid": args.kappa_grid or ""})
    _emit(args.out, header, columns, rows, args.json, extra)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    if args.trials < 1:
        raise InputError("trials must be >= 1")
    ns = tuple(_number_list(args.n_grid, int, "--n-grid"))
    cfg = SimConfig(ns, args.trials, args.seed)
    for option, theta in (("--theta0", args.theta0), ("--theta1", args.theta1)):
        if not np.isfinite(theta):
            raise InputError(f"{option}: must be finite, got {theta}")
    p = model.p_uv.flatten()
    q = model.q_uv.flatten()
    # the analytic exponents first: a threshold outside its interval fails
    # before any trial is drawn
    if model.channel is None:
        lo, hi = llr_interval(p, q)
        if not lo <= args.theta0 <= hi:
            raise DomainError(f"--theta0={args.theta0} outside the admissible "
                              f"interval ({lo}, {hi})")
        zeta0 = conjugate(loglik_scores(p, q), args.theta0).value
        zeta1 = zeta0 - args.theta0
        report = simulate_direct(p, q, args.theta0, cfg)
    else:
        law = _pair_law(model)
        src = conjugate(loglik_scores(p, q), args.theta0)
        chn = channel_region_point(model.channel, law, args.theta1)
        zeta0 = min(src.value, chn.kappa_alpha)
        zeta1 = min(src.value - args.theta0, chn.kappa_beta)
        report = simulate_rht(p, q, model.channel, args.theta0, args.theta1,
                              law, cfg)
    columns = ["n", "alpha_hat", "beta_hat", "alpha_errors", "beta_errors"]
    rows = [[n, a, b, ae, be]
            for n, a, b, ae, be in zip(report.blocklengths, report.alpha_hat,
                                       report.beta_hat, report.alpha_errors,
                                       report.beta_errors)]
    extra = [f"# analytic zeta0={_fmt(zeta0)} zeta1={_fmt(zeta1)}"]
    failed = report.alpha_fit is None or report.beta_fit is None
    for label, fit in (("alpha", report.alpha_fit), ("beta", report.beta_fit)):
        if fit is None:
            extra.append(f"# fit {label} failed: too few positive rates")
        else:
            extra.append(f"# fit {label} slope={_fmt(fit.slope)} "
                         f"residual={_fmt(fit.residual)} "
                         f"censored={int(fit.censored)}")
    header = _manifest_lines("simulate", model, {
        "theta0": args.theta0, "theta1": args.theta1, "n_grid": args.n_grid,
        "trials": args.trials, "seed": args.seed})
    _emit(args.out, header, columns, rows, args.json, extra)
    if failed:
        raise EstimationError("exponent fit failed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="errexp",
        description="Error-exponent regions and bounds for hypothesis "
                    "testing over a channel")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("model", help="JSON model file")
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--json", default=None, help="mirror rows to a JSON file")

    def grid_flags(p: argparse.ArgumentParser, grid_help: str) -> None:
        p.add_argument("--grid", type=int, default=10, help=grid_help)
        p.add_argument("--points", type=int, default=25,
                       help="number of kappa_alpha grid points")
        p.add_argument("--kappa-grid", default=None,
                       help="comma-separated explicit kappa_alpha values")

    p_region = sub.add_parser("region", help="exact trade-off regions")
    common(p_region)
    grid_flags(p_region, "recorded in the manifest only")
    p_region.add_argument("--kind", choices=("direct", "channel", "rht"),
                          required=True)
    p_region.set_defaults(func=cmd_region)

    p_bounds = sub.add_parser("bounds", help="achievable bounds for DHT over a channel")
    common(p_bounds)
    grid_flags(p_bounds, "simplex grid resolution of the design searches")
    p_bounds.add_argument("--scheme", choices=("shtcc", "jhtcc-uncoded", "both"),
                          default="both")
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="Monte Carlo verification")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_sim.add_argument("--theta0", type=float, default=0.0)
    p_sim.add_argument("--theta1", type=float, default=0.0)
    p_sim.add_argument("--n-grid", default="100,200,400",
                       help="comma-separated blocklengths")
    p_sim.add_argument("--trials", type=int, default=10**5)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "points" in args and args.points < 1:
            raise InputError("points must be >= 1")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (BracketError, ConvergenceError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ErrexpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
