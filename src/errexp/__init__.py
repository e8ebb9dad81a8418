"""Error-exponent trade-off regions for hypothesis testing over noisy channels.

All information quantities are in nats.

The public names load lazily (PEP 562): `import errexp` runs no module of
the package, and each name imports its module on first use, so a program
that needs only the exact regions never loads the bound searches or the
simulator.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines; __all__ is read off this table
_EXPORTS = {
    "exceptions": (
        "ErrexpError", "InputError", "DomainError", "BracketError",
        "ConvergenceError", "EstimationError"),
    "prob_core": (
        "Pmf", "JointPmf", "Channel", "kl_divergence", "capacity"),
    "legendre": (
        "ScoredPmf", "ConjugateResult", "conjugate", "loglik_scores",
        "llr_interval"),
    "exact_regions": (
        "ExponentPoint", "TradeoffCurve", "ChannelPairLaw",
        "direct_region_point", "direct_tradeoff", "direct_curve",
        "channel_d_bounds", "channel_region_point", "channel_max_divergence",
        "best_channel_branch", "rht_tradeoff", "kappa0"),
    "channel_exponents": (
        "InputDesign", "expurgated_exponent", "expurgated_exponent_opt",
        "bsc_expurgated_zero_rate", "special_message_exponent",
        "theta_bounds"),
    "kl_ball": ("kl_ball_projection",),
    "dht_bounds": (
        "SourceModel", "AuxiliaryDesign", "BoundReport", "DhtSearchConfig",
        "jhtcc_uncoded", "jhtcc_uncoded_opt", "zeta_rho", "shtcc_tai_stein",
        "shtcc_tai", "shtcc_tad_stein", "shtcc_tad", "compare_schemes"),
    "simulate": (
        "SimConfig", "SimReport", "FitResult", "simulate_direct",
        "simulate_rht", "fit_exponent"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
