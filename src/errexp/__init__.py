"""Error-exponent trade-off regions for hypothesis testing over noisy channels.

All information quantities are in nats.
"""

__version__ = "0.1.0"

from .exceptions import (
    ErrexpError,
    InputError,
    DomainError,
    BracketError,
    ConvergenceError,
    EstimationError,
)
from .prob_core import (
    Pmf,
    JointPmf,
    Channel,
    EmpiricalType,
    kl_divergence,
    conditional_kl,
    mutual_information,
    capacity,
    empirical_type,
)
from .legendre import (
    ScoredPmf,
    ConjugateResult,
    log_mgf,
    tilted_mean,
    conjugate,
    conjugate_mixture,
    loglik_scores,
    llr_interval,
)
from .exact_regions import (
    ExponentPoint,
    TradeoffCurve,
    ChannelPairLaw,
    direct_region_point,
    direct_tradeoff,
    direct_curve,
    channel_d_bounds,
    channel_region_point,
    channel_max_divergence,
    best_channel_branch,
    rht_tradeoff,
    kappa0,
)
from .channel_exponents import (
    InputDesign,
    expurgated_exponent,
    expurgated_exponent_opt,
    bsc_expurgated_zero_rate,
    special_message_exponent,
    theta_bounds,
)
from .dht_bounds import (
    SourceModel,
    AuxiliaryDesign,
    BoundReport,
    DhtSearchConfig,
    kl_ball_projection,
    jhtcc_uncoded,
    jhtcc_uncoded_opt,
    zeta_rho,
    shtcc_tai_stein,
    shtcc_tai,
    shtcc_tad_stein,
    shtcc_tad,
    compare_schemes,
)
from .simulate import (
    SimConfig,
    SimReport,
    FitResult,
    np_decide,
    build_type_sequences,
    simulate_direct,
    simulate_rht,
    fit_exponent,
)

__all__ = [
    "ErrexpError", "InputError", "DomainError", "BracketError",
    "ConvergenceError", "EstimationError",
    "Pmf", "JointPmf", "Channel", "EmpiricalType",
    "kl_divergence", "conditional_kl", "mutual_information", "capacity",
    "empirical_type",
    "ScoredPmf", "ConjugateResult", "log_mgf", "tilted_mean", "conjugate",
    "conjugate_mixture", "loglik_scores", "llr_interval",
    "ExponentPoint", "TradeoffCurve", "ChannelPairLaw",
    "direct_region_point", "direct_tradeoff", "direct_curve",
    "channel_d_bounds", "channel_region_point", "channel_max_divergence",
    "best_channel_branch", "rht_tradeoff", "kappa0",
    "InputDesign", "expurgated_exponent", "expurgated_exponent_opt",
    "bsc_expurgated_zero_rate", "special_message_exponent", "theta_bounds",
    "SourceModel", "AuxiliaryDesign", "BoundReport", "DhtSearchConfig",
    "kl_ball_projection", "jhtcc_uncoded", "jhtcc_uncoded_opt", "zeta_rho",
    "shtcc_tai_stein", "shtcc_tai", "shtcc_tad_stein", "shtcc_tad",
    "compare_schemes",
    "SimConfig", "SimReport", "FitResult", "np_decide",
    "build_type_sequences", "simulate_direct", "simulate_rht", "fit_exponent",
]
