"""Probabilistic backlog/delay bounds for buffered wireless links with
log-normal shadowing, plus a Monte Carlo fluid-queue validator."""

__version__ = "0.1.0"

from .arrival import AffineEnvelope, generate_arrivals
from .bounds import (
    BoundQuery,
    BoundResult,
    StabilityRegion,
    UnstableSystemError,
    backlog_bound,
    delay_bound,
    log_kernel_bound,
    stability_region,
)
from .channel import (
    LinkBudget,
    ShadowingChannel,
    capacity_bits_per_slot,
    sample_snr,
    snr_cdf,
    system_gain_db,
)
from .inverse_moment import (
    CdfContractError,
    DiscretizationConfig,
    exact_inverse_moment,
    inverse_moment_bound,
    inverse_moment_bound_many,
)
from .service import ServiceCharacterization
from .simulator import (
    SimConfig,
    SimOutcome,
    replication_rng,
    run_experiment,
    run_replication,
    stationary_tails,
    wilson_halfwidth,
)

__all__ = [
    "AffineEnvelope",
    "BoundQuery",
    "BoundResult",
    "CdfContractError",
    "DiscretizationConfig",
    "LinkBudget",
    "ServiceCharacterization",
    "ShadowingChannel",
    "SimConfig",
    "SimOutcome",
    "StabilityRegion",
    "UnstableSystemError",
    "backlog_bound",
    "capacity_bits_per_slot",
    "delay_bound",
    "exact_inverse_moment",
    "generate_arrivals",
    "inverse_moment_bound",
    "inverse_moment_bound_many",
    "log_kernel_bound",
    "replication_rng",
    "run_experiment",
    "run_replication",
    "sample_snr",
    "snr_cdf",
    "stability_region",
    "stationary_tails",
    "system_gain_db",
    "wilson_halfwidth",
]
