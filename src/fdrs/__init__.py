"""Outage and throughput statistics for opportunistic full-duplex relay
selection in cognitive underlay networks under Nakagami-m fading.

Closed-form end-to-end SINR CDFs, feasibility probabilities under a
primary-receiver interference constraint, a seeded Monte Carlo
cross-validator, and diversity-order slope fitting.
"""
from fdrs.specfun import (
    NonConvergenceError,
    ln_gamma,
    reg_lower_gamma,
    reg_upper_gamma,
    tricomi_u,
    whittaker_w,
)
from fdrs.channel import (
    ConfigError,
    LinkSpec,
    NetworkConfig,
    Protocol,
    validate_config,
)
from fdrs.analytic import (
    FeasibilityDist,
    RatioParams,
    cdf_cognitive,
    cdf_conditional,
    cdf_ratio_gamma,
    cdf_ratio_gamma_quad,
    feasibility_dist,
    outage,
    outage_threshold,
    throughput,
)
from fdrs.montecarlo import OutageEstimate, estimate_feasibility, estimate_outage, outage_counts
from fdrs.analysis import DiversityFit, SweepSpec, diversity_fit, run_sweep, validate_report

__version__ = "0.1.0"
