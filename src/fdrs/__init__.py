"""Outage and throughput statistics for opportunistic full-duplex relay
selection in cognitive underlay networks under Nakagami-m fading.

Closed-form end-to-end SINR CDFs, feasibility probabilities under a
primary-receiver interference constraint, a seeded Monte Carlo
cross-validator, and diversity-order slope fitting.

The closed forms need only the standard library.  The simulator and the
experiment drivers are imported at the first use of one of their names,
so `import fdrs` loads no numpy.
"""
import importlib

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

__version__ = "0.1.0"

# name -> submodule that defines it, imported on first access (PEP 562)
_LAZY = {
    **dict.fromkeys(("OutageEstimate", "estimate_feasibility", "estimate_outage",
                     "outage_counts"), "montecarlo"),
    **dict.fromkeys(("DiversityFit", "SweepSpec", "diversity_fit", "run_sweep",
                     "validate_report"), "analysis"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
