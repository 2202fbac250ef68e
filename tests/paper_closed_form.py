"""The paper's alternating closed forms, rebuilt from the blocks of
`fdrs.analytic._ln_blocks`, as a reference for the production route.

    F(x | L) = sum_{k<=L} C(L, k) (-s)^k I_k,            s = P(Z > x)
    p[n]     = C(K, n) sum_{l<=n} C(n, l) (-1)^l B_{K-n+l}

with I_k and B_q the direct-link and cap blocks.  Each value comes
with the sum's own condition number kappa = sum|t| / S, from
`specfun.ln_binomial_sum`: where (ulp(1) + GAMMA_REL_TOL) kappa <=
REL_TOL, that is kappa <= analytic._KAPPA_MAX, the sum keeps REL_TOL.
The production route takes the closed form only where the a-priori
bound ((1 + s) / (1 - s))^L on kappa holds, and the positive integral
everywhere else; `bound_holds` is that rule.
"""
from __future__ import annotations

import math

from fdrs import analytic as an
from fdrs import specfun as sf

__all__ = ["bound_holds", "direct_link", "feasibility"]


def _value(ln_sum: float | None, ln_scale: float = 0.0) -> float:
    return 0.0 if ln_sum is None else math.exp(ln_scale + ln_sum)


def bound_holds(s: float, relays: int) -> bool:
    """Whether ((1 + s) / (1 - s))^relays <= _KAPPA_MAX."""
    return relays == 0 or (s < 1.0 and relays * (math.log1p(s) - math.log1p(-s))
                           <= math.log(an._KAPPA_MAX))


def direct_link(x: float, cfg, protocol, relays: int) -> tuple[float, list[tuple[float, float]]]:
    """(s, [(F(x | L), kappa) for L = 0..relays]) of an idl, idl_dt or
    sdf scenario, every F(x | L) from the paper's alternating sum."""
    s = an.ratio_tails(x, an.first_hop_ratio_params(cfg))[1]
    convolved, upper = an._DIRECT_LINK_INNER[protocol]
    ln_i = an._ln_blocks(relays, int(round(cfg.rd.m)), cfg.p_r * cfg.rd.theta, x, cfg.sd.m,
                         cfg.p_s * cfg.sd.theta, convolved, upper * x)
    if s == 0.0:   # every F(x | L) is block 0
        return s, [(_value(ln_i[0]), 1.0)] * (relays + 1)
    sums = [sf.ln_binomial_sum(ln_i, n, ln_ratio=math.log(s)) for n in range(relays + 1)]
    return s, [(_value(ln), kappa) for ln, kappa in sums]


def feasibility(cfg) -> list[tuple[float, float]]:
    """[(p[n], kappa) for n = 1..K], each p[n] the paper's alternating sum
    over the cap blocks."""
    k_total, m_sp, th_sp, m_rp, th_rp, cap = an._feasibility_args(cfg)
    ln_b = an._ln_blocks(k_total, int(round(m_rp)), th_rp, cap, m_sp, th_sp, True, cap)
    out = []
    for n in range(1, k_total + 1):
        ln_sum, kappa = sf.ln_binomial_sum(ln_b[k_total - n:], n)
        out.append((_value(ln_sum, sf.ln_comb(k_total, n)), kappa))
    return out
