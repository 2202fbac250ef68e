"""The paper's alternating closed forms, as a reference for the production
route, which never sums them for sdf or the feasibility distribution.

    F(x | L) = sum_{k<=L} C(L, k) (-s)^k I_k,            s = P(Z > x)
    p[n]     = C(K, n) sum_{l<=n} C(n, l) (-1)^l B_{K-n+l}

with I_k and B_q the direct-link and cap blocks.  idl and idl_dt take
the shifted blocks of `fdrs.analytic._ln_blocks`; sdf and the cap take
the convolved blocks built here (`convolved_blocks`), whose inner
integrals are Kummer series with alternating fallbacks
(`ln_conv_integrals`).  Each value comes with the sum's own condition
number kappa = sum|t| / S, from `specfun.ln_binomial_sum`: where
(ulp(1) + GAMMA_REL_TOL) kappa <= REL_TOL, that is kappa <=
analytic._KAPPA_MAX, the sum keeps REL_TOL.  The production route takes
an idl or idl_dt closed form only where the a-priori bound ((1 + s) /
(1 - s))^L on kappa holds, and the positive integral everywhere else;
`closed_in_production` is that rule.
"""
from __future__ import annotations

import math

from fdrs import analytic as an
from fdrs import specfun as sf
from fdrs.analytic import _ULP, _ln_moments
from fdrs.channel import Protocol

__all__ = ["bound_holds", "closed_in_production", "ln_conv_integrals", "convolved_chain",
           "convolved_blocks", "direct_link", "feasibility"]

_KUMMER_BRANCH_CAP = 30.0


def ln_conv_integrals(count: int, shape: float, rate: float, upper: float) -> list[float]:
    """ln J_d = ln integral_0^upper (upper-t)^d t^(shape-1) e^(-rate t) dt
    for d = 0..count-1, rate of either sign and w = rate upper.

    J_d = upper^(d+shape) B(shape, d+1) M(shape, d+shape+1, -w), or by
    Kummer's transformation e^(-w) M(d+1, d+shape+1, w) in place of M:
    each degree takes the form whose series has positive terms, exact
    at w = 0.  Beyond |w| = _KUMMER_BRANCH_CAP, where that series needs
    about |w| terms, alternating sums over one moment table per block
    come first: for w > 0 (upper-t)^d expanded,
    sum_r (-1)^r C(d, r) upper^(d-r) G_r; for w < 0 and integer shape n,
    (upper-u)^(n-1) expanded after u = upper - t,
    e^(-w) sum_j (-1)^j C(n-1, j) upper^(n-1-j) H_(d+j); G and H are the
    _ln_moments of (shape, rate) and (1, -rate), and
    sf.ln_binomial_sum gives each sum with its condition number kappa.
    A degree takes the Kummer form unless its sum is positive and
    (ulp(1) + e) kappa <= sf.REL_TOL, where e is each term's relative
    error: sf.GAMMA_REL_TOL from the moments plus the rounding of the
    logarithms summed into the term.
    """
    w = rate * upper
    ln_u = math.log(upper)
    n = int(round(shape))
    out = [None] * count
    if w > _KUMMER_BRANCH_CAP or (w < -_KUMMER_BRANCH_CAP and abs(shape - n) < 1e-9):
        if w > 0:
            a, rho, size, top_max = shape, rate, count, count - 1
        else:
            a, rho, size, top_max = 1.0, -rate, count + n - 1, n - 1
        moments = _ln_moments(size, a, rho, upper)
        # each term's relative error: the moments' stated accuracy plus the
        # rounding of the logs summed into it, bounded at the largest order
        big = size - 1 + a
        err = sf.GAMMA_REL_TOL + _ULP * (abs(math.lgamma(big)) + big * abs(math.log(rho))
                                         + 2.0 * math.lgamma(top_max + 1.0) + top_max * abs(ln_u))
        for d in range(count):
            top, ln_seq, ln_pref = ((d, moments, d * ln_u) if w > 0
                                    else (n - 1, moments[d:], (n - 1) * ln_u - w))
            ln_j, kappa = sf.ln_binomial_sum(ln_seq, top, -ln_u)
            if ln_j is not None and (_ULP + err) * kappa <= sf.REL_TOL:
                out[d] = ln_pref + ln_j
    for d in range(count):
        if out[d] is None:
            out[d] = (-max(w, 0.0) + (d + shape) * ln_u + sf.ln_beta(shape, d + 1.0)
                      + sf.ln_kummer_m(d + 1.0 if w > 0 else shape, d + shape + 1.0, abs(w)))
    return out


def convolved_chain(count: int, m: int, theta: float) -> list[list[float]]:
    """ln coefficients E_k, k = 0..count, of the powers P(t/theta)^k in
    t, P(y) = sum_{j<m} y^j/j!: each E_k is E_(k-1) convolved with the
    base p_j = theta^-j/j!."""
    ln_p = [-j * math.log(theta) - math.lgamma(j + 1.0) for j in range(m)]
    chain = [[0.0]]
    for _ in range(count):
        chain.append(an._ln_poly_times(chain[-1], ln_p))
    return chain


def convolved_blocks(count: int, m: int, theta: float, x: float, shape: float,
                     theta0: float) -> list[float]:
    """ln I_k for k = 0..count, I_k = integral_0^x Q(m, (x - b)/theta)^k f(b) db,
    f the Gamma(shape, theta0) density and m an integer.  As Q(m, y) =
    e^(-y) P(y), I_k is e^(-k x/theta) / (Gamma(shape) theta0^shape)
    times sum_d E_{k,d} J_d, the E_k of convolved_chain and J the
    ln_conv_integrals at rate 1/theta0 - k/theta."""
    ln_norm = -sf.ln_gamma(shape) - shape * math.log(theta0)
    blocks = []
    for k, ln_e in enumerate(convolved_chain(count, m, theta)):
        table = ln_conv_integrals(len(ln_e), shape, 1.0 / theta0 - k / theta, x)
        blocks.append(-k * x / theta + ln_norm + an._ln_fsum([e + t for e, t in zip(ln_e, table)]))
    return blocks


def _value(ln_sum: float | None, ln_scale: float = 0.0) -> float:
    return 0.0 if ln_sum is None else math.exp(ln_scale + ln_sum)


def bound_holds(s: float, relays: int) -> bool:
    """Whether ((1 + s) / (1 - s))^relays <= _KAPPA_MAX."""
    return relays == 0 or (s < 1.0 and relays * (math.log1p(s) - math.log1p(-s))
                           <= math.log(an._KAPPA_MAX))


def closed_in_production(s: float, relays: int, protocol) -> bool:
    """Whether the production route takes F(x | relays >= 1) from the
    closed form: idl and idl_dt where bound_holds, sdf never."""
    return protocol is not Protocol.SDF and bound_holds(s, relays)


def direct_link(x: float, cfg, protocol, relays: int) -> tuple[float, list[tuple[float, float]]]:
    """(s, [(F(x | L), kappa) for L = 0..relays]) of an idl, idl_dt or
    sdf scenario, every F(x | L) from the paper's alternating sum."""
    s = an.ratio_tails(x, an.first_hop_ratio_params(cfg))[1]
    m_rd, th_rd = int(round(cfg.rd.m)), cfg.p_r * cfg.rd.theta
    m_sd, th_sd = cfg.sd.m, cfg.p_s * cfg.sd.theta
    if protocol is Protocol.SDF:
        ln_i = convolved_blocks(relays, m_rd, th_rd, x, m_sd, th_sd)
    else:
        upper = an._DIRECT_LINK_INNER[protocol][1] * x
        ln_i = an._ln_blocks(relays, m_rd, th_rd, x, m_sd, th_sd, upper)
    if s == 0.0:   # every F(x | L) is block 0
        return s, [(_value(ln_i[0]), 1.0)] * (relays + 1)
    sums = [sf.ln_binomial_sum(ln_i, n, ln_ratio=math.log(s)) for n in range(relays + 1)]
    return s, [(_value(ln), kappa) for ln, kappa in sums]


def feasibility(cfg) -> list[tuple[float, float]]:
    """[(p[n], kappa) for n = 1..K], each p[n] the paper's alternating sum
    over the cap blocks."""
    k_total, m_sp, th_sp, m_rp, th_rp, cap = an._feasibility_args(cfg)
    ln_b = convolved_blocks(k_total, int(round(m_rp)), th_rp, cap, m_sp, th_sp)
    out = []
    for n in range(1, k_total + 1):
        ln_sum, kappa = sf.ln_binomial_sum(ln_b[k_total - n:], n)
        out.append((_value(ln_sum, sf.ln_comb(k_total, n)), kappa))
    return out
