"""Closed-form end-to-end SINR CDFs, feasibility probabilities, outage
and throughput, plus adaptive-quadrature oracles for every closed form.

Notation used throughout: the first hop of each relayed path is the
ratio Z = X1 / (X2 + 1) of the desired-signal gain over the residual
self-interference, both Gamma distributed.  The second hop is Gamma,
conditioned on the direct-link SNR where one exists.

Every direct-link CDF is one alternating binomial sum over positive
blocks,
    F(x | L) = sum_{k<=L} C(L, k) (-s)^k I_k,
    I_k = integral Q(m, y(b)/theta)^k f_Gamma(b) db,
where s is the first-hop tail P(Z > x), and the feasibility
distribution is an alternating sum of blocks of the same form.  For
integer m the identity
    Q(m, y)^k = e^(-k y) (sum_{j<m} y^j/j!)^k
              = e^(-k y) sum_d c_{k,m}(d) y^d
collapses the multinomial expansion to one term per degree d, with
positive coefficients c_{k,m}(d) (specfun.ln_truncated_exp_power).
Each degree leaves a one-dimensional inner integral over one table of
incomplete-Gamma moments per block: a positive sum up to inf (idl) or
x (idl_dt) for the shifted argument x (b + 1); for the convolved
argument x - b (sdf, feasibility) a positive Kummer series, replaced
only beyond |w| = 30 (w the decay rate times x) by an alternating
moment sum whose Higham cancellation bound stays within
specfun.REL_TOL.  The protocols differ only in that inner integral and
its upper limit.  The blocks I_k do not depend on
L, so one block vector serves every relay count of the cognitive
mixture.

Alternating outer sums are accumulated with math.fsum and every
inner positive block is assembled in log space, so the expressions stay
usable from deep-tail diversity sweeps (probabilities ~1e-18) up to
thresholds of 1e6.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from fdrs import specfun as sf
from fdrs.channel import ConfigError, NetworkConfig, Protocol, validate_config

__all__ = [
    "RatioParams",
    "FeasibilityDist",
    "first_hop_ratio_params",
    "cdf_ratio_gamma",
    "cdf_ratio_gamma_quad",
    "cdf_conditional",
    "cdf_ndl_quad",
    "cdf_idl_quad",
    "cdf_idl_dt_quad",
    "cdf_sdf_quad",
    "feasibility_dist",
    "feasibility_dist_quad",
    "cdf_cognitive",
    "outage_threshold",
    "outage",
    "throughput",
    "throughput_from_outage",
]


@dataclass(frozen=True)
class RatioParams:
    """Parameters of Z = X1/(X2 + 1) with Xi ~ Gamma(mi, thetai).

    The closed-form CDF additionally needs m2 to be a positive integer;
    non-integer m2 is representable here so the quadrature route can
    serve it.
    """

    m1: float
    theta1: float
    m2: float
    theta2: float

    def __post_init__(self):
        if not self.m1 >= 0.5:
            raise ValueError(f"m1 must be >= 0.5, got {self.m1}")
        if not self.m2 > 0:
            raise ValueError(f"m2 must be positive, got {self.m2}")
        if not (self.theta1 > 0 and self.theta2 > 0):
            raise ValueError("scale parameters must be positive")


@dataclass(frozen=True)
class FeasibilityDist:
    """Distribution of the number of relays meeting the interference cap.

    p[L] is the probability that exactly L of the K relays satisfy the
    combined source+relay constraint; p_tilde0 the probability that no
    relay does but the source alone would.
    """

    p: tuple[float, ...]
    p_tilde0: float

    def __post_init__(self):
        total = math.fsum(self.p)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"feasibility probabilities sum to {total}, not 1")
        if not -1e-12 <= self.p_tilde0 <= self.p[0] + 1e-12:
            raise ValueError("p_tilde0 must lie in [0, p[0]]")

    @property
    def k(self) -> int:
        return len(self.p) - 1


def first_hop_ratio_params(cfg: NetworkConfig) -> RatioParams:
    """Ratio parameters of the first hop: signal over scaled RSI."""
    return RatioParams(cfg.sr.m, cfg.p_s * cfg.sr.theta, cfg.rr.m, cfg.rsi_scale)


# ---------------------------------------------------------------------------
# ratio CDF (first hop)

def _ratio_whittaker_sum(z: float, p: RatioParams) -> float:
    """sum_k B c^-d theta2^-k W_{a,b}(c) of the ratio CDF, in [0, 1-ish].

    Equals F_Z(z) - P(m1, z/theta1) >= 0.  Writing W_{a,b}(c) =
    e^(-c/2) c^(b+1/2) U(b-a+1/2, 1+2b, c) and folding e^(-c/2) into B
    leaves the term e^(-z/theta1) (z/theta1)^m1 c^-(m1+k) theta2^-k
    U(1-m1, 1-m1-k, c) / Gamma(m1), evaluated as exp(log prefactor) * U:
    no factor underflows on its own when c = z/theta1 + 1/theta2 is
    large (small RSI), and none overflows against the others.
    """
    m1, th1, th2 = p.m1, p.theta1, p.theta2
    m2 = int(round(p.m2))
    zt = z / th1
    c = zt + 1.0 / th2
    ln_b = -zt + m1 * math.log(zt) - sf.ln_gamma(m1)
    terms = []
    for k in range(m2):
        u = sf.tricomi_u(1.0 - m1, 1.0 - m1 - k, c)
        ln_pref = ln_b - (m1 + k) * math.log(c) - k * math.log(th2)
        terms.append(math.copysign(math.exp(ln_pref + math.log(abs(u))), u))
    return math.fsum(terms)


def _require_integer_m2(p: RatioParams):
    if abs(p.m2 - round(p.m2)) > 1e-9:
        raise ValueError(
            f"closed-form ratio CDF requires integer m2, got {p.m2}; "
            "use cdf_ratio_gamma_quad for non-integer shapes")


def cdf_ratio_gamma(z: float, p: RatioParams) -> float:
    """CDF of Z = X1/(X2+1) at z >= 0; real m1 >= 1/2, integer m2 >= 1.

    F_Z(z) = P(m1, z/theta1) + sum_{k<m2} B c^-d theta2^-k W_{a,b}(c)
    with a = (m1-k-1)/2, b = -(m1+k)/2, c = z/theta1 + 1/theta2,
    d = (m1+k+1)/2 and B = e^{-(z/theta1 - 1/theta2)/2} (z/theta1)^m1
    / Gamma(m1).
    """
    _require_integer_m2(p)
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == 0:
        return 0.0
    val = sf.reg_lower_gamma(p.m1, z / p.theta1) + _ratio_whittaker_sum(z, p)
    return min(max(val, 0.0), 1.0)


def ratio_ccdf(z: float, p: RatioParams) -> float:
    """P(Z > z), assembled from the upper tail so it stays relatively
    accurate when close to 1 (needed by the high-power diversity sweeps)."""
    _require_integer_m2(p)
    if z <= 0:
        return 1.0
    val = sf.reg_upper_gamma(p.m1, z / p.theta1) - _ratio_whittaker_sum(z, p)
    return min(max(val, 0.0), 1.0)


def _gamma_pdf(t: float, m: float, theta: float) -> float:
    if t <= 0:
        return 0.0
    return math.exp((m - 1.0) * math.log(t) - t / theta
                    - sf.ln_gamma(m) - m * math.log(theta))


def _quad(integrand, lo: float, hi: float, tol: float, points=None) -> float:
    """integrate.quad with the oracles' tolerances; raises ArithmeticError
    when quad's own error estimate exceeds 10 tol max(1, |value|)."""
    val, err = integrate.quad(integrand, lo, hi, epsabs=tol * 1e-2,
                              epsrel=tol * 1e-1, limit=300, points=points)
    if err > 10 * tol * max(1.0, abs(val)):
        raise ArithmeticError(f"quadrature error estimate {err} too large for {val}")
    return val


def cdf_ratio_gamma_quad(z: float, p: RatioParams, tol: float = 1e-10) -> float:
    """Quadrature oracle for the ratio CDF; supports non-integer m2.

    F_Z(z) = integral over x of P(m1, z(x+1)/theta1) dF_X2(x).
    """
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == 0:
        return 0.0

    def integrand(x):
        return (sf.reg_lower_gamma(p.m1, z * (x + 1.0) / p.theta1)
                * _gamma_pdf(x, p.m2, p.theta2))

    return min(max(_quad(integrand, 0.0, math.inf, tol), 0.0), 1.0)


# ---------------------------------------------------------------------------
# log-space building blocks shared by the end-to-end CDFs

def _ln_binom(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _lse(values: list[float]) -> float:
    """log(sum(exp(values))) for possibly empty lists of finite/-inf logs."""
    m = max(values, default=-math.inf)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(v - m) for v in values))


def _lse_alternating(ln_mags: list[float]) -> float | None:
    """log of sum_j (-1)^j exp(ln_mags[j]), or None when that sum is not
    positive or its Higham bound u sum|t| / |sum t|, u taken as ulp(1)
    (twice the unit roundoff), exceeds sf.REL_TOL."""
    m = max(ln_mags, default=-math.inf)
    if m == -math.inf:
        return None
    mags = [math.exp(v - m) for v in ln_mags]
    s = math.fsum(-t if j % 2 else t for j, t in enumerate(mags))
    if not s > 0.0 or math.ulp(1.0) * math.fsum(mags) > sf.REL_TOL * s:
        return None
    return m + math.log(s)


def _alternating_sum(ln_mags) -> float:
    """sum_k (-1)^k exp(ln_mags[k]) by exact float summation, clamped to [0, 1]."""
    terms = [(-1.0 if k % 2 else 1.0) * math.exp(v) for k, v in enumerate(ln_mags)]
    return min(max(math.fsum(terms), 0.0), 1.0)


def _ln_moments(count: int, shape: float, rate: float, upper: float) -> list[float]:
    """ln of integral_0^upper t^(r+shape-1) e^(-rate t) dt
    = ln Gamma(r+shape) P(r+shape, rate upper) rate^-(r+shape) for
    r = 0..count-1, rate > 0 and upper <= inf (where P = 1)."""
    ln_rate = math.log(rate)
    w = rate * upper
    moments = []
    for r in range(count):
        plo = 1.0 if math.isinf(upper) else sf.reg_lower_gamma(r + shape, w)
        moments.append(sf.ln_gamma(r + shape) - (r + shape) * ln_rate
                       + math.log(plo) if plo > 0.0 else -math.inf)
    return moments


def _ln_trunc_integrals(count: int, shape: float, rate: float, upper: float) -> list[float]:
    """ln of integral_0^upper (t+1)^d t^(shape-1) e^(-rate t) dt for
    d = 0..count-1, rate > 0 and upper <= inf.

    Expanding (t+1)^d binomially leaves a positive sum over the moments
    of _ln_moments, which every degree shares.
    """
    ln_fact = [math.lgamma(n + 1) for n in range(count)]
    moments = _ln_moments(count, shape, rate, upper)
    return [_lse([ln_fact[d] - ln_fact[r] - ln_fact[d - r] + moments[r]
                  for r in range(d + 1)])
            for d in range(count)]


_KUMMER_BRANCH_CAP = 30.0


def _ln_conv_integrals(count: int, shape: float, rate: float, upper: float) -> list[float]:
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
    _ln_moments of (shape, rate) and (1, -rate).  A degree whose sum
    fails _lse_alternating's cancellation bound takes the Kummer form.
    """
    w = rate * upper
    ln_u = math.log(upper)
    n = int(round(shape))
    out = [None] * count
    if w > _KUMMER_BRANCH_CAP or (w < -_KUMMER_BRANCH_CAP and abs(shape - n) < 1e-9):
        if w > 0:
            moments = _ln_moments(count, shape, rate, upper)
        else:
            moments = _ln_moments(count + n - 1, 1.0, -rate, upper)
        ln_fact = [math.lgamma(i + 1) for i in range(max(count, n))]
        for d in range(count):
            top, first, ln_pref = (d, 0, 0.0) if w > 0 else (n - 1, d, -w)
            ln_j = _lse_alternating([ln_fact[top] - ln_fact[j] - ln_fact[top - j]
                                     + (top - j) * ln_u + moments[first + j]
                                     for j in range(top + 1)])
            if ln_j is not None:
                out[d] = ln_pref + ln_j
    for d in range(count):
        if out[d] is None:
            out[d] = (-max(w, 0.0) + (d + shape) * ln_u + sf.ln_beta(shape, d + 1.0)
                      + sf.ln_kummer_m(d + 1.0 if w > 0 else shape, d + shape + 1.0, abs(w)))
    return out


def _ln_blocks(count: int, m: int, theta: float, x: float, shape: float,
               theta0: float, convolved: bool, upper: float) -> list[float]:
    """ln I_k for k = 0..count, I_k = integral_0^upper Q(m, y(b)/theta)^k f(b) db.

    f is the Gamma(shape, theta0) density and m an integer.  The hop
    argument is y(b) = x (b + 1) (shifted, upper <= inf) or x - b
    (convolved, upper = x).

    Degree form: for integer m, Q(m, y)^k = e^(-k y) sum_d c_{k,m}(d) y^d
    (sf.ln_truncated_exp_power).  Pulling e^(-k x/theta) out leaves
    I_k = e^(-k x/theta) sum_d c_{k,m}(d) w^d J_d(rate_k) / (Gamma(shape)
    theta0^shape), with w = x/theta and rate_k = 1/theta0 + k x/theta
    when shifted, w = 1/theta and rate_k = 1/theta0 - k/theta when
    convolved; _ln_trunc_integrals (shifted) or _ln_conv_integrals
    (convolved) lists ln J_d for every degree, so work shared across
    degrees is done once per block.  All terms are positive.  No block
    depends on the relay count L, so one vector serves every
    F(x | L) = sum_{k<=L} C(L, k) (-s)^k I_k with L <= count.
    """
    ln_norm = -sf.ln_gamma(shape) - shape * math.log(theta0)
    ln_weight = -math.log(theta) if convolved else math.log(x / theta)
    ln_inner = _ln_conv_integrals if convolved else _ln_trunc_integrals
    blocks = []
    for k in range(count + 1):
        rate = 1.0 / theta0 + (-k / theta if convolved else x * k / theta)
        coeffs = sf.ln_truncated_exp_power(k, m)
        inner = ln_inner(len(coeffs), shape, rate, upper)
        lns = [c + d * ln_weight + j for d, (c, j) in enumerate(zip(coeffs, inner))]
        blocks.append(-k * x / theta + ln_norm + _lse(lns))
    return blocks


# ---------------------------------------------------------------------------
# end-to-end SINR CDFs without the interference constraint

# whether the hop argument is convolved (x - b) or shifted (x (b + 1)),
# and the upper limit of the direct-link SNR b in units of x
_DIRECT_LINK_INNER = {
    Protocol.IDL: (False, math.inf),
    Protocol.IDL_DT: (False, 1.0),
    Protocol.SDF: (True, 1.0),
}


def _conditional_cdfs(x: float, cfg: NetworkConfig, protocol: Protocol,
                      relays: int) -> list[float]:
    """F(x | L) for L = 0..relays from one evaluation shared by every L.

    NDL keeps its product form per_path^L.  The direct-link protocols
    integrate (1 - s Q)^L over the direct-link SNR, s = P(Z > x), and
    the binomial expansion of the power gives the alternating sum
    F(x | L) = sum_{k<=L} C(L, k) (-s)^k I_k, accumulated with exact
    float summation; the positive blocks I_k come from _ln_blocks and
    do not depend on L.
    """
    if relays < 1:
        raise ValueError("relays must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return [0.0] * (relays + 1)
    p1 = first_hop_ratio_params(cfg)
    th_rd = cfg.p_r * cfg.rd.theta
    if protocol is Protocol.NDL:
        fz = cdf_ratio_gamma(x, p1)
        per_path = fz + (1.0 - fz) * sf.reg_lower_gamma(cfg.rd.m, x / th_rd)
        return [per_path ** n for n in range(relays + 1)]
    fzbar = ratio_ccdf(x, p1)
    convolved, upper = _DIRECT_LINK_INNER[protocol]
    count = relays if fzbar > 0.0 else 0   # s = 0 leaves only the k = 0 block
    ln_s = math.log(fzbar) if count else 0.0
    ln_i = _ln_blocks(count, int(round(cfg.rd.m)), th_rd, x,
                      cfg.sd.m, cfg.p_s * cfg.sd.theta, convolved, upper * x)
    return [_alternating_sum(_ln_binom(n, k) + k * ln_s + ln_i[k]
                             for k in range(min(n, count) + 1))
            for n in range(relays + 1)]


def cdf_conditional(x: float, cfg: NetworkConfig, protocol: Protocol,
                    relays: int) -> float:
    """CDF of the end-to-end SINR given `relays` usable relays.

    ndl: no direct link; product form (1 - P(Z > x) P(hop2 > x))^relays,
    every factor a single per-path CDF thanks to i.i.d. paths.
    idl: the direct link only interferes with the second hop; the
    direct-link SNR is integrated out over (0, inf), each degree term a
    complete-Gamma moment sum at decay eta_k = 1/(P_S theta_SD) +
    x k/(P_R theta_RD).
    idl_dt: as idl, but direct transmission is a fallback decoding
    branch, so the integration stops at x.
    sdf: selective cooperation; the second hop is the relay-destination
    link MRC-combined with the direct signal (virtual two-transmitter
    array), and direct transmission is favored when sufficient.  The
    inner integral carries the convolution kernel (x - beta)^deg and
    the sign-indefinite decay eta_k = 1/(P_S theta_SD) - k/(P_R theta_RD);
    both confluent branches, exact at eta_k = 0, live in
    _ln_conv_integrals.
    """
    validate_config(cfg, protocol, "analytic")
    return _conditional_cdfs(x, cfg, protocol, relays)[relays]


# ---------------------------------------------------------------------------
# quadrature oracles for the end-to-end CDFs

def _direct_link_quad(x, cfg, relays, hop2_tail, lo, hi, tol):
    fzbar = 1.0 - cdf_ratio_gamma_quad(x, first_hop_ratio_params(cfg), tol)
    m_sd = cfg.sd.m
    th_sd = cfg.p_s * cfg.sd.theta

    def integrand(beta):
        return ((1.0 - fzbar * hop2_tail(beta)) ** relays
                * _gamma_pdf(beta, m_sd, th_sd))

    scale = 50.0 * m_sd * th_sd
    points = [scale] if scale < hi < math.inf else None
    return min(max(_quad(integrand, lo, hi, tol, points), 0.0), 1.0)


def cdf_ndl_quad(x, cfg: NetworkConfig, relays: int, tol: float = 1e-10) -> float:
    """Oracle for the ndl conditional CDF built on the ratio-CDF quadrature."""
    if x == 0:
        return 0.0
    fzbar = 1.0 - cdf_ratio_gamma_quad(x, first_hop_ratio_params(cfg), tol)
    q2 = sf.reg_upper_gamma(cfg.rd.m, x / (cfg.p_r * cfg.rd.theta))
    return (1.0 - fzbar * q2) ** relays


def cdf_idl_quad(x, cfg: NetworkConfig, relays: int, tol: float = 1e-10) -> float:
    """Direct numerical integration of the interfering-direct-link CDF."""
    if x == 0:
        return 0.0
    th_rd = cfg.p_r * cfg.rd.theta
    m_rd = cfg.rd.m
    tail = lambda beta: sf.reg_upper_gamma(m_rd, x * (beta + 1.0) / th_rd)
    return _direct_link_quad(x, cfg, relays, tail, 0.0, math.inf, tol)


def cdf_idl_dt_quad(x, cfg: NetworkConfig, relays: int, tol: float = 1e-10) -> float:
    """Oracle for the hybrid CDF: same integrand as IDL, truncated at x."""
    if x == 0:
        return 0.0
    th_rd = cfg.p_r * cfg.rd.theta
    m_rd = cfg.rd.m
    tail = lambda beta: sf.reg_upper_gamma(m_rd, x * (beta + 1.0) / th_rd)
    return _direct_link_quad(x, cfg, relays, tail, 0.0, x, tol)


def cdf_sdf_quad(x, cfg: NetworkConfig, relays: int, tol: float = 1e-10) -> float:
    """Oracle for the selective-cooperation CDF."""
    if x == 0:
        return 0.0
    th_rd = cfg.p_r * cfg.rd.theta
    m_rd = cfg.rd.m
    tail = lambda beta: sf.reg_upper_gamma(m_rd, max(x - beta, 0.0) / th_rd)
    return _direct_link_quad(x, cfg, relays, tail, 0.0, x, tol)


# ---------------------------------------------------------------------------
# feasibility under the interference constraint

def _require_cognitive(cfg: NetworkConfig):
    if not cfg.is_cognitive:
        raise ConfigError(["scenario has no interference constraint (sp/rp/ith absent)"])


def feasibility_dist(cfg: NetworkConfig) -> FeasibilityDist:
    """Exact distribution of the number of relays satisfying the cap.

    The source interference is common to all relays, so feasibility
    events are only conditionally independent given it; integrating the
    conditional binomial over the source-interference density yields
    finite sums of the convolution integrals in _ln_conv_integrals.
    Requires integer m_rp (series expansion of the per-relay tail).
    """
    _require_cognitive(cfg)
    if not cfg.rp.integer_m:
        raise ConfigError([f"feasibility closed form requires integer m_rp (got {cfg.rp.m})"])
    k_total = cfg.k
    th_sp = cfg.p_s * cfg.sp.theta
    cap = cfg.i_th
    # B_q = integral_0^cap Q(m_rp, (cap-b)/th_rp)^q f_I_SP(b) db is the
    # chance that the source meets the cap and q given relays do not;
    # expanding (1 - Q)^n gives
    # P(exactly n feasible) = C(K, n) sum_l C(n, l) (-1)^l B_{K-n+l}
    ln_b = _ln_blocks(k_total, int(round(cfg.rp.m)), cfg.p_r * cfg.rp.theta, cap,
                      cfg.sp.m, th_sp, True, cap)
    p_tilde0 = math.exp(ln_b[k_total])
    probs = [min(sf.reg_upper_gamma(cfg.sp.m, cap / th_sp) + p_tilde0, 1.0)]
    for feasible in range(1, k_total + 1):
        probs.append(_alternating_sum(
            _ln_binom(k_total, feasible) + _ln_binom(feasible, l)
            + ln_b[k_total - feasible + l] for l in range(feasible + 1)))
    return FeasibilityDist(p=tuple(probs), p_tilde0=min(p_tilde0, probs[0]))


def feasibility_dist_quad(cfg: NetworkConfig, tol: float = 1e-10) -> FeasibilityDist:
    """Quadrature oracle for feasibility_dist; no integrality limits."""
    _require_cognitive(cfg)
    k_total = cfg.k
    m_sp, m_rp = cfg.sp.m, cfg.rp.m
    th_sp = cfg.p_s * cfg.sp.theta
    th_rp = cfg.p_r * cfg.rp.theta
    cap = cfg.i_th

    def p_exactly(feasible):
        def integrand(beta):
            f = sf.reg_lower_gamma(m_rp, (cap - beta) / th_rp)
            return (math.comb(k_total, feasible) * f ** feasible
                    * (1.0 - f) ** (k_total - feasible)
                    * _gamma_pdf(beta, m_sp, th_sp))
        return _quad(integrand, 0.0, cap, tol)

    probs = [p_exactly(i) for i in range(k_total + 1)]
    p_tilde0 = probs[0]
    probs[0] += sf.reg_upper_gamma(m_sp, cap / th_sp)
    return FeasibilityDist(p=tuple(probs), p_tilde0=p_tilde0)


def cdf_cognitive(x: float, cfg: NetworkConfig, protocol: Protocol,
                  feas: FeasibilityDist | None = None) -> float:
    """End-to-end SINR CDF under the interference constraint.

    Total-probability mixture over the number L of feasible relays.
    Relay-only protocols are in outage whenever L = 0, so F(x|0) = 1.
    Protocols with a direct-transmission branch survive L = 0 when the
    source alone meets the cap, giving
    F(x) = P0 - Q_SD(x) P~0 + sum_{L>=1} F(x|L) P_L, which jumps by
    P0 - P~0 at x = 0 (communication is cut off outright when even the
    source violates the cap).  Every F(x|L) comes from one shared
    evaluation (_conditional_cdfs) up to the largest L with P_L > 0.
    """
    _require_cognitive(cfg)
    validate_config(cfg, protocol, "analytic")
    if feas is None:
        feas = feasibility_dist(cfg)
    parts = [feas.p[0]]
    if protocol.has_dt_branch:
        q_sd = sf.reg_upper_gamma(cfg.sd.m, x / (cfg.p_s * cfg.sd.theta))
        parts.append(-q_sd * feas.p_tilde0)
    top = max((n for n in range(1, feas.k + 1) if feas.p[n] > 0.0), default=0)
    if top:
        cond = _conditional_cdfs(x, cfg, protocol, top)
        parts.extend(feas.p[n] * cond[n] for n in range(1, top + 1) if feas.p[n] > 0.0)
    return min(max(math.fsum(parts), 0.0), 1.0)


# ---------------------------------------------------------------------------
# outage and throughput

def outage_threshold(protocol: Protocol, rate: float,
                     hd_equal_delivered_rate: bool = True) -> float:
    """SINR threshold for a source rate in bpcu: 2^rate - 1.

    In outage comparisons at equal delivered rate, half-duplex
    protocols are charged the doubled source rate 2*rate instead.
    """
    if rate < 0:
        raise ValueError("rate must be >= 0")
    eff = 2.0 * rate if (protocol.half_duplex and hd_equal_delivered_rate) else rate
    return 2.0 ** eff - 1.0


def outage(cfg: NetworkConfig, protocol: Protocol, rate: float,
           cognitive: bool = False) -> float:
    """Closed-form outage probability P(SINR < threshold), full-duplex
    protocols only, so no half-duplex rate convention applies.

    The strict inequality matters only at threshold 0, where the atom
    the constraint puts at SINR = 0 does not count as outage.
    """
    gamma_th = outage_threshold(protocol, rate)
    if gamma_th == 0.0:
        return 0.0
    if cognitive:
        return cdf_cognitive(gamma_th, cfg, protocol)
    return cdf_conditional(gamma_th, cfg, protocol, cfg.k)


def throughput_from_outage(protocol: Protocol, rate: float, p_out: float) -> float:
    """rate * (1 - P_out), halved for half-duplex protocols."""
    factor = 0.5 if protocol.half_duplex else 1.0
    return factor * rate * (1.0 - p_out)


def throughput(cfg: NetworkConfig, protocol: Protocol, rate: float,
               cognitive: bool = False) -> float:
    """Fixed-rate throughput in bpcu; both duplex classes run the same
    source rate, the half-duplex rate loss lands as the factor 1/2."""
    p = outage(cfg, protocol, rate, cognitive)
    return throughput_from_outage(protocol, rate, p)
