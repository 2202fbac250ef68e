"""Closed-form end-to-end SINR CDFs, feasibility probabilities, outage
and throughput, plus adaptive-quadrature oracles for every closed form.
The closed forms use only fdrs.specfun; the oracles use scipy, which
they import when called.

Notation used throughout: the first hop of each relayed path is the
ratio Z = X1 / (X2 + 1) of the desired-signal gain over the residual
self-interference, both Gamma distributed.  The second hop is Gamma,
conditioned on the direct-link SNR where one exists.

Every direct-link CDF is one alternating binomial sum over positive
blocks, F(x | L) = sum_{k<=L} C(L, k) (-s)^k I_k with s = P(Z > x) and
I_k = integral Q(m, y(b)/theta)^k f_Gamma(b) db, and the feasibility
distribution is an alternating sum of such blocks.  For integer m,
Q(m, y) = e^(-y) sum_{j<m} y^j/j!.  At the shifted argument x (b + 1)
(idl, idl_dt) that sum is a positive polynomial in b, and block k sums
its k-th power, one convolution from the (k-1)-th, against one table of
incomplete-Gamma moments.  At the convolved argument x - b (sdf,
feasibility) the power expands by degree over a positive Kummer series,
replaced only beyond |w| = 30 (w the decay rate times x) by an
alternating binomial sum whose condition number, times each term's
error, stays within specfun.REL_TOL.  Blocks do not depend on L, nor
those of the conditional CDFs on the cap, so in a shared_blocks() scope
(one per analysis driver call) a relay-count or cap sweep evaluates each
block, F(x | L) list and feasibility distribution once.

Every binomial sum, inner or outer, is specfun.ln_binomial_sum: terms
scaled by the largest in log space and added with math.fsum, so the
expressions stay usable from deep-tail diversity sweeps (probabilities
~1e-18) up to thresholds of 1e6.  The outer sums are clamped to [0, 1]
and their condition number is not yet checked.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

from fdrs import specfun as sf
from fdrs.channel import (SYMMETRIC_ONLY, ConfigError, NetworkConfig, Protocol,
                          require_cognitive, validate_config)

__all__ = ["RatioParams", "FeasibilityDist", "first_hop_ratio_params", "cdf_ratio_gamma",
           "cdf_ratio_gamma_quad", "cdf_conditional", "cdf_ndl_quad", "cdf_idl_quad",
           "cdf_idl_dt_quad", "cdf_sdf_quad", "feasibility_dist", "feasibility_dist_quad",
           "shared_blocks", "cdf_cognitive", "outage_threshold", "outage", "throughput",
           "throughput_from_outage"]


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


# The oracles take scipy's quad and incomplete Gammas, imported when an
# oracle runs: the closed forms never load scipy, and an error in the
# specfun kernels cannot hide by appearing on both sides of a check.
QUAD_TOL = 1e-10   # the oracles' error target (_quad)


def _scipy_gamma_cdfs():
    """scipy.special's regularized (P, Q), each returning a float."""
    from scipy import special
    return (lambda a, x: float(special.gammainc(a, x)),
            lambda a, x: float(special.gammaincc(a, x)))


def _quad(integrand, lo: float, hi: float, points=None) -> float:
    """scipy's quad at QUAD_TOL; raises ArithmeticError when quad's own
    error estimate exceeds 10 QUAD_TOL max(1, |value|)."""
    from scipy import integrate
    val, err = integrate.quad(integrand, lo, hi, epsabs=QUAD_TOL * 1e-2,
                              epsrel=QUAD_TOL * 1e-1, limit=300, points=points)
    if err > 10 * QUAD_TOL * max(1.0, abs(val)):
        raise ArithmeticError(f"quadrature error estimate {err} too large for {val}")
    return val


def cdf_ratio_gamma_quad(z: float, p: RatioParams) -> float:
    """Quadrature oracle for the ratio CDF; supports non-integer m2.

    F_Z(z) = integral over x of P(m1, z(x+1)/theta1) dF_X2(x), taken in
    u = x/theta2 so that the density keeps its place at any RSI scale.
    """
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == 0:
        return 0.0
    lower, _ = _scipy_gamma_cdfs()

    def integrand(u):
        return (lower(p.m1, z * (p.theta2 * u + 1.0) / p.theta1)
                * _gamma_pdf(u, p.m2, 1.0))

    return min(max(_quad(integrand, 0.0, math.inf), 0.0), 1.0)


# ---------------------------------------------------------------------------
# log-space building blocks shared by the end-to-end CDFs

def _probability(ln_sum: float | None, ln_scale: float = 0.0) -> float:
    """e^(ln_scale + ln_sum) clamped to [0, 1]; a sum that cancelled to
    <= 0 (ln_sum None) gives 0."""
    return 0.0 if ln_sum is None else min(math.exp(ln_scale + ln_sum), 1.0)


def _ln_moments(count: int, shape: float, rate: float, upper: float) -> list[float]:
    """ln of integral_0^upper t^(r+shape-1) e^(-rate t) dt
    = ln Gamma(r+shape) P(r+shape, rate upper) rate^-(r+shape) for
    r = 0..count-1, rate > 0 and upper <= inf (where P = 1); one
    sf.ln_reg_lower_gammas run gives every ln P."""
    ln_rate = math.log(rate)
    ln_p = sf.ln_reg_lower_gammas(shape, count, rate * upper)
    return [math.lgamma(r + shape) - (r + shape) * ln_rate + ln_p[r] for r in range(count)]


def _ln_fsum(lns) -> float:
    """ln sum_i e^(lns[i]), the terms scaled by the largest."""
    peak = max(lns)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in lns))


def _ln_poly_times(ln_a: list[float], ln_b: list[float]) -> list[float]:
    """ln coefficients of the product of two positive polynomials, given by theirs."""
    return [_ln_fsum([ln_a[d - i] + v for i, v in enumerate(ln_b) if 0 <= d - i < len(ln_a)])
            for d in range(len(ln_a) + len(ln_b) - 1)]


def _ln_shifted_terms(ln_poly: list[float], shape: float, rate: float, upper: float) -> list[float]:
    """ln E_i M_i: the coefficients ln_poly times the _ln_moments of (shape, rate)."""
    return [e + mo for e, mo in zip(ln_poly, _ln_moments(len(ln_poly), shape, rate, upper))]


_KUMMER_BRANCH_CAP = 30.0
_ULP = math.ulp(1.0)


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
            top, first, ln_pref = (d, 0, d * ln_u) if w > 0 else (n - 1, d, (n - 1) * ln_u - w)
            ln_j, kappa = sf.ln_binomial_sum(moments, top, first, -ln_u)
            if ln_j is not None and (_ULP + err) * kappa <= sf.REL_TOL:
                out[d] = ln_pref + ln_j
    for d in range(count):
        if out[d] is None:
            out[d] = (-max(w, 0.0) + (d + shape) * ln_u + sf.ln_beta(shape, d + 1.0)
                      + sf.ln_kummer_m(d + 1.0 if w > 0 else shape, d + shape + 1.0, abs(w)))
    return out


_SHARED_BLOCKS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "_SHARED_BLOCKS", default=None)


@contextlib.contextmanager
def shared_blocks():
    """Scope that computes each block, F(x | L) list and feasibility_dist once.

    Block k does not depend on _ln_blocks' count, nor F(x | L) on
    _conditional_cdfs' relays, so one list is kept per tuple of the
    other arguments and a call computes only the entries its count
    adds, bit-identical to unshared calls, until the scope exits.
    """
    token = _SHARED_BLOCKS.set({})
    try:
        yield
    finally:
        _SHARED_BLOCKS.reset(token)


def _kept(key: tuple, make):
    """make(), kept per key inside a shared_blocks() scope; outside, made per call."""
    memo = _SHARED_BLOCKS.get()
    if memo is not None and key not in memo:
        memo[key] = make()
    return make() if memo is None else memo[key]


def _ln_blocks(count: int, m: int, theta: float, x: float, shape: float,
               theta0: float, convolved: bool, upper: float) -> list[float]:
    """ln I_k for k = 0..count, I_k = integral_0^upper Q(m, y(b)/theta)^k f(b) db.

    f is the Gamma(shape, theta0) density, m an integer, and y(b) =
    x (b + 1) (shifted, upper <= inf) or x - b (convolved, upper = x).
    As Q(m, y) = e^(-y) P(y), P(y) = sum_{j<m} y^j/j!, I_k is
    e^(-k x/theta) / (Gamma(shape) theta0^shape) times a positive sum.
    Shifted: P(w (b + 1)) = sum_i p_i b^i, w = x/theta, p_i = (w^i/i!) sum_{l<m-i} w^l/l!;
    the terms are E_{k,i} M_i, E_k (the k-th power's coefficients) being
    E_(k-1) convolved with p and M_i the _ln_moments at rate 1/theta0 + k w.
    Convolved: P(y)^k = sum_d c_{k,m}(d) y^d; the terms are c_{k,m}(d) theta^-d
    J_d (_ln_conv_integrals) at rate 1/theta0 - k/theta.  In a shared_blocks()
    scope a call extends the vector, and the last E_k, kept there.
    """
    blocks, last = _kept((m, theta, x, shape, theta0, convolved, upper), lambda: ([], [[0.0]]))
    ln_norm = -sf.ln_gamma(shape) - shape * math.log(theta0)
    ln_weight = -math.log(theta)
    ln_pow = [j * math.log(x / theta) - math.lgamma(j + 1.0) for j in range(m)]   # w^j/j!
    ln_p = [ln_pow[i] + _ln_fsum(ln_pow[:m - i]) for i in range(m)]
    for k in range(len(blocks), count + 1):
        rate = 1.0 / theta0 + (-k / theta if convolved else x * k / theta)
        if convolved:
            coeffs = sf.ln_truncated_exp_power(k, m)
            inner = _ln_conv_integrals(len(coeffs), shape, rate, upper)
            lns = [c + d * ln_weight + j for d, (c, j) in enumerate(zip(coeffs, inner))]
        else:
            last[0] = _ln_poly_times(last[0], ln_p) if k else last[0]
            lns = _ln_shifted_terms(last[0], shape, rate, upper)
        blocks.append(-k * x / theta + ln_norm + _ln_fsum(lns))
    return blocks[:count + 1]


# ---------------------------------------------------------------------------
# end-to-end SINR CDFs without the interference constraint

# whether the hop argument is convolved (x - b) or shifted (x (b + 1)),
# and the upper limit of the direct-link SNR b in units of x
_DIRECT_LINK_INNER = {Protocol.IDL: (False, math.inf), Protocol.IDL_DT: (False, 1.0),
                      Protocol.SDF: (True, 1.0)}


def _conditional_cdfs(x: float, cfg: NetworkConfig, protocol: Protocol,
                      relays: int) -> list[float]:
    """F(x | L) for L = 0..relays from one evaluation shared by every L.

    NDL keeps its product form per_path^L.  The direct-link protocols
    integrate (1 - s Q)^L over the direct-link SNR, s = P(Z > x), and
    the binomial expansion of the power gives the alternating sum
    F(x | L) = sum_{k<=L} C(L, k) (-s)^k I_k (sf.ln_binomial_sum,
    clamped to [0, 1]) over the blocks of _ln_blocks.  In a shared_blocks()
    scope a call extends the list (and per_path or s) an earlier call built.
    """
    if relays < 1:
        raise ValueError("relays must be >= 1")
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0:
        return [0.0] * (relays + 1)
    p1 = first_hop_ratio_params(cfg)
    th_rd = cfg.p_r * cfg.rd.theta
    ndl = protocol is Protocol.NDL
    link = () if ndl else (cfg.sd.m, cfg.p_s * cfg.sd.theta)

    def first_hop():   # NDL's per_path, or s
        if not ndl:
            return [], ratio_ccdf(x, p1)
        fz = cdf_ratio_gamma(x, p1)
        return [], fz + (1.0 - fz) * sf.reg_lower_gamma(cfg.rd.m, x / th_rd)
    cdfs, s = _kept(("cdfs", protocol, x, p1, cfg.rd.m, th_rd) + link, first_hop)
    if ndl:
        cdfs.extend(s ** n for n in range(len(cdfs), relays + 1))
    elif len(cdfs) <= relays:
        convolved, upper = _DIRECT_LINK_INNER[protocol]
        count = relays if s > 0.0 else 0   # s = 0 leaves only the k = 0 block
        ln_s = math.log(s) if count else 0.0
        ln_i = _ln_blocks(count, int(round(cfg.rd.m)), th_rd, x, *link, convolved, upper * x)
        cdfs.extend(_probability(sf.ln_binomial_sum(ln_i, min(n, count), ln_ratio=ln_s)[0])
                    for n in range(len(cdfs), relays + 1))
    return cdfs[:relays + 1]


def cdf_conditional(x: float, cfg: NetworkConfig, protocol: Protocol,
                    relays: int) -> float:
    """CDF of the end-to-end SINR given `relays` usable relays.

    ndl: no direct link; the product form (1 - P(Z > x) P(hop2 > x))^relays
    of i.i.d. paths.  idl: the direct link only interferes with the second
    hop, and the direct-link SNR is integrated out over (0, inf).  idl_dt:
    as idl, but direct transmission is a fallback decoding branch, so the
    integration stops at x.  sdf: selective cooperation; the second hop is
    MRC-combined with the direct signal, so the inner integral carries the
    kernel (x - beta)^deg at a decay of either sign (_ln_conv_integrals).
    """
    validate_config(cfg, protocol, "analytic")
    return _conditional_cdfs(x, cfg, protocol, relays)[relays]


# ---------------------------------------------------------------------------
# quadrature oracles for the end-to-end CDFs

def _direct_link_quad(x, cfg, relays, hop2_arg, hi):
    """integral_0^hi (1 - P(Z > x) Q(m_rd, hop2_arg(beta)/theta_rd))^relays
    over the direct-link SNR density, taken in t = beta/(P_S theta_sd);
    0 at x = 0."""
    if x == 0:
        return 0.0
    fzbar = 1.0 - cdf_ratio_gamma_quad(x, first_hop_ratio_params(cfg))
    _, upper = _scipy_gamma_cdfs()
    m_rd, th_rd = cfg.rd.m, cfg.p_r * cfg.rd.theta
    m_sd = cfg.sd.m
    th_sd = cfg.p_s * cfg.sd.theta

    def integrand(t):
        return ((1.0 - fzbar * upper(m_rd, hop2_arg(th_sd * t) / th_rd)) ** relays
                * _gamma_pdf(t, m_sd, 1.0))

    t_hi = hi / th_sd
    points = [50.0 * m_sd] if 50.0 * m_sd < t_hi < math.inf else None
    return min(max(_quad(integrand, 0.0, t_hi, points), 0.0), 1.0)


def cdf_ndl_quad(x, cfg: NetworkConfig, relays: int) -> float:
    """Oracle for the ndl conditional CDF built on the ratio-CDF quadrature."""
    fzbar = 1.0 - cdf_ratio_gamma_quad(x, first_hop_ratio_params(cfg))
    _, upper = _scipy_gamma_cdfs()
    q2 = upper(cfg.rd.m, x / (cfg.p_r * cfg.rd.theta))
    return (1.0 - fzbar * q2) ** relays


def cdf_idl_quad(x, cfg: NetworkConfig, relays: int) -> float:
    """Direct numerical integration of the interfering-direct-link CDF."""
    return _direct_link_quad(x, cfg, relays, lambda beta: x * (beta + 1.0), math.inf)


def cdf_idl_dt_quad(x, cfg: NetworkConfig, relays: int) -> float:
    """Oracle for the hybrid CDF: same integrand as IDL, truncated at x."""
    return _direct_link_quad(x, cfg, relays, lambda beta: x * (beta + 1.0), x)


def cdf_sdf_quad(x, cfg: NetworkConfig, relays: int) -> float:
    """Oracle for the selective-cooperation CDF."""
    return _direct_link_quad(x, cfg, relays, lambda beta: max(x - beta, 0.0), x)


# ---------------------------------------------------------------------------
# feasibility under the interference constraint

def _feasibility_args(cfg: NetworkConfig) -> tuple:
    """(k, m_sp, p_s theta_sp, m_rp, p_r theta_rp, i_th), all that the
    feasibility distribution reads; both routes assume symmetric relays."""
    if require_cognitive(cfg).relay_overrides:
        raise ConfigError([SYMMETRIC_ONLY])
    return cfg.k, cfg.sp.m, cfg.p_s * cfg.sp.theta, cfg.rp.m, cfg.p_r * cfg.rp.theta, cfg.i_th


def feasibility_dist(cfg: NetworkConfig) -> FeasibilityDist:
    """Exact distribution of the number of relays satisfying the cap.

    The source interference is common to all relays, so feasibility
    events are only conditionally independent given it; integrating the
    conditional binomial over the source-interference density yields
    finite sums of the convolution integrals in _ln_conv_integrals.
    Requires integer m_rp (series expansion of the per-relay tail) and
    symmetric relays.  A shared_blocks() scope computes it once per tuple
    of _feasibility_args; outside a scope every call computes it.
    """
    args = _feasibility_args(cfg)
    if not cfg.rp.integer_m:
        raise ConfigError([f"feasibility closed form requires integer m_rp (got {cfg.rp.m})"])
    return _kept(("feasibility",) + args, lambda: _feasibility(*args))


def _feasibility(k_total: int, m_sp: float, th_sp: float, m_rp: float, th_rp: float,
                 cap: float) -> FeasibilityDist:
    # B_q = integral_0^cap Q(m_rp, (cap-b)/th_rp)^q f_I_SP(b) db is the
    # chance that the source meets the cap and q given relays do not;
    # expanding (1 - Q)^n gives
    # P(exactly n feasible) = C(K, n) sum_l C(n, l) (-1)^l B_{K-n+l}
    ln_b = _ln_blocks(k_total, int(round(m_rp)), th_rp, cap, m_sp, th_sp, True, cap)
    p_tilde0 = math.exp(ln_b[k_total])
    probs = [min(sf.reg_upper_gamma(m_sp, cap / th_sp) + p_tilde0, 1.0)]
    for feasible in range(1, k_total + 1):
        ln_sum, _ = sf.ln_binomial_sum(ln_b, feasible, first=k_total - feasible)
        probs.append(_probability(ln_sum, sf.ln_comb(k_total, feasible)))
    return FeasibilityDist(p=tuple(probs), p_tilde0=min(p_tilde0, probs[0]))


def feasibility_dist_quad(cfg: NetworkConfig) -> FeasibilityDist:
    """Quadrature oracle for feasibility_dist; no integrality limits.
    Integrates over t = beta/(P_S theta_sp), beta the source's interference;
    a relay's chance to violate the cap is Q, never 1 - P."""
    k_total, m_sp, th_sp, m_rp, th_rp, cap = _feasibility_args(cfg)
    lower, upper = _scipy_gamma_cdfs()
    t_cap = cap / th_sp
    points = [50.0 * m_sp] if 50.0 * m_sp < t_cap else None

    def p_exactly(feasible):
        def integrand(t):
            y = (cap - th_sp * t) / th_rp
            return (math.comb(k_total, feasible) * lower(m_rp, y) ** feasible
                    * upper(m_rp, y) ** (k_total - feasible)
                    * _gamma_pdf(t, m_sp, 1.0))
        return _quad(integrand, 0.0, t_cap, points)

    probs = [p_exactly(i) for i in range(k_total + 1)]
    p_tilde0 = probs[0]
    probs[0] += upper(m_sp, t_cap)
    return FeasibilityDist(p=tuple(probs), p_tilde0=p_tilde0)


def cdf_cognitive(x: float, cfg: NetworkConfig, protocol: Protocol) -> float:
    """End-to-end SINR CDF under the interference constraint.

    Total-probability mixture over the number L of feasible relays.
    Relay-only protocols are in outage whenever L = 0, so F(x|0) = 1.
    Protocols with a direct-transmission branch survive L = 0 when the
    source alone meets the cap, giving
    F(x) = P0 - Q_SD(x) P~0 + sum_{L>=1} F(x|L) P_L, which jumps by
    P0 - P~0 at x = 0 (communication is cut off outright when even the
    source violates the cap).  Every F(x|L) comes from one shared
    evaluation (_conditional_cdfs) up to the largest L with P_L > 0; the
    P_L come from feasibility_dist, shared within a shared_blocks() scope.
    """
    validate_config(cfg, protocol, "analytic")
    feas = feasibility_dist(cfg)
    parts = [feas.p[0]]
    if protocol.has_dt_branch:
        q_sd = sf.reg_upper_gamma(cfg.sd.m, x / (cfg.p_s * cfg.sd.theta))
        parts.append(-q_sd * feas.p_tilde0)
    top = max((n for n in range(1, len(feas.p)) if feas.p[n] > 0.0), default=0)
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
    protocols are charged the doubled source rate 2*rate instead.  A
    rate that is not finite, or whose threshold overflows a float,
    raises ValueError.
    """
    if not math.isfinite(rate):
        raise ValueError(f"rate must be finite, got {rate}")
    if rate < 0:
        raise ValueError("rate must be >= 0")
    eff = 2.0 * rate if (protocol.half_duplex and hd_equal_delivered_rate) else rate
    if eff >= 1024:   # 2^eff overflows a float
        raise ValueError(f"rate {rate:g} bpcu is too large: "
                         f"its SINR threshold 2^{eff:g} - 1 overflows")
    return 2.0 ** eff - 1.0


def outage(cfg: NetworkConfig, protocol: Protocol, rate: float,
           cognitive: bool = False) -> float:
    """Closed-form outage probability P(SINR < threshold), full-duplex
    protocols only, so no half-duplex rate convention applies.

    The strict inequality matters only at threshold 0, where the atom
    the constraint puts at SINR = 0 does not count as outage; the
    protocol and scenario are validated first, at every rate.  Calls
    for many protocols or rates at one cognitive point share its
    feasibility distribution inside a shared_blocks() scope.
    """
    validate_config(cfg, protocol, "analytic")
    if cognitive:
        require_cognitive(cfg)
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
