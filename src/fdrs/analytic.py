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
I_k = integral Q(m, y(b)/theta)^k f_Gamma(b) db, and so is the paper's
feasibility distribution.  For integer m, Q(m, y) = e^(-y) sum_{j<m}
y^j/j!, a positive polynomial in b at the shifted argument x (b + 1)
(idl, idl_dt) and in x - b at the convolved argument x - b (sdf, the
paper's feasibility sums).  Block k sums the polynomial's k-th
power, one convolution from the (k-1)-th, against one inner table:
incomplete-Gamma moments when shifted; when convolved, positive Kummer
series, replaced only beyond |w| = 30 (w the decay rate times x) by an
alternating binomial sum whose condition number, times each term's
error, stays within specfun.REL_TOL.  Blocks do not depend on L, nor
those of the conditional CDFs on the cap, so in a shared_blocks() scope
(one per analysis driver call) a relay-count or cap sweep evaluates each
block, F(x | L) list and feasibility distribution once.

Every binomial sum, inner or outer, is specfun.ln_binomial_sum: terms
scaled by the largest in log space and added with math.fsum, so the
expressions stay usable from deep-tail diversity sweeps (probabilities
~1e-18) up to thresholds of 1e6.  An outer sum stops where its terms
fall below half an ulp (_cut): at most 20 blocks, whatever L is.  F_Z
and s come from one Whittaker sum per threshold where m_sr and m_rr are
integers, and otherwise from one positive Gauss-rule integral each over
the self-interference (ratio_tails).

F(x | L) is that closed form where the a-priori bound
((1 + s) / (1 - s))^L on its condition number kappa keeps (ulp(1) +
sf.GAMMA_REL_TOL) kappa within sf.REL_TOL.  Every other F(x | L), and
every p[n], is the positive integral the binomial expansion came from,
integral g^L f_sd with g = F_Z + s P(m, y/theta) (or C(K, n) P^n
Q^(K-n) under the cap), by Gauss rules in the density's own variable:
panels of Legendre nodes and a Laguerre tail, each doubled until the
rules agree within sf.REL_TOL; where they never do, ArithmeticError.
The node vectors depend on neither L nor K; a shared_blocks() scope
keeps them, so a sweep pays a multiply-add per node and entry.  Under
the cap only rung rows (K = 1, 2, 3, 4, 6, 8, 12, ...) are integrated;
as P + Q = 1, row K follows from the least rung at or above it by
Pascal's rule, with positive additions only (under 1.2e-13 relative
at K = 1000).  A scope keeps each rung row, so a relay-count sweep to K
integrates O(K) cap entries, not O(K^2), while a non-rung K alone
integrates fewer than 1.5 times its own; where a rung's rules stall,
row K is integrated itself, and the scope remembers the stall.
"""
from __future__ import annotations

import contextlib
import contextvars
import math
import operator
import sys
from dataclasses import dataclass

from fdrs import specfun as sf
from fdrs.channel import (ConfigError, NetworkConfig, Protocol, require_cognitive,
                          validate_config)

__all__ = ["RatioParams", "FeasibilityDist", "first_hop_ratio_params", "cdf_ratio_gamma",
           "cdf_ratio_gamma_quad", "cdf_conditional", "cdf_ndl_quad", "cdf_idl_quad",
           "cdf_idl_dt_quad", "cdf_sdf_quad", "feasibility_dist", "feasibility_dist_quad",
           "shared_blocks", "cdf_cognitive", "outage_threshold", "outage", "throughput",
           "throughput_from_outage"]


@dataclass(frozen=True)
class RatioParams:
    """Parameters of Z = X1/(X2 + 1) with Xi ~ Gamma(mi, thetai), mi real."""

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
    """sum_k B c^-d theta2^-k W_{a,b}(c) of the ratio CDF, integer m1 and m2.

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


def ratio_tails(z: float, p: RatioParams) -> tuple[float, float]:
    """(F_Z(z), P(Z > z)) of Z = X1/(X2+1) at z >= 0; real m1 >= 1/2, m2 > 0.

    Integer m1 and m2: F_Z(z) = P(m1, z/theta1) + W, W = sum_{k<m2} B
    c^-d theta2^-k W_{a,b}(c) with a = (m1-k-1)/2, b = -(m1+k)/2, c =
    z/theta1 + 1/theta2, d = (m1+k+1)/2 and B = e^{-(z/theta1 -
    1/theta2)/2} (z/theta1)^m1 / Gamma(m1); P(Z > z) = Q(m1, z/theta1) -
    W, from the upper tail so that it keeps its relative accuracy close
    to 1.  Other shapes: each tail is a positive integral over X2
    (_ratio_nodes), within sf.REL_TOL or ArithmeticError.
    """
    if not z >= 0:
        raise ValueError("z must be >= 0")
    if z == 0:
        return 0.0, 1.0
    if abs(p.m1 - round(p.m1)) > 1e-9 or abs(p.m2 - round(p.m2)) > 1e-9:
        nodes = _ratio_nodes(z, p)
        return min(nodes.value((0, 1)), 1.0), min(nodes.value((1, 1)), 1.0)
    lower, upper = sf._reg_gamma(p.m1, z / p.theta1)
    w = _ratio_whittaker_sum(z, p)
    return min(max(lower + w, 0.0), 1.0), min(max(upper - w, 0.0), 1.0)


def cdf_ratio_gamma(z: float, p: RatioParams) -> float:
    """CDF of Z = X1/(X2+1) at z >= 0: ratio_tails' first value."""
    return ratio_tails(z, p)[0]


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


def _ln(value: float, power: float = 1.0) -> float:
    """ln value^power, with 0^0 = 1."""
    return power * math.log(value) if value > 0.0 else -math.inf if power else 0.0


def _gamma_quad(ln_g, m: float, hi: float) -> float:
    """integral_0^hi g(t) f(t) dt for 0 <= g <= 1 and f the Gamma(m, 1)
    density, by quad in v = sqrt(t) <= 64, which takes out f's singularity
    at m < 1 (past v = 64, f < e^-1600 for m <= 1000).  Divided by its
    peak on the grid v = 2^j, in units of 4 times the peak's place, with
    breakpoints at the peak's doublings, the integrand keeps quad's
    absolute tolerance relative to the value; 0 where it is 0 on the grid."""
    def ln_integrand(v):   # the density of v is 2 v^(2m - 1) e^(-v^2) / Gamma(m)
        return (ln_g(v * v) + (2.0 * m - 1.0) * math.log(v) - v * v + math.log(2.0)
                - math.lgamma(m)) if v > 0.0 else -math.inf

    v_hi = min(math.sqrt(hi), 64.0)
    peak = max([2.0 ** j for j in range(-20, 6) if 2.0 ** j < v_hi] + [v_hi], key=ln_integrand)
    top, end = ln_integrand(peak), 4.0 * peak
    if top == -math.inf:
        return 0.0

    def scaled(u):   # in units of end, against the peak
        return math.exp(ln_integrand(end * u) - top)
    points = [2.0 ** k * peak / end for k in range(-2, 30) if 2.0 ** k * peak < v_hi]
    return math.exp(top) * end * _quad(scaled, 0.0, v_hi / end, points)


def cdf_ratio_gamma_quad(z: float, p: RatioParams) -> float:
    """Quadrature oracle for the ratio CDF at any shapes: F_Z(z) = integral
    over x of P(m1, z(x+1)/theta1) dF_X2(x), in u = x/theta2 so that the
    density keeps its place at any RSI scale."""
    if z < 0:
        raise ValueError("z must be >= 0")
    if z == 0:
        return 0.0
    lower, _ = _scipy_gamma_cdfs()
    return min(_gamma_quad(lambda u: _ln(lower(p.m1, z * (p.theta2 * u + 1.0) / p.theta1)),
                           p.m2, math.inf), 1.0)


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


_SHARED_BLOCKS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "_SHARED_BLOCKS", default=None)


@contextlib.contextmanager
def shared_blocks():
    """Scope that computes each block, F(x | L) list, Gauss rule, cap
    rung row and feasibility_dist once.

    Block k does not depend on _ln_blocks' count, nor F(x | L) on
    _conditional_cdfs' relays, nor a rule's node vectors on the powers
    it is asked for, so one list or rule is kept per tuple of the other
    arguments and a call computes only the entries its count adds,
    bit-identical to unshared calls, until the scope exits.  An entry's
    route and node count depend on that entry alone.
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
    As Q(m, y) = e^(-y) P(y), P(y) = sum_{j<m} y^j/j!, P(y(b)/theta)^k is
    a positive polynomial whose coefficients E_k are E_(k-1) convolved
    with the base p (_ln_poly_times), and I_k is e^(-k x/theta) /
    (Gamma(shape) theta0^shape) times sum_i E_{k,i} T_i.  Shifted: powers
    of b, p_i = (w^i/i!) sum_{l<m-i} w^l/l! with w = x/theta, and T the
    _ln_moments at rate 1/theta0 + k w.  Convolved: powers of x - b,
    p_j = theta^-j/j!, and T the _ln_conv_integrals at rate
    1/theta0 - k/theta.  In a shared_blocks() scope a call extends the
    blocks, and the chain E_k, which idl and idl_dt share, kept there.
    """
    blocks = _kept((m, theta, x, shape, theta0, convolved, upper), list)
    chain = _kept(("chain", m, theta, x, convolved), lambda: [[0.0]])
    ln_norm = -sf.ln_gamma(shape) - shape * math.log(theta0)
    if convolved:
        ln_p = [-j * math.log(theta) - math.lgamma(j + 1.0) for j in range(m)]
        inner = _ln_conv_integrals
    else:
        ln_pow = [j * math.log(x / theta) - math.lgamma(j + 1.0) for j in range(m)]   # w^j/j!
        ln_p = [ln_pow[i] + _ln_fsum(ln_pow[:m - i]) for i in range(m)]
        inner = _ln_moments
    for k in range(len(blocks), count + 1):
        if k == len(chain):
            chain.append(_ln_poly_times(chain[-1], ln_p))
        rate = 1.0 / theta0 + (-k / theta if convolved else x * k / theta)
        table = inner(len(chain[k]), shape, rate, upper)
        lns = [e + t for e, t in zip(chain[k], table)]
        blocks.append(-k * x / theta + ln_norm + _ln_fsum(lns))
    return blocks[:count + 1]


# ---------------------------------------------------------------------------
# the positive route: Gauss rules in the direct link's (or the source
# interference's) own variable

_PANEL_NODES = tuple(8 << j for j in range(5))   # Gauss nodes a panel takes at each level
_UNDERFLOW = sys.float_info.min / sf.REL_TOL   # below it REL_TOL is beyond a float
# an alternating sum keeps REL_TOL while (ulp + its blocks' error) kappa does
_KAPPA_MAX = sf.REL_TOL / (_ULP + sf.GAMMA_REL_TOL)


def _panel_ends(hi: float, fine: float, top: float = 0.0, edge: float = math.inf) -> list[float]:
    """Panel ends in (0, hi) in units of the density's scale, growing
    fourfold from `fine` and from hi - edge towards 0, each within a
    quarter of hi of its end; with hi = inf, from `fine` up to the first
    past `top`, where a Laguerre tail takes over."""
    ends, e = [], fine
    while (e < hi / 4) if hi < math.inf else (top > 0.0 and (not ends or ends[-1] < top)):
        ends.append(e)
        e *= 4.0
    e = edge
    while e < hi / 4:
        ends.append(hi - e)
        e *= 4.0
    return sorted(ends)


def _panel_rule(shape: float, lo: float, up: float, level: int) -> tuple[list, list]:
    """Nodes t and weights, times the Gamma(shape, 1) density, for
    integral_lo^up dt with _PANEL_NODES[level] nodes: Legendre, through
    t = up v^k on a first panel (lo = 0) so that the density's
    t^(shape-1) becomes the smooth v^(k shape-1); Laguerre in t - lo for
    up = inf (lo > 0)."""
    n = _PANEL_NODES[level]
    ln_norm = -math.lgamma(shape)
    if up == math.inf:
        us, uw = sf.gauss_rule(n, 0.0)
        return ([lo + u for u in us],
                [w * math.exp((shape - 1.0) * math.log(lo + u) - lo + ln_norm)
                 for u, w in zip(us, uw)])
    vs, vw = sf.gauss_rule(n)
    if lo or abs(shape - round(shape)) < 1e-9:
        ts = [lo + (up - lo) * v for v in vs]
        scale = (up - lo) * math.exp(ln_norm)
        return ts, [w * scale * t ** (shape - 1.0) * math.exp(-t) for t, w in zip(ts, vw)]
    k = math.ceil(6.0 / shape)
    ts = [up * v ** k for v in vs]
    return ts, [w * k * v ** (k - 1) * up * math.exp((shape - 1.0) * math.log(t) - t + ln_norm)
                for t, v, w in zip(ts, vs, vw)]


def _power(table: list, vec, exp: int) -> list[float]:
    """table[exp], the table of a vector's powers grown by multiplication."""
    while len(table) <= exp:
        table.append(list(map(operator.mul, table[-1], vec)))
    return table[exp]


class _Nodes:
    """integral_0^hi b_i(beta)^e b_j(beta)^d f(beta) dbeta for positive
    node functions b, f the Gamma(shape, theta0) density, over panels in
    t = beta/theta0, each refined by doubling its Gauss nodes until the
    changes of the panels add up to REL_TOL of the total.  The node
    vectors b do not depend on the exponents, and their powers are grown
    by repeated multiplication and summed by fsum, so an entry's value
    depends on its own exponents alone, never on the entries asked for
    before it.
    """

    def __init__(self, bases, shape: float, theta0: float, bounds: list[float],
                 shared: dict | None = None):
        """Panels between consecutive `bounds` (in t, from 0; inf last for a
        Laguerre tail).  Rules with the same node functions may share
        `shared`, where each panel's node vectors and sums are kept."""
        self._panels = list(zip(bounds, bounds[1:]))
        self._bases, self._shape, self._theta0 = bases, shape, theta0
        # (panel, level) -> node vectors, their powers and weighted powers; and sums
        self._cache = {} if shared is None else shared

    def _sum(self, panel: int, level: int, exps: tuple) -> float:
        """The panel's sum of w b_i^e (b_j^d) at `level` for exps (i, e[, j, d])."""
        key = (self._panels[panel], level, exps)
        value = self._cache.get(key)
        if value is None:
            rule = self._cache.get(key[:2])
            if rule is None:
                ts, ws = _panel_rule(self._shape, *self._panels[panel], level)
                vecs = self._bases([self._theta0 * t for t in ts])
                rule = self._cache[key[:2]] = (vecs, [[[1.0] * len(ws)] for _ in vecs],
                                               [[ws] for _ in vecs])
            vecs, plain, weighted = rule
            col = _power(weighted[exps[0]], vecs[exps[0]], exps[1])
            if len(exps) > 2 and exps[3]:
                col = map(operator.mul, _power(plain[exps[2]], vecs[exps[2]], exps[3]), col)
            value = self._cache[key] = math.fsum(col)
        return value

    @staticmethod
    def _first(exps: tuple) -> int:
        """An entry's first level: the first with at least twice as many
        nodes a panel as the power it raises the node functions to."""
        return min(max(0, (2 * sum(exps[1::2]) - 1).bit_length() - 3), len(_PANEL_NODES) - 2)

    def value(self, exps: tuple) -> float:
        """Every panel at the entry's first two levels; while the changes
        of the last doublings add up to more than REL_TOL of the total,
        the panel with the largest is doubled once more.  ArithmeticError
        once that panel has no level left."""
        first = self._first(exps) + 1
        panels = range(len(self._panels))
        levels = [first for _ in panels]
        vals = [self._sum(p, first, exps) for p in panels]
        errs = [abs(v - self._sum(p, first - 1, exps)) for p, v in zip(panels, vals)]
        total, err = math.fsum(vals), math.fsum(errs)
        while err > sf.REL_TOL * total and total >= _UNDERFLOW:
            worst = errs.index(max(errs))
            if levels[worst] == len(_PANEL_NODES) - 1:
                raise ArithmeticError(f"Gauss rules of up to {_PANEL_NODES[-1]} nodes a panel "
                                      f"leave {err:.3g} of {total:.6g}")
            levels[worst] += 1
            value = self._sum(worst, levels[worst], exps)
            errs[worst], vals[worst] = abs(value - vals[worst]), value
            total, err = math.fsum(vals), math.fsum(errs)
        return total


def _positive(rules: tuple, exps: tuple) -> float:
    """The value of the first of `rules` whose levels converge; the last
    one's ArithmeticError if none does."""
    for nodes in rules[:-1]:
        try:
            return nodes.value(exps)
        except ArithmeticError:
            pass
    return rules[-1].value(exps)


def _pq(m: float, ys: list[float]) -> tuple[list[float], list[float]]:
    """P(m, y) and Q(m, y) at each y, from one evaluation each: the node
    functions of a _Nodes."""
    pqs = [sf._reg_gamma(m, y) for y in ys]
    return [p for p, _ in pqs], [q for _, q in pqs]


def _ratio_nodes(z: float, p: RatioParams) -> _Nodes:
    """The nodes of P(m1, y) and Q(m1, y) at y = z (x2 + 1)/theta1 over
    X2 ~ Gamma(m2, theta2).  Panels in t = x2/theta2 grow fourfold from
    the least of 1, 1/theta2 and the scale on which y changes by 1, past
    the density's mass and past where y has grown by 2 m1 + 64, so that
    Q(m1, y) has lost over 25 digits; a Laguerre tail takes the rest."""
    scale = p.theta1 / (z * p.theta2)
    top = max((2.0 * p.m1 + 64.0) * scale, 4.0 * p.m2 + 8.0)
    return _Nodes(lambda x2s: _pq(p.m1, [z * (x2 + 1.0) / p.theta1 for x2 in x2s]),
                  p.m2, p.theta2,
                  [0.0, *_panel_ends(math.inf, min(1.0, scale, 1.0 / p.theta2), top), math.inf])


def _direct_link_nodes(x: float, cfg: NetworkConfig, protocol: Protocol) -> tuple[_Nodes, ...]:
    """The rules, to be tried in turn, for F(x | L) = integral g^L f_sd
    with g = F_Z + s P(m_rd, y/theta_rd), F_Z never 1 - s.
    Panels on [0, x] grow from 0 in the scale on which y changes by 1
    (y = x - b), or by 1 or half itself (y = x (b + 1)); y = x - b gets
    them from x as well, where it vanishes.  idl and idl_dt share their
    panels on [0, x] in a shared_blocks() scope.  idl's last rule runs on
    in panels past the knee where Q < 1e-13, for the powers g^L that
    carry the mass out there; where y changes no faster than the
    density, a Laguerre tail from x is tried first."""
    p1 = first_hop_ratio_params(cfg)
    fz, s = _kept(("first hop", x, p1), lambda: ratio_tails(x, p1))   # one per threshold
    m_rd, th_rd = cfg.rd.m, cfg.p_r * cfg.rd.theta
    m_sd, th_sd = cfg.sd.m, cfg.p_s * cfg.sd.theta
    convolved, upper = _DIRECT_LINK_INNER[protocol]
    hi = upper * x / th_sd

    def bases(betas):   # g at each node
        ys = [max(x - b if convolved else x * (b + 1.0), 0.0) / th_rd for b in betas]
        return [[fz + s * sf._reg_gamma(m_rd, y)[0] for y in ys]]
    if convolved:
        edge = th_rd / th_sd
        return (_Nodes(bases, m_sd, th_sd, [0.0, *_panel_ends(hi, min(1.0, edge), edge=edge), hi]),)
    # idl and idl_dt share the panels on [0, x]; idl's run on past the knee
    scale = th_rd / (x * th_sd)
    knee = (2.0 * m_rd + 32.0) * scale - 1.0 / th_sd   # where Q(m_rd, y) < 1e-13
    shared = _kept(("shifted nodes", x, p1, m_rd, th_rd, m_sd, th_sd), dict)
    near = [0.0, *_panel_ends(x / th_sd, min(1.0, scale)), x / th_sd]
    if hi < math.inf:
        return (_Nodes(bases, m_sd, th_sd, near, shared),)
    far = near + [e for e in _panel_ends(math.inf, 4.0 * near[-1], knee) if e > near[-1]]
    rules = [near + [math.inf]] if scale >= 1.0 else []   # a Laguerre tail first, if it fits
    return tuple(_Nodes(bases, m_sd, th_sd, b, shared) for b in rules + [far + [math.inf]])


# ---------------------------------------------------------------------------
# end-to-end SINR CDFs without the interference constraint

# whether the hop argument is convolved (x - b) or shifted (x (b + 1)),
# and the upper limit of the direct-link SNR b in units of x
_DIRECT_LINK_INNER = {Protocol.IDL: (False, math.inf), Protocol.IDL_DT: (False, 1.0),
                      Protocol.SDF: (True, 1.0)}


def _cut(n: int, s: float) -> int:
    """The number of blocks F(x | n)'s closed form sums: n + 1, or fewer,
    up to the first k with (n s)^k / k! < ulp(1) / (2 _KAPPA_MAX)."""
    return next((k for k in range(n + 1)
                 if (n * s) ** k / math.factorial(k) < _ULP / (2.0 * _KAPPA_MAX)), n + 1)


def _conditional_cdfs(x: float, cfg: NetworkConfig, protocol: Protocol,
                      relays: int) -> list[float]:
    """F(x | L) for L = 0..relays from one evaluation shared by every L.

    NDL keeps its product form per_path^L.  The direct-link protocols
    integrate g^L = (1 - s Q)^L over the direct-link SNR, s = P(Z > x).
    Entry L is the alternating sum F(x | L) = sum_{k<=L} C(L, k) (-s)^k I_k
    (sf.ln_binomial_sum over the blocks of _ln_blocks) while the bound
    ((1 + s) / (1 - s))^L on its condition number kappa keeps (ulp +
    sf.GAMMA_REL_TOL) kappa within sf.REL_TOL; past that L, the positive
    integral of g^L by the rules of _direct_link_nodes, or
    ArithmeticError.  In a shared_blocks() scope a call extends the list
    (with per_path or s, and the rules) an earlier call built.

    The sum stops before the first k with (L s)^k / k! < ulp(1) / (2
    _KAPPA_MAX) (_cut), at k <= 20 as the bound keeps L s <= 1.15.  The
    rest is exact to rounding: its terms C(L, k) s^k I_k <= (L s)^k / k!
    I_0 alternate and shrink (I_k <= I_0, (L - k) s < k + 1), so add up
    to less than the first, while F(x | L) >= (1 - s)^L I_0 >= I_0 / _KAPPA_MAX.
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

    def first_hop():   # the list; NDL's per_path or s; the rules
        fz, s = _kept(("first hop", x, p1), lambda: ratio_tails(x, p1))
        return [[], fz + (1.0 - fz) * sf.reg_lower_gamma(cfg.rd.m, x / th_rd) if ndl else s, None]
    state = _kept(("cdfs", protocol, x, p1, cfg.rd.m, th_rd) + link, first_hop)
    cdfs, s = state[:2]
    if ndl:
        cdfs.extend(s ** n for n in range(len(cdfs), relays + 1))
        return cdfs[:relays + 1]
    convolved, upper = _DIRECT_LINK_INNER[protocol]

    # closed where kappa <= ((1 + s) / F_Z)^L allows it, as g >= F_Z = 1 - s;
    # c > 0 blocks for a closed entry, c = 0 for a positive one
    ln_growth = math.log1p(s) - math.log1p(-s) if s < 1.0 else math.inf
    new = [(n, _cut(n, s) if n == 0 or n * ln_growth <= math.log(_KAPPA_MAX) else 0)
           for n in range(len(cdfs), relays + 1)]
    top = max((c for _, c in new), default=0) - 1
    if top >= 0:
        ln_i = _ln_blocks(top, int(round(cfg.rd.m)), th_rd, x, *link, convolved, upper * x)
        ln_s = math.log(s) if s > 0.0 else 0.0   # s = 0: block 0 only
    if state[2] is None and not all(c for _, c in new):   # the positive route's rules
        state[2] = _direct_link_nodes(x, cfg, protocol)
    cdfs.extend(_probability(sf.ln_binomial_sum(ln_i[:c], n, ln_s)[0]) if c
                else min(_positive(state[2], (0, n)), 1.0) for n, c in new)
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
    A direct-link value is the closed form where the bound on its condition
    number allows, else the positive Gauss-rule integral (_conditional_cdfs);
    either is within specfun.REL_TOL, or the call raises ArithmeticError.
    """
    validate_config(cfg, protocol, "analytic")
    return _conditional_cdfs(x, cfg, protocol, relays)[relays]


# ---------------------------------------------------------------------------
# quadrature oracles for the end-to-end CDFs

def _direct_link_quad(x, cfg, relays, hop2_arg, hi):
    """integral_0^hi (F_Z(x) + P(Z > x) P(m_rd, hop2_arg(beta)/theta_rd))^relays,
    a power of a positive sum, over the direct-link SNR density, taken in
    t = beta/(P_S theta_sd) by _gamma_quad; 0 at x = 0."""
    if x == 0:
        return 0.0
    fz = cdf_ratio_gamma_quad(x, first_hop_ratio_params(cfg))
    lower, _ = _scipy_gamma_cdfs()
    m_rd, th_rd = cfg.rd.m, cfg.p_r * cfg.rd.theta
    th_sd = cfg.p_s * cfg.sd.theta
    return min(_gamma_quad(lambda t: _ln(fz + (1.0 - fz) * lower(
        m_rd, hop2_arg(th_sd * t) / th_rd), relays), cfg.sd.m, hi / th_sd), 1.0)


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
    feasibility distribution reads, from a scenario with the cap."""
    require_cognitive(cfg)
    return cfg.k, cfg.sp.m, cfg.p_s * cfg.sp.theta, cfg.rp.m, cfg.p_r * cfg.rp.theta, cfg.i_th


def feasibility_dist(cfg: NetworkConfig) -> FeasibilityDist:
    """Exact distribution of the number of relays satisfying the cap.

    The source interference is common to all relays, so feasibility
    events are only conditionally independent given it.  Each p[n]
    (n >= 1), and p_tilde0, is the conditional binomial C(K, n) P^n
    Q^(K-n) integrated over the source-interference density by Gauss
    rules, never the paper's alternating sum of convolution integrals,
    whose condition number grows with K; each is within specfun.REL_TOL
    or the call raises ArithmeticError.  The integrals of a relay count
    K are derived from those of a rung by Pascal's rule (_feasibility),
    which adds less than 1.2e-13 relative at K = 1000.  Requires
    symmetric relays and integer m_rp: at other shapes the rules stall
    at the cap, where P(m_rp, y) ~ y^m_rp.  A shared_blocks() scope
    computes it once per tuple of _feasibility_args, and its rules and
    rung rows once per cap; outside a scope every call computes them.
    """
    args = _feasibility_args(cfg)
    if not cfg.rp.integer_m:
        raise ConfigError([f"analytic feasibility requires integer m_rp (got {cfg.rp.m})"])
    return _kept(("feasibility",) + args, lambda: _feasibility(*args))


def _feasibility(k_total: int, m_sp: float, th_sp: float, m_rp: float, th_rp: float,
                 cap: float) -> FeasibilityDist:
    """With b the source's interference and P and Q = 1 - P a relay's
    chances to meet and to violate the cap, P(exactly n feasible) is
    C(K, n) R_K[n], R_K[n] = integral_0^cap P^n Q^(K-n) f_I_SP(b) db.

    As P + Q = 1, R_K[n] = R_(K+1)[n] + R_(K+1)[n+1] (Pascal's rule), so
    row K is the row of its rung (_rung) summed pairwise rung - K times,
    by positive additions only; only rung rows are integrated, and a
    scope keeps them, so a relay-count sweep to K integrates O(K) entries,
    not O(K^2), and every K's row is the same in a sweep or alone.  A
    derived entry is a positive sum of rung entries, each within
    specfun.REL_TOL, times (P + Q)^(rung - K), where P + Q is 1 within
    half an ulp at each node, plus rung - K < K/2 additions of half an
    ulp each: at most 2 * 5.6e-14 relative at K = 1000.  A rung never
    needs a finer first Gauss level than K (_Nodes._first reads only
    ceil(log2 K)), and a point alone at a non-rung K integrates fewer
    than 1.5 times its own entries.  Where the rung row raises
    ArithmeticError (rules that stall at the cap edge), row K is
    integrated itself; a scope keeps that failure, so a sweep tries
    each rung once.
    """
    row = _cap_integrals(k_total, (m_sp, th_sp, m_rp, th_rp, cap))
    p_tilde0 = row[0]
    probs = [min(sf.reg_upper_gamma(m_sp, cap / th_sp) + p_tilde0, 1.0)]
    for n in range(1, k_total + 1):
        probs.append(_probability(math.log(row[n]) if row[n] > 0.0 else None,
                                  sf.ln_comb(k_total, n)))
    return FeasibilityDist(p=tuple(probs), p_tilde0=min(p_tilde0, probs[0]))


def _cap_integrals(k: int, key: tuple) -> list[float]:
    """R_k, from the row of k's rung, or integrated itself where that row
    stalls; key = (m_sp, th_sp, m_rp, th_rp, cap), as _cap_nodes takes it."""
    nodes = _kept(("cap nodes",) + key, lambda: _cap_nodes(*key))
    rung = _rung(k)
    row = _kept(("cap row", rung) + key, lambda: _rung_row(nodes, rung))
    if row is None:
        return _cap_row(nodes, k)
    for _ in range(rung - k):
        row = list(map(operator.add, row[:-1], row[1:]))
    return row


def _rung(k: int) -> int:
    """The least rung 2^j or 3 2^j (1, 2, 3, 4, 6, 8, 12, ...) at or above k >= 1."""
    top = 1 << (k - 1).bit_length()
    return 3 * top // 4 if top >= 4 and 3 * top // 4 >= k else top


def _cap_row(nodes: _Nodes, k: int) -> list[float]:
    """R_k[n] = integral_0^cap P^n Q^(k-n) f_I_SP for n = 0..k, each by its own rules."""
    return [nodes.value((1, k - n, 0, n) if n else (1, k)) for n in range(k + 1)]


def _rung_row(nodes: _Nodes, rung: int) -> list[float] | None:
    """_cap_row(nodes, rung), or None where its rules do not converge."""
    try:
        return _cap_row(nodes, rung)
    except ArithmeticError:
        return None


def _cap_nodes(m_sp: float, th_sp: float, m_rp: float, th_rp: float, cap: float) -> _Nodes:
    """The nodes of P(m_rp, y) and Q(m_rp, y) at y = (cap - b)/th_rp over
    the source interference b; panels are graded from 0 and from the cap
    in the relays' scale."""
    scale = th_rp / th_sp
    hi = cap / th_sp
    return _Nodes(lambda betas: _pq(m_rp, [max(cap - b, 0.0) / th_rp for b in betas]),
                  m_sp, th_sp, [0.0, *_panel_ends(hi, min(1.0, scale), edge=scale), hi])


def feasibility_dist_quad(cfg: NetworkConfig) -> FeasibilityDist:
    """Quadrature oracle for feasibility_dist; no integrality limits.
    Integrates over t = beta/(P_S theta_sp), beta the source's interference,
    by _gamma_quad; a relay's chance to violate the cap is Q, never 1 - P."""
    k_total, m_sp, th_sp, m_rp, th_rp, cap = _feasibility_args(cfg)
    lower, upper = _scipy_gamma_cdfs()
    t_cap = cap / th_sp

    def p_exactly(feasible):
        def ln_g(t):
            y = (cap - th_sp * t) / th_rp
            return (sf.ln_comb(k_total, feasible) + _ln(lower(m_rp, y), feasible)
                    + _ln(upper(m_rp, y), k_total - feasible))
        return _gamma_quad(ln_g, m_sp, t_cap)

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
    return _cdf_cognitive(x, cfg, protocol)


def _cdf_cognitive(x: float, cfg: NetworkConfig, protocol: Protocol) -> float:
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
        return _cdf_cognitive(gamma_th, cfg, protocol)
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
