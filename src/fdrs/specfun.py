"""Scalar special functions used by the closed-form outage expressions.

Everything here is evaluated with numerical robustness on the parameter
patterns produced by the outage CDFs in mind: Gamma shapes between 0.5
and roughly 10, scale parameters spanning -10..20 dB, and argument
values taken from the outage-threshold grid.  Only the standard
library is used, so importing the closed forms loads no scipy.

Regularized incomplete Gammas P(a, x) and Q(a, x) = 1 - P(a, x) share
the factor D(a, x) = x^a e^-x / Gamma(a + 1).  For x <= max(a, 1) the
power series P = D sum_n x^n / ((a+1)...(a+n)) (DLMF 8.7.1) is summed;
above it the continued fraction for Q (DLMF 8.9.2, even part) runs in
the modified Lentz form.  For integer a <= 30 and x < 600, the finite
sum Q = e^-x sum_{j<a} x^j/j! of positive terms comes first wherever
it gives Q <= 0.9: its relative error is at most (3a - 2) 2^-53 (2j
roundings in term j, a - 1 in the sum), so that of P = 1 - Q is within
9 (3a - 2) 2^-53 < 8.8e-14 for a <= 30, inside GAMMA_REL_TOL.  The
complement is 1 minus the computed value, which stays below 0.85 in
the series and fraction regions, so at most one digit cancels there.
For a >= 20, D is taken as e^(-a phi(x/a)) / (sqrt(2 pi a) e^mu(a)),
with phi(l) = l - 1 - ln l and mu the Stirling series (Temme's factor;
Gil, Segura & Temme, SIAM J. Sci. Comput. 34(6), 2012), so the large
logarithms a ln x and ln Gamma(a + 1) never cancel.  Near x = a both
expansions need O(sqrt(a)) terms, so Temme's uniform expansion is not
needed up to a = 400.  Over a in [0.5, 400] and x in [0, 2e4] the
relative error of P and Q is below GAMMA_REL_TOL = 1e-13 where the
value exceeds 1e-30, and below GAMMA_DEEP_REL_TOL = 1e-12 down to
1e-300, where the conditioning of exp, |ln value| times the unit
roundoff, takes over;
smaller values underflow as floats do.  A series or fraction that has
not converged within MAX_TERMS raises NonConvergenceError, which
happens only far outside that domain (a beyond about 10^6 near x = a).
ln_reg_lower_gammas lists ln P(a + r, x) for a run of orders from one
such evaluation and the recurrence DLMF 8.8.5.

ln_kummer_m (a positive series) and ln_beta, like Tricomi U and
Whittaker W (taken only where they are polynomials, NonConvergenceError
elsewhere), serve no closed form or oracle: they stay because
perfbench/tracer.py wraps all four by name, and the paper's convolved
integrals in tests/paper_closed_form.py call the first two.
ln_binomial_sum is the one binomial-sum kernel: every closed form that
expands a power binomially sums through it and gets the sum's condition
number with it; it keeps no state, and a sequence shorter than the sum
cuts it.  gauss_rule gives the Legendre and generalized Laguerre rules
that the positive integrals behind those sums take.
"""
from __future__ import annotations

import math

__all__ = [
    "NonConvergenceError",
    "ln_gamma",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "ln_reg_lower_gammas",
    "ln_comb",
    "ln_binomial_sum",
    "gauss_rule",
    "ln_beta",
    "ln_kummer_m",
    "tricomi_u",
    "whittaker_w",
]


# series evaluation controls: relative tolerance and term budget
REL_TOL = 1e-12
MAX_TERMS = 10000
# stated accuracy of P and Q: above 1e-30, and from there down to 1e-300
GAMMA_REL_TOL = 1e-13
GAMMA_DEEP_REL_TOL = 1e-12

_EPS = 2.0 ** -53
# integer orders up to this take Q as a finite sum, while e^-x stays far
# from underflow
_FINITE_SUM_MAX_A = 30.0
_FINITE_SUM_MAX_X = 600.0
_LENTZ_TINY = 1e-300
_STIRLING_MIN_A = 20.0
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class NonConvergenceError(ArithmeticError):
    """A series did not reach the requested tolerance within MAX_TERMS."""


def _is_int(x: float) -> bool:
    return abs(x - round(x)) < 1e-9


def ln_gamma(a: float) -> float:
    """Natural log of the Gamma function, a > 0."""
    if not a > 0:
        raise ValueError(f"ln_gamma requires a > 0, got {a}")
    return math.lgamma(a)


def _ln_power_exp(a: float, x: float) -> float:
    """ln D(a, x) = ln(x^a e^-x / Gamma(a + 1)) for a > 0, x > 0."""
    if a < _STIRLING_MIN_A:
        return a * math.log(x) - x - math.lgamma(a + 1.0)
    lam = x / a
    if 0.5 < lam < 2.0:
        t = (x - a) / a      # x - a is exact here
        phi = t - math.log1p(t)
    else:
        phi = lam - 1.0 - math.log(lam)
    # Stirling series of ln Gamma(a + 1) - (a + 1/2) ln a + a - ln sqrt(2 pi),
    # truncated below 1e-17 for a >= 20 (DLMF 5.11.1)
    r2 = 1.0 / (a * a)
    mu = (1 / 12 - r2 * (1 / 360 - r2 * (1 / 1260 - r2 * (1 / 1680 - r2 / 1188)))) / a
    return -a * phi - 0.5 * math.log(a) - _LN_SQRT_2PI - mu


def _lower_series(a: float, x: float) -> float:
    """S(a, x) = sum_n x^n / ((a+1)...(a+n)), so that P(a, x) = D(a, x) S(a, x)."""
    term = total = 1.0
    for n in range(1, MAX_TERMS):
        term *= x / (a + n)
        total += term
        if term <= _EPS * total:
            return total
    raise NonConvergenceError(f"P({a}, {x}) series did not converge in {MAX_TERMS} terms")


def _upper_fraction(a: float, x: float) -> float:
    """F(a, x) with Q(a, x) = a D(a, x) F(a, x): the continued fraction
    1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))), by modified Lentz."""
    b = x + 1.0 - a
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    h = d
    for i in range(1, MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = b + an / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            return h
    raise NonConvergenceError(f"Q({a}, {x}) fraction did not converge in {MAX_TERMS} terms")


def _reg_gamma(a: float, x: float) -> tuple[float, float]:
    """(P(a, x), Q(a, x)) for a > 0, x >= 0."""
    if x == 0.0:
        return 0.0, 1.0
    if math.isinf(x):
        return 1.0, 0.0
    if a <= _FINITE_SUM_MAX_A and x < _FINITE_SUM_MAX_X and float(a).is_integer():
        q = term = math.exp(-x)   # Q(n, x) = e^-x sum_{j<n} x^j / j!, positive terms
        for j in range(1, int(a)):
            term *= x / j
            q += term
        if q <= 0.9:   # then 1 - q loses at most one digit
            return 1.0 - q, q
    if x <= a or x <= 1.0:
        p = math.exp(_ln_power_exp(a, x)) * _lower_series(a, x)
        return p, 1.0 - p
    q = math.exp(_ln_power_exp(a, x)) * a * _upper_fraction(a, x)
    return 1.0 - q, q


def _check_gamma_args(name: str, a: float, x: float):
    if not a > 0:
        raise ValueError(f"{name} requires a > 0, got {a}")
    if not x >= 0:
        raise ValueError(f"{name} requires x >= 0, got {x}")


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete Gamma function P(a, x) in [0, 1]."""
    _check_gamma_args("reg_lower_gamma", a, x)
    return _reg_gamma(a, x)[0]


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete Gamma function Q(a, x) = 1 - P(a, x)."""
    _check_gamma_args("reg_upper_gamma", a, x)
    return _reg_gamma(a, x)[1]


def ln_reg_lower_gammas(a: float, count: int, x: float) -> list[float]:
    """ln P(a + r, x) for r = 0..count-1, from one kernel evaluation.

    DLMF 8.8.5, P(b, x) = P(b + 1, x) + D(b, x), adds a positive term at
    each step down from the largest order, so rounding errors do not
    grow.  Orders above x run it on S(b) = P(b, x) / D(b, x) as
    S(b) = 1 + x S(b + 1) / (b + 1), which stays between 1 and about
    1.3 sqrt(b + 1) and so never underflows, whatever P does; the others
    run it on P, which exceeds 1/2 there (the median of Gamma(b) lies
    below b).  Each entry is as accurate as reg_lower_gamma; an order
    whose P underflows still gets its finite logarithm.
    """
    _check_gamma_args("ln_reg_lower_gammas", a, x)
    if x == 0.0 or count == 0:
        return [-math.inf] * count
    if math.isinf(x):
        return [0.0] * count
    out = [0.0] * count
    r = count - 1
    if x < a + r:
        s = _lower_series(a + r, x)
        while r >= 0 and a + r > x:
            out[r] = _ln_power_exp(a + r, x) + math.log(s)
            s = 1.0 + x * s / (a + r)
            r -= 1
        p = math.exp(out[r + 1])
    else:
        p = _reg_gamma(a + count, x)[0]
    for r in range(r, -1, -1):
        p += math.exp(_ln_power_exp(a + r, x))
        out[r] = math.log(p)
    return out


def ln_comb(n: int, k: int) -> float:
    """ln C(n, k) for 0 <= k <= n."""
    return math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)


def ln_binomial_sum(ln_seq, top: int, ln_ratio: float = 0.0) -> tuple[float | None, float]:
    """(ln S, kappa) for S = sum_{j<=top} (-1)^j C(top, j) e^(j ln_ratio + ln_seq[j]),
    the terms past the end of ln_seq counting as 0.

    Terms are scaled by the largest and added with math.fsum.  kappa =
    sum|t| / S is the condition number: a relative error e in every term
    moves S by at most e kappa, and the scaling adds about ulp(1) kappa.
    S <= 0 gives (None, inf).
    """
    ln_top = math.lgamma(top + 1.0)
    lns = [ln_top - math.lgamma(j + 1.0) - math.lgamma(top - j + 1.0) + j * ln_ratio + v
           for j, v in zip(range(top + 1), ln_seq)]
    peak = max(lns, default=-math.inf)
    if peak == -math.inf:
        return None, math.inf
    mags = [math.exp(v - peak) for v in lns]
    total = math.fsum(-t if j % 2 else t for j, t in enumerate(mags))
    if not total > 0.0:
        return None, math.inf
    return peak + math.log(total), math.fsum(mags) / total


_GAUSS = {}   # (n, alpha) -> the Gauss rule gauss_rule gave for it


def gauss_rule(n: int, alpha: float | None = None) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(nodes, weights) of the n-point Gauss rule, kept per (n, alpha).

    alpha None: Gauss-Legendre on [0, 1]; otherwise generalized
    Gauss-Laguerre for the weight t^alpha e^-t on (0, inf), alpha > -1.
    The nodes are the roots of the orthogonal polynomial (the
    eigenvalues of Golub & Welsch's 1969 Jacobi matrix), from Halley's
    iteration on its three-term recurrence started at the asymptotic
    guesses of Numerical Recipes' gauleg and gaulag.  Each weight is the
    Christoffel number 1 / sum_{j<n} p_j(node)^2 over the orthonormal
    polynomials, a sum of positive terms, accurate where the derivative
    formula loses digits for n beyond about 30.
    """
    key = (n, alpha)
    if key not in _GAUSS:
        lag = alpha is not None
        a = alpha if lag else 0.0
        # p_(j+1) = (b_j - c_j z) p_j - d_j p_(j-1), and the norms h_j of p_j
        steps = [((2 * j + 1 + a) / (j + 1), 1.0 / (j + 1), (j + a) / (j + 1)) if lag
                 else (0.0, -(2 * j + 1) / (j + 1), j / (j + 1)) for j in range(n)]
        norms = [math.exp(math.lgamma(j + a + 1) - math.lgamma(j + 1)) if lag else 2 / (2 * j + 1)
                 for j in range(n)]

        def run(z):   # p_n(z) and p_(n-1)(z)
            p, q = 1.0, 0.0
            for b, c, d in steps:
                p, q = (b - c * z) * p - d * q, p
            return p, q

        nodes = []
        for i in range(n if lag else (n + 1) // 2):
            if not lag:
                z = math.cos(math.pi * (i + 0.75) / (n + 0.5))
            elif i == 0:
                z = (1.0 + a) * (3.0 + 0.92 * a) / (1.0 + 2.4 * n + 1.8 * a)
            elif i == 1:
                z += (15.0 + 6.25 * a) / (1.0 + 0.9 * a + 2.5 * n)
            else:
                z += ((1.0 + 2.55 * (i - 1)) / (1.9 * (i - 1)) + 1.26 * (i - 1) * a
                      / (1.0 + 3.5 * (i - 1))) * (z - nodes[i - 2]) / (1.0 + 0.3 * a)
            scale = z if lag else 1.0
            for _ in range(100):   # cubic convergence: past a step of 1e-8, z is exact
                p, q = run(z)
                if lag:   # Halley's step; the second derivative from Laguerre's equation
                    d1 = (n * p - (n + a) * q) / z
                    d2 = ((z - a - 1.0) * d1 - n * p) / z
                else:     # and from Legendre's
                    d1 = n * (z * p - q) / ((z - 1.0) * (z + 1.0))
                    d2 = (2.0 * z * d1 - n * (n + 1) * p) / ((1.0 - z) * (1.0 + z))
                dz = 2.0 * p * d1 / (2.0 * d1 * d1 - p * d2)
                z -= dz
                if abs(dz) <= 1e-8 * scale:
                    break
            nodes.append(z)
        weights = []
        for z in nodes:
            p, q, total = 1.0, 0.0, 0.0
            for (b, c, d), h in zip(steps, norms):
                total += p * p / h
                p, q = (b - c * z) * p - d * q, p
            weights.append(1.0 / total)
        if not lag:   # roots from 1 down to 0 of [-1, 1], mapped onto [0, 1]
            half, m = [0.5 * w for w in weights], n // 2
            nodes = ([0.5 - 0.5 * z for z in nodes[:m]] + [0.5] * (n % 2)
                     + [0.5 + 0.5 * z for z in reversed(nodes[:m])])
            weights = half[:m] + half[m:] + half[m - 1::-1] if m else half
        _GAUSS[key] = (tuple(nodes), tuple(weights))
    return _GAUSS[key]


def ln_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b).  No closed
    form calls it; perfbench/tracer.py wraps it by name."""
    return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)


def ln_kummer_m(a: float, b: float, z: float) -> float:
    """ln M(a; b; z) for a > 0, b > 0, z >= 0.

    All series terms are positive, so the sum can be tracked with a
    running log offset and never overflows.  No closed form calls it;
    perfbench/tracer.py wraps it by name.
    """
    if not (a > 0 and b > 0):
        raise ValueError("ln_kummer_m requires a > 0 and b > 0")
    if z < 0:
        raise ValueError("ln_kummer_m requires z >= 0")
    offset = 0.0
    total = 1.0
    term = 1.0
    # positive series needs roughly z + O(sqrt(z)) terms before decay
    budget = max(MAX_TERMS, int(4 * z) + 100)
    for n in range(budget):
        term *= (a + n) / (b + n) * z / (n + 1)
        total += term
        if total > 1e280:
            offset += math.log(total)
            term /= total
            total = 1.0
        if n + 1 > z and term <= REL_TOL * total:
            return offset + math.log(total)
    raise NonConvergenceError(
        f"ln_kummer_m({a}, {b}, {z}) did not converge in {budget} terms")


def _u_poly(n: int, b: float, z: float) -> float:
    """U(-n, b, z) for non-negative integer n: a degree-n polynomial.

    Uses the descending-power expansion
        U(-n, b, z) = sum_{r=0..n} C(n, r) (1 - b - n)_r z^(n-r),
    whose terms are all positive whenever 1 - b - n > 0.
    """
    total = 0.0
    term = z ** n  # r = 0
    c = 1.0 - b - n
    for r in range(n + 1):
        total += term
        if r == n:
            break
        term *= (n - r) / (r + 1.0) * (c + r) / z
    return total


def tricomi_u(a: float, b: float, z: float) -> float:
    """Tricomi confluent hypergeometric function U(a, b, z) for z > 0,
    where it is a polynomial; any other (a, b) raises NonConvergenceError.
    Only whittaker_w calls it; perfbench/tracer.py wraps both by name.

    1. a a non-positive integer -n: the generalized-Laguerre polynomial
       of degree n, exact.
    2. a - b + 1 a non-positive integer: the reflection
       U(a,b,z) = z^(1-b) U(a-b+1, 2-b, z) reduces to path 1, exact.
    """
    if not z > 0:
        raise ValueError(f"tricomi_u requires z > 0, got z={z}")
    if _is_int(a) and a < 0.5:
        return _u_poly(int(round(-a)), b, z)
    if _is_int(a - b + 1.0) and a - b + 1.0 < 0.5:
        return z ** (1.0 - b) * _u_poly(int(round(b - a - 1.0)), 2.0 - b, z)
    raise NonConvergenceError(f"U({a}, {b}, {z}) is not a polynomial")


def whittaker_w(a: float, b: float, z: float) -> float:
    """Whittaker function W_{a,b}(z) for z > 0 through Tricomi U,
        W_{a,b}(z) = e^(-z/2) z^(b + 1/2) U(b - a + 1/2, 1 + 2b, z),
    where U is a polynomial: b - a + 1/2 a non-positive integer, or
    a + b - 1/2 a non-negative one; elsewhere NonConvergenceError.  No
    closed form or oracle calls it; perfbench/tracer.py wraps it by name.
    """
    if not z > 0:
        raise ValueError(f"whittaker_w requires z > 0, got z={z}")
    u = tricomi_u(b - a + 0.5, 1.0 + 2.0 * b, z)
    scale = -0.5 * z + (b + 0.5) * math.log(z)
    # e^scale underflows to 0 for very large z; U stays finite there, so
    # the product degrades gracefully instead of producing NaN.
    return math.exp(scale) * u if scale > -745 else 0.0
