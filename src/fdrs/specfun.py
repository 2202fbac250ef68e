"""Scalar special functions used by the closed-form outage expressions.

Everything here is evaluated with numerical robustness on the parameter
patterns produced by the outage CDFs in mind: Gamma shapes between 0.5
and roughly 10, scale parameters spanning -10..20 dB, and argument
values taken from the outage-threshold grid.  The confluent
hypergeometric family (Kummer M, Tricomi U, Whittaker W) is evaluated
through series and finite polynomial forms rather than a general-purpose
implementation; the supported region is documented per function.
The coefficient table of a truncated-exponential power, into which the
closed forms expand integer-shape Gamma tails, is computed exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy import special as sc

__all__ = [
    "Accuracy",
    "DEFAULT_ACCURACY",
    "NonConvergenceError",
    "ln_gamma",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "ln_beta",
    "ln_kummer_m",
    "tricomi_u",
    "whittaker_w",
    "ln_truncated_exp_power",
]


@dataclass(frozen=True)
class Accuracy:
    """Series evaluation controls: relative tolerance and term budget."""

    rel_tol: float = 1e-12
    max_terms: int = 10000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


DEFAULT_ACCURACY = Accuracy()


class NonConvergenceError(ArithmeticError):
    """A series did not reach the requested tolerance within max_terms."""


def _is_nonpos_int(x: float, tol: float = 1e-9) -> bool:
    return x <= tol and abs(x - round(x)) < tol


def ln_gamma(a: float) -> float:
    """Natural log of the Gamma function, a > 0."""
    if not a > 0:
        raise ValueError(f"ln_gamma requires a > 0, got {a}")
    return float(sc.gammaln(a))


def reg_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete Gamma function P(a, x) in [0, 1]."""
    if not a > 0:
        raise ValueError(f"reg_lower_gamma requires a > 0, got {a}")
    if x < 0:
        raise ValueError(f"reg_lower_gamma requires x >= 0, got {x}")
    return float(sc.gammainc(a, x))


def reg_upper_gamma(a: float, x: float) -> float:
    """Regularized upper incomplete Gamma function Q(a, x) = 1 - P(a, x)."""
    if not a > 0:
        raise ValueError(f"reg_upper_gamma requires a > 0, got {a}")
    if x < 0:
        raise ValueError(f"reg_upper_gamma requires x >= 0, got {x}")
    return float(sc.gammaincc(a, x))


def ln_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b)."""
    return ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)


def ln_kummer_m(a: float, b: float, z: float,
                accuracy: Accuracy = DEFAULT_ACCURACY) -> float:
    """ln M(a; b; z) for a > 0, b > 0, z >= 0.

    All series terms are positive, so the sum can be tracked with a
    running log offset and never overflows.  Used by the outage CDFs
    where M is paired with decaying exponential prefactors.
    """
    if not (a > 0 and b > 0):
        raise ValueError("ln_kummer_m requires a > 0 and b > 0")
    if z < 0:
        raise ValueError("ln_kummer_m requires z >= 0")
    offset = 0.0
    total = 1.0
    term = 1.0
    # positive series needs roughly z + O(sqrt(z)) terms before decay
    budget = max(accuracy.max_terms, int(4 * z) + 100)
    for n in range(budget):
        term *= (a + n) / (b + n) * z / (n + 1)
        total += term
        if total > 1e280:
            offset += math.log(total)
            term /= total
            total = 1.0
        if n + 1 > z and term <= accuracy.rel_tol * total:
            return offset + math.log(total)
    raise NonConvergenceError(
        f"ln_kummer_m({a}, {b}, {z}) did not converge in {budget} terms")


def _u_poly(n: int, b: float, z: float) -> float:
    """U(-n, b, z) for non-negative integer n: a degree-n polynomial.

    Uses the descending-power expansion
        U(-n, b, z) = sum_{r=0..n} C(n, r) (1 - b - n)_r z^(n-r),
    whose terms are all positive whenever 1 - b - n > 0, which covers
    every parameter pattern generated by whittaker_w below.
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


def _u_gamma_sum(n: int, b: float, z: float) -> float:
    """U(n, b, z) for positive integer n with b > n, via incomplete Gammas.

    Binomial expansion of the defining integral gives the exact finite
    form
        U(n,b,z) = e^z / (n-1)! * sum_{j=0..n-1} C(n-1, j) (-1)^(n-1-j)
                   z^(j+n-b) Gamma(b-n+j, z),
    with every Gamma order b-n+j positive.  Stable for all z: terms
    decay once z exceeds b, and the j = n-1 term dominates outright for
    small z.  Requires z <= ~700 so e^z stays finite.
    """
    total = 0.0
    sign = -1.0 if (n - 1) % 2 else 1.0
    for j in range(n):
        s = b - n + j
        term = math.exp(
            math.lgamma(n) - math.lgamma(j + 1) - math.lgamma(n - j)
            - s * math.log(z) + math.log(sc.gammaincc(s, z)) + sc.gammaln(s)
        ) if sc.gammaincc(s, z) > 0 else 0.0
        total += sign * term
        sign = -sign
    return math.exp(z) * total / math.gamma(n)


def _u_asymptotic(a: float, b: float, z: float, accuracy: Accuracy) -> float:
    """Poincare expansion U(a,b,z) ~ z^-a 2F0(a, a-b+1; ; -1/z).

    Divergent series summed to its smallest term; the remainder is of
    the order of the first omitted term.  Accurate for z well beyond
    |a (a-b+1)|, which this module only relies on for z >= 50.
    """
    total = 1.0
    term = 1.0
    smallest = math.inf
    for s in range(accuracy.max_terms):
        nxt = term * (a + s) * (a - b + 1.0 + s) / ((s + 1) * (-z))
        if abs(nxt) >= smallest:
            break
        term = nxt
        smallest = abs(term)
        total += term
        if smallest <= accuracy.rel_tol * abs(total):
            break
    if smallest > 1e-9 * abs(total):
        raise NonConvergenceError(
            f"asymptotic U({a}, {b}, {z}) truncation error too large")
    return z ** (-a) * total


def _is_pos_int(x: float, tol: float = 1e-9) -> bool:
    return x >= 1 - tol and abs(x - round(x)) < tol


def tricomi_u(a: float, b: float, z: float,
              accuracy: Accuracy = DEFAULT_ACCURACY) -> float:
    """Tricomi confluent hypergeometric function U(a, b, z) for z > 0.

    Evaluation paths, in order:

    1. a a non-positive integer -n: exact generalized-Laguerre
       polynomial (degree n).
    2. a - b + 1 a non-positive integer: the reflection
       U(a,b,z) = z^(1-b) U(a-b+1, 2-b, z) reduces to path 1, exact.
    3. a a positive integer with b > a: exact finite sum of upper
       incomplete Gamma functions.
    4. a - b + 1 a positive integer with a < 1: the reflection of
       path 3, again exact.  This covers the ratio-distribution
       parameter family for non-integer Gamma shapes at every z.
    5. z >= 50: optimally truncated asymptotic series.

    Validated region: the parameter combinations produced by
    whittaker_w for the outage CDFs land on paths 1-5.  Anything else
    raises NonConvergenceError.
    """
    if not z > 0:
        raise ValueError(f"tricomi_u requires z > 0, got z={z}")
    if _is_nonpos_int(a):
        return _u_poly(int(round(-a)), b, z)
    if _is_nonpos_int(a - b + 1.0):
        return z ** (1.0 - b) * _u_poly(int(round(b - a - 1.0)), 2.0 - b, z)
    if z >= 45.0:
        # the finite Gamma sums below cancel like z^(n-1) at large z,
        # where the asymptotic series is already at full precision
        try:
            return _u_asymptotic(a, b, z, accuracy)
        except NonConvergenceError:
            pass
    if _is_pos_int(a) and b - a > 1e-9 and z <= 700.0:
        return _u_gamma_sum(int(round(a)), b, z)
    if _is_pos_int(a - b + 1.0) and a < 1.0 - 1e-9 and z <= 700.0:
        return z ** (1.0 - b) * _u_gamma_sum(int(round(a - b + 1.0)), 2.0 - b, z)
    raise NonConvergenceError(
        f"U({a}, {b}, {z}) outside the validated parameter region")


def whittaker_w(a: float, b: float, z: float,
                accuracy: Accuracy = DEFAULT_ACCURACY) -> float:
    """Whittaker function W_{a,b}(z) for z > 0.

    Computed through Tricomi U:
        W_{a,b}(z) = e^(-z/2) z^(b + 1/2) U(b - a + 1/2, 1 + 2b, z).
    Symmetric in b <-> -b.  For the ratio-distribution parameter
    patterns the first U argument is a non-positive integer, so the
    value is a finite polynomial and exact up to rounding.
    """
    if not z > 0:
        raise ValueError(f"whittaker_w requires z > 0, got z={z}")
    u = tricomi_u(b - a + 0.5, 1.0 + 2.0 * b, z, accuracy)
    scale = -0.5 * z + (b + 0.5) * math.log(z)
    # e^scale underflows to 0 for very large z; U stays finite there, so
    # the product degrades gracefully instead of producing NaN.
    return math.exp(scale) * u if scale > -745 else 0.0


@lru_cache(maxsize=None)
def _truncated_exp_power_ints(k: int, m: int) -> tuple[int, ...]:
    """Coefficients of ((m-1)! sum_{j<m} t^j/j!)^k, which are integers."""
    if k == 0:
        return (1,)
    prev = _truncated_exp_power_ints(k - 1, m)
    base = [math.factorial(m - 1) // math.factorial(j) for j in range(m)]
    out = [0] * (len(prev) + m - 1)
    for i, c in enumerate(prev):
        for j, b in enumerate(base):
            out[i + j] += c * b
    return tuple(out)


@lru_cache(maxsize=None)
def ln_truncated_exp_power(k: int, m: int) -> tuple[float, ...]:
    """ln c_{k,m}(d) = ln [t^d] (sum_{j<m} t^j/j!)^k for d = 0..k(m-1).

    The multinomial expansion of the power has one term per composition
    (k_0..k_{m-1}) of k, weighted k!/prod_j (k_j! j!^k_j) and of degree
    d = sum_j j k_j; c_{k,m}(d) is the sum of the weights of degree d.
    Every coefficient is positive, and scaled by (m-1)!^k they are
    integers, computed exactly here, so each entry is rounded once.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    shift = k * math.lgamma(m)
    return tuple(math.log(c) - shift for c in _truncated_exp_power_ints(k, m))
