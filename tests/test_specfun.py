"""Special-function kernel against exact values and mpmath."""
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fdrs import specfun as sf

import paper_closed_form as paper

mp.mp.dps = 40


def mp_ref(f, *args):
    """High-precision reference value, or None when mpmath's own
    evaluation fails to converge at any working precision."""
    for dps in (40, 80, 200):
        try:
            with mp.workdps(dps):
                return float(f(*args))
        except Exception:
            continue
    return None


def mp_float(f, *args):
    val = mp_ref(f, *args)
    if val is None:
        pytest.skip("mpmath reference did not converge")
    return val


class TestLnGamma:
    @pytest.mark.parametrize("a,expected", [
        (1.0, 0.0),
        (0.5, math.log(math.sqrt(math.pi))),
        (10.0, math.log(362880.0)),
    ])
    def test_exact_values(self, a, expected):
        assert sf.ln_gamma(a) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_relative_accuracy_over_range(self):
        for a in np.geomspace(1e-3, 1e3, 60):
            ref = mp_float(mp.loggamma, a)
            assert sf.ln_gamma(float(a)) == pytest.approx(ref, rel=1e-13, abs=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.ln_gamma(0.0)
        with pytest.raises(ValueError):
            sf.ln_gamma(-2.5)


class TestRegularizedGamma:
    def test_exponential_case(self):
        for x in (0.0, 0.3, 2.0, 9.0):
            assert sf.reg_lower_gamma(1.0, x) == pytest.approx(-math.expm1(-x), abs=1e-15)

    def test_at_zero(self):
        assert sf.reg_lower_gamma(3.7, 0.0) == 0.0

    def test_hand_checkable_series_value(self):
        # Q(2, 2) = e^-2 (1 + 2), so P(2, 2) = 1 - 3 e^-2
        assert sf.reg_lower_gamma(2.0, 2.0) == pytest.approx(1 - 3 * math.exp(-2), abs=1e-15)

    def test_complement_identity(self):
        for a in (0.5, 1.0, 2.0, 5.0):
            for x in np.linspace(0.0, 50.0, 26):
                s = sf.reg_lower_gamma(a, float(x)) + sf.reg_upper_gamma(a, float(x))
                assert abs(s - 1.0) <= 1e-14

    def test_monotone_in_x(self):
        vals = [sf.reg_lower_gamma(2.5, x) for x in np.linspace(0, 20, 100)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.reg_lower_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            sf.reg_lower_gamma(1.0, -0.1)


def gamma_grid():
    """(a, x) over a in [0.5, 400], x in [0, 2e4]: a log grid in x, points
    around x = a, where the series and the fraction meet, and grids below
    and above a fine enough to land in both tails' last decades."""
    for a in (0.5, 0.9, 1.0, 2.5, 7.0, 19.5, 20.0, 33.3, 100.0, 250.0, 400.0):
        xs = [0.0, 1.0, a + 1.0, max(a - 1.0, 0.1)]
        xs += [float(x) for x in np.geomspace(1e-6, 2e4, 25)]
        xs += [a * (1.0 + t) for t in (-0.3, -0.1, -0.01, 0.0, 0.01, 0.1, 0.3, 2.0)]
        xs += [float(x) for x in a * np.geomspace(1e-4, 1.0, 30, endpoint=False)]
        xs += [a + 50.0 * k for k in range(1, 21)]
        for x in xs:
            yield a, x


class TestIncompleteGammaAccuracy:
    """P and Q against mpmath to the tolerances stated in specfun."""

    def test_against_mpmath(self):
        deep = {"P": 0, "Q": 0}
        for a, x in gamma_grid():
            with mp.workdps(40):
                refs = {"P": float(mp.gammainc(a, 0, x, regularized=True)),
                        "Q": float(mp.gammainc(a, x, mp.inf, regularized=True))}
            got = {"P": sf.reg_lower_gamma(a, x), "Q": sf.reg_upper_gamma(a, x)}
            for tail, ref in refs.items():
                if ref < 1e-300:
                    # below the stated range a value may only underflow
                    assert 0.0 <= got[tail] <= 1e-300, (tail, a, x)
                    continue
                tol = sf.GAMMA_REL_TOL if ref > 1e-30 else sf.GAMMA_DEEP_REL_TOL
                deep[tail] += ref < 1e-250
                assert abs(got[tail] - ref) <= tol * ref, (tail, a, x, got[tail], ref)
        # both tails were checked down near the end of the range
        assert min(deep.values()) >= 5, deep

    @pytest.mark.parametrize("a", [1, 2, 4, 7, 12, 20, 30])
    def test_integer_orders_across_the_finite_sum_switch(self, a):
        # integer orders take Q as a finite sum while it is at most 0.9,
        # and P = 1 - Q from it; on both sides of that switch, and where
        # P is smallest on its side, both stay within GAMMA_REL_TOL
        for x in np.linspace(max(a - 4.0 * a ** 0.5, 0.01), a + 4.0 * a ** 0.5, 81):
            x = float(x)
            with mp.workdps(40):
                p_ref = mp.gammainc(a, 0, x, regularized=True)
                q_ref = float(1 - p_ref)
            p, q = sf.reg_lower_gamma(a, x), sf.reg_upper_gamma(a, x)
            assert abs(p - float(p_ref)) <= sf.GAMMA_REL_TOL * float(p_ref), (a, x)
            assert abs(q - q_ref) <= sf.GAMMA_REL_TOL * q_ref, (a, x)

    @pytest.mark.parametrize("a", [20.0, 100.0, 400.0])
    def test_complement_near_transition(self, a):
        # P + Q = 1 where both are O(1), on both sides of x = a
        for x in a + np.sqrt(a) * np.linspace(-2.0, 2.0, 41):
            p, q = sf.reg_lower_gamma(a, float(x)), sf.reg_upper_gamma(a, float(x))
            assert min(p, q) > 1e-3
            assert abs(p + q - 1.0) <= 1e-15

    def test_infinite_argument(self):
        assert sf.reg_lower_gamma(2.5, math.inf) == 1.0
        assert sf.reg_upper_gamma(2.5, math.inf) == 0.0

    @pytest.mark.parametrize("kernel", [sf.reg_lower_gamma, sf.reg_upper_gamma])
    def test_raises_outside_domain_instead_of_returning(self, kernel):
        # near x = a at a = 1e8 the series and the fraction need about
        # 9e4 terms, past MAX_TERMS
        with pytest.raises(sf.NonConvergenceError):
            kernel(1e8, 1e8)
        with pytest.raises(ValueError):
            kernel(1.0, math.nan)


class TestRegLowerGammaRun:
    # the run's values are checked through analytic._ln_moments in
    # test_analytic.py::TestMomentTable
    def test_edges(self):
        assert sf.ln_reg_lower_gammas(1.5, 0, 2.0) == []
        assert sf.ln_reg_lower_gammas(1.5, 3, 0.0) == [-math.inf] * 3
        assert sf.ln_reg_lower_gammas(1.5, 3, math.inf) == [0.0] * 3


class TestBinomialSum:
    # sum_j (-1)^j C(top, j) r^j v[first + j] against exact rationals,
    # with v_i = 1/(i + 1): the alternating sums are beta-type, positive
    VALUES = [Fraction(1, i + 1) for i in range(16)]
    LN_VALUES = [math.log(v) for v in VALUES]

    @staticmethod
    def exact(top, first, ratio):
        terms = [math.comb(top, j) * ratio ** j * TestBinomialSum.VALUES[first + j]
                 for j in range(top + 1)]
        total = sum(-t if j % 2 else t for j, t in enumerate(terms))
        return total, sum(terms) / total

    @pytest.mark.parametrize("alternating", [True])
    @pytest.mark.parametrize("ratio", [Fraction(1), Fraction(1, 2), Fraction(3, 4)])
    @pytest.mark.parametrize("first", [0, 3])
    @pytest.mark.parametrize("top", [0, 1, 4, 10])
    def test_against_exact_sum(self, top, first, ratio, alternating):
        ln_s, kappa = sf.ln_binomial_sum(self.LN_VALUES[first:], top, math.log(ratio))
        total, cond = self.exact(top, first, ratio)
        # kappa bounds the relative error of S, and so of kappa = sum|t| / S
        tol = 1e-14 * float(cond)
        assert math.exp(ln_s) == pytest.approx(float(total), rel=tol)
        assert kappa == pytest.approx(float(cond), rel=tol)

    @pytest.mark.parametrize("length", [1, 3, 4, 7])
    def test_short_sequence_gives_the_cut_sum(self, length):
        # terms past the end of the sequence count as 0
        top, ratio = 10, Fraction(1, 4)
        ln_s, kappa = sf.ln_binomial_sum(self.LN_VALUES[:length], top, math.log(ratio))
        terms = [math.comb(top, j) * ratio ** j * self.VALUES[j] for j in range(length)]
        total = sum(-t if j % 2 else t for j, t in enumerate(terms))
        cond = sum(terms) / total
        tol = 1e-14 * float(cond)
        assert math.exp(ln_s) == pytest.approx(float(total), rel=tol)
        assert kappa == pytest.approx(float(cond), rel=tol)
        assert sf.ln_binomial_sum([], top) == (None, math.inf)

    def test_top_zero_is_the_entry(self):
        assert sf.ln_binomial_sum([0.5, -1.25][1:], 0, ln_ratio=3.0) == (-1.25, 1.0)

    def test_non_positive_sum(self):
        assert sf.ln_binomial_sum([0.0, math.log(2.0)], 1) == (None, math.inf)
        assert sf.ln_binomial_sum([0.0, 0.0], 1) == (None, math.inf)
        assert sf.ln_binomial_sum([-math.inf] * 3, 2) == (None, math.inf)

    def test_ln_comb(self):
        for n in (0, 1, 7, 60):
            for k in range(n + 1):
                assert sf.ln_comb(n, k) == pytest.approx(math.log(math.comb(n, k)), abs=1e-12)


class TestGaussRule:
    # up to the largest rule the positive route takes
    SIZES = [1, 2, 3, 8, 16, 32, 64, 128]

    @pytest.mark.parametrize("n", SIZES)
    def test_legendre_against_numpy(self, n):
        nodes, weights = sf.gauss_rule(n)
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.abs(np.array(nodes) - (x + 1) / 2).max() <= 1e-14
        assert np.abs(np.array(weights) - w / 2).max() <= 1e-14

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, 2.7, 9.0])
    @pytest.mark.parametrize("n", SIZES)
    def test_laguerre_against_scipy(self, n, alpha):
        from scipy.special import roots_genlaguerre
        nodes, weights = sf.gauss_rule(n, alpha)
        x, w = roots_genlaguerre(n, alpha)
        assert np.all(np.abs(np.array(nodes) - x) <= 1e-14 * np.maximum(1.0, x))
        # weights span hundreds of decades: measured against their sum,
        # Gamma(alpha + 1); at n = 128, alpha = 0 scipy's own weights are
        # 6e-15 of it off 50-digit values, this rule's 1.4e-15
        assert np.abs(np.array(weights) - w).max() <= (1e-14 if n < 128 else 2e-14) * w.sum()

    def test_rules_integrate_their_polynomials(self):
        nodes, weights = sf.gauss_rule(16)
        for k in range(32):
            assert math.fsum(w * t ** k for t, w in zip(nodes, weights)) == pytest.approx(
                1.0 / (k + 1), rel=1e-14)
        nodes, weights = sf.gauss_rule(16, 0.5)
        for k in range(12):
            assert math.fsum(w * t ** k for t, w in zip(nodes, weights)) == pytest.approx(
                math.gamma(k + 1.5), rel=1e-13)

    def test_kept_per_size_and_weight(self):
        assert sf.gauss_rule(8) is sf.gauss_rule(8)
        assert sf.gauss_rule(8, 1.0) is sf.gauss_rule(8, 1.0)
        assert sf.gauss_rule(8, 1.0) != sf.gauss_rule(8, 2.0)


class TestBeta:
    def test_values(self):
        assert math.exp(sf.ln_beta(1, 1)) == pytest.approx(1.0, rel=1e-14)
        assert math.exp(sf.ln_beta(2, 3)) == pytest.approx(1 / 12, rel=1e-13)
        assert math.exp(sf.ln_beta(0.5, 0.5)) == pytest.approx(math.pi, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.ln_beta(0.0, 1.0)


class TestKummerM:
    """Values and identities of M(a; b; z), evaluated as exp(ln_kummer_m)."""

    def test_empty_series(self):
        assert sf.ln_kummer_m(0.7, 1.3, 0.0) == 0.0

    def test_m_1_2_identity(self):
        # M(1, 2, z) = (e^z - 1)/z
        assert math.exp(sf.ln_kummer_m(1, 2, 1.0)) == pytest.approx(math.e - 1, rel=1e-13)

    def test_negative_argument_transformation(self):
        # the raw alternating series of M(2, 3, -1) against mpmath and the
        # Kummer transformation M(a,b,-z) = e^-z M(b-a, b, z)
        raw = math.fsum((mp_float(mp.rf, 2, n) / mp_float(mp.rf, 3, n))
                        * (-1.0) ** n / math.factorial(n) for n in range(40))
        assert raw == pytest.approx(mp_float(mp.hyp1f1, 2, 3, -1.0), rel=1e-12)
        assert math.exp(-1.0 + sf.ln_kummer_m(1, 3, 1.0)) == pytest.approx(raw, rel=1e-12)

    @pytest.mark.parametrize("a,b", [(0.3, 1.7), (2.0, 5.5), (-1.5, 0.9), (4.2, 0.4)])
    def test_against_mpmath(self, a, b):
        # ln_kummer_m needs a positive series: directly for a > 0, z >= 0,
        # and through the Kummer transformation for b - a > 0, z < 0
        checked = 0
        for z in (-25.0, -3.0, 0.2, 7.0, 30.0):
            if z >= 0 and a > 0:
                got = math.exp(sf.ln_kummer_m(a, b, z))
            elif z < 0 and b - a > 0:
                got = math.exp(z + sf.ln_kummer_m(b - a, b, -z))
            else:
                continue
            checked += 1
            assert got == pytest.approx(mp_float(mp.hyp1f1, a, b, z), rel=1e-11), z
        assert checked >= 2

    def test_invalid_b(self):
        with pytest.raises(ValueError):
            sf.ln_kummer_m(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            sf.ln_kummer_m(1.0, -3.0, 1.0)

    def test_term_budget_exhaustion(self):
        # terms still grow when the budget of max(MAX_TERMS, 4 z + 100)
        # terms runs out
        with pytest.raises(sf.NonConvergenceError):
            sf.ln_kummer_m(1e9, 1.0, 1.0)


class TestLnKummerM:
    def test_matches_log_of_direct_value(self):
        for z in (0.5, 5.0, 25.0):
            ref = mp_float(lambda: mp.log(mp.hyp1f1(1.5, 4.0, z)))
            assert sf.ln_kummer_m(1.5, 4.0, z) == pytest.approx(ref, rel=1e-12)

    def test_large_argument_no_overflow(self):
        ref = mp_float(lambda: mp.log(mp.hyp1f1(2.0, 5.5, 500.0)))
        assert sf.ln_kummer_m(2.0, 5.5, 500.0) == pytest.approx(ref, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.ln_kummer_m(-1.0, 2.0, 1.0)


class TestTricomiU:
    def test_zeroth_polynomial(self):
        assert sf.tricomi_u(0.0, 2.3, 1.7) == 1.0

    @pytest.mark.parametrize("b", [0.4, 2.5, -1.3])
    def test_first_polynomial_is_z_minus_b(self, b):
        # U(-1, b, z) = z - b, cross-checked against mpmath
        z = 2.0
        assert sf.tricomi_u(-1.0, b, z) == pytest.approx(z - b, rel=1e-14)
        assert sf.tricomi_u(-1.0, b, z) == pytest.approx(mp_float(mp.hyperu, -1, b, z), rel=1e-13)

    @pytest.mark.parametrize("a,b", [(-3, -5.2), (1, 3)])
    def test_exact_paths_against_mpmath(self, a, b):
        # the polynomial and its reflection: full precision
        for z in (0.3, 2.2, 8.0, 60.0, 300.0):
            ref = mp_float(mp.hyperu, a, b, z)
            assert sf.tricomi_u(a, b, z) == pytest.approx(ref, rel=5e-10), (a, b, z)

    @pytest.mark.parametrize("a,b", [(2.5, 0.7), (1.5, 2.0), (1.0, 1.0), (3, 4.2), (4, 9.9),
                                     (0.8, -1.2)])
    def test_outside_validated_region_raises(self, a, b):
        # U is no polynomial here, at small z and large alike
        for z in (1.0, 60.0):
            with pytest.raises(sf.NonConvergenceError):
                sf.tricomi_u(a, b, z)

    def test_moment_polynomial_identity(self):
        # U(-D, 1-m-D, y) = sum_r C(D,r) (m)_r y^(D-r): the form taken by
        # the semi-infinite direct-link integral
        for deg in (0, 1, 2, 3, 5):
            for m in (0.7, 1.0, 2.0, 3.3):
                for y in (1e-3, 0.5, 7.0, 1e5):
                    direct = math.fsum(
                        math.comb(deg, r)
                        * math.exp(sf.ln_gamma(r + m) - sf.ln_gamma(m))
                        * y ** (deg - r) for r in range(deg + 1))
                    assert sf.tricomi_u(-deg, 1 - m - deg, y) == pytest.approx(
                        direct, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.tricomi_u(1.0, 1.0, 0.0)


class TestWhittakerW:
    def test_symmetry_in_second_index(self):
        # at integer m1, W_{a,b} and W_{a,-b} take the polynomial and its reflection
        rng = np.random.default_rng(3)
        for _ in range(60):
            m1 = int(rng.integers(1, 5))
            k = rng.integers(0, 4)
            a = (m1 - k - 1) / 2
            b = -(m1 + k) / 2
            z = rng.uniform(0.05, 60.0)
            w1 = sf.whittaker_w(a, b, z)
            w2 = sf.whittaker_w(a, -b, z)
            assert abs(w1 - w2) <= 1e-10 * max(1.0, abs(w1))

    @pytest.mark.parametrize("alpha,x", [(2.0, 1.0), (4.0, 0.7)])
    def test_incomplete_gamma_identity(self, alpha, x):
        # Gamma(alpha, x) = x^((alpha-1)/2) e^(-x/2) W_{(alpha-1)/2, alpha/2}(x)
        lhs = sf.reg_upper_gamma(alpha, x) * math.exp(sf.ln_gamma(alpha))
        rhs = x ** ((alpha - 1) / 2) * math.exp(-x / 2) * sf.whittaker_w(
            (alpha - 1) / 2, alpha / 2, x)
        assert rhs == pytest.approx(lhs, rel=1e-12)

    def test_upper_incomplete_gamma_two_one(self):
        got = 1.0 ** 0.5 * math.exp(-0.5) * sf.whittaker_w(0.5, 1.0, 1.0)
        assert got == pytest.approx(2 * math.exp(-1), rel=1e-12)

    def test_ratio_parameter_family_against_mpmath(self):
        checked = 0
        for m1 in (1.0, 2.0, 3.0, 4.0):
            for k in range(4):
                a = (m1 - k - 1) / 2
                b = -(m1 + k) / 2
                for z in (0.05, 0.5, 2.0, 20.0, 80.0):
                    ref = mp_ref(mp.whitw, a, b, z)
                    if ref is None:
                        continue  # mpmath itself failed on this point
                    checked += 1
                    assert sf.whittaker_w(a, b, z) == pytest.approx(
                        ref, rel=5e-9, abs=1e-280), (m1, k, z)
        assert checked >= 70

    def test_domain(self):
        with pytest.raises(ValueError):
            sf.whittaker_w(0.5, 0.5, -1.0)


def compositions(total, parts):
    """Brute force: every tuple of `parts` non-negative ints summing to `total`."""
    if parts == 1:
        return [(total,)]
    return [(first,) + rest for first in range(total + 1)
            for rest in compositions(total - first, parts - 1)]


class TestCompositions:
    """The brute-force enumeration behind TestTruncatedExpPower."""

    def test_small_cases(self):
        assert set(compositions(2, 2)) == {(2, 0), (1, 1), (0, 2)}
        assert list(compositions(0, 3)) == [(0, 0, 0)]
        assert list(compositions(3, 1)) == [(3,)]

    @pytest.mark.parametrize("total,parts", [(0, 1), (5, 1), (4, 3), (6, 4), (3, 6)])
    def test_count_and_uniqueness(self, total, parts):
        items = list(compositions(total, parts))
        assert len(items) == math.comb(total + parts - 1, parts - 1)
        assert len(set(items)) == len(items)
        assert all(sum(c) == total and len(c) == parts and min(c) >= 0 for c in items)


class TestTruncatedExpPower:
    """The power chain E_k of the paper's convolved blocks
    (paper_closed_form.convolved_chain): at theta = 1,
    E_{k,d} = ln [t^d] (sum_{j<m} t^j/j!)^k."""

    def test_matches_composition_enumeration(self):
        # c_{k,m}(d) sums the multinomial weights k!/prod_j (k_j! j!^k_j)
        # of the compositions (k_0..k_{m-1}) of k with sum_j j k_j = d; the
        # exact powers are checked against that up to k = 12, and the chain
        # against the exact powers up to k = 64
        for m in range(1, 7):
            base = [Fraction(1, math.factorial(j)) for j in range(m)]
            exact = [Fraction(1)]
            chain = paper.convolved_chain(64, m, 1.0)
            for k in range(65):
                if k:
                    exact = [sum(exact[d - j] * b for j, b in enumerate(base)
                                 if 0 <= d - j < len(exact))
                             for d in range(len(exact) + m - 1)]
                if k <= 12:
                    by_degree = [Fraction(0)] * len(exact)
                    for comp in compositions(k, m):
                        by_degree[sum(j * kj for j, kj in enumerate(comp))] += Fraction(
                            math.factorial(k), math.prod(
                                math.factorial(kj) * math.factorial(j) ** kj
                                for j, kj in enumerate(comp)))
                    assert by_degree == exact, (k, m)
                assert len(chain[k]) == k * (m - 1) + 1 == len(exact)
                for deg, (ln_c, c) in enumerate(zip(chain[k], exact)):
                    ln_ref = math.log(c.numerator) - math.log(c.denominator)
                    assert abs(ln_c - ln_ref) <= 1e-13 * max(1.0, abs(ln_ref)), (k, m, deg)
