"""Closed-form CDFs against exact special cases, quadrature oracles,
Monte Carlo, and their structural properties."""
import dataclasses
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrs import analysis
from fdrs import analytic as an
from fdrs import montecarlo
from fdrs import specfun as sf
from fdrs.channel import (
    FD_PROTOCOLS,
    ConfigError,
    LinkSpec,
    NetworkConfig,
    Protocol,
    db_to_linear,
)

import paper_closed_form as paper
import rayleigh as ray
import route_audit

dB = db_to_linear

X_GRID = np.geomspace(0.05, 80.0, 20)


def rayleigh_cfg(k=2, p=10.0, lam=1.0, pi_sr=10.0, pi_rd=10.0, pi_rr=1.0, pi_sd=None):
    sd = None if pi_sd is None else LinkSpec(1, pi_sd)
    return NetworkConfig(k=k, p_s=p, p_r=p, rsi_lambda=lam,
                         sr=LinkSpec(1, pi_sr), rd=LinkSpec(1, pi_rd),
                         rr=LinkSpec(1, pi_rr), sd=sd)


class TestRatioCdf:
    def test_zero_threshold(self):
        assert an.cdf_ratio_gamma(0.0, an.RatioParams(1, 1, 1, 1)) == 0.0

    def test_exponential_over_exponential(self):
        # P(Z > z) = e^-z/(1+z) for unit exponentials
        p = an.RatioParams(1, 1, 1, 1)
        assert an.cdf_ratio_gamma(1.0, p) == pytest.approx(1 - math.exp(-1) / 2, rel=1e-12)

    def test_erlang_over_exponential(self):
        # E[e^-t(1+t)] over Exp(0.5) at z=2 integrates to 1.75 e^-2
        p = an.RatioParams(2, 1, 1, 0.5)
        assert an.cdf_ratio_gamma(2.0, p) == pytest.approx(1 - 1.75 * math.exp(-2), rel=1e-12)

    def test_against_ratio_sampling(self):
        p = an.RatioParams(1.5, 2.0, 2, 0.8)
        rng = np.random.default_rng(8)
        n = 2 * 10 ** 6
        z = 1.3
        x1 = rng.gamma(p.m1, p.theta1, n)
        x2 = rng.gamma(p.m2, p.theta2, n)
        emp = np.mean(x1 / (x2 + 1.0) <= z)
        se = math.sqrt(emp * (1 - emp) / n)
        assert abs(an.cdf_ratio_gamma(z, p) - emp) < 4 * se

    def test_quadrature_agreement_over_shape_grid(self):
        # the full operating region: shapes 0.5..4, scales -10..20 dB
        for m1 in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
            for m2 in (1, 2, 4):
                for th_db in (-10.0, 0.0, 20.0):
                    p = an.RatioParams(m1, dB(th_db), m2, dB(-th_db / 2))
                    for z in (0.1, 1.0, 15.0, 63.0):
                        closed = an.cdf_ratio_gamma(z, p)
                        oracle = an.cdf_ratio_gamma_quad(z, p)
                        assert abs(closed - oracle) <= 1e-8, (m1, m2, th_db, z)

    def test_monotone_and_bounded(self):
        p = an.RatioParams(2.5, 3.0, 3, 0.7)
        vals = [an.cdf_ratio_gamma(float(z), p) for z in np.linspace(0, 40, 80)]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_non_integer_m2_matches_quadrature(self):
        # a real m2 at integer m1 takes the positive sums, and agrees with the oracle
        p = an.RatioParams(1.0, 1.0, 1.7, 1.0)
        v = an.cdf_ratio_gamma_quad(1.0, p)
        assert 0.0 < v < 1.0
        assert an.cdf_ratio_gamma(1.0, p) == pytest.approx(v, rel=1e-10, abs=0.0)

    def test_ccdf_complements_cdf(self):
        p = an.RatioParams(2, 1.5, 2, 0.5)
        for z in (0.1, 1.0, 10.0):
            assert an.ratio_tails(z, p)[1] == pytest.approx(1 - an.cdf_ratio_gamma(z, p),
                                                            abs=1e-14)

    def test_small_rsi_scale_against_quadrature(self):
        # theta2 down to 1e-4: the RSI moves each tail by O(theta2) only,
        # through the negative-binomial odds c theta2 of the sums at integer
        # m1 and through the Gauss nodes at m1 = 1.5; that correction must
        # survive in both tails
        for th2 in (1e-3, 6e-4, 1e-4):
            for m1, m2 in ((1.0, 1), (2.0, 2), (1.5, 3)):
                p = an.RatioParams(m1, 1.0, m2, th2)
                for z in (0.5, 3.0):
                    oracle = an.cdf_ratio_gamma_quad(z, p)
                    assert abs(an.cdf_ratio_gamma(z, p) - oracle) <= 1e-12, (th2, m1, z)
                    assert abs(an.ratio_tails(z, p)[1] - (1.0 - oracle)) <= 1e-12, (th2, m1, z)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            an.RatioParams(0.4, 1, 1, 1)
        with pytest.raises(ValueError):
            an.RatioParams(1, 1, -1, 1)
        with pytest.raises(ValueError):
            an.RatioParams(1, 0, 1, 1)


class TestRatioTailsGaussRoute:
    """A first hop with a real m_sr takes both tails as positive Gauss-rule
    integrals over the RSI gain; each must match the reference within
    REL_TOL or raise ArithmeticError, and where both exceed 1e-3 they must
    add up to 1 within 4 ulp.  The first six points are where the Tricomi
    route that real shapes once took returned wrong values without raising
    (6.9e-9 off at 1.1e-8, 2.9e-6 off at 1.9e-10, 1.1e-3 off at 2.6e-13,
    7.1e-8 off at U(-1.5, -6.5, 44), orders of magnitude off at 8.9e-96),
    or where panels without the 1/theta2 scale stalled (z = 0.01); the
    rest spread over the grid.  The point (2, 31.6, 1.5, 2.0, 3.0) has an
    integer m_sr, so it checks the positive sums of TestRatioTailsCountSum.
    The references are F_Z and P(Z > z) from this mpmath snippet, printed
    to 40 digits.  The breakpoints matter: with whole octaves in place of
    half ones, the references of the two points near 1e-280 were 3e-10 and
    2e-11 off.  So does the scaling: each integrand is divided by its
    largest value on the breakpoints, as quad stops on an absolute error
    estimate (unscaled, the references near 2.9e-45, 8.9e-96, 9.9e-276 and
    5.2e-282 were 3e-14 to 5e-14 off).

        from mpmath import mp, mpf, gammainc, gamma, exp, quad, inf
        mp.dps = 50

        def reference(z, m1, th1, m2, th2):
            z, m1, th1, m2, th2 = map(mpf, (z, m1, th1, m2, th2))
            # breakpoints at half octaves of the scale on which y moves by 1,
            # of 1/th2 and of 1
            pts = {b * mpf(2) ** (mpf(j) / 2) for b in (th1 / (z * th2), 1 / th2, mpf(1))
                   for j in range(-120, 120)}
            pts = [0] + sorted(t for t in pts if mpf(10) ** -30 < t < 1e4 * (m2 + 1)) + [inf]
            pdf = lambda u: u ** (m2 - 1) * exp(-u) / gamma(m2)
            y = lambda u: z * (th2 * u + 1) / th1
            out = []
            for tail in (lambda u: gammainc(m1, 0, y(u), regularized=True),
                         lambda u: gammainc(m1, y(u), inf, regularized=True)):
                peak = max(tail(t) * pdf(t) for t in pts[1:-1])
                out.append(peak * quad(lambda u: tail(u) * pdf(u) / peak, pts))
            return out
    """

    # (m1, theta1, m2, theta2, z): (F_Z(z), P(Z > z))
    REFERENCE = {
        (0.5, 31.6, 2, 1000.0, 60.0): (9.999999889615741877122064918822175526583e-1, 1.103842581228779350811778244734167114394e-8),
        (4.7, 31.6, 6, 1000.0, 3.0): (9.999999998104365161360877513364559552609e-1, 1.895634838639122486635440447391205665442e-10),
        (0.5, 31.6, 6, 1000.0, 3.0): (9.999999999997379508829168935109538319803e-1, 2.620491170831064890461680197268551362056e-13),
        (2.5, 1.0, 6, 1000.0, 44.0): (1.0, 2.940494097958230843784401810512328643855e-45),
        (0.5, 31.6, 2, 1000.0, 0.01): (6.766924488510934725376651924141105635038e-1, 3.233075511489065274623348075858894364962e-1),
        (1.5, 0.1, 6, 1000.0, 15.0): (1.0, 8.905376697496847236565979731961018866738e-96),
        (0.5, 0.1, 0.5, 0.001, 0.01): (3.453598348149502465480689974908670959996e-1, 6.546401651850497534519310025091329039356e-1),
        (2.5, 31.6, 0.5, 1000.0, 0.01): (1.059793751450363081593556061739098482039e-2, 9.894020624854963691840644393826090151775e-1),
        (4.7, 31.6, 3.3, 1000.0, 3.0): (9.999901365838408752588946422159244553593e-1, 9.863416159124741105357784075544640744872e-6),
        (2.5, 0.1, 3.3, 0.001, 3.0): (9.999999999889237466100608304437907668155e-1, 1.107625338993916955620923318447072128149e-11),
        (4.7, 31.6, 2, 2.0, 0.01): (7.905378048560767317542340391003859910347e-15, 9.999999999999920946219514392326824576596e-1),
        (0.5, 31.6, 6, 0.001, 1000.0): (9.999999999999985251160238866719819704499e-1, 1.474883976113328018029550121100858429093e-15),
        (2, 31.6, 1.5, 2.0, 3.0): (6.508670320616756371152249905020052931322e-2, 9.349132967938324362884775009497994706868e-1),
        (1, 1.0, 0.5, 0.001, 60.0): (9.999999999999999999999999914949248925489e-1, 8.505075107386354840096028033854320579515e-27),
        (2.5, 0.1, 6, 2.0, 60.0): (1.0, 9.935674995826702556876338446012126213968e-276),
        (0.5, 0.1, 3.3, 1000.0, 60.0): (1.0, 5.202475266034733693747710438599605379602e-282),
        (4.7, 31.6, 0.5, 2.0, 60.0): (3.245735835446176491775899360569994958034e-1, 6.754264164553823508224100639430005041632e-1),
        (0.5, 0.1, 2, 2.0, 3.0): (9.9999999999999999752650402850557448112e-1, 2.473495971494425518880038492821568641302e-18),
    }

    @pytest.mark.parametrize("case", REFERENCE, ids=lambda c: "-".join(map(str, c)))
    def test_tails_match_reference_or_raise(self, case, monkeypatch):
        def tricomi(*args):
            raise AssertionError("a first hop reached tricomi_u")
        monkeypatch.setattr(sf, "tricomi_u", tricomi)
        m1, th1, m2, th2, z = case
        try:
            fz, s = an.ratio_tails(z, an.RatioParams(m1, th1, m2, th2))
        except ArithmeticError:
            return
        ref_fz, ref_s = self.REFERENCE[case]
        assert fz == pytest.approx(ref_fz, rel=sf.REL_TOL, abs=0.0)
        assert s == pytest.approx(ref_s, rel=sf.REL_TOL, abs=0.0)
        if min(ref_fz, ref_s) > 1e-3:
            assert abs(fz + s - 1.0) <= 4 * math.ulp(1.0)


class TestRatioTailsCountSum:
    """At integer m_sr, with any real m_rr, both first-hop tails come from
    positive Poisson and negative-binomial sums (_ratio_counts).  Each must
    match the reference within REL_TOL, and where both exceed 1e-3 they
    must add up to 1 within 4 ulp.  The first two points are where the
    Whittaker subtraction that integer shapes took before lost its digits
    (s 2.4e-2 off at 1.9e-37 and 3.1e-7 off at 3.4e-16); the rest pair
    each m_sr in {1, 2, 3, 6} with m_rr in {0.5, 1, 2, 3.3, 6} and scales
    from 1e-3 to 1e7, at thresholds where s or F_Z lies between 0.4 and
    1e-290.  The references are F_Z and P(Z > z) from this mpmath snippet,
    printed to 40 digits: the quadrature of TestRatioTailsGaussRoute, with
    each integrand divided by its largest value on the breakpoints, as
    quad stops on an absolute error estimate (unscaled, the reference for
    s = 1.44e-120 was 7e-13 off).  A 50-digit evaluation of the sums
    themselves, with P(N2 >= k) from mpmath's incomplete Beta, agrees
    with every reference within 1e-36.

        from mpmath import mp, mpf, gammainc, gamma, exp, quad, inf
        mp.dps = 50

        def reference(z, m1, th1, m2, th2):
            z, m1, th1, m2, th2 = map(mpf, (z, m1, th1, m2, th2))
            pts = {b * mpf(2) ** (mpf(j) / 2) for b in (th1 / (z * th2), 1 / th2, mpf(1))
                   for j in range(-120, 120)}
            pts = [0] + sorted(t for t in pts if mpf(10) ** -30 < t < 1e4 * (m2 + 1)) + [inf]
            pdf = lambda u: u ** (m2 - 1) * exp(-u) / gamma(m2)
            y = lambda u: z * (th2 * u + 1) / th1
            out = []
            for tail in (lambda u: gammainc(m1, 0, y(u), regularized=True),
                         lambda u: gammainc(m1, y(u), inf, regularized=True)):
                peak = max(tail(t) * pdf(t) for t in pts[1:-1])
                out.append(peak * quad(lambda u: tail(u) * pdf(u) / peak, pts))
            return out
    """

    # (m1, theta1, m2, theta2, z): (F_Z(z), P(Z > z))
    REFERENCE = {
        (2, 1.0, 6, 2.0, 60.0): (9.999999999999999999999999999999999998132e-1, 1.867979585909555438712983503951878311407e-37),
        (1, 1.0, 6, 2.0, 15.0): (9.999999999999996553227585972955661786382e-1, 3.44677241402704433821361804247310653544e-16),
        (1, 1000.0, 0.5, 0.5, 756.0): (6.000103416349422685623184361894681899609e-1, 3.999896583650577314376815638105318099743e-1),
        (2, 10000000.0, 1, 0.5, 36200000.0): (9.498265337046893471555032561349031420634e-1, 5.017346629531065284449674386509685793655e-2),
        (3, 1.0, 2, 1000.0, 4.91): (9.999999899795145996270559375387626536688e-1, 1.002048540037294406246123734633118962485e-8),
        (6, 10000000.0, 3.3, 10000000.0, 410000000.0): (9.999999999999999999999999999999999999999e-1, 9.604858524067398447495490488662519873469e-41),
        (1, 1000.0, 6, 0.5, 247000.0): (1.0, 1.439616651422850925671962320262300843643e-120),
        (2, 10000000.0, 0.5, 10000000.0, 4560000000.0): (1.0, 6.203330629837306490412474543781680929396e-201),
        (3, 1000.0, 1, 2.0, 673000.0): (1.0, 8.872062305031529265501887419899267617031e-291),
        (6, 10000000.0, 2, 10000000.0, 2.18): (2.996345100928721663080012626945937417191e-1, 7.003654899071278336919987373054062582809e-1),
        (1, 31.6, 3.3, 1000.0, 9.57e-08): (9.996950719670033952988578059581253903003e-6, 9.999900030492803299660470114219404187461e-1),
        (2, 1.0, 6, 0.001, 1.41e-15): (1.006020350099999098311732674985827536818e-30, 9.999999999999999999999999999989939796499e-1),
        (3, 1.0, 0.5, 1000.0, 1.47e-53): (9.938554282851702744395329065241105045736e-151, 9.999999999999999999999999999999999999979e-1),
        (6, 1.0, 1, 10000000.0, 4.64e-56): (9.979480336202324913807980324741211542945e-291, 1.0),
        (1, 31.6, 2, 0.001, 28.9): (6.000378014818539691314393897896558399093e-1, 3.999621985181460308685606102103441600907e-1),
        (2, 10000000.0, 3.3, 10000000.0, 2.59): (9.502027747819563422750319444226056506624e-1, 4.97972252180436577249680555773943493376e-2),
        (3, 10000000.0, 6, 1000.0, 361000.0): (9.999999900243117250528074073670176430746e-1, 9.975688274947192592632982356925386802477e-9),
        (6, 1.0, 0.5, 2.0, 108.0): (9.999999999999999999999999999999999999956e-1, 1.112656675405396004913032948940880020478e-40),
        (1, 1000.0, 1, 0.5, 271000.0): (1.0, 1.482732315233182071948347637133859529149e-120),
        (2, 0.001, 2, 0.001, 0.466): (1.0, 9.045054569367863733745389555065305999851e-201),
        (3, 1.0, 3.3, 2.0, 656.0): (1.0, 1.415793278975875827881037286154735826075e-290),
        (6, 0.1, 6, 0.001, 0.449): (2.99967162795230465645497019291481998693e-1, 7.00032837204769534354502980708518001307e-1),
        (1, 10000000.0, 0.5, 2.0, 50.0): (9.999925000583328437543124609552207555533e-6, 9.999900000749994166715624568753904477466e-1),
        (2, 0.001, 1, 2.0, 3.92e-19): (9.988159999999984405186190871277388935485e-31, 9.99999999999999999999999999999001184e-1),
        (3, 0.1, 2, 10000000.0, 6.3e-59): (1.000188075014102495273644567511327221363e-150, 1.0),
        (6, 1.0, 3.3, 2.0, 1.18e-49): (9.853449585992583984428246290129895567714e-291, 1.0),
        (1, 0.001, 6, 2.0, 7.52e-05): (5.998269689996167581893622035862569458524e-1, 4.001730310003832418106377964137430541476e-1),
        (2, 1000.0, 0.5, 2.0, 3560.0): (9.501153772628810254545805535443997529884e-1, 4.988462273711897454541944645560024698734e-2),
        (3, 1000.0, 1, 1000.0, 13700.0): (9.99999989821401319842026040795613189956e-1, 1.017859868015797395920438681004400752339e-8),
        (6, 31.6, 2, 0.5, 3250.0): (9.999999999999999999999999999999999999999e-1, 8.693248908901065484650894115240952031439e-41),
        (1, 10000000.0, 3.3, 0.001, 2760000000.0): (1.0, 6.10120713164384617574109576412372043038e-121),
        (2, 0.001, 6, 2.0, 0.426): (1.0, 1.099859887763858857204302058571410055406e-200),
        (3, 10000000.0, 0.5, 10000000.0, 6690000000.0): (1.0, 7.871319946016451780916579107997849429414e-291),
        (6, 0.001, 1, 0.001, 0.00451): (2.99550426474064254710105480570377851514e-1, 7.00449573525935745289894519429622148486e-1),
        (1, 0.1, 2, 0.001, 9.98e-07): (9.999910000467063654793344750336072567131e-6, 9.999900000899995329363452066552496639274e-1),
        (2, 0.001, 3.3, 2.0, 1.68e-19): (1.001387519999998523625060792016452034645e-30, 9.9999999999999999999999999999899861248e-1),
        (3, 0.001, 6, 0.001, 1.81e-53): (1.006204246293162494196150054424369782706e-150, 1.0),
        (6, 31.6, 0.5, 2.0, 8.58e-48): (1.001263022000489844878611396815809957409e-290, 9.999999999999999999999999999999999999542e-1),
        (1, 1.0, 1, 0.5, 0.639): (5.999848577482321607719646384426530726962e-1, 4.000151422517678392280353615573469273038e-1),
        (2, 0.1, 2, 1000.0, 0.000637): (9.499670820071948766542945182636242073167e-1, 5.003291799280512334570548173637579268327e-2),
        (3, 31.6, 3.3, 10000000.0, 0.00175): (9.999999900033767392390889738354229578796e-1, 9.996623260760911026164577042120363262748e-9),
        (6, 31.6, 6, 2.0, 2500.0): (9.999999999999999999999999999999999999999e-1, 1.067876330389633944369047326316188238596e-40),
        (1, 1000.0, 0.5, 10000000.0, 265000.0): (1.0, 1.586132115197585320234455925293307823516e-120),
        (2, 31.6, 1, 2.0, 14500.0): (1.0, 2.628385160623139932290275425890823473868e-200),
    }

    @pytest.mark.parametrize("case", REFERENCE, ids=lambda c: "-".join(map(str, c)))
    def test_tails_match_reference(self, case):
        m1, th1, m2, th2, z = case
        fz, s = an.ratio_tails(z, an.RatioParams(m1, th1, m2, th2))
        ref_fz, ref_s = self.REFERENCE[case]
        assert fz == pytest.approx(ref_fz, rel=sf.REL_TOL, abs=0.0)
        assert s == pytest.approx(ref_s, rel=sf.REL_TOL, abs=0.0)
        if min(ref_fz, ref_s) > 1e-3:
            assert abs(fz + s - 1.0) <= 4 * math.ulp(1.0)

    def test_threshold_past_the_float_range(self):
        # z/theta1 overflows a float: Z <= z for certain
        assert an.ratio_tails(1e308, an.RatioParams(2, 1e-3, 2, 1.0)) == (1.0, 0.0)
        assert an.ratio_tails(1e308, an.RatioParams(2.5, 1e-3, 2, 1.0)) == (1.0, 0.0)

    def test_threshold_whose_ratio_underflows(self):
        # c = z/theta1 underflows to 0: P(N1 = a) takes its limit at c = 0,
        # and c theta2 is formed from z.  At z = 5e-324, F_Z ~ 1e-648 is 0 in
        # floats; at z = 1e-320, c theta2 ~ 1e-30 does not underflow, and the
        # reference F_Z is a 50-digit mpmath quadrature over X2 (the sums at
        # 200 digits agree to 20)
        assert an.ratio_tails(5e-324, an.RatioParams(2, 10, 2, 1)) == (0.0, 1.0)
        fz, s = an.ratio_tails(1e-320, an.RatioParams(2, 1e10, 2, 1e300))
        assert fz == pytest.approx(2.999933203467917211742522318765929970552e-60,
                                   rel=sf.REL_TOL, abs=0.0)
        assert s == pytest.approx(1.0, rel=sf.REL_TOL, abs=0.0)

    def test_slow_negative_binomial_tail_raises(self):
        # m2 = 0.01 and rho = 1 - 1e-9: s = 0.81 > 1/2, and the terms of
        # P(N2 >= 1) shrink by a factor rho each, far too slowly for MAX_TERMS
        with pytest.raises(ArithmeticError, match="did not converge"):
            an.ratio_tails(1e-3, an.RatioParams(1, 1.0, 0.01, 1e12))

    def test_only_a_real_m_sr_takes_gauss_rules(self, fig2a_cfg, fig2b_cfg, monkeypatch):
        # no first hop at integer m_sr reaches the Gauss rules or a Tricomi
        # or Whittaker kernel, through ratio_tails or any analytic entry point
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached
        for module, name in ((sf, "tricomi_u"), (sf, "whittaker_w"), (an, "_ratio_nodes")):
            monkeypatch.setattr(module, name, reached)
        shapes = itertools.product((1, 2, 3, 6), (0.5, 1, 1.5, 2, 3.3, 6))
        for (m1, m2), z in itertools.product(shapes, (0.01, 3.0, 60.0)):
            fz, s = an.ratio_tails(z, an.RatioParams(m1, 31.6, m2, 2.0))
            assert 0.0 <= s <= 1.0 and abs(fz + s - 1.0) <= 4 * math.ulp(1.0)
        real_rr = dataclasses.replace(fig2a_cfg, rr=LinkSpec(1.5, fig2a_cfg.rr.avg_power))
        for cfg in (fig2a_cfg, real_rr):
            for proto in FD_PROTOCOLS:
                assert 0.0 <= an.outage(cfg, proto, 2.0) <= 1.0
        for proto in FD_PROTOCOLS:
            assert 0.0 <= an.outage(fig2b_cfg, proto, 2.0, cognitive=True) <= 1.0
        with pytest.raises(Reached):
            an.ratio_tails(3.0, an.RatioParams(2.5, 31.6, 2, 2.0))


class TestTailIntegralIdentity:
    def test_matches_literal_whittaker_composition(self):
        # the idl block I_1 = integral_0^inf Q(m_rd, w(b+1)) f_Gamma(b; m, theta0) db
        # expands to e^(-w) sum_{j<m_rd} (w^j/j!) integral_0^inf (b+1)^j
        # b^(m-1) e^(-eta b) db / (Gamma(m) theta0^m), eta = 1/theta0 + w, and
        # integral_0^inf (t+1)^deg t^(m-1) e^(-eta t) dt equals
        # e^(eta/2) eta^(-(m+deg+1)/2) Gamma(m) W_{(deg-m+1)/2, -(m+deg)/2}(eta);
        # the shifted-polynomial route must agree with the literal W pairing
        for m_rd, m, eta in itertools.product((2, 3, 4), (1.0, 2.0, 2.5), (0.3, 1.7, 12.0)):
            w, theta0 = eta / 2, 2 / eta
            literal = math.exp(-w) / theta0 ** m * math.fsum(
                w ** j / math.factorial(j)
                * math.exp(eta / 2) * eta ** (-(m + j + 1) / 2)
                * sf.whittaker_w((j - m + 1) / 2, -(m + j) / 2, eta)
                for j in range(m_rd))
            got = an._ln_blocks(1, m_rd, 1.0 / w, 1.0, m, theta0, math.inf)[1]
            assert got == pytest.approx(math.log(literal), rel=1e-11), (m_rd, m, eta)


class TestMomentTable:
    # _ln_moments builds each finite-upper table from one incomplete-Gamma
    # evaluation and the recurrence P(a, x) = P(a+1, x) + x^a e^-x / Gamma(a+1)
    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.5, 4.0])
    def test_recurrence_matches_per_entry_values(self, shape):
        import mpmath as mp
        count, upper = 201, 3.0
        for rate in (1e-3, 0.25, 5.0, 30.0, 50.0, 84.0, 200.0):
            table = an._ln_moments(count, shape, rate, upper)
            w = rate * upper
            for r, ln_m in enumerate(table):
                a = r + shape
                p = sf.reg_lower_gamma(a, w)
                if p < 1e-300:
                    continue
                entry = math.lgamma(a) - a * math.log(rate) + math.log(p)
                tol = sf.GAMMA_REL_TOL if p > 1e-30 else sf.GAMMA_DEEP_REL_TOL
                assert abs(ln_m - entry) <= 2 * tol, (rate, r)
            # and the exact moment gamma(a, w) / rate^a, entries whose P
            # underflows included; ln Gamma(a) - a ln rate is rounded at
            # its own size, so the bound scales with |ln moment|
            with mp.workdps(40):
                for r in range(0, count, 25):
                    a = r + shape
                    ref = float(mp.log(mp.gammainc(a, 0, w)) - a * mp.log(rate))
                    assert abs(table[r] - ref) <= sf.GAMMA_REL_TOL * max(1.0, abs(ref)), (rate, r)

    def test_infinite_upper_is_complete_gamma(self):
        table = an._ln_moments(5, 2.5, 0.5, math.inf)
        assert table == [math.lgamma(r + 2.5) - (r + 2.5) * math.log(0.5) for r in range(5)]


class TestShiftedBlocks:
    # I_k = integral_0^U Q(m, w(b+1))^k f_Gamma(b; shape, theta0) db, the idl
    # (U = inf) and idl_dt (U = x) blocks, against 40-digit quadrature of
    # the integrand in log form: scaled by its peak, and split there and
    # where it has fallen by e^-30, so that no segment hides its mass

    @staticmethod
    def ln_integrand(k, m, w, shape, theta0):
        """The log of the integrand without its constant factor, in
        floats; concave for shape >= 1."""
        def g(b):
            y = w * (b + 1.0)
            ln_q = -y + math.log(math.fsum(y ** j / math.factorial(j) for j in range(m)))
            return k * ln_q + (shape - 1.0) * math.log(b) - b / theta0 if b > 0 else -math.inf
        return g

    @classmethod
    def reference(cls, k, m, theta, x, shape, theta0, upper):
        import mpmath as mp
        g = cls.ln_integrand(k, m, x / theta, shape, theta0)
        end = upper if upper < math.inf else 1e6 * theta0
        lo, hi = 0.0, end
        for _ in range(200):   # golden-section search for the peak
            a, c = lo + 0.382 * (hi - lo), lo + 0.618 * (hi - lo)
            lo, hi = (a, hi) if g(a) < g(c) else (lo, c)
        peak = 0.5 * (lo + hi)
        top = g(peak if peak > 0 else math.ulp(0.0))
        cuts = {0.0, peak}
        for side in (0.0, end):
            if g(side) < top - 30.0:
                a, b = peak, side
                for _ in range(100):
                    mid = 0.5 * (a + b)
                    a, b = (mid, b) if g(mid) >= top - 30.0 else (a, mid)
                cuts.add(a)
        with mp.workdps(40):
            inv_fact = [1 / mp.factorial(j) for j in range(m)][::-1]
            w, rate = mp.mpf(x) / theta, 1 / mp.mpf(theta0)
            shift = -mp.loggamma(shape) - shape * mp.log(theta0) - top

            def f(b):
                y = w * (b + 1)
                poly = mp.mpf(0)
                for c in inv_fact:
                    poly = poly * y + c
                e = -k * y - b * rate + shift
                if shape != 1:
                    e += (shape - 1) * mp.log(b)
                return poly ** k * mp.exp(e)
            points = [mp.mpf(c) for c in sorted(cuts) if c < end]
            return float(top + mp.log(mp.quad(f, points + [mp.mpf(upper)])))

    @pytest.mark.parametrize("m", range(1, 7))
    def test_against_mpmath_quadrature(self, m):
        x, theta0 = 3.0, 3.16
        shape = (1.0, 2.5)[m % 2]
        checked = 0
        for theta in (0.05, 1.0, 1e4):
            for upper in (math.inf, x):
                got = an._ln_blocks(64, m, theta, x, shape, theta0, upper)
                for k in (1, 6, 64):
                    if got[k] < math.log(1e-300):
                        continue
                    ref = self.reference(k, m, theta, x, shape, theta0, upper)
                    assert abs(got[k] - ref) <= 1e-13 * max(1.0, abs(ref)), (theta, upper, k)
                    checked += 1
        assert checked >= 14

    def test_blocks_do_not_depend_on_count(self):
        # block k is the same whether a call stops at k or goes further
        full = an._ln_blocks(40, 4, 0.7, 3.0, 2.0, 3.16, 3.0)
        assert [an._ln_blocks(k, 4, 0.7, 3.0, 2.0, 3.16, 3.0)[k]
                for k in range(41)] == full


class TestConvolvedIntegral:
    # J_d = integral_0^U (U-t)^d t^(s-1) e^(-rho t) dt
    #     = U^(d+s) B(s, d+1) M(s, d+s+1, -rho U), the inner integral of the
    # paper's sdf and feasibility sums (tests/paper_closed_form.py), on both
    # sides of the signed-sum cap |rho U| = 30
    def test_against_mpmath_kummer(self):
        import mpmath as mp
        upper = 2.0
        with mp.workdps(40):
            for s in (0.5, 1.0, 2.0, 2.5, 4.0, 6.0):
                for mag in (0.0, 1e-10, 5.0, 29.0, 31.0, 45.0, 100.0, 500.0):
                    for w in (mag, -mag):
                        got = paper.ln_conv_integrals(61, s, w / upper, upper)
                        for d, ln_j in enumerate(got):
                            ref = ((d + s) * mp.log(upper) + mp.log(mp.beta(s, d + 1))
                                   + mp.log(mp.hyp1f1(s, d + s + 1, -w)))
                            assert abs(ln_j - float(ref)) <= 1e-10, (d, s, w)

    def test_alternating_sums_within_rel_tol(self):
        # the same grid: a signed sum is kept only when each term's log
        # error times its condition number stays within specfun.REL_TOL
        import mpmath as mp
        upper = 2.0
        worst = 0.0
        with mp.workdps(40):
            for s in (0.5, 1.0, 2.0, 2.5, 4.0, 6.0):
                for mag in (0.0, 1e-10, 5.0, 29.0, 31.0, 45.0, 100.0, 500.0):
                    for w in (mag, -mag):
                        got = paper.ln_conv_integrals(61, s, w / upper, upper)
                        for d, ln_j in enumerate(got):
                            ref = ((d + s) * mp.log(upper) + mp.log(mp.beta(s, d + 1))
                                   + mp.log(mp.hyp1f1(s, d + s + 1, -w)))
                            worst = max(worst, abs(ln_j - float(ref)))
        assert worst <= 5e-12

    def test_block_against_mpmath_quadrature(self):
        # m = 6 and shape 6 up to k = 12: every block has rho U between 48
        # and 120, where the binomial sums of the high degrees cancel; at
        # m = 2 and 4, k = 16 (rho U = 24) and k = 32 (rho U = -72) take
        # powers far along the chain.  The integrand is divided by the
        # closed form, as mpmath's error target is absolute
        import mpmath as mp
        theta, x, shape, theta0 = 1.0, 6.0, 6.0, 0.05
        for m, ks in ((6, range(13)), (2, (16, 32)), (4, (16, 32))):
            got = paper.convolved_blocks(max(ks), m, theta, x, shape, theta0)
            with mp.workdps(30):
                for k in ks:
                    def integrand(b):
                        q = mp.gammainc(m, (x - b) / theta, mp.inf, regularized=True)
                        return (q ** k * b ** (shape - 1) * mp.exp(-b / theta0 - got[k])
                                / (mp.gamma(shape) * theta0 ** shape))
                    ref = mp.quad(integrand, [0, 0.1, 0.3, 0.6, 1, 2, 3, 4, 5, x])
                    assert abs(float(mp.log(ref))) <= 1e-11, (m, k)


class TestNdlCdf:
    def test_zero(self, fig2a_cfg):
        assert an.cdf_conditional(0.0, fig2a_cfg, Protocol.NDL, 3) == 0.0

    def test_product_form(self, fig2a_cfg):
        for x in (0.3, 3.0, 12.0):
            single = an.cdf_conditional(x, fig2a_cfg, Protocol.NDL, 1)
            for relays in (2, 3, 5):
                assert an.cdf_conditional(x, fig2a_cfg, Protocol.NDL,
                                          relays) == pytest.approx(single ** relays, rel=1e-12)

    def test_rayleigh_value(self):
        # all m=1, P=10, pi_sr=pi_rd=10, pi_rr=1, lambda=1, x=3, 2 relays
        cfg = rayleigh_cfg()
        expect = (1 - math.exp(-0.06) / 1.3) ** 2
        assert an.cdf_conditional(3.0, cfg, Protocol.NDL, 2) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.075936, abs=5e-7)

    def test_quadrature(self, fig2a_cfg):
        for x in X_GRID:
            assert abs(an.cdf_conditional(float(x), fig2a_cfg, Protocol.NDL, 3)
                       - an.cdf_ndl_quad(float(x), fig2a_cfg, 3)) <= 1e-8

    def test_ignores_direct_link_presence(self, fig2a_cfg):
        stripped = dataclasses.replace(fig2a_cfg, sd=None)
        assert (an.cdf_conditional(3.0, fig2a_cfg, Protocol.NDL, 3)
                == an.cdf_conditional(3.0, stripped, Protocol.NDL, 3))

    def test_integrality_enforced(self, fig2b_cfg):
        # the cap's feasibility probabilities still need an integer m_rp
        bad = dataclasses.replace(fig2b_cfg, rp=LinkSpec(1.5, fig2b_cfg.rp.avg_power))
        with pytest.raises(ConfigError, match="m_rp"):
            an.cdf_conditional(1.0, bad, Protocol.NDL, 3)


class TestDirectLinkCdfs:
    def test_zero(self, fig2a_cfg):
        for proto in (Protocol.IDL, Protocol.IDL_DT, Protocol.SDF):
            assert an.cdf_conditional(0.0, fig2a_cfg, proto, 3) == 0.0

    def test_idl_rayleigh_value(self):
        cfg = rayleigh_cfg(k=1, pi_sd=1.0)
        expect = 1 - (math.exp(-0.06) / 1.3) / 1.3
        assert an.cdf_conditional(3.0, cfg, Protocol.IDL, 1) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.442742, abs=1e-6)

    @pytest.mark.parametrize("proto,quad", [
        (Protocol.IDL, an.cdf_idl_quad),
        (Protocol.IDL_DT, an.cdf_idl_dt_quad),
        (Protocol.SDF, an.cdf_sdf_quad),
    ])
    def test_quadrature_20_points(self, fig2a_cfg, proto, quad):
        for x in X_GRID:
            assert abs(an.cdf_conditional(float(x), fig2a_cfg, proto, 3)
                       - quad(float(x), fig2a_cfg, 3)) <= 1e-8

    @pytest.mark.parametrize("m_sd", [0.5, 1.5, 2.5, 3.7])
    def test_real_direct_link_shape_against_quadrature(self, fig2a_cfg, fig3_cfg, m_sd):
        # both inner integrals take any direct-link shape
        for base in (fig2a_cfg, fig3_cfg):
            cfg = dataclasses.replace(base, sd=LinkSpec(m_sd, base.sd.avg_power))
            for proto, quad in ((Protocol.IDL_DT, an.cdf_idl_dt_quad),
                                (Protocol.SDF, an.cdf_sdf_quad)):
                for x in (0.5, 3.0, 255.0):
                    for relays in (1, 3, 8):
                        assert abs(an.cdf_conditional(x, cfg, proto, relays)
                                   - quad(x, cfg, relays)) <= 1e-9, (proto, x, relays)

    def test_dominance_ordering(self, fig2a_cfg):
        # pointwise SINR dominance: selective >= hybrid >= interference-only
        for x in X_GRID:
            s = an.cdf_conditional(float(x), fig2a_cfg, Protocol.SDF, 3)
            h = an.cdf_conditional(float(x), fig2a_cfg, Protocol.IDL_DT, 3)
            i = an.cdf_conditional(float(x), fig2a_cfg, Protocol.IDL, 3)
            assert s <= h + 1e-12 and h <= i + 1e-12

    def test_vanishing_direct_link_reduces_to_ndl(self, fig2a_cfg):
        tiny = dataclasses.replace(fig2a_cfg, sd=LinkSpec(2, 1e-8))
        for x in (0.5, 3.0, 20.0):
            ndl = an.cdf_conditional(x, fig2a_cfg, Protocol.NDL, 3)
            assert an.cdf_conditional(x, tiny, Protocol.IDL, 3) == pytest.approx(ndl, abs=1e-5)
            assert an.cdf_conditional(x, tiny, Protocol.SDF, 3) == pytest.approx(ndl, abs=1e-5)

    def test_sublinear_rsi_against_quadrature(self, fig2a_cfg):
        # lambda = 0 with a -30 dB RSI link: RSI scale 5e-4, where the
        # first hop's tails differ from the RSI-free ones by O(5e-4)
        cfg = dataclasses.replace(fig2a_cfg, rsi_lambda=0.0,
                                  rr=LinkSpec(fig2a_cfg.rr.m, dB(-30.0)))
        assert cfg.rsi_scale == pytest.approx(5e-4)
        for proto, quad in ((Protocol.NDL, an.cdf_ndl_quad),
                            (Protocol.IDL, an.cdf_idl_quad),
                            (Protocol.IDL_DT, an.cdf_idl_dt_quad),
                            (Protocol.SDF, an.cdf_sdf_quad)):
            assert abs(an.cdf_conditional(3.0, cfg, proto, 3)
                       - quad(3.0, cfg, 3)) <= 1e-8, proto

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("x", [3.0, 15.0])
    def test_oracle_raises_when_unresolved(self, fig2a_cfg, x):
        # a 50 dB mean direct-link SNR: integrated in units of that mean, the
        # oracle resolves the (0, inf) integral to the closed form's 0.951139
        # at x = 3 and 0.998385 at x = 15
        cfg = dataclasses.replace(fig2a_cfg, sd=LinkSpec(2, dB(20.0)),
                                  p_s=dB(30.0), p_r=dB(30.0))
        assert abs(an.cdf_conditional(x, cfg, Protocol.IDL, 3)
                   - an.cdf_idl_quad(x, cfg, 3)) <= 1e-8
        # an integral quad still cannot resolve raises rather than answer:
        # it estimates -1.05 +- 0.2 where the value is pi/2 - Si(1) = 0.6247
        with pytest.raises(ArithmeticError, match="error estimate"):
            an._quad(lambda t: math.sin(1.0 / t) / t, 0.0, 1.0)

    def test_quad_acceptance_is_relative(self, monkeypatch):
        # an estimate of 1e-12 on a value of 1e-6 leaves it 1e-6 relative at
        # best, short of QUAD_TOL: a small value must raise like a large one
        from scipy import integrate
        monkeypatch.setattr(integrate, "quad", lambda *args, **kwargs: (1e-6, 1e-12))
        with pytest.raises(ArithmeticError, match="error estimate"):
            an._quad(math.exp, 0.0, 1.0)
        monkeypatch.setattr(integrate, "quad", lambda *args, **kwargs: (1e-6, 1e-17))
        assert an._quad(math.exp, 0.0, 1.0) == 1e-6

    @pytest.mark.parametrize("power_db", [40.0, 50.0, 60.0, 70.0])
    def test_oracles_at_high_power(self, fig4_cfg, power_db):
        # fig4, lambda = 1: the RSI scale and the direct-link mean grow with
        # power, so an oracle integrating in raw gains misses the density;
        # ndl tends to F_Z^3 = 0.3744^3 = 0.0525, the truncated forms fall as 1/P
        cfg = dataclasses.replace(fig4_cfg, p_s=dB(power_db), p_r=dB(power_db))
        ratio = an.first_hop_ratio_params(cfg)
        assert an.cdf_ratio_gamma_quad(3.0, ratio) == pytest.approx(
            an.cdf_ratio_gamma(3.0, ratio), rel=1e-10)
        assert an.cdf_ratio_gamma_quad(3.0, ratio) == pytest.approx(0.3744, abs=2e-4)
        limits = {Protocol.NDL: 0.0525, Protocol.IDL: 0.1613,
                  Protocol.IDL_DT: 0.1575 * 10 ** (-power_db / 10),
                  Protocol.SDF: 0.1575 * 10 ** (-power_db / 10)}
        for proto, quad in ((Protocol.NDL, an.cdf_ndl_quad), (Protocol.IDL, an.cdf_idl_quad),
                            (Protocol.IDL_DT, an.cdf_idl_dt_quad),
                            (Protocol.SDF, an.cdf_sdf_quad)):
            value = quad(3.0, cfg, 3)
            assert value == pytest.approx(an.cdf_conditional(3.0, cfg, proto, 3),
                                          rel=1e-8), proto
            assert value == pytest.approx(limits[proto], rel=2e-3), proto

    def test_sdf_tends_to_one(self, fig2a_cfg):
        assert an.cdf_conditional(1e6, fig2a_cfg, Protocol.SDF, 3) >= 1 - 1e-6

    def test_sdf_continuous_at_decay_sign_change(self):
        # P_S theta_SD = 1, P_R theta_RD = 2: the k=2 term's decay rate
        # crosses zero; the closed form must match quadrature through it
        cfg = NetworkConfig(k=3, p_s=1, p_r=1, rsi_lambda=1,
                            sr=LinkSpec(1, 8.0), rd=LinkSpec(1, 2.0),
                            rr=LinkSpec(1, 0.5), sd=LinkSpec(1, 1.0))
        for x in (0.5, 2.0, 6.0):
            assert an.cdf_conditional(x, cfg, Protocol.SDF, 3) == pytest.approx(
                an.cdf_sdf_quad(x, cfg, 3), abs=1e-9)
        # nearby scenarios on both sides agree to first order
        lo = dataclasses.replace(cfg, rd=LinkSpec(1, 2.0 * (1 - 1e-7)))
        hi = dataclasses.replace(cfg, rd=LinkSpec(1, 2.0 * (1 + 1e-7)))
        assert an.cdf_conditional(2.0, lo, Protocol.SDF, 3) == pytest.approx(
            an.cdf_conditional(2.0, hi, Protocol.SDF, 3), rel=1e-5)

    def test_monotone_in_threshold(self, fig2a_cfg):
        for proto in (Protocol.IDL, Protocol.IDL_DT, Protocol.SDF):
            vals = [an.cdf_conditional(float(x), fig2a_cfg, proto, 3)
                    for x in np.linspace(0.01, 60, 40)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_rsi_scaling_monotone_in_lambda(self, fig2a_cfg):
        # P_R > 1 makes the RSI scale grow with lambda, degrading every CDF
        cfg10 = dataclasses.replace(fig2a_cfg, p_s=10.0, p_r=10.0)
        for x in (0.5, 3.0, 20.0):
            for proto in (Protocol.NDL, Protocol.IDL, Protocol.IDL_DT, Protocol.SDF):
                vals = [an.cdf_conditional(x, dataclasses.replace(cfg10, rsi_lambda=lam),
                                           proto, 3)
                        for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:])), proto


class TestRelayCountGrid:
    # fig3 at relay counts and shapes beyond the reference K=3, at the
    # rates 2..4 bpcu, where the alternating sums keep their digits
    @pytest.mark.parametrize("m_rd", [1, 2, 4])
    @pytest.mark.parametrize("relays", [8, 12, 16])
    def test_quadrature(self, fig3_cfg, relays, m_rd):
        cfg = dataclasses.replace(fig3_cfg, rd=LinkSpec(m_rd, fig3_cfg.rd.avg_power))
        for proto, quad in ((Protocol.IDL, an.cdf_idl_quad),
                            (Protocol.IDL_DT, an.cdf_idl_dt_quad),
                            (Protocol.SDF, an.cdf_sdf_quad)):
            for rate in (2.0, 3.0, 4.0):
                x = 2.0 ** rate - 1.0
                assert abs(an.cdf_conditional(x, cfg, proto, relays)
                           - quad(x, cfg, relays)) <= 1e-8, (proto, rate)


class TestRayleighReduction:
    # all shapes 1: the general Nakagami forms must collapse to the
    # elementary expressions within 1e-10 across the power grid
    PIS = dict(pi_sr=10.0, pi_rd=10.0, pi_rr=2.0, pi_sd=1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_over_power_grid(self, lam):
        x = 3.0
        for p_db in np.linspace(0, 50, 50):
            p = dB(float(p_db))
            cfg = rayleigh_cfg(k=3, p=p, lam=lam, **self.PIS)
            assert abs(an.cdf_conditional(x, cfg, Protocol.NDL, 3) - ray.outage_ndl(
                p, x, 3, lam, self.PIS["pi_sr"], self.PIS["pi_rd"],
                self.PIS["pi_rr"])) <= 1e-10
            assert abs(an.cdf_conditional(x, cfg, Protocol.IDL, 3)
                       - ray.outage_idl(p, x, 3, lam, **self.PIS)) <= 1e-10
            assert abs(an.cdf_conditional(x, cfg, Protocol.IDL_DT, 3)
                       - ray.outage_idl_dt(p, x, 3, lam, **self.PIS)) <= 1e-10
            assert abs(an.cdf_conditional(x, cfg, Protocol.SDF, 3)
                       - ray.outage_sdf(p, x, 3, lam, **self.PIS)) <= 1e-10


QUAD = {Protocol.IDL: an.cdf_idl_quad, Protocol.IDL_DT: an.cdf_idl_dt_quad,
        Protocol.SDF: an.cdf_sdf_quad}


def with_m_rd(cfg, m):
    return dataclasses.replace(cfg, rd=LinkSpec(m, cfg.rd.avg_power))


def matches_oracle_or_raises(x, cfg, proto, relays):
    try:
        value = an.cdf_conditional(x, cfg, proto, relays)
    except ArithmeticError:
        return
    assert value == pytest.approx(QUAD[proto](x, cfg, relays), rel=1e-10, abs=1e-300)


class TestRouting:
    """Each F(x | L) and p[n] is the closed form where its condition
    number allows, the positive route where that converges, or raises."""

    @pytest.mark.parametrize("scenario,proto,relays", [
        ("fig2a", Protocol.SDF, 16), ("fig2a", Protocol.SDF, 20),
        ("fig2a", Protocol.IDL_DT, 40), ("fig2a", Protocol.IDL, 64),
        ("fig3 m_rd=4", Protocol.SDF, 16), ("fig3 m_rd=4", Protocol.IDL, 64),
        ("fig3 m_rd=4", Protocol.IDL_DT, 64),
        ("fig4 0 40", Protocol.IDL_DT, 3), ("fig4 0 50", Protocol.IDL_DT, 3),
        ("fig4 0 50", Protocol.SDF, 3), ("fig4 0 60", Protocol.IDL_DT, 3),
        ("fig4 0 60", Protocol.SDF, 3), ("fig4 0.5 60", Protocol.SDF, 3),
    ])
    def test_ill_conditioned_rows(self, fig2a_cfg, fig3_cfg, fig4_cfg, scenario, proto,
                                  relays):
        # x = 3 where the alternating sums lost every digit, or returned 0 or
        # 1 where quadrature gives 1e-41 .. 1e-5; fig4 as "fig4 lambda power_db"
        if scenario.startswith("fig4"):
            _, lam, power_db = scenario.split()
            cfg = dataclasses.replace(fig4_cfg, rsi_lambda=float(lam),
                                      p_s=dB(float(power_db)), p_r=dB(float(power_db)))
        else:
            cfg = fig2a_cfg if scenario == "fig2a" else with_m_rd(fig3_cfg, 4)
        matches_oracle_or_raises(3.0, cfg, proto, relays)

    @pytest.mark.parametrize("k", [19, 32, 64])
    def test_feasibility_at_large_relay_counts(self, fig2b_cfg, k):
        cfg = dataclasses.replace(fig2b_cfg, k=k)
        f, fq = an.feasibility_dist(cfg), an.feasibility_dist_quad(cfg)
        assert math.fsum(f.p) == pytest.approx(1.0, abs=1e-12)
        for p, q in zip(f.p, fq.p):
            assert p == pytest.approx(q, rel=1e-10, abs=1e-300)

    def test_feasibility_of_the_relay_sweep(self, fig3_cfg):
        # the analytic-relay-sweep scenario at K = 16, whose cap sums
        # have condition numbers up to 4.7e6
        cfg = dataclasses.replace(fig3_cfg, k=16, rp=LinkSpec(2, fig3_cfg.rp.avg_power))
        f, fq = an.feasibility_dist(cfg), an.feasibility_dist_quad(cfg)
        for p, q in zip(f.p, fq.p):
            assert p == pytest.approx(q, rel=1e-10, abs=0.0)
        assert f.p_tilde0 == pytest.approx(fq.p_tilde0, rel=1e-10, abs=0.0)

    def test_closed_form_where_kappa_allows(self, fig2a_cfg, monkeypatch):
        # K = 3 at 6 bpcu: the bound ((1 + s) / (1 - s))^L on kappa is
        # near 1, so idl and idl_dt build no Gauss rule; sdf, positive at
        # every L, builds them there, and idl at 1 bpcu
        built = []
        monkeypatch.setattr(an, "_direct_link_nodes", lambda *args: built.append(args))
        for proto in (Protocol.IDL, Protocol.IDL_DT):
            an.cdf_conditional(63.0, fig2a_cfg, proto, 3)
        assert not built
        for x, proto in ((63.0, Protocol.SDF), (1.0, Protocol.IDL)):
            with pytest.raises(TypeError):   # the stand-in returns no rules
                an.cdf_conditional(x, fig2a_cfg, proto, 3)
        assert len(built) == 2

    @pytest.mark.parametrize("scenario,m_rd,power_db,x,proto,relays", [
        ("fig3", 2, 10.0, 7.0, Protocol.IDL, 3), ("fig4", 4, 0.0, 3.0, Protocol.IDL_DT, 3),
        ("fig2a", 4, 0.0, 15.0, Protocol.SDF, 4),
    ])
    def test_closed_form_near_the_kappa_limit(self, fig2a_cfg, fig3_cfg, fig4_cfg, monkeypatch,
                                              scenario, m_rd, power_db, x, proto, relays):
        # entries whose closed form has kappa just under the limit, but
        # whose a-priori bound on kappa fails, take the positive route: no
        # block of theirs is evaluated, and they are within REL_TOL of a
        # 30-digit quadrature of the same integral (1 - s Q)^L f_sd, with
        # the same s
        import mpmath as mp
        base = {"fig2a": fig2a_cfg, "fig3": fig3_cfg, "fig4": fig4_cfg}[scenario]
        cfg = dataclasses.replace(with_m_rd(base, m_rd), p_s=dB(power_db), p_r=dB(power_db))
        s, closed = paper.direct_link(x, cfg, proto, relays)
        assert 9.0 < closed[relays][1] <= an._KAPPA_MAX and not paper.bound_holds(s, relays)
        counts = []
        real = an._ln_blocks
        monkeypatch.setattr(an, "_ln_blocks", lambda count, *args: counts.append(count)
                            or real(count, *args))
        got = an.cdf_conditional(x, cfg, proto, relays)
        assert max(counts, default=0) < relays
        th_rd, m_sd, th_sd = cfg.p_r * cfg.rd.theta, cfg.sd.m, cfg.p_s * cfg.sd.theta
        with mp.workdps(30):
            def integrand(t):   # t = beta / theta_sd
                y = x - th_sd * t if proto is Protocol.SDF else x * (th_sd * t + 1)
                q = mp.gammainc(m_rd, y / th_rd, mp.inf, regularized=True)
                return (1 - s * q) ** relays * t ** (m_sd - 1) * mp.exp(-t) / mp.gamma(m_sd)
            hi = mp.inf if proto is Protocol.IDL else mp.mpf(x) / th_sd
            ref = mp.quad(integrand, [0, 1, 4, 16, 64, hi] if hi == mp.inf
                          else [0, hi / 4, hi / 2, hi])
        assert got == pytest.approx(float(ref), rel=sf.REL_TOL, abs=0.0)

    def test_sdf_never_evaluates_a_block(self, fig2a_cfg, fig2b_cfg, fig3_cfg, fig4_cfg,
                                         monkeypatch):
        # every sdf F(x | L) is the positive integral: no sdf evaluation
        # reaches the blocks, or the Kummer and Beta kernels of the paper's
        # convolved form, on any shipped config, at rates 0.5..10 and L up
        # to 24; idl still sums blocks where kappa allows
        class Reached(Exception):
            pass

        def reached(*args):
            raise Reached
        for module, name in ((an, "_ln_blocks"), (sf, "ln_kummer_m"), (sf, "ln_beta")):
            monkeypatch.setattr(module, name, reached)
        for cfg in (fig2a_cfg, fig2b_cfg, fig3_cfg, fig4_cfg):
            for rate in np.arange(0.5, 10.25, 0.5):
                assert 0.0 <= an.outage(cfg, Protocol.SDF, rate, cfg.is_cognitive) <= 1.0
                x = an.outage_threshold(Protocol.SDF, rate)
                assert all(0.0 <= v <= 1.0 for v in an._conditional_cdfs(x, cfg, Protocol.SDF, 24))
        with pytest.raises(Reached):
            an.outage(fig2b_cfg, Protocol.IDL, 6.0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(scenario=st.sampled_from(["fig2a", "fig3", "fig4"]), m_rd=st.integers(1, 4),
           power_db=st.floats(-5.0, 30.0), x=st.floats(1.0, 16.0),
           relays=st.integers(1, 24), proto=st.sampled_from(sorted(QUAD, key=str)))
    def test_value_matches_oracle_or_raises(self, fig2a_cfg, fig3_cfg, fig4_cfg, scenario,
                                            m_rd, power_db, x, relays, proto):
        base = {"fig2a": fig2a_cfg, "fig3": fig3_cfg, "fig4": fig4_cfg}[scenario]
        cfg = dataclasses.replace(with_m_rd(base, m_rd), p_s=dB(power_db), p_r=dB(power_db))
        matches_oracle_or_raises(x, cfg, proto, relays)


class TestRouteByBound:
    """An idl or idl_dt F(x | L) is the closed form iff the a-priori bound
    ((1 + s) / (1 - s))^L <= _KAPPA_MAX holds; every sdf F(x | L) and every
    p[n] is the positive integral, and the paper's closed forms stay within
    2 REL_TOL of the production values wherever their own kappa allows."""

    @pytest.mark.parametrize("x", [0.3, 3.0, 15.0, 63.0])
    @pytest.mark.parametrize("proto", sorted(QUAD, key=str))
    def test_closed_form_iff_bound_holds(self, fig3_cfg, monkeypatch, proto, x):
        cfg, relays = with_m_rd(fig3_cfg, 2), 24
        positive = []
        real = an._positive
        monkeypatch.setattr(an, "_positive", lambda rules, exps: positive.append(exps[1])
                            or real(rules, exps))
        an._conditional_cdfs(x, cfg, proto, relays)
        s = an.ratio_tails(x, an.first_hop_ratio_params(cfg))[1]
        assert positive == [n for n in range(1, relays + 1)
                            if not paper.closed_in_production(s, n, proto)]

    def test_feasibility_takes_no_block(self, fig2b_cfg, fig3_cfg, monkeypatch):
        sweep_cfg = dataclasses.replace(fig3_cfg, k=16, rp=LinkSpec(2, fig3_cfg.rp.avg_power))
        monkeypatch.setattr(an, "_ln_blocks", None)
        for cfg in (fig2b_cfg, sweep_cfg, dataclasses.replace(fig2b_cfg, k=64)):
            assert math.fsum(an.feasibility_dist(cfg).p) == pytest.approx(1.0, abs=1e-12)

    @staticmethod
    def check_against_closed_form(points, entries):
        """The number of sampled entries the bound moved off a closed form
        whose own kappa keeps REL_TOL; asserts every such entry's value."""
        moved = 0
        for point in points:
            for index, got, ref, kappa, bound in entries(point):
                if kappa <= an._KAPPA_MAX:
                    assert got == pytest.approx(ref, rel=2 * sf.REL_TOL, abs=0.0), (point, index)
                    moved += not bound
        return moved

    def test_direct_link_matches_paper_closed_form(self):
        points = random.Random(25).sample(route_audit.direct_link_points(), 120)
        assert self.check_against_closed_form(points, route_audit.direct_link_entries) > 100

    def test_feasibility_matches_paper_closed_form(self):
        points = random.Random(25).sample(route_audit.feasibility_points(), 60)
        assert self.check_against_closed_form(points, route_audit.feasibility_entries) > 10


class TestBlockCut:
    """A closed entry F(x | L) sums its blocks only up to the first k with
    (L s)^k / k! < ulp(1) / (2 _KAPPA_MAX): never more than 20 blocks,
    whatever L is, and exact to rounding."""

    def test_at_most_twenty_blocks_where_the_bound_holds(self):
        for s in (1e-300, 1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.9):
            admitted = [n for n in range(1, 4000) if paper.bound_holds(s, n)]
            assert max((an._cut(n, s) for n in admitted), default=0) <= 20, s
        assert an._cut(0, 0.5) == an._cut(7, 0.0) == 1
        assert an._cut(3, 0.5) == 4

    @pytest.mark.parametrize("proto", sorted(QUAD, key=str))
    def test_large_relay_count(self, fig2a_cfg, monkeypatch, proto):
        # fig2a at 8 bpcu with K = 1000: every entry is closed, and each
        # asks for a handful of blocks instead of K + 1
        cfg = dataclasses.replace(fig2a_cfg, k=1000)
        real = an._ln_blocks

        def capped(count, *args):
            assert count <= 21
            return real(count, *args)
        monkeypatch.setattr(an, "_ln_blocks", capped)
        got = an.outage(cfg, proto, 8.0)
        x = an.outage_threshold(proto, 8.0)
        assert abs(got - QUAD[proto](x, cfg, cfg.k)) <= 1e-10
        positive = an._positive(an._direct_link_nodes(x, cfg, proto), (0, cfg.k))
        assert got == pytest.approx(positive, rel=sf.REL_TOL, abs=0.0)


class TestDirectLinkOracleLooseEnd:
    """Where g^L carries the mass far into the direct-link density's tail
    (idl, L = 16 and 64), or where that density is singular at 0 (sdf
    with m_sd = 1/2), `cdf_idl_quad` and `cdf_sdf_quad` once returned
    values off by up to four orders of magnitude and raised nothing.  They
    now scale the integrand by its peak, break the range around it and
    take v = sqrt(t) for m_sd < 1; each must match the reference or
    raise.  The references are F(0.5 | L) to 40 digits, from this mpmath
    snippet (50 and 70 digits agree to 42):

        from mpmath import mp, mpf, gammainc, gamma, exp, quad, inf, linspace
        mp.dps = 50

        def reference(cfg, sdf, x, relays):
            x = mpf(x)
            th = lambda link, p: mpf(p) * mpf(link.avg_power) / link.m
            m1, th1, m2, th2 = cfg.sr.m, th(cfg.sr, cfg.p_s), cfg.rr.m, th(cfg.rr, cfg.p_r)
            m_rd, th_rd = cfg.rd.m, th(cfg.rd, cfg.p_r)
            m_sd, th_sd = cfg.sd.m, th(cfg.sd, cfg.p_s)
            Q = lambda a, y: gammainc(a, y, inf, regularized=True)
            pdf = lambda b, m, t: b ** (m - 1) * exp(-b / t) / (gamma(m) * t ** m)
            s = quad(lambda u: Q(m1, x * (th2 * u + 1) / th1) * pdf(u, m2, 1),
                     [0, 1, 4, 16, 64, inf])
            if sdf:   # b = u^2 takes out the density's b^(-1/2) at m_sd = 1/2
                g = lambda u: ((1 - s * Q(m_rd, (x - u * u) / th_rd)) ** relays
                               * 2 * u * pdf(u * u, m_sd, th_sd))
                return quad(g, linspace(0, x ** 0.5, 33))
            g = lambda b: (1 - s * Q(m_rd, x * (b + 1) / th_rd)) ** relays * pdf(b, m_sd, th_sd)
            return quad(g, [0] + [mpf(2) ** j for j in range(-6, 12)] + [inf])

    with cfg fig2a (its m_sd set to 0.5 for sdf); rsi_lambda = 1 there.
    """

    # (protocol, m_sd, L): F(0.5 | L) on fig2a
    REFERENCE = {
        (Protocol.IDL, 2.0, 16): 6.112673172630474330118971560291937296959e-16,
        (Protocol.IDL, 2.0, 64): 9.885963048595713985924904348103360816001e-29,
        (Protocol.SDF, 0.5, 8): 1.870917717027202868162169528383644570971e-19,
    }

    @staticmethod
    def scenario(fig2a_cfg, m_sd):
        return dataclasses.replace(fig2a_cfg, sd=LinkSpec(m_sd, fig2a_cfg.sd.avg_power))

    @pytest.mark.parametrize("case", REFERENCE, ids=lambda c: f"{c[0].value}-m_sd{c[1]}-L{c[2]}")
    def test_production_route_matches_reference(self, fig2a_cfg, case):
        proto, m_sd, relays = case
        got = an.cdf_conditional(0.5, self.scenario(fig2a_cfg, m_sd), proto, relays)
        assert got == pytest.approx(self.REFERENCE[case], rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("case", REFERENCE, ids=lambda c: f"{c[0].value}-m_sd{c[1]}-L{c[2]}")
    def test_oracle_matches_reference_or_raises(self, fig2a_cfg, case):
        proto, m_sd, relays = case
        try:
            got = QUAD[proto](0.5, self.scenario(fig2a_cfg, m_sd), relays)
        except ArithmeticError:
            return
        assert got == pytest.approx(self.REFERENCE[case], rel=10 * an.QUAD_TOL, abs=0.0)


class TestFeasibility:
    def test_erlang_single_relay(self):
        # unit-mean source and relay interference, cap 2:
        # P(feasible) = P(Exp + Exp <= 2) = 1 - 3 e^-2
        cfg = NetworkConfig(k=1, p_s=1, p_r=1, rsi_lambda=1,
                            sr=LinkSpec(1, 1), rd=LinkSpec(1, 1), rr=LinkSpec(1, 1),
                            sd=LinkSpec(1, 1), sp=LinkSpec(1, 1), rp=LinkSpec(1, 1),
                            i_th=2.0)
        f = an.feasibility_dist(cfg)
        assert f.p[1] == pytest.approx(1 - 3 * math.exp(-2), abs=1e-10)

    def test_sums_to_one(self, fig2b_cfg):
        f = an.feasibility_dist(fig2b_cfg)
        assert abs(math.fsum(f.p) - 1.0) <= 1e-9
        assert 0.0 <= f.p_tilde0 <= f.p[0]

    def test_quadrature_agreement(self, fig2b_cfg):
        f = an.feasibility_dist(fig2b_cfg)
        fq = an.feasibility_dist_quad(fig2b_cfg)
        assert max(abs(a - b) for a, b in zip(f.p, fq.p)) <= 1e-9
        assert abs(f.p_tilde0 - fq.p_tilde0) <= 1e-9

    @pytest.mark.parametrize("power_db", [-60.0, -20.0, 20.0, 60.0])
    def test_quadrature_agreement_across_power(self, fig2b_cfg, power_db):
        # at -60 dB the source interference's density sits within 1e-6 of 0
        # on an interval that reaches out to the cap
        for i_th_db in (3.0, 40.0):
            cfg = dataclasses.replace(fig2b_cfg, p_s=dB(power_db), p_r=dB(power_db),
                                      i_th=dB(i_th_db))
            f, fq = an.feasibility_dist(cfg), an.feasibility_dist_quad(cfg)
            assert max(abs(a - b) for a, b in zip(f.p, fq.p)) <= 1e-9, i_th_db
            assert abs(f.p_tilde0 - fq.p_tilde0) <= 1e-9, i_th_db

    def test_oracle_keeps_tiny_probabilities(self, fig2b_cfg):
        # at -20 dB two relays meet the cap only with odds 2.15e-68, far
        # below the rounding of 1 - P(violation); the oracle takes the
        # relays' violation odds from Q, so it keeps those digits
        cfg = dataclasses.replace(fig2b_cfg, p_s=dB(-20.0), p_r=dB(-20.0))
        f, fq = an.feasibility_dist(cfg), an.feasibility_dist_quad(cfg)
        assert f.p[2] == pytest.approx(2.1523e-68, rel=1e-4, abs=0.0)
        assert fq.p[2] == pytest.approx(f.p[2], rel=1e-8, abs=0.0)

    def test_vacuous_constraint(self, fig2b_cfg):
        f = an.feasibility_dist(dataclasses.replace(fig2b_cfg, i_th=1e9))
        assert f.p[fig2b_cfg.k] == pytest.approx(1.0, abs=1e-9)

    def test_choking_constraint(self, fig2b_cfg):
        f = an.feasibility_dist(dataclasses.replace(fig2b_cfg, i_th=1e-9))
        assert f.p[0] == pytest.approx(1.0, abs=1e-9)

    def test_non_cognitive_rejected(self, fig2a_cfg):
        with pytest.raises(ConfigError):
            an.feasibility_dist(fig2a_cfg)

    def test_distribution_invariants_enforced(self):
        with pytest.raises(ValueError):
            an.FeasibilityDist(p=(0.5, 0.4), p_tilde0=0.1)
        with pytest.raises(ValueError):
            an.FeasibilityDist(p=(0.5, 0.5), p_tilde0=0.6)


class TestFeasibilityRungs:
    """Row K of the cap integrals, R_K[n] = integral P^n Q^(K-n) f_I_SP, is
    the row of its rung (1, 2, 3, 4, 6, 8, 12, ...) summed pairwise by
    Pascal's rule; only rung rows are integrated, and where a rung's rules
    stall, row K is integrated itself."""

    @staticmethod
    def with_rp(cfg, m_rp, **changes):
        return dataclasses.replace(cfg, rp=LinkSpec(m_rp, cfg.rp.avg_power), **changes)

    @staticmethod
    def direct(cfg, monkeypatch):
        """feasibility_dist with every K its own rung: row K integrated."""
        with monkeypatch.context() as m:
            m.setattr(an, "_rung", lambda k: k)
            return an.feasibility_dist(cfg)

    @staticmethod
    def counting_entries(monkeypatch):
        """The exponents of every cap entry the cap rules evaluate."""
        entries, real = [], an._cap_nodes

        def cap_nodes(*args):
            nodes = real(*args)
            value = nodes.value
            nodes.value = lambda exps: entries.append(exps) or value(exps)
            return nodes
        monkeypatch.setattr(an, "_cap_nodes", cap_nodes)
        return entries

    # fig2b at -5 dB with m_rp = 3 and I_th = 3 dB: rung 64's rules stall
    # at the cap edge, while rows 49..58 converge when integrated themselves
    @pytest.fixture
    def stalling(self, fig2b_cfg):
        return self.with_rp(fig2b_cfg, 3, p_s=dB(-5.0), p_r=dB(-5.0), i_th=dB(3.0))

    def test_rungs(self):
        rungs = sorted({an._rung(k) for k in range(1, 1001)})
        assert rungs == sorted({2 ** j for j in range(11)} | {3 * 2 ** j for j in range(9)})
        # a rung needs no finer first Gauss level than K, and costs < 1.5 K
        for k in range(1, 1001):
            assert (an._rung(k) - 1).bit_length() == (k - 1).bit_length(), k
            assert k <= an._rung(k) < 1.5 * k, k

    @pytest.mark.parametrize("m_rp", [1, 2, 3])
    @pytest.mark.parametrize("name", ["fig2b_cfg", "fig3_cfg"])
    def test_derived_rows_match_direct_rows(self, request, monkeypatch, name, m_rp):
        cfg = self.with_rp(request.getfixturevalue(name), m_rp)
        for k in range(1, 41):   # no scope: it would keep the first distribution
            point = dataclasses.replace(cfg, k=k)
            got, want = an.feasibility_dist(point), self.direct(point, monkeypatch)
            for a, b in zip((got.p_tilde0, *got.p), (want.p_tilde0, *want.p)):
                assert abs(a - b) <= sf.REL_TOL * b, (k, a, b)
            if an._rung(k) == k:
                assert got == want, k
            # the rows keep sum_n C(K, n) R_K[n] = P(m_sp, cap / th_sp); the
            # rounding of exp(ln C(K, n) + ln R_K[n]) leaves up to 1.7 K ulp
            # at K = 40, in directly integrated rows too
            assert abs(math.fsum(got.p) - 1.0) <= 2 * k * math.ulp(1.0), k

    def test_relay_sweep_integrates_rung_rows_only(self, fig3_cfg, monkeypatch):
        # the analytic-relay-sweep benchmark scenario, K = 1..16
        cfg = dataclasses.replace(fig3_cfg, rd=dataclasses.replace(fig3_cfg.rd, m=4.0))
        cfg = self.with_rp(cfg, 2)
        spec = analysis.SweepSpec("relay_count", 1, 16, 16, FD_PROTOCOLS)
        entries = self.counting_entries(monkeypatch)
        analysis.run_sweep(spec, cfg)
        assert len(entries) == len(set(entries)) == 60
        assert sorted({sum(e[1::2]) for e in entries}) == [1, 2, 3, 4, 6, 8, 12, 16]

    def test_stalled_rung_falls_back_to_the_direct_row(self, stalling, monkeypatch):
        for k in (49, 58):
            point = dataclasses.replace(stalling, k=k)
            assert an.feasibility_dist(point) == self.direct(point, monkeypatch), k
        for k in range(59, 65):
            with pytest.raises(ArithmeticError):
                an.feasibility_dist(dataclasses.replace(stalling, k=k))

    def test_sweep_tries_a_stalled_rung_once(self, stalling, monkeypatch):
        rows, real = [], an._cap_row
        monkeypatch.setattr(an, "_cap_row", lambda nodes, k: rows.append(k) or real(nodes, k))
        spec = analysis.SweepSpec("relay_count", 49, 58, 10, (Protocol.NDL,))
        analysis.run_sweep(spec, stalling)
        assert rows == [64, *range(49, 59)]


class TestCognitiveMixture:
    def test_vacuous_cap_matches_unconstrained(self, fig2b_cfg):
        open_cfg = dataclasses.replace(fig2b_cfg, i_th=1e9)
        for proto in (Protocol.NDL, Protocol.IDL, Protocol.IDL_DT, Protocol.SDF):
            assert an.cdf_cognitive(3.0, open_cfg, proto) == pytest.approx(
                an.cdf_conditional(3.0, fig2b_cfg, proto, 3), abs=1e-6)

    def test_choking_cap_relay_only(self, fig2b_cfg):
        shut = dataclasses.replace(fig2b_cfg, i_th=1e-9)
        assert an.cdf_cognitive(3.0, shut, Protocol.NDL) == pytest.approx(1.0, abs=1e-8)

    def test_choking_cap_direct_branch(self, fig2b_cfg):
        # nearly-closed cap: only the direct-transmission term survives
        shut = dataclasses.replace(fig2b_cfg, i_th=1e-6)
        f = an.feasibility_dist(shut)
        x = 3.0
        expect = f.p[0] - sf.reg_upper_gamma(
            shut.sd.m, x / (shut.p_s * shut.sd.theta)) * f.p_tilde0
        assert an.cdf_cognitive(x, shut, Protocol.IDL_DT) == pytest.approx(expect, abs=1e-9)

    def test_delta_mixture_reduces_exactly(self, fig2b_cfg, monkeypatch):
        delta = an.FeasibilityDist(p=(0.0, 0.0, 0.0, 1.0), p_tilde0=0.0)
        monkeypatch.setattr(an, "feasibility_dist", lambda cfg: delta)
        for proto in (Protocol.NDL, Protocol.IDL, Protocol.IDL_DT, Protocol.SDF):
            assert an.cdf_cognitive(3.0, fig2b_cfg, proto) == \
                an.cdf_conditional(3.0, fig2b_cfg, proto, 3)

    @pytest.mark.parametrize("proto", [Protocol.NDL, Protocol.IDL, Protocol.IDL_DT,
                                       Protocol.SDF])
    def test_mixture_of_conditional_cdfs(self, fig3_cfg, proto):
        # the shared block vector gives the same F(x | L) as a separate
        # cdf_conditional call for every L
        cfg = dataclasses.replace(fig3_cfg, k=8, rd=LinkSpec(4, fig3_cfg.rd.avg_power),
                                  rp=LinkSpec(2, fig3_cfg.rp.avg_power))
        f = an.feasibility_dist(cfg)
        for x in (0.5, 3.0, 15.0):
            parts = [f.p[0]]
            if proto.has_dt_branch:
                parts.append(-sf.reg_upper_gamma(cfg.sd.m, x / (cfg.p_s * cfg.sd.theta))
                             * f.p_tilde0)
            parts += [f.p[n] * an.cdf_conditional(x, cfg, proto, n) for n in range(1, 9)]
            assert an.cdf_cognitive(x, cfg, proto) == pytest.approx(
                math.fsum(parts), abs=1e-14)

    def test_jump_at_zero_for_direct_branch(self, fig2b_cfg):
        f = an.feasibility_dist(fig2b_cfg)
        assert an.cdf_cognitive(0.0, fig2b_cfg, Protocol.SDF) == pytest.approx(
            f.p[0] - f.p_tilde0, abs=1e-12)
        assert an.cdf_cognitive(0.0, fig2b_cfg, Protocol.NDL) == pytest.approx(
            f.p[0], abs=1e-12)


class TestOutageThroughput:
    def test_threshold_rule(self):
        assert an.outage_threshold(Protocol.NDL, 2.0) == 3.0
        assert an.outage_threshold(Protocol.HD_MRC, 2.0) == 15.0
        assert an.outage_threshold(Protocol.HD_MRC, 2.0, hd_equal_delivered_rate=False) == 3.0

    @pytest.mark.parametrize("proto,rate,match", [
        (Protocol.NDL, math.inf, "rate must be finite, got inf"),
        (Protocol.NDL, math.nan, "rate must be finite, got nan"),
        (Protocol.NDL, 2000.0, "rate 2000 bpcu is too large"),
        (Protocol.NDL, 1e308, "rate 1e\\+308 bpcu is too large"),
        # the doubled half-duplex rate overflows before the rate does
        (Protocol.HD_MRC, 600.0, "rate 600 bpcu is too large"),
    ])
    def test_unusable_rate_rejected(self, fig2a_cfg, proto, rate, match):
        with pytest.raises(ValueError, match=match):
            an.outage_threshold(proto, rate)
        if not proto.half_duplex:
            with pytest.raises(ValueError, match=match):
                an.outage(fig2a_cfg, proto, rate)
        with pytest.raises(ValueError, match=match):
            montecarlo.estimate_outage(fig2a_cfg, proto, rate, 1000, seed=1)

    def test_largest_rates_keep_a_finite_threshold(self):
        assert math.isfinite(an.outage_threshold(Protocol.NDL, 1023.0))
        assert math.isfinite(an.outage_threshold(Protocol.HD_MRC, 511.0))

    def test_outage_vanishes_at_zero_rate(self, fig2a_cfg):
        assert an.outage(fig2a_cfg, Protocol.NDL, 0.0) == 0.0

    def test_strict_inequality_at_zero_threshold_cognitive(self, fig2b_cfg):
        # the SINR atom at 0 is not an outage when the threshold is 0
        assert an.outage(fig2b_cfg, Protocol.SDF, 0.0, cognitive=True) == 0.0

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_rejections_do_not_depend_on_rate(self, fig2a_cfg, rate):
        # threshold 0 needs no CDF, but the request is checked all the same
        with pytest.raises(ConfigError, match="simulation-only"):
            an.outage(fig2a_cfg, Protocol.HD_MRC, rate)
        with pytest.raises(ConfigError, match="interference constraint"):
            an.outage(fig2a_cfg, Protocol.SDF, rate, cognitive=True)

    def test_ndl_rayleigh_outage(self):
        cfg = rayleigh_cfg()
        assert an.outage(cfg, Protocol.NDL, 2.0) == pytest.approx(0.075936, abs=5e-7)

    def test_throughput_identity(self, fig2a_cfg):
        for proto in (Protocol.NDL, Protocol.SDF):
            for rate in (0.5, 2.0, 4.0):
                p = an.outage(fig2a_cfg, proto, rate)
                t = an.throughput(fig2a_cfg, proto, rate)
                assert t == pytest.approx(rate * (1 - p), rel=1e-12)
                assert t <= rate

    def test_half_duplex_throughput_factor(self):
        assert an.throughput_from_outage(Protocol.HD_SDF, 2.0, 0.0) == 1.0
        assert an.throughput_from_outage(Protocol.SDF, 2.0, 0.0) == 2.0
