"""Closed-form CDFs against exact special cases, quadrature oracles,
Monte Carlo, and their structural properties."""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from fdrs import analytic as an
from fdrs import montecarlo
from fdrs.channel import (
    ConfigError,
    LinkSpec,
    NetworkConfig,
    Protocol,
    config_violations,
    db_to_linear,
)

import rayleigh as ray

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

    def test_non_integer_m2_routes_to_quadrature(self):
        p = an.RatioParams(1.0, 1.0, 1.7, 1.0)
        with pytest.raises(ValueError, match="quad"):
            an.cdf_ratio_gamma(1.0, p)
        # the oracle itself supports it
        v = an.cdf_ratio_gamma_quad(1.0, p)
        assert 0.0 < v < 1.0

    def test_ccdf_complements_cdf(self):
        p = an.RatioParams(2, 1.5, 2, 0.5)
        for z in (0.1, 1.0, 10.0):
            assert an.ratio_ccdf(z, p) == pytest.approx(1 - an.cdf_ratio_gamma(z, p), abs=1e-14)

    def test_small_rsi_scale_against_quadrature(self):
        # c = z/theta1 + 1/theta2 reaches 1e4: e^(-c/2) underflows on its
        # own, yet every Whittaker term still carries an O(theta2)
        # correction; theta2 = 1e-3 sits just below that underflow
        for th2 in (1e-3, 6e-4, 1e-4):
            for m1, m2 in ((1.0, 1), (2.0, 2), (1.5, 3)):
                p = an.RatioParams(m1, 1.0, m2, th2)
                for z in (0.5, 3.0):
                    oracle = an.cdf_ratio_gamma_quad(z, p)
                    assert abs(an.cdf_ratio_gamma(z, p) - oracle) <= 1e-12, (th2, m1, z)
                    assert abs(an.ratio_ccdf(z, p) - (1.0 - oracle)) <= 1e-12, (th2, m1, z)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            an.RatioParams(0.4, 1, 1, 1)
        with pytest.raises(ValueError):
            an.RatioParams(1, 1, -1, 1)
        with pytest.raises(ValueError):
            an.RatioParams(1, 0, 1, 1)


class TestTailIntegralIdentity:
    def test_matches_literal_whittaker_composition(self):
        # the idl block I_1 = integral_0^inf Q(m_rd, w(b+1)) f_Gamma(b; m, theta0) db
        # expands to e^(-w) sum_{j<m_rd} (w^j/j!) integral_0^inf (b+1)^j
        # b^(m-1) e^(-eta b) db / (Gamma(m) theta0^m), eta = 1/theta0 + w, and
        # integral_0^inf (t+1)^deg t^(m-1) e^(-eta t) dt equals
        # e^(eta/2) eta^(-(m+deg+1)/2) Gamma(m) W_{(deg-m+1)/2, -(m+deg)/2}(eta);
        # the shifted-polynomial route must agree with the literal W pairing
        from fdrs import specfun as sf
        for m_rd, m, eta in itertools.product((2, 3, 4), (1.0, 2.0, 2.5), (0.3, 1.7, 12.0)):
            w, theta0 = eta / 2, 2 / eta
            literal = math.exp(-w) / theta0 ** m * math.fsum(
                w ** j / math.factorial(j)
                * math.exp(eta / 2) * eta ** (-(m + j + 1) / 2)
                * sf.whittaker_w((j - m + 1) / 2, -(m + j) / 2, eta)
                for j in range(m_rd))
            got = an._ln_blocks(1, m_rd, 1.0 / w, 1.0, m, theta0, False, math.inf)[1]
            assert got == pytest.approx(math.log(literal), rel=1e-11), (m_rd, m, eta)


class TestMomentTable:
    # _ln_moments builds each finite-upper table from one incomplete-Gamma
    # evaluation and the recurrence P(a, x) = P(a+1, x) + x^a e^-x / Gamma(a+1)
    @pytest.mark.parametrize("shape", [0.5, 1.0, 2.5, 4.0])
    def test_recurrence_matches_per_entry_values(self, shape):
        from fdrs import specfun as sf
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
                got = an._ln_blocks(64, m, theta, x, shape, theta0, False, upper)
                for k in (1, 6, 64):
                    if got[k] < math.log(1e-300):
                        continue
                    ref = self.reference(k, m, theta, x, shape, theta0, upper)
                    assert abs(got[k] - ref) <= 1e-13 * max(1.0, abs(ref)), (theta, upper, k)
                    checked += 1
        assert checked >= 14

    def test_blocks_do_not_depend_on_count(self):
        # block k is the same whether a call stops at k or goes further
        full = an._ln_blocks(40, 4, 0.7, 3.0, 2.0, 3.16, False, 3.0)
        assert [an._ln_blocks(k, 4, 0.7, 3.0, 2.0, 3.16, False, 3.0)[k]
                for k in range(41)] == full


class TestConvolvedIntegral:
    # J_d = integral_0^U (U-t)^d t^(s-1) e^(-rho t) dt
    #     = U^(d+s) B(s, d+1) M(s, d+s+1, -rho U), the sdf and feasibility
    # inner integral, on both sides of the signed-sum cap |rho U| = 30
    def test_against_mpmath_kummer(self):
        import mpmath as mp
        upper = 2.0
        with mp.workdps(40):
            for s in (0.5, 1.0, 2.0, 2.5, 4.0, 6.0):
                for mag in (0.0, 1e-10, 5.0, 29.0, 31.0, 45.0, 100.0, 500.0):
                    for w in (mag, -mag):
                        got = an._ln_conv_integrals(61, s, w / upper, upper)
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
                        got = an._ln_conv_integrals(61, s, w / upper, upper)
                        for d, ln_j in enumerate(got):
                            ref = ((d + s) * mp.log(upper) + mp.log(mp.beta(s, d + 1))
                                   + mp.log(mp.hyp1f1(s, d + s + 1, -w)))
                            worst = max(worst, abs(ln_j - float(ref)))
        assert worst <= 5e-12

    def test_block_against_mpmath_quadrature(self):
        # K = 12, m = 6, shape 6: every block has rho U between 48 and 120,
        # where the binomial sums of the high degrees cancel
        import mpmath as mp
        count, m, theta, x, shape, theta0 = 12, 6, 1.0, 6.0, 6.0, 0.05
        got = an._ln_blocks(count, m, theta, x, shape, theta0, True, x)
        with mp.workdps(30):
            for k, ln_i in enumerate(got):
                def integrand(b):
                    q = mp.gammainc(m, (x - b) / theta, mp.inf, regularized=True)
                    return (q ** k * b ** (shape - 1) * mp.exp(-b / theta0)
                            / (mp.gamma(shape) * theta0 ** shape))
                ref = mp.quad(integrand, [0, 0.1, 0.3, 0.6, 1, 2, x])
                assert abs(ln_i - float(mp.log(ref))) <= 1e-11, k


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

    def test_integrality_enforced(self, fig2a_cfg):
        bad = dataclasses.replace(fig2a_cfg, rr=LinkSpec(1.5, 2.0))
        with pytest.raises(ConfigError, match="m_rr"):
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
        # first-hop ratio CDF needs its Whittaker terms at c ~ 2000
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

    def test_relay_overrides_rejected(self, fig2b_cfg):
        # per-relay rp links change the distribution; the symmetric
        # closed form must not answer for them, inside a scope or not
        cfg = dataclasses.replace(fig2b_cfg, relay_overrides={
            "rp": (LinkSpec(1, 0.5), LinkSpec(1, 1.26), LinkSpec(2, 2.0))})
        [expected] = [e for e in config_violations(cfg, Protocol.NDL, "analytic")
                      if "overrides" in e]
        with an.shared_blocks():
            an.feasibility_dist(fig2b_cfg)
            for feasibility in (an.feasibility_dist, an.feasibility_dist_quad):
                with pytest.raises(ConfigError) as exc:
                    feasibility(cfg)
                assert exc.value.errors == [expected]

    def test_distribution_invariants_enforced(self):
        with pytest.raises(ValueError):
            an.FeasibilityDist(p=(0.5, 0.4), p_tilde0=0.1)
        with pytest.raises(ValueError):
            an.FeasibilityDist(p=(0.5, 0.5), p_tilde0=0.6)


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
        from fdrs import specfun as sf
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
        from fdrs import specfun as sf
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
