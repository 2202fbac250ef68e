"""Scenario validation and seeded Gamma sampling."""
import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import stats

from fdrs.channel import (
    FD_PROTOCOLS,
    ConfigError,
    LinkSpec,
    NetworkConfig,
    Protocol,
    config_violations,
    db_to_linear,
    validate_config,
)
from fdrs.montecarlo import draw_gains


def make_cfg(**overrides):
    base = dict(k=3, p_s=1.0, p_r=1.0, rsi_lambda=1.0,
                sr=LinkSpec(2, 31.6), rd=LinkSpec(2, 31.6),
                rr=LinkSpec(2, 2.0), sd=LinkSpec(2, 3.16))
    base.update(overrides)
    return NetworkConfig(**base)


class TestLinkSpec:
    def test_theta(self):
        assert LinkSpec(2.0, 10.0).theta == 5.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            LinkSpec(0.4, 1.0)
        with pytest.raises(ValueError):
            LinkSpec(1.0, 0.0)

    def test_integer_detection(self):
        assert LinkSpec(2.0, 1.0).integer_m
        assert not LinkSpec(1.5, 1.0).integer_m


class TestNetworkConfig:
    def test_lambda_range(self):
        with pytest.raises(ConfigError):
            make_cfg(rsi_lambda=1.5)

    def test_cognitive_all_or_none(self):
        with pytest.raises(ConfigError) as exc:
            make_cfg(sp=LinkSpec(1, 1.0), rp=LinkSpec(1, 1.26))
        assert any("all present or all absent" in e for e in exc.value.errors)

    def test_relay_count(self):
        with pytest.raises(ConfigError):
            make_cfg(k=0)

    def test_rsi_scale(self):
        cfg = make_cfg(p_r=100.0, rsi_lambda=0.5, rr=LinkSpec(2, 4.0))
        assert cfg.rsi_scale == pytest.approx(10.0 * 2.0)

    @pytest.mark.parametrize("overrides,link", [
        (dict(p_s=1e299), "link sr: mean SNR p_s*pi_sr"),
        (dict(p_r=1e299), "link rd: mean SNR p_r*pi_rd"),
        (dict(p_r=1e150, rsi_lambda=1.0, rd=LinkSpec(2, 1e-20), rr=LinkSpec(2, 1e160)),
         "link rr: mean SNR p_r^lambda*pi_rr"),
        (dict(sd=LinkSpec(2, math.inf)), "link sd: mean SNR p_s*pi_sd = inf"),
        (dict(sp=LinkSpec(1, 1e301), rp=LinkSpec(1, 1.0), i_th=1.0), "link sp:"),
        (dict(sp=LinkSpec(1, 1.0), rp=LinkSpec(1, 1e301), i_th=1.0), "link rp:"),
    ])
    def test_mean_snr_within_3000_db(self, overrides, link):
        # a link's power times average gain may not exceed 1e300, where
        # simulated gains and their sums could overflow
        with pytest.raises(ConfigError, match=re.escape(link)) as exc:
            make_cfg(**overrides)
        assert len(exc.value.errors) == 1 and "exceeds 1e+300 (3000 dB)" in str(exc.value)
        assert make_cfg(p_s=1e290, p_r=1e290).p_s == 1e290
        # the self-interference link sees p_r^lambda, not p_r
        assert make_cfg(p_r=1e299, rsi_lambda=0.0, rd=LinkSpec(2, 1e-20)).rsi_scale == 1.0


class TestValidation:
    def test_analytic_takes_real_first_hop_shapes(self):
        cfg = make_cfg(sr=LinkSpec(2.5, 1.0), rr=LinkSpec(1.5, 2.0))
        for proto in FD_PROTOCOLS:
            assert config_violations(cfg, proto, "analytic") == []

    def test_mc_has_no_integrality_limits(self):
        cfg = make_cfg(sr=LinkSpec(0.7, 1.0), rd=LinkSpec(1.3, 1.0),
                       rr=LinkSpec(2.6, 2.0), sd=LinkSpec(0.5, 1.0))
        for proto in Protocol:
            assert config_violations(cfg, proto, "mc") == []

    def test_direct_link_protocols_need_sd(self):
        cfg = make_cfg(sd=None)
        assert config_violations(cfg, Protocol.NDL, "mc") == []
        for proto in (Protocol.IDL, Protocol.IDL_DT, Protocol.SDF,
                      Protocol.HD_MRC, Protocol.HD_SDF):
            assert any("sd" in e for e in config_violations(cfg, proto, "mc"))

    def test_direct_link_shape_requirements(self):
        cfg = make_cfg(sd=LinkSpec(1.5, 1.0))
        assert config_violations(cfg, Protocol.IDL, "analytic") == []
        assert not any("m_sd" in e for e in config_violations(cfg, Protocol.IDL_DT, "analytic"))
        assert not any("m_sd" in e for e in config_violations(cfg, Protocol.SDF, "analytic"))
        cfg2 = make_cfg(rd=LinkSpec(2.5, 1.0))
        assert any("m_rd" in e for e in config_violations(cfg2, Protocol.IDL, "analytic"))
        # the no-direct-link form allows real second-hop shape
        assert config_violations(cfg2, Protocol.NDL, "analytic") == []

    def test_half_duplex_is_simulation_only(self):
        errs = config_violations(make_cfg(), Protocol.HD_MRC, "analytic")
        assert any("simulation-only" in e for e in errs)

    def test_cognitive_analytic_requires_integer_rp_shape(self):
        cfg = make_cfg(sp=LinkSpec(1, 1.0), rp=LinkSpec(1.5, 1.26), i_th=2.0)
        assert any("m_rp" in e for e in config_violations(cfg, Protocol.NDL, "analytic"))

    def test_validate_config_raises_with_all_errors(self):
        cfg = make_cfg(rd=LinkSpec(2.7, 1.0), sd=None,
                       sp=LinkSpec(1, 1.0), rp=LinkSpec(1.5, 1.26), i_th=2.0)
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg, Protocol.IDL, "analytic")
        joined = " ".join(exc.value.errors)
        assert "m_rp" in joined and "m_rd" in joined and "sd" in joined

    def test_bad_method(self):
        with pytest.raises(ValueError):
            config_violations(make_cfg(), Protocol.NDL, "exact")


class TestGammaSampling:
    # each link class draws Gamma(m, avg_power/m) gains; one relay's
    # source-relay row is a plain Gamma sample
    @staticmethod
    def draws(m, theta, seed, n):
        cfg = make_cfg(k=1, sr=LinkSpec(m, m * theta))
        return draw_gains(cfg, np.random.default_rng(seed), n)["sr"][0]

    def test_moments(self):
        draws = self.draws(2.0, 3.0, 0, 10 ** 6)
        n = draws.size
        mean_se = math.sqrt(2 * 3 ** 2 / n)
        assert abs(draws.mean() - 6.0) < 5 * mean_se
        var_se = 18.0 * math.sqrt(2 / n) * 2  # loose bound on Var[s^2]
        assert abs(draws.var() - 18.0) < 5 * var_se

    def test_exponential_case_ks(self):
        draws = self.draws(1.0, 2.5, 1, 50_000)
        stat, pvalue = stats.kstest(draws, "expon", args=(0, 2.5))
        assert pvalue > 0.05

    def test_half_integer_shape(self):
        draws = self.draws(0.5, 1.0, 7, 10 ** 6)
        assert abs(draws.mean() - 0.5) < 5 * math.sqrt(0.5 / draws.size)


class TestSamplerPaths:
    # integer shapes up to 5 are drawn as -theta log of a product of m
    # uniforms, real shapes and larger integer shapes by numpy's Gamma
    # sampler; each path must give Gamma(m, theta)
    @pytest.mark.parametrize("m", [1.0, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0])
    def test_ks(self, m):
        theta = 1.7
        cfg = make_cfg(k=2, sr=LinkSpec(m, m * theta))
        draws = draw_gains(cfg, np.random.Generator(np.random.SFC64(23)), 20_000)["sr"]
        for row in draws:
            assert stats.kstest(row, "gamma", args=(m, 0, theta)).pvalue > 0.01

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_lower_tail(self, m):
        # a product of uniforms near 1 sets the smallest gains: counts
        # below low quantiles must stay binomial
        theta, n = 1.7, 10 ** 6
        cfg = make_cfg(k=1, sr=LinkSpec(m, m * theta))
        draws = draw_gains(cfg, np.random.Generator(np.random.SFC64(29)), n)["sr"][0]
        for q in (1e-3, 1e-4):
            hits = np.count_nonzero(draws < stats.gamma.ppf(q, m, scale=theta))
            assert abs(hits - n * q) <= 4 * math.sqrt(n * q * (1 - q)), q

    def test_zero_uniforms_give_finite_gains(self):
        # random() may return 0.0; a product of 0 must not become an
        # infinite gain
        class ZeroUniforms:
            def random(self, shape):
                return np.zeros(shape)

        cfg = make_cfg(sr=LinkSpec(1, 2.0), rd=LinkSpec(5, 2.0),
                       sp=LinkSpec(3, 1.0), rp=LinkSpec(4, 1.0), i_th=2.0)
        gains = draw_gains(cfg, ZeroUniforms(), 8)
        assert sorted(gains) == ["rd", "rp", "rr", "sd", "sp", "sr"]
        for name, g in gains.items():
            assert np.all(np.isfinite(g)) and np.all(g > 0), name

    def test_gamma_moments_per_shape(self):
        # a product of uniforms at m = 2, numpy's sampler at a real shape
        # and at an integer above 5
        n = 400_000
        for spec in (LinkSpec(2, 31.6), LinkSpec(0.7, 5.0), LinkSpec(6, 0.5)):
            g = draw_gains(make_cfg(rd=spec), np.random.Generator(np.random.SFC64(4)), n)["rd"]
            assert g.shape == (3, n)
            for row in g:
                mean, var = spec.avg_power, spec.m * spec.theta ** 2
                assert abs(row.mean() - mean) < 5 * math.sqrt(var / n)
                # Var of the sample variance of Gamma(m): (mu4 - var^2) / n
                mu4 = 3 * spec.m * (spec.m + 2) * spec.theta ** 4
                assert abs(row.var() - var) < 5 * math.sqrt((mu4 - var ** 2) / n)


class TestRealizationSampling:
    def test_seed_determinism(self):
        cfg = make_cfg(sp=LinkSpec(1, 1.0), rp=LinkSpec(1, 1.26), i_th=2.0)
        a = [draw_gains(cfg, np.random.default_rng(42), 1) for _ in range(3)]
        b = [draw_gains(cfg, np.random.default_rng(42), 1) for _ in range(3)]
        for ra, rb in zip(a, b):
            assert np.array_equal(ra["sr"], rb["sr"])
            assert np.array_equal(ra["rp"], rb["rp"])
            assert ra["sd"] == rb["sd"] and ra["sp"] == rb["sp"]

    def test_cap_links_drawn_last(self, fig2b_cfg):
        # a run that ignores the cap may drop sp/rp/i_th and still draw
        # every other gain a capped run draws from the same stream
        plain = dataclasses.replace(fig2b_cfg, sp=None, rp=None, i_th=None)
        key = np.array([5, 2], dtype=np.uint64)
        capped, bare = (draw_gains(cfg, np.random.Generator(np.random.Philox(key=key)), 1000)
                        for cfg in (fig2b_cfg, plain))
        assert sorted(bare) == ["rd", "rr", "sd", "sr"]
        for name in bare:
            assert np.array_equal(capped[name], bare[name]), name

    def test_shapes_and_optional_fields(self):
        rng = np.random.default_rng(1)
        g = draw_gains(make_cfg(sd=None), rng, 1)
        assert g["sr"].shape == (3, 1) and "sd" not in g and "sp" not in g

    def test_stream_independence(self):
        cfg = make_cfg()
        rng = np.random.default_rng(9)
        n = 10 ** 5
        g = draw_gains(cfg, rng, n)
        streams = [g["sr"][0], g["sr"][1], g["rd"][0], g["rr"][2], g["sd"]]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                rho = np.corrcoef(streams[i], streams[j])[0, 1]
                assert abs(rho) < 0.01

    def test_symmetric_classes_share_parameters(self):
        cfg = make_cfg()
        rng = np.random.default_rng(2)
        g = draw_gains(cfg, rng, 200_000)
        for row in range(cfg.k):
            mean = g["sr"][row].mean()
            se = math.sqrt(cfg.sr.m * cfg.sr.theta ** 2 / g["sr"].shape[1])
            assert abs(mean - cfg.sr.avg_power) < 5 * se


def test_db_conversion():
    assert db_to_linear(3.0) == pytest.approx(10 ** 0.3)
    assert db_to_linear(0.0) == 1.0
    assert 0.0 < db_to_linear(-3200.0) < 1e-319   # subnormal, still positive


@pytest.mark.parametrize("x_db,msg", [
    (4000.0, "4000 dB is out of range: its linear value overflows"),
    (math.inf, "inf dB is out of range: its linear value overflows"),
    (-4000.0, "-4000 dB is out of range: its linear value underflows to 0"),
    (-math.inf, "-inf dB is out of range: its linear value underflows to 0"),
])
def test_db_conversion_out_of_range(x_db, msg):
    with pytest.raises(ValueError, match=msg):
        db_to_linear(x_db)
