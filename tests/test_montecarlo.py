"""Simulator determinism, per-realization structure, and statistical
agreement with the closed forms."""
import dataclasses
import math

import numpy as np
import pytest

from fdrs import analytic as an
from fdrs import montecarlo as mc
from fdrs.channel import ConfigError, LinkSpec, NetworkConfig, Protocol
from fdrs.montecarlo import draw_gains

FD = (Protocol.NDL, Protocol.IDL, Protocol.IDL_DT, Protocol.SDF)


def single_relay_cfg(**kw):
    base = dict(k=1, p_s=1.0, p_r=1.0, rsi_lambda=0.5,
                sr=LinkSpec(1, 1), rd=LinkSpec(1, 1), rr=LinkSpec(1, 1),
                sd=LinkSpec(1, 1))
    base.update(kw)
    return NetworkConfig(**base)


def one_trial(g_sr, g_rd, g_rr, g_sd=0.0) -> dict:
    """Gains of a single trial, in the (k, n) layout of draw_gains."""
    return {"sr": np.asarray(g_sr, float)[:, None], "rd": np.asarray(g_rd, float)[:, None],
            "rr": np.asarray(g_rr, float)[:, None], "sd": np.array([g_sd])}


def real_shapes(fig2b_cfg):
    """fig2b with real m_sr, m_sp and m_rp, and m_rd = 6: draws through both
    branches of numpy's Gamma sampler, a shape below 1 and one above 5."""
    b = fig2b_cfg
    return dataclasses.replace(b, sr=LinkSpec(0.7, b.sr.avg_power), rd=LinkSpec(6, b.rd.avg_power),
                               sp=LinkSpec(0.7, b.sp.avg_power), rp=LinkSpec(0.7, b.rp.avg_power))


def trial_sinr(gains, cfg, protocol) -> float:
    return float(mc._point_sinrs(gains, cfg, [protocol])[protocol][0])


class TestE2eSinr:
    def test_balanced_single_relay(self):
        g = one_trial([1.0], [1.0], [0.0])
        assert trial_sinr(g, single_relay_cfg(), Protocol.NDL) == 1.0

    def test_huge_self_interference_kills_first_hop(self):
        g = one_trial([1.0], [1.0], [1e15])
        assert trial_sinr(g, single_relay_cfg(), Protocol.NDL) < 1e-12

    def test_no_direct_gain_makes_idl_equal_ndl(self):
        rng = np.random.default_rng(0)
        cfg = single_relay_cfg(k=3)
        for _ in range(20):
            g = one_trial(rng.gamma(1, 1, 3), rng.gamma(1, 1, 3), rng.gamma(1, 1, 3))
            assert trial_sinr(g, cfg, Protocol.IDL) == trial_sinr(g, cfg, Protocol.NDL)

    def test_per_realization_dominance(self, fig2a_cfg):
        # selective >= hybrid >= interference-only, realization by realization
        gains = draw_gains(fig2a_cfg, np.random.default_rng(77), 10 ** 5)
        sinrs = mc._point_sinrs(gains, fig2a_cfg, FD)
        idl, hyb, sdf = (sinrs[p] for p in (Protocol.IDL, Protocol.IDL_DT, Protocol.SDF))
        assert np.all(sdf >= hyb) and np.all(hyb >= idl)

    def test_scalar_matches_batch(self, fig2a_cfg):
        rng = np.random.default_rng(5)
        gains = draw_gains(fig2a_cfg, rng, 50)
        # all six protocols from one shared evaluation, each trial alone
        sinrs = mc._point_sinrs(gains, fig2a_cfg, FD + (Protocol.HD_MRC, Protocol.HD_SDF))
        for proto, batch in sinrs.items():
            for i in (0, 17, 49):
                g = one_trial(gains["sr"][:, i], gains["rd"][:, i], gains["rr"][:, i],
                              float(gains["sd"][i]))
                assert trial_sinr(g, fig2a_cfg, proto) == pytest.approx(
                    float(batch[i]), rel=1e-14)


class TestEstimateOutage:
    def test_seed_determinism(self, fig2a_cfg):
        a = mc.estimate_outage(fig2a_cfg, Protocol.SDF, 2.0, 200_000, seed=9)
        b = mc.estimate_outage(fig2a_cfg, Protocol.SDF, 2.0, 200_000, seed=9)
        assert a.p_hat == b.p_hat

    def test_worker_count_invariance(self, fig2b_cfg):
        estimates = [mc.estimate_outage(fig2b_cfg, Protocol.IDL_DT, 2.0, 300_000,
                                        seed=4, cognitive=True, workers=w)
                     for w in (1, 2, 8)]
        assert estimates[0].p_hat == estimates[1].p_hat == estimates[2].p_hat

    def test_zero_threshold_never_outage(self, fig2a_cfg):
        est = mc.estimate_outage(fig2a_cfg, Protocol.NDL, 0.0, 10_000, seed=0)
        assert est.p_hat == 0.0

    def test_matches_analytic_non_cognitive(self, fig2a_cfg):
        for proto in FD:
            est = mc.estimate_outage(fig2a_cfg, proto, 2.0, 200_000, seed=12345)
            pa = an.outage(fig2a_cfg, proto, 2.0)
            assert abs(est.p_hat - pa) <= max(4 * est.stderr, 1e-3), proto

    def test_matches_analytic_cognitive(self, fig2b_cfg):
        for proto in FD:
            est = mc.estimate_outage(fig2b_cfg, proto, 2.0, 200_000, seed=12345,
                                     cognitive=True)
            pa = an.outage(fig2b_cfg, proto, 2.0, cognitive=True)
            assert abs(est.p_hat - pa) <= max(4 * est.stderr, 1e-3), proto

    def test_stderr_formula(self, fig2a_cfg):
        est = mc.estimate_outage(fig2a_cfg, Protocol.IDL, 2.0, 50_000, seed=1)
        assert est.stderr == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials))

    def test_cognitive_flag_requires_cognitive_scenario(self, fig2a_cfg):
        with pytest.raises(ValueError):
            mc.estimate_outage(fig2a_cfg, Protocol.NDL, 2.0, 100, seed=0, cognitive=True)

    def test_half_duplex_baselines_run(self, fig2b_cfg):
        # half-duplex with no RSI: at identical delivered rate the MRC
        # baseline pays the doubled-rate threshold
        same_th = an.outage_threshold(Protocol.HD_MRC, 2.0, hd_equal_delivered_rate=False)
        [same] = mc.outage_counts([(fig2b_cfg, Protocol.HD_MRC, same_th)], 100_000, seed=2)
        doubled = mc.estimate_outage(fig2b_cfg, Protocol.HD_MRC, 2.0, 100_000, seed=2,
                                     cognitive=True)
        assert doubled.p_hat > same / 100_000

    def test_confidence_interval_calibration(self):
        # 200 fixed-seed runs: the 3-sigma interval must cover the exact
        # value at least 99% of the time
        cfg = NetworkConfig(k=2, p_s=10, p_r=10, rsi_lambda=1.0,
                            sr=LinkSpec(1, 10), rd=LinkSpec(1, 10), rr=LinkSpec(1, 1))
        p_true = an.outage(cfg, Protocol.NDL, 2.0)
        trials = 20_000
        covered = 0
        for run in range(200):
            est = mc.estimate_outage(cfg, Protocol.NDL, 2.0, trials, seed=1000 + run)
            if abs(est.p_hat - p_true) <= 3 * est.stderr:
                covered += 1
        assert covered >= 198

    def test_partial_chunk_sizes(self):
        assert mc._chunk_sizes(mc.CHUNK_TRIALS * 2 + 5) == [mc.CHUNK_TRIALS,
                                                            mc.CHUNK_TRIALS, 5]
        assert mc._chunk_sizes(10) == [10]


class TestOutageCounts:
    TRIALS = 2 * mc.CHUNK_TRIALS + 5

    @staticmethod
    def scenario(name, fig2a_cfg, fig2b_cfg):
        if name == "real_shapes":
            return real_shapes(fig2b_cfg)
        return {"fig2a": fig2a_cfg, "fig2b": fig2b_cfg}[name]

    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "real_shapes"])
    def test_grid_matches_per_cell_calls(self, name, fig2a_cfg, fig2b_cfg):
        base = self.scenario(name, fig2a_cfg, fig2b_cfg)
        moved = dict(p_s=3.0, p_r=2.0, i_th=0.5) if base.is_cognitive else dict(p_s=3.0, p_r=2.0)
        points = [base, dataclasses.replace(base, **moved)]
        # (protocol, rate, hd_equal_delivered_rate), both half-duplex conventions
        cases = [(Protocol.SDF, 2.0, True), (Protocol.IDL_DT, 1.0, True),
                 (Protocol.HD_MRC, 1.0, True), (Protocol.HD_MRC, 1.0, False)]
        cells = [(point, proto, an.outage_threshold(proto, rate, equal))
                 for point in points for proto, rate, equal in cases]
        expected = [mc.outage_counts([cell], self.TRIALS, seed=21) for cell in cells]
        assert expected[0] == [round(mc.estimate_outage(
            base, Protocol.SDF, 2.0, self.TRIALS, 21, base.is_cognitive).p_hat * self.TRIALS)]
        for workers in (1, 2):
            hits = mc.outage_counts(cells, self.TRIALS, seed=21, workers=workers)
            assert [[h] for h in hits] == expected

    def test_cells_with_different_draws_count_as_separate_calls(self, fig2a_cfg, fig2b_cfg):
        # another K, another LinkSpec, another cap set: three draw
        # groups besides fig2a's, each on the same (seed, chunk) streams
        others = [dataclasses.replace(fig2a_cfg, k=4),
                  dataclasses.replace(fig2a_cfg, sr=LinkSpec(1, 31.6)),
                  fig2b_cfg, dataclasses.replace(fig2b_cfg, p_s=2.0, i_th=0.5)]
        cells = [(point, proto, 3.0) for point in [fig2a_cfg] + others
                 for proto in (Protocol.SDF, Protocol.HD_MRC)]
        cells.insert(1, (fig2a_cfg, Protocol.NDL, 1.0))   # groups interleave
        trials = mc.CHUNK_TRIALS + 7
        expected = [h for cell in cells for h in mc.outage_counts([cell], trials, seed=3)]
        assert len(set(expected)) > len(cells) // 2
        for workers in (1, 2):
            assert mc.outage_counts(cells, trials, seed=3, workers=workers) == expected

    def test_every_cell_is_validated(self, fig2a_cfg):
        no_sd = dataclasses.replace(fig2a_cfg, sd=None)
        with pytest.raises(ConfigError):
            mc.outage_counts([(no_sd, Protocol.NDL, 3.0), (no_sd, Protocol.SDF, 3.0)],
                             100, seed=0)
        with pytest.raises(ValueError):
            mc.outage_counts([(fig2a_cfg, Protocol.NDL, 3.0)], 0, seed=0)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_worker_count_must_be_positive(self, fig2b_cfg, workers):
        with pytest.raises(ValueError, match="workers"):
            mc.outage_counts([(fig2b_cfg, Protocol.SDF, 3.0)], 100, seed=0,
                             workers=workers)
        with pytest.raises(ValueError, match="workers"):
            mc.estimate_outage(fig2b_cfg, Protocol.SDF, 2.0, 100, seed=0, workers=workers)
        with pytest.raises(ValueError, match="workers"):
            mc.estimate_feasibility(fig2b_cfg, 100, seed=0, workers=workers)


def reference_masks(gains, cfg, protocol):
    """Relay and direct-transmission feasibility, one protocol at a time."""
    i_sp = cfg.p_s * gains["sp"]
    i_rp = cfg.p_r * gains["rp"]
    dt_allowed = i_sp <= cfg.i_th
    if protocol.half_duplex:
        feasible = dt_allowed[None, :] & (i_rp <= cfg.i_th)
    else:
        feasible = (i_sp[None, :] + i_rp) <= cfg.i_th
    return feasible, dt_allowed


def reference_sinr(gains, cfg, protocol, feasible=None, dt_allowed=None):
    """End-to-end SINR of each trial for one protocol, sharing nothing."""
    g_sd = gains.get("sd")
    if g_sd is None:
        g_sd = 0.0
    if protocol.half_duplex:
        first = cfg.p_s * gains["sr"]
        second = cfg.p_r * gains["rd"] + cfg.p_s * g_sd
    else:
        first = cfg.p_s * gains["sr"] / (cfg.p_r ** cfg.rsi_lambda * gains["rr"] + 1.0)
        if protocol is Protocol.NDL:
            second = cfg.p_r * gains["rd"]
        elif protocol is Protocol.SDF:
            second = cfg.p_r * gains["rd"] + cfg.p_s * g_sd
        else:
            second = cfg.p_r * gains["rd"] / (cfg.p_s * g_sd + 1.0)
    per_path = np.minimum(first, second)
    if feasible is not None:
        per_path = np.where(feasible, per_path, -np.inf)
    sinr = per_path.max(axis=0)
    if protocol.has_dt_branch:
        direct = cfg.p_s * g_sd * np.ones_like(sinr)
        if dt_allowed is not None:
            direct = np.where(dt_allowed, direct, -np.inf)
        sinr = np.maximum(sinr, direct)
    return np.maximum(sinr, 0.0)


def reference_counts(cfg, cells, trials, seed, cognitive):
    """Outage counts of every cell, each chunk drawn from its own SFC64
    stream seeded by SeedSequence([seed, chunk index]) and every SINR
    evaluated on its own."""
    hits = [0] * len(cells)
    full, rest = divmod(trials, 65536)
    for chunk, n in enumerate([65536] * full + ([rest] if rest else [])):
        bits = np.random.SFC64(np.random.SeedSequence([seed, chunk]))
        gains = draw_gains(cfg, np.random.Generator(bits), n)
        sinrs = {}
        for j, (point, proto, gamma_th) in enumerate(cells):
            if (id(point), proto) not in sinrs:
                masks = reference_masks(gains, point, proto) if cognitive else ()
                sinrs[id(point), proto] = reference_sinr(gains, point, proto, *masks)
            hits[j] += int(np.count_nonzero(sinrs[id(point), proto] < gamma_th))
    return hits


class TestCountsAgainstReference:
    """Counts of the shared per-point evaluator equal those of an
    evaluator that computes every protocol from scratch."""

    RATES = (0.0, 0.5, 2.0, 8.0)   # common-rate thresholds 0, 2^0.5 - 1, 3, 255

    @staticmethod
    def scenario(name, k, fig2a_cfg, fig2b_cfg):
        base = {"fig2a": fig2a_cfg, "fig2b": fig2b_cfg,
                "no_sd": dataclasses.replace(fig2b_cfg, sd=None),
                "real_shapes": real_shapes(fig2b_cfg)}[name]
        return dataclasses.replace(base, k=k)

    @pytest.mark.parametrize("k", [1, 16])
    @pytest.mark.parametrize("name", ["fig2a", "fig2b", "no_sd", "real_shapes"])
    def test_counts_match_reference(self, name, k, fig2a_cfg, fig2b_cfg):
        cfg = self.scenario(name, k, fig2a_cfg, fig2b_cfg)
        cognitive = cfg.is_cognitive
        moved = dataclasses.replace(cfg, p_s=3.0, p_r=2.0,
                                    **({"i_th": 0.5} if cognitive else {}))
        protocols = list(Protocol) if cfg.sd is not None else [Protocol.NDL]
        cells = [(point, proto, an.outage_threshold(proto, rate, equal))
                 for point in (cfg, moved) for proto in protocols
                 for rate in self.RATES for equal in (True, False)]
        for trials in (1000, 2 * mc.CHUNK_TRIALS + 5):
            expected = reference_counts(cfg, cells, trials, 17, cognitive)
            assert all(h == 0 for h, (_, _, th) in zip(expected, cells) if th == 0.0)
            for workers in (1, 2):
                assert mc.outage_counts(cells, trials, 17, workers) == expected, (
                    trials, workers)

    def test_closed_cap_counts_sinr_zero(self, fig2b_cfg):
        # no relay and not the source meets the cap: every SINR is 0,
        # an outage at any positive threshold and none at threshold 0
        shut = dataclasses.replace(fig2b_cfg, i_th=1e-300)
        cells = [(shut, proto, th) for proto in Protocol for th in (0.0, 1e-300)]
        hits = mc.outage_counts(cells, 1000, seed=0)
        assert hits == [0, 1000] * len(Protocol)


class TestCapSemantics:
    """A relay that fails the cap reads a first hop of 0, and a disallowed
    direct branch reads 0, whatever their gains: the SINRs never go NaN
    and count exactly as reference_sinr's, which leaves those links out."""

    THRESHOLDS = (0.0, 1e-300, 3.0, 255.0)

    def assert_matches_reference(self, gains, cfg, thresholds):
        sinrs = mc._point_sinrs(gains, cfg, list(Protocol))
        for proto, sinr in sinrs.items():
            ref = reference_sinr(gains, cfg, proto, *reference_masks(gains, cfg, proto))
            assert not np.isnan(sinr).any(), proto
            assert (sinr >= 0.0).all(), proto
            for gamma_th in thresholds:
                assert np.count_nonzero(sinr < gamma_th) == np.count_nonzero(
                    ref < gamma_th), (proto, gamma_th)
        return sinrs

    def test_overflowed_hops_of_excluded_links(self, fig2b_cfg):
        # p_s = p_r = 10 and I_th = 3 dB.  Trial 0: relay 0 fails the cap
        # (P_R g_rp = 10) with P_S g_sr = +inf; relay 1 and the source meet
        # it.  Trial 1: the source alone breaks the cap (P_S g_sp = 10), and
        # the direct SNR is +inf.  Trial 2: relay 0 fails the cap with a
        # first hop of inf / inf.
        cfg = dataclasses.replace(fig2b_cfg, k=2, p_s=10.0, p_r=10.0)
        gains = {name: np.array(g, float) for name, g in {
            "sr": [[1e308, 1e308, 1e308], [0.2, 0.2, 0.3]],
            "rr": [[0.5, 1e308, 1e308], [0.1, 0.1, 0.1]],
            "rd": [[1.0, 1.0, 1.0], [0.1, 0.1, 0.2]],
            "sd": [0.1, 1e308, 0.05],
            "sp": [0.01, 1.0, 0.01],
            "rp": [[1.0, 0.01, 1.0], [0.01, 0.01, 0.01]]}.items()}
        with np.errstate(over="ignore", invalid="ignore"):
            sinrs = self.assert_matches_reference(gains, cfg, self.THRESHOLDS)
        for proto, sinr in sinrs.items():
            assert sinr[1] == 0.0, proto
            assert 0.0 < sinr[0] < math.inf and 0.0 < sinr[2] < math.inf, proto

    @pytest.mark.parametrize("cap", ["closed", "vacuous", "half"])
    @pytest.mark.parametrize("k", [1, 3, 16])
    def test_random_draws(self, fig2b_cfg, k, cap):
        cfg = dataclasses.replace(fig2b_cfg, k=k)
        for seed in range(3):
            gains = draw_gains(cfg, np.random.default_rng(seed), 4096)
            load = cfg.p_s * gains["sp"] + cfg.p_r * gains["rp"]   # full-duplex cap load
            i_th = {"closed": 1e-300, "vacuous": 1e300, "half": float(np.median(load))}[cap]
            point = dataclasses.replace(cfg, i_th=i_th)
            ref = reference_sinr(gains, point, Protocol.SDF,
                                 *reference_masks(gains, point, Protocol.SDF))
            thresholds = self.THRESHOLDS + (2 ** 0.5 - 1.0, *np.quantile(ref, [0.1, 0.5, 0.9]))
            sinrs = self.assert_matches_reference(gains, point, thresholds)
            if cap == "closed":
                assert not any(s.any() for s in sinrs.values())
            if cap == "half":
                assert 0.4 < np.mean(load <= i_th) < 0.6


class TestScratch:
    """Blocks evaluated in one reused scratch give the SINRs and counts of
    blocks evaluated each in a fresh one, whatever relay count, duplex
    class, cap and block width the scratch served before."""

    def test_reuse_matches_fresh_scratch(self, fig2b_cfg):
        # each K's two blocks: a full one, then a 7-trial one, as _blocks
        # slices a chunk of BLOCK_TRIALS + 7 trials
        blocks = {k: list(mc._blocks(draw_gains(dataclasses.replace(fig2b_cfg, k=k),
                                                np.random.default_rng(k),
                                                mc.BLOCK_TRIALS + 7),
                                     mc.BLOCK_TRIALS + 7))
                  for k in (16, 1, 3)}
        scratch = mc._Scratch(16, mc.BLOCK_TRIALS)
        kept = []
        for width in (0, 1):
            for k, gains in blocks.items():
                capped = dataclasses.replace(fig2b_cfg, k=k)
                for cfg in (capped, dataclasses.replace(capped, sp=None, rp=None, i_th=None)):
                    fresh = mc._point_sinrs(gains[width], cfg, list(Protocol))
                    reused = mc._point_sinrs(gains[width], cfg, list(Protocol), scratch)
                    kept.append(((width, k, cfg.is_cognitive), fresh, reused))
        # checked last: no later block may overwrite a SINR returned before
        for case, fresh, reused in kept:
            assert fresh.keys() == reused.keys() == set(Protocol), case
            for proto, sinr in fresh.items():
                assert sinr.tobytes() == reused[proto].tobytes(), (case, proto)

    def test_interleaved_relay_counts_share_one_scratch(self, fig2a_cfg, fig2b_cfg,
                                                        monkeypatch):
        points = [dataclasses.replace(fig2b_cfg, k=16), dataclasses.replace(fig2a_cfg, k=1),
                  dataclasses.replace(fig2b_cfg, k=3)]
        cells = [(point, proto, 3.0) for proto in (Protocol.SDF, Protocol.HD_MRC, Protocol.IDL_DT)
                 for point in points]
        trials = mc.CHUNK_TRIALS + mc.BLOCK_TRIALS + 7
        expected = [h for cell in cells for h in mc.outage_counts([cell], trials, seed=5)]
        made = []

        class Recorded(mc._Scratch):
            def __init__(self, k, n):
                made.append((k, n))
                super().__init__(k, n)

        monkeypatch.setattr(mc, "_Scratch", Recorded)
        for workers in (1, 2):
            made.clear()
            assert mc.outage_counts(cells, trials, seed=5, workers=workers) == expected, workers
            # one scratch per thread, sized once for the largest K
            assert 1 <= len(made) <= workers, workers
            assert set(made) == {(16, mc.BLOCK_TRIALS)}, workers


class TestStream:
    """The counts a seed gives are pinned: a change to the bit generator,
    the seeding or the sampler changes every Monte Carlo output and must
    fail here first."""

    def test_golden_counts(self, fig2b_cfg):
        # the products of uniforms of fig2b's integer shapes, and numpy's
        # Gamma sampler, which only the real shapes reach
        golden = [(fig2b_cfg, [34154, 42887, 28747, 26765]),
                  (real_shapes(fig2b_cfg), [40864, 45013, 31854, 31656])]
        for cfg, counts in golden:
            cells = [(cfg, proto, an.outage_threshold(proto, 2.0)) for proto in FD]
            for workers in (1, 2):
                assert mc.outage_counts(cells, 2 * mc.CHUNK_TRIALS + 5, seed=17,
                                        workers=workers) == counts, workers

    def test_golden_feasibility_counts(self, fig2b_cfg):
        # the integer-shape and the real-shape cap links, over a partial chunk
        trials = 2 * mc.CHUNK_TRIALS + 5
        golden = [(fig2b_cfg, [29915, 26784, 42110, 32268], 12247),
                  (real_shapes(fig2b_cfg), [27784, 23251, 43586, 36456], 8071)]
        for cfg, counts, tilde0 in golden:
            for workers in (1, 2):
                f = mc.estimate_feasibility(cfg, trials, seed=17, workers=workers)
                assert f.p == tuple(c / trials for c in counts), workers
                assert f.p_tilde0 == tilde0 / trials, workers

    def test_seeds_do_not_alias_modulo_2_64(self, fig2b_cfg):
        cells = [(fig2b_cfg, Protocol.SDF, 3.0)]
        for seed in (0, 5, 2 ** 64 - 1):
            assert mc.outage_counts(cells, 20_000, seed) != mc.outage_counts(
                cells, 20_000, seed + 2 ** 64), seed

    def test_negative_seed_rejected(self, fig2b_cfg):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            mc.outage_counts([(fig2b_cfg, Protocol.SDF, 3.0)], 100, seed=-1)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            mc.estimate_feasibility(fig2b_cfg, 100, seed=-1)


class TestEstimateFeasibility:
    def test_frequencies_sum_to_one(self, fig2b_cfg):
        f = mc.estimate_feasibility(fig2b_cfg, 100_000, seed=6)
        assert math.fsum(f.p) == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= f.p_tilde0 <= f.p[0]

    def test_matches_analytic(self, fig2b_cfg):
        n = 400_000
        f_mc = mc.estimate_feasibility(fig2b_cfg, n, seed=12345)
        f_an = an.feasibility_dist(fig2b_cfg)
        for L in range(fig2b_cfg.k + 1):
            sigma = math.sqrt(f_an.p[L] * (1 - f_an.p[L]) / n)
            assert abs(f_mc.p[L] - f_an.p[L]) <= 3.5 * sigma, L
        sigma0 = math.sqrt(f_an.p_tilde0 * (1 - f_an.p_tilde0) / n)
        assert abs(f_mc.p_tilde0 - f_an.p_tilde0) <= 3.5 * sigma0

    def test_erlang_case(self):
        cfg = NetworkConfig(k=1, p_s=1, p_r=1, rsi_lambda=1,
                            sr=LinkSpec(1, 1), rd=LinkSpec(1, 1), rr=LinkSpec(1, 1),
                            sd=LinkSpec(1, 1), sp=LinkSpec(1, 1), rp=LinkSpec(1, 1),
                            i_th=2.0)
        n = 200_000
        f = mc.estimate_feasibility(cfg, n, seed=3)
        expect = 1 - 3 * math.exp(-2)
        assert abs(f.p[1] - expect) <= 3 * math.sqrt(expect * (1 - expect) / n)

    def test_vacuous_cap(self, fig2b_cfg):
        f = mc.estimate_feasibility(dataclasses.replace(fig2b_cfg, i_th=1e9),
                                    50_000, seed=0)
        assert f.p[fig2b_cfg.k] == 1.0

    def test_worker_count_invariance(self, fig2b_cfg):
        a = mc.estimate_feasibility(fig2b_cfg, 200_000, seed=11, workers=1)
        b = mc.estimate_feasibility(fig2b_cfg, 200_000, seed=11, workers=8)
        assert a.p == b.p and a.p_tilde0 == b.p_tilde0


class TestCognitiveSelectionRules:
    def test_empty_feasible_set_is_outage_for_relay_only(self, fig2b_cfg):
        shut = dataclasses.replace(fig2b_cfg, i_th=1e-12)
        est = mc.estimate_outage(shut, Protocol.NDL, 2.0, 20_000, seed=0, cognitive=True)
        assert est.p_hat == 1.0

    def test_direct_branch_survives_closed_cap_sometimes(self, fig2b_cfg):
        # cap small enough to shut out every relay pair but not the
        # source alone: outage must stay strictly below 1
        tight = dataclasses.replace(fig2b_cfg, i_th=0.3)
        relay_only = mc.estimate_outage(tight, Protocol.IDL, 1.0, 50_000, seed=1,
                                        cognitive=True)
        with_dt = mc.estimate_outage(tight, Protocol.IDL_DT, 1.0, 50_000, seed=1,
                                     cognitive=True)
        assert with_dt.p_hat < relay_only.p_hat

    def test_mixture_against_mc_near_closed_cap(self, fig2b_cfg):
        tight = dataclasses.replace(fig2b_cfg, i_th=0.05)
        n = 300_000
        for proto in (Protocol.IDL_DT, Protocol.SDF):
            est = mc.estimate_outage(tight, proto, 2.0, n, seed=12345, cognitive=True)
            pa = an.outage(tight, proto, 2.0, cognitive=True)
            assert abs(est.p_hat - pa) <= max(4 * est.stderr, 1e-3), proto


class TestOutageEstimateType:
    def test_invariants(self):
        with pytest.raises(ValueError):
            mc.OutageEstimate(p_hat=1.2, stderr=0.0, trials=10, seed=0)
        with pytest.raises(ValueError):
            mc.OutageEstimate(p_hat=0.5, stderr=0.0, trials=0, seed=0)
