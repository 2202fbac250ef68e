"""Sweep drivers, diversity-order fitting, and the validation report."""
import dataclasses
import math
import random
import sys

import numpy as np
import pytest

from fdrs import analysis, analytic, montecarlo
from fdrs import specfun as sf
from fdrs.channel import ConfigError, Protocol, db_to_linear

FD = (Protocol.NDL, Protocol.IDL, Protocol.IDL_DT, Protocol.SDF)


class TestDiversityFit:
    def test_exact_power_law(self):
        pts = [(p, 3.0 / p ** 2) for p in np.geomspace(10, 1e5, 12)]
        fit = analysis.diversity_fit(pts)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)
        assert fit.stderr <= 1e-9
        assert fit.points_used == 12
        assert not fit.floor_detected

    def test_floor_detection(self):
        pts = [(p, 1e-3 * (1 + 0.001 / p)) for p in np.geomspace(10, 1e5, 10)]
        assert analysis.diversity_fit(pts).floor_detected

    def test_bend_into_floor_fits_tail_window(self):
        # power law that hits a floor: the trailing window shrinks to
        # the flat region and the floor is flagged
        pts = [(p, 1e-8 + 10.0 / p ** 2) for p in np.geomspace(10, 1e7, 14)]
        fit = analysis.diversity_fit(pts)
        assert fit.floor_detected

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            analysis.diversity_fit([(10.0, 0.1), (20.0, 0.0), (40.0, 0.01), (80.0, 0.001)])
        with pytest.raises(ValueError):
            analysis.diversity_fit([(10.0, 0.1), (10.0, 0.01), (40.0, 0.01), (80.0, 0.001)])
        with pytest.raises(ValueError):
            analysis.diversity_fit([(10.0, 0.1), (20.0, 0.01)])

    @staticmethod
    def numpy_fit(points):
        """The array implementation the list-based fit replaced."""
        def ols(t, y):
            n = len(t)
            tbar, ybar = t.mean(), y.mean()
            stt = float(((t - tbar) ** 2).sum())
            slope = float(((t - tbar) * (y - ybar)).sum()) / stt
            resid = y - ybar - slope * (t - tbar)
            ss_res = float((resid ** 2).sum())
            ss_tot = float(((y - ybar) ** 2).sum())
            r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
            stderr = math.sqrt(ss_res / (n - 2) / stt) if n > 2 else 0.0
            return slope, stderr, r2

        t = np.log10(np.array([p for p, _ in points], dtype=float))
        y = -np.log10(np.array([q for _, q in points], dtype=float))
        floor = ols(t[-4:], y[-4:])[0] < 0.1
        for length in range(len(t), 3, -1):
            slope, stderr, r2 = ols(t[-length:], y[-length:])
            if r2 >= 0.999:
                return slope, stderr, length, floor
        slope, stderr, _ = ols(t[-4:], y[-4:])
        return slope, stderr, 4, floor

    def assert_matches_numpy_fit(self, points):
        fit = analysis.diversity_fit(points)
        slope, stderr, used, floor = self.numpy_fit(points)
        assert fit.slope == pytest.approx(slope, rel=1e-12, abs=1e-12)
        assert fit.stderr == pytest.approx(stderr, rel=1e-12, abs=1e-12)
        assert (fit.points_used, fit.floor_detected) == (used, floor)

    def test_matches_numpy_fit_on_random_curves(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(4, 40)
            powers = sorted(rng.sample(range(1, 10 ** 6), n))
            # outage falling with power along a random, rarely straight curve
            log_q = sorted((rng.uniform(-14.0, -0.01) for _ in range(n)), reverse=True)
            self.assert_matches_numpy_fit([(float(p), 10 ** v) for p, v in zip(powers, log_q)])

    @pytest.mark.parametrize("proto,lam", [
        (Protocol.NDL, 0.0), (Protocol.IDL_DT, 0.0), (Protocol.SDF, 0.0),
        (Protocol.IDL_DT, 1.0), (Protocol.SDF, 1.0),
        (Protocol.IDL, 0.0), (Protocol.IDL, 1.0), (Protocol.NDL, 1.0),
    ])
    def test_matches_numpy_fit_on_fig4(self, fig4_cfg, proto, lam):
        # the power sweeps of the diversity table
        cfg = dataclasses.replace(fig4_cfg, rsi_lambda=lam)
        result = analysis.run_sweep(analysis.SweepSpec("power_db", 10, 50, 17, (proto,)), cfg)
        self.assert_matches_numpy_fit([(db_to_linear(r.axis_value), r.outage)
                                       for r in result.rows
                                       if r.outage > 0.0])


class TestDiversitySweep:
    # relay-order table at K=3: slope K(1-lambda) for the no-direct-link
    # form, K(1-lambda)+1 once direct transmission enters, floors when
    # the RSI scales linearly or the direct link is pure interference
    @pytest.mark.parametrize("proto,lam,want", [
        (Protocol.NDL, 0.0, 3.0),
        (Protocol.IDL_DT, 0.0, 4.0),
        (Protocol.SDF, 0.0, 4.0),
        (Protocol.IDL_DT, 1.0, 1.0),
        (Protocol.SDF, 1.0, 1.0),
    ])
    def test_slopes(self, fig4_cfg, proto, lam, want):
        cfg = dataclasses.replace(fig4_cfg, rsi_lambda=lam)
        fit = analysis.diversity_sweep(cfg, proto, 2.0, 10, 50, 17)
        assert not fit.floor_detected
        assert fit.slope == pytest.approx(want, abs=0.3)

    @pytest.mark.parametrize("proto,lam", [
        (Protocol.IDL, 0.0),
        (Protocol.IDL, 1.0),
        (Protocol.NDL, 1.0),
    ])
    def test_floors(self, fig4_cfg, proto, lam):
        cfg = dataclasses.replace(fig4_cfg, rsi_lambda=lam)
        fit = analysis.diversity_sweep(cfg, proto, 2.0, 10, 50, 17)
        assert fit.floor_detected

    def test_mc_route_needs_enough_hits(self, fig4_cfg):
        # deep-tail points fall below 100 hits and are dropped; the
        # shallow end still supports a fit
        fit = analysis.diversity_sweep(fig4_cfg, Protocol.NDL, 2.0, 0, 14, 8,
                                       method="mc", trials=20_000, seed=5)
        assert fit.points_used >= 4

    def test_mc_route_rejects_all_noise(self, fig4_cfg):
        with pytest.raises(ValueError):
            analysis.diversity_sweep(fig4_cfg, Protocol.SDF, 2.0, 35, 50, 6,
                                     method="mc", trials=10_000, seed=5)


class TestRunSweep:
    def test_relay_count_axis(self, fig4_cfg):
        spec = analysis.SweepSpec(axis="relay_count", start=1, stop=8, steps=8,
                                  protocols=(Protocol.NDL, Protocol.IDL_DT))
        res = analysis.run_sweep(spec, fig4_cfg)
        assert len(res.rows) == 8 * 2
        assert not res.errors
        lam0 = dataclasses.replace(fig4_cfg, rsi_lambda=0.0)
        res0 = analysis.run_sweep(spec, lam0)
        ndl = [r.outage for r in res0.rows if r.protocol is Protocol.NDL]
        assert all(a >= b for a, b in zip(ndl, ndl[1:]))

    @pytest.mark.parametrize("rate", [0.5, 2.0, 4.0])
    def test_cognitive_outage_falls_with_relay_count_to_the_source_cap(
            self, rate, fig2b_cfg, fig3_cfg):
        # selection among more relays, each usable independently given the
        # source's interference, cannot raise the outage; no relay count
        # takes it below Q(m_sp, I_th / (p_s theta_sp)), the chance that
        # the source alone breaks the cap
        slack = 4 * sf.REL_TOL
        spec = analysis.SweepSpec(axis="relay_count", start=1, stop=128, steps=128,
                                  protocols=FD, rate=rate)
        for cfg in (fig2b_cfg, fig3_cfg):
            floor = sf.reg_upper_gamma(cfg.sp.m, cfg.i_th / (cfg.p_s * cfg.sp.theta))
            res = analysis.run_sweep(spec, cfg)
            assert not res.errors and len(res.rows) == 128 * len(FD)
            for proto in FD:
                outages = [r.outage for r in res.rows if r.protocol is proto]
                for k, (prev, p) in enumerate(zip(outages, outages[1:]), start=2):
                    assert p <= prev * (1 + slack), (proto, k)
                assert min(outages) >= floor * (1 - slack), proto

    def test_rate_axis_throughput_ordering(self, fig2a_cfg):
        spec = analysis.SweepSpec(axis="rate_bpcu", start=2.0, stop=2.0001, steps=2,
                                  protocols=FD)
        res = analysis.run_sweep(spec, fig2a_cfg)
        at_r2 = {r.protocol: r.throughput for r in res.rows
                 if r.axis_value == 2.0}
        assert at_r2[Protocol.SDF] >= at_r2[Protocol.IDL_DT] >= at_r2[Protocol.IDL]

    def test_power_axis_monotone(self, fig4_cfg):
        spec = analysis.SweepSpec(axis="power_db", start=0, stop=30, steps=7,
                                  protocols=(Protocol.IDL_DT,))
        res = analysis.run_sweep(spec, fig4_cfg)
        outs = [r.outage for r in res.rows]
        assert all(a >= b for a, b in zip(outs, outs[1:]))

    def test_throughput_recomputation_identity(self, fig2a_cfg):
        spec = analysis.SweepSpec(axis="rate_bpcu", start=0.5, stop=6, steps=6,
                                  protocols=FD)
        res = analysis.run_sweep(spec, fig2a_cfg)
        for r in res.rows:
            assert r.throughput == pytest.approx(r.axis_value * (1 - r.outage), rel=1e-12)

    def test_analytic_throughput_from_row_outage(self, fig2b_cfg):
        spec = analysis.SweepSpec(axis="rate_bpcu", start=0.5, stop=6, steps=4,
                                  protocols=FD)
        res = analysis.run_sweep(spec, fig2b_cfg)
        assert len(res.rows) == 4 * len(FD)
        for r in res.rows:
            rate = r.axis_value
            assert r.throughput == analytic.throughput_from_outage(r.protocol, rate, r.outage)
            assert r.throughput == analytic.throughput(fig2b_cfg, r.protocol, rate,
                                                       cognitive=True)

    def test_validation_errors_are_aggregated(self, fig4_cfg):
        stripped = dataclasses.replace(fig4_cfg, sd=None)
        spec = analysis.SweepSpec(axis="rate_bpcu", start=1, stop=3, steps=3,
                                  protocols=(Protocol.NDL, Protocol.IDL, Protocol.SDF))
        res = analysis.run_sweep(spec, stripped)
        assert set(res.errors) == {"idl", "sdf"}
        assert {r.protocol for r in res.rows} == {Protocol.NDL}

    def test_both_methods_emit_two_rows_per_cell(self, fig4_cfg):
        spec = analysis.SweepSpec(axis="rate_bpcu", start=1, stop=2, steps=2,
                                  protocols=(Protocol.NDL,), method="both",
                                  trials=5000, seed=1)
        res = analysis.run_sweep(spec, fig4_cfg)
        assert len(res.rows) == 4
        methods = {r.method for r in res.rows}
        assert methods == {"analytic", "mc"}
        assert all(r.stderr is not None for r in res.rows if r.method == "mc")

    def test_ith_axis_requires_cognitive(self, fig4_cfg):
        spec = analysis.SweepSpec(axis="ith_db", start=-5, stop=10, steps=4,
                                  protocols=(Protocol.NDL,))
        with pytest.raises(ConfigError):
            analysis.run_sweep(spec, fig4_cfg)

    def test_ith_axis_outage_decreasing(self, fig2b_cfg):
        spec = analysis.SweepSpec(axis="ith_db", start=-5, stop=15, steps=6,
                                  protocols=(Protocol.SDF,))
        res = analysis.run_sweep(spec, fig2b_cfg)
        outs = [r.outage for r in res.rows]
        assert all(a >= b - 1e-12 for a, b in zip(outs, outs[1:]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            analysis.SweepSpec(axis="frequency", start=0, stop=1, steps=2,
                               protocols=(Protocol.NDL,))
        with pytest.raises(ValueError):
            analysis.SweepSpec(axis="rate_bpcu", start=2, stop=1, steps=2,
                               protocols=(Protocol.NDL,))
        with pytest.raises(ValueError):
            analysis.SweepSpec(axis="rate_bpcu", start=1, stop=2, steps=1,
                               protocols=(Protocol.NDL,))
        # relay_count visits every integer between the rounded ends
        with pytest.raises(ValueError, match="steps=2 does not match"):
            analysis.SweepSpec(axis="relay_count", start=1, stop=6, steps=2,
                               protocols=(Protocol.NDL,))
        assert analysis.SweepSpec(axis="relay_count", start=1.4, stop=3.6, steps=4,
                                  protocols=(Protocol.NDL,)).axis_values() == [1, 2, 3, 4]
        # a non-finite bound is named, on every axis
        for axis in analysis.AXES:
            for start, stop, name in ((0, math.inf, "stop"), (-math.inf, 1, "start"),
                                      (math.nan, 1, "start")):
                with pytest.raises(ValueError, match=f"sweep {name} must be finite"):
                    analysis.SweepSpec(axis=axis, start=start, stop=stop, steps=3,
                                       protocols=(Protocol.NDL,))
            # finite bounds whose span overflows
            with pytest.raises(ValueError, match="sweep stop - start must be finite, got inf"):
                analysis.SweepSpec(axis=axis, start=-1e308, stop=1e308, steps=3,
                                   protocols=(Protocol.NDL,))

    @pytest.mark.parametrize("start,stop,steps", [(0.5, 8, 16), (-10, 60, 15), (-5, 20, 26)])
    def test_axis_values_are_linspace(self, start, stop, steps):
        values = analysis.SweepSpec(axis="power_db", start=start, stop=stop, steps=steps,
                                    protocols=(Protocol.NDL,)).axis_values()
        assert all(type(v) is float for v in values)
        assert values == np.linspace(start, stop, steps).tolist()

    def test_axis_values_are_linspace_on_random_grids(self):
        rng = random.Random(2024)
        for _ in range(2000):
            start = rng.choice([rng.uniform(-100, 100), float(rng.randint(-60, 60))])
            stop = start + rng.choice([rng.uniform(1e-6, 200), float(rng.randint(1, 90))])
            steps = rng.randint(2, 200)
            values = analysis.SweepSpec(axis="rate_bpcu", start=start, stop=stop, steps=steps,
                                        protocols=(Protocol.NDL,)).axis_values()
            assert values == np.linspace(start, stop, steps).tolist(), (start, stop, steps)


class TestValidateReport:
    def test_all_pass_on_consistent_pair(self, fig2a_cfg):
        rows = analysis.validate_report(fig2a_cfg, FD, 2.0, 100_000, seed=12345)
        assert all(r.passed for r in rows)

    def test_corrupted_analytic_value_fails(self, fig2a_cfg):
        rows = analysis.validate_report(fig2a_cfg, (Protocol.NDL,), 2.0,
                                        100_000, seed=12345)
        r = rows[0]
        corrupted = analysis.ValidationRow(
            r.protocol, r.p_analytic + 0.05, r.p_hat, r.stderr,
            (r.p_hat - r.p_analytic - 0.05) / r.stderr,
            passed=abs((r.p_hat - r.p_analytic - 0.05) / r.stderr) <= 3
            or abs(r.p_hat - r.p_analytic - 0.05) <= 1e-3)
        assert not corrupted.passed

    def test_zero_probability_edge(self, fig2a_cfg):
        rows = analysis.validate_report(fig2a_cfg, (Protocol.NDL,), 0.0, 1000, seed=0)
        assert rows[0].p_analytic == 0.0 and rows[0].p_hat == 0.0 and rows[0].passed


class TestFeasibilityOncePerPoint:
    """A cognitive driver computes the feasibility distribution once per
    distinct point and shares it across protocols and rates; outside a
    shared_blocks() scope every call computes it."""

    @staticmethod
    def counting(monkeypatch):
        # the distributions actually computed, not the public calls
        calls = []
        real = analytic._feasibility

        def _feasibility(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(analytic, "_feasibility", _feasibility)
        return calls

    @pytest.mark.parametrize("axis,start,stop,calls", [
        ("rate_bpcu", 0.5, 8.0, 1), ("relay_count", 1, 5, 5)])
    def test_sweep(self, fig2b_cfg, monkeypatch, axis, start, stop, calls):
        spec = analysis.SweepSpec(axis=axis, start=start, stop=stop, steps=5, protocols=FD)
        expected = [
            analytic.outage(analysis._apply_axis(fig2b_cfg, axis, v), proto,
                            v if axis == "rate_bpcu" else spec.rate, cognitive=True)
            for v in spec.axis_values() for proto in FD]
        seen = self.counting(monkeypatch)
        rows = analysis.run_sweep(spec, fig2b_cfg).rows
        assert len(seen) == calls
        assert [r.outage for r in rows] == expected

    def test_validate_report(self, fig2b_cfg, monkeypatch):
        expected = [analytic.outage(fig2b_cfg, proto, 2.0, cognitive=True) for proto in FD]
        seen = self.counting(monkeypatch)
        rows = analysis.validate_report(fig2b_cfg, FD, 2.0, 1000, seed=0)
        assert len(seen) == 1
        assert [r.p_analytic for r in rows] == expected

    @staticmethod
    def two_outages(cfg):
        return [analytic.outage(cfg, proto, rate, cognitive=True)
                for proto, rate in ((Protocol.SDF, 2.0), (Protocol.NDL, 3.0))]

    def test_computed_per_call_outside_a_scope(self, fig2b_cfg, monkeypatch):
        seen = self.counting(monkeypatch)
        self.two_outages(fig2b_cfg)
        assert len(seen) == 2

    def test_computed_once_inside_a_scope(self, fig2b_cfg, monkeypatch):
        expected = self.two_outages(fig2b_cfg)
        seen = self.counting(monkeypatch)
        with analytic.shared_blocks():
            got = self.two_outages(fig2b_cfg)
        assert len(seen) == 1
        assert got == expected


class TestSharedDrawDrivers:
    """The batched drivers give what one simulation per cell gives."""

    @staticmethod
    def per_cell_rows(spec, cfg):
        rows = []
        for value in spec.axis_values():
            point = analysis._apply_axis(cfg, spec.axis, value)
            rate = value if spec.axis == "rate_bpcu" else spec.rate
            for proto in spec.protocols:
                est = montecarlo.estimate_outage(
                    point, proto, rate, spec.trials, spec.seed, cfg.is_cognitive)
                thr_th = analytic.outage_threshold(proto, rate, hd_equal_delivered_rate=False)
                [thr] = montecarlo.outage_counts([(point, proto, thr_th)], spec.trials,
                                                 spec.seed)
                rows.append(analysis.SweepRow(
                    value, proto, "mc", est.p_hat,
                    analytic.throughput_from_outage(proto, rate, thr / spec.trials),
                    stderr=est.stderr, trials=est.trials, seed=est.seed))
        return rows

    @pytest.mark.parametrize("axis,start,stop", [
        ("power_db", 0, 20), ("rate_bpcu", 1, 3), ("relay_count", 1, 3), ("ith_db", -5, 10)])
    def test_sweep_matches_per_cell_calls(self, fig2b_cfg, axis, start, stop):
        spec = analysis.SweepSpec(axis=axis, start=start, stop=stop, steps=3,
                                  protocols=(Protocol.IDL_DT, Protocol.HD_SDF),
                                  method="mc", trials=5000, seed=3, workers=2)
        rows = analysis.run_sweep(spec, fig2b_cfg).rows
        assert list(rows) == self.per_cell_rows(spec, fig2b_cfg)

    def test_one_cell_per_full_duplex_point(self, fig2b_cfg, monkeypatch):
        # a full-duplex threshold ignores the equal-delivered-rate rule, so
        # only the half-duplex baselines need a second cell per point
        cells = []
        counts = montecarlo.outage_counts

        def counting(batch, *args, **kwargs):
            cells.extend(batch)
            return counts(batch, *args, **kwargs)
        monkeypatch.setattr(montecarlo, "outage_counts", counting)
        spec = analysis.SweepSpec(axis="rate_bpcu", start=0.5, stop=8, steps=16,
                                  protocols=(Protocol.IDL, Protocol.IDL_DT, Protocol.SDF,
                                             Protocol.HD_MRC, Protocol.HD_SDF),
                                  method="both", trials=2000, seed=1)
        rows = analysis.run_sweep(spec, fig2b_cfg).rows
        assert len(cells) == 16 * (3 + 2 * 2)
        monkeypatch.setattr(montecarlo, "outage_counts", counts)
        mc_rows = [r for r in rows if r.method == "mc"]
        assert mc_rows == self.per_cell_rows(spec, fig2b_cfg)

    def test_one_comparison_per_distinct_threshold(self, fig2b_cfg, monkeypatch):
        # a half-duplex baseline's equal-delivered-rate cell at rate r has
        # the threshold of its throughput cell at rate 2r: on this sweep
        # 16 of the 112 cells repeat another, so a block makes 96 comparisons
        comparisons = [0]
        sinrs = montecarlo._point_sinrs

        class Counted(np.ndarray):
            def __lt__(self, other):
                comparisons[0] += 1
                return np.asarray(self) < other

        def counting(*args):
            return {p: v.view(Counted) for p, v in sinrs(*args).items()}
        monkeypatch.setattr(montecarlo, "_point_sinrs", counting)
        spec = analysis.SweepSpec(axis="rate_bpcu", start=0.5, stop=8, steps=16,
                                  protocols=(Protocol.IDL, Protocol.IDL_DT, Protocol.SDF,
                                             Protocol.HD_MRC, Protocol.HD_SDF),
                                  method="mc", trials=2000, seed=1)
        rows = analysis.run_sweep(spec, fig2b_cfg).rows
        assert comparisons[0] == 96
        monkeypatch.setattr(montecarlo, "_point_sinrs", sinrs)
        assert list(rows) == self.per_cell_rows(spec, fig2b_cfg)

    def test_validate_report_matches_per_cell_calls(self, fig2b_cfg):
        rows = analysis.validate_report(fig2b_cfg, FD, 2.0, 20_000, seed=7, workers=2)
        for r in rows:
            est = montecarlo.estimate_outage(fig2b_cfg, r.protocol, 2.0, 20_000, seed=7,
                                             cognitive=True)
            assert (r.p_hat, r.stderr) == (est.p_hat, est.stderr)

    def test_diversity_mc_matches_per_cell_calls(self, fig4_cfg):
        # without RSI scaling the outage falls fast enough for the top
        # points to drop below 100 hits
        cfg = dataclasses.replace(fig4_cfg, rsi_lambda=0.0)
        trials = 20_000
        fit = analysis.diversity_sweep(cfg, Protocol.NDL, 2.0, 0, 14, 8,
                                       method="mc", trials=trials, seed=5)
        kept = []
        for pdb in np.linspace(0, 14, 8):
            p = db_to_linear(float(pdb))
            est = montecarlo.estimate_outage(dataclasses.replace(cfg, p_s=p, p_r=p),
                                             Protocol.NDL, 2.0, trials, 5,
                                             cfg.is_cognitive)
            if round(est.p_hat * trials) >= 100:
                kept.append((p, est.p_hat))
        assert 4 <= len(kept) < 8
        assert fit == analysis.diversity_fit(kept)


class TestSharedBlocks:
    """A sweep evaluates each closed-form block once, with the values
    per-point calls give, and keeps nothing after it returns."""

    @staticmethod
    def relay_sweep_cfg(fig3_cfg):
        # the analytic-relay-sweep benchmark scenario
        return dataclasses.replace(fig3_cfg, rd=dataclasses.replace(fig3_cfg.rd, m=4.0),
                                   rp=dataclasses.replace(fig3_cfg.rp, m=2.0))

    @staticmethod
    def counting(monkeypatch, names=("_ln_moments",)):
        """Count the calls _ln_blocks itself makes to `names`; by default
        its block evaluations, one moment table each."""
        calls = [0]
        for name in names:
            def inner(*args, _real=getattr(analytic, name)):
                calls[0] += sys._getframe(1).f_code.co_name == "_ln_blocks"
                return _real(*args)
            monkeypatch.setattr(analytic, name, inner)
        return calls

    @pytest.fixture
    def sweeps(self, fig3_cfg, fig2a_cfg, fig2b_cfg):
        return {
            "relay": (analysis.SweepSpec("relay_count", 1, 16, 16, FD),
                      self.relay_sweep_cfg(fig3_cfg)),
            "relay_fig2a": (analysis.SweepSpec("relay_count", 1, 16, 16, FD), fig2a_cfg),
            "ith": (analysis.SweepSpec("ith_db", -5, 20, 26, FD), fig2b_cfg),
        }

    @pytest.mark.parametrize("name", ["relay", "relay_fig2a", "ith"])
    def test_rows_equal_per_point_calls(self, sweeps, name):
        spec, cfg = sweeps[name]
        expected = [analytic.outage(analysis._apply_axis(cfg, spec.axis, v), proto,
                                    spec.rate, cfg.is_cognitive)
                    for v in spec.axis_values() for proto in FD]
        assert [r.outage for r in analysis.run_sweep(spec, cfg).rows] == expected

    # the blocks of the idl and idl_dt entries that the bound on kappa leaves
    # to the closed form (no sdf or feasibility entry takes a block): blocks
    # 0 and 1 of each at K = 1 in the relay sweep, none in the cap sweep
    @pytest.mark.parametrize("name,blocks", [("relay", 4), ("ith", 0)])
    def test_each_block_evaluated_once_per_sweep(self, sweeps, monkeypatch, name, blocks):
        spec, cfg = sweeps[name]
        calls = self.counting(monkeypatch)
        for _ in range(2):   # nothing is kept from one sweep to the next
            calls[0] = 0
            analysis.run_sweep(spec, cfg)
            assert calls[0] == blocks

    def test_one_power_step_per_chain_and_count(self, sweeps, monkeypatch):
        # the relay sweep grows the chain only as far as an entry whose
        # kappa bound allows the closed form reaches: idl and idl_dt share
        # E_1, and sdf builds none
        spec, cfg = sweeps["relay"]
        calls = self.counting(monkeypatch, ("_ln_poly_times",))
        analysis.run_sweep(spec, cfg)
        assert calls[0] == 1

    def test_relay_sweep_skips_blocks_no_entry_uses(self, sweeps, monkeypatch):
        # every entry past the ones kappa leaves to the closed form takes
        # the positive route, so no block beyond them is evaluated
        spec, cfg = sweeps["relay"]
        calls = self.counting(monkeypatch)
        analysis.run_sweep(spec, cfg)
        assert calls[0] <= 12

    def test_no_sharing_outside_a_sweep(self, fig3_cfg, monkeypatch):
        cfg = dataclasses.replace(self.relay_sweep_cfg(fig3_cfg), k=16)
        calls = self.counting(monkeypatch)
        analytic.outage(cfg, Protocol.IDL, 2.0, cognitive=True)
        # K = 16: kappa leaves the closed form only idl's F(x | 1), from
        # blocks 0 and 1; every feasibility entry takes the positive route
        assert calls[0] == 2
        analysis.run_sweep(analysis.SweepSpec("relay_count", 1, 16, 16, FD),
                           self.relay_sweep_cfg(fig3_cfg))
        calls[0] = 0
        analytic.outage(cfg, Protocol.IDL, 2.0, cognitive=True)
        analytic.outage(cfg, Protocol.IDL, 2.0, cognitive=True)
        assert calls[0] == 4

    def test_scope_nests_and_ends(self, fig2b_cfg, monkeypatch):
        # at 6 bpcu kappa leaves idl's entries to the closed form
        calls = self.counting(monkeypatch)
        with analytic.shared_blocks():
            analytic.outage(fig2b_cfg, Protocol.IDL, 6.0)
            first = calls[0]
            assert first
            with analytic.shared_blocks():   # an inner scope starts empty
                analytic.outage(fig2b_cfg, Protocol.IDL, 6.0)
            assert calls[0] == 2 * first
            analytic.outage(fig2b_cfg, Protocol.IDL, 6.0)   # the outer scope holds
            assert calls[0] == 2 * first
        with pytest.raises(ZeroDivisionError):
            with analytic.shared_blocks():
                raise ZeroDivisionError
        analytic.outage(fig2b_cfg, Protocol.IDL, 6.0)
        assert calls[0] == 3 * first

    @staticmethod
    def kept_lists(cfg, x, order):
        """F(x | L) lists of every protocol for each K of `order`, taken
        in that order inside one scope."""
        with analytic.shared_blocks():
            return {(proto, k): analytic._conditional_cdfs(x, cfg, proto, k)
                    for k in order for proto in FD}

    @pytest.mark.parametrize("name", ["fig2a", "fig3", "fig4"])
    def test_lists_equal_unshared_calls_in_any_order(self, fig2a_cfg, fig3_cfg, fig4_cfg,
                                                     name):
        cfg = {"fig2a": fig2a_cfg, "fig3": self.relay_sweep_cfg(fig3_cfg),
               "fig4": fig4_cfg}[name]
        order = list(range(1, 17))
        shuffled = order[:]
        random.Random(17).shuffle(shuffled)
        for x in (0.5, 3.0, 255.0):
            expected = {(proto, k): analytic._conditional_cdfs(x, cfg, proto, k)
                        for k in order for proto in FD}
            for each in (order, order[::-1], shuffled):
                assert self.kept_lists(cfg, x, each) == expected, (x, each)

    def test_relay_sweep_evaluates_each_list_once(self, fig3_cfg, monkeypatch):
        # K = 1..16 at one threshold: one first-hop evaluation that every
        # protocol and the direct-link protocols' rules share, and one outer
        # sum for idl's and idl_dt's F(x | 1), where kappa allows it; F(x | 0)
        # takes none, and sdf is positive at every L
        calls = {"ratio_tails": 0, "outer": 0}
        tails = analytic.ratio_tails

        def first_hop(*args):
            calls["ratio_tails"] += 1
            return tails(*args)
        monkeypatch.setattr(analytic, "ratio_tails", first_hop)
        binomial_sum = analytic.sf.ln_binomial_sum

        def outer(*args, **kwargs):
            # made by _conditional_cdfs itself or by a comprehension in it
            frames = (sys._getframe(1), sys._getframe(2))
            calls["outer"] += any(f.f_code.co_name == "_conditional_cdfs" for f in frames)
            return binomial_sum(*args, **kwargs)
        monkeypatch.setattr(analytic.sf, "ln_binomial_sum", outer)
        analysis.run_sweep(analysis.SweepSpec("relay_count", 1, 16, 16, FD),
                           self.relay_sweep_cfg(fig3_cfg))
        assert calls == {"ratio_tails": 1, "outer": 2}
