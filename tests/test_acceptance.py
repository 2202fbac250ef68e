"""Acceptance criteria for the full deliverable, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Tolerances are fixed here, not tunable.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from fdrs import analysis
from fdrs import analytic as an
from fdrs import montecarlo as mc
from fdrs.channel import LinkSpec, NetworkConfig, Protocol, db_to_linear

import rayleigh as ray

FD = (Protocol.NDL, Protocol.IDL, Protocol.IDL_DT, Protocol.SDF)
SEED = 12345
dB = db_to_linear


def report(criterion: str, failures: list):
    status = "PASS" if not failures else f"FAIL ({len(failures)} violations)"
    print(f"\n[acceptance] {criterion}: {status}")
    for f in failures[:10]:
        print(f"  - {f}")
    assert not failures, failures


def test_criterion_1_closed_form_vs_simulation(fig2a_cfg, fig2b_cfg):
    """Every protocol/rate cell agrees with simulation within
    max(3 stderr, 1e-3) at 1e6 trials, on both scenarios."""
    start = time.time()
    failures = []
    cells = [(proto, rate) for proto in FD for rate in (1.0, 2.0, 3.0)]
    for cfg, cognitive, name in ((fig2a_cfg, False, "fig2a"),
                                 (fig2b_cfg, True, "fig2b")):
        # one shared-draw simulation per scenario
        hits = mc.outage_counts(
            [(cfg, proto, an.outage_threshold(proto, rate)) for proto, rate in cells],
            10 ** 6, seed=SEED)
        for (proto, rate), h in zip(cells, hits):
            p_an = an.outage(cfg, proto, rate, cognitive=cognitive)
            est = mc.OutageEstimate.from_hits(h, 10 ** 6, SEED)
            tol = max(3 * est.stderr, 1e-3)
            if abs(est.p_hat - p_an) > tol:
                failures.append(
                    f"{name} {proto.value} R={rate}: |{est.p_hat:.6f} - "
                    f"{p_an:.6f}| > {tol:.2e}")
    elapsed = time.time() - start
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.0f}s exceeds 2 min")
    report("1 closed-form vs 1e6-trial simulation", failures)


def test_criterion_2_closed_form_vs_quadrature(fig2a_cfg):
    """Ratio, interfering, hybrid, and selective CDFs match adaptive
    quadrature of their defining integrals within 1e-8 at 20 points."""
    failures = []
    xs = np.geomspace(0.05, 80.0, 20)
    p1 = an.first_hop_ratio_params(fig2a_cfg)
    for x in xs:
        x = float(x)
        pairs = [
            ("ratio", an.cdf_ratio_gamma(x, p1), an.cdf_ratio_gamma_quad(x, p1)),
            ("idl", an.cdf_conditional(x, fig2a_cfg, Protocol.IDL, 3),
             an.cdf_idl_quad(x, fig2a_cfg, 3)),
            ("idl_dt", an.cdf_conditional(x, fig2a_cfg, Protocol.IDL_DT, 3),
             an.cdf_idl_dt_quad(x, fig2a_cfg, 3)),
            ("sdf", an.cdf_conditional(x, fig2a_cfg, Protocol.SDF, 3),
             an.cdf_sdf_quad(x, fig2a_cfg, 3)),
        ]
        for name, closed, oracle in pairs:
            if abs(closed - oracle) > 1e-8:
                failures.append(f"{name} at x={x:.3g}: |{closed} - {oracle}| > 1e-8")
    report("2 closed form vs quadrature oracle (1e-8)", failures)


def test_criterion_3_feasibility_distribution(fig2b_cfg):
    """Feasibility probabilities: simulation within 3 sigma at 1e6
    trials, unit total within 1e-9, and the single-relay Erlang value
    reproduced to 1e-10."""
    failures = []
    f_an = an.feasibility_dist(fig2b_cfg)
    f_mc = mc.estimate_feasibility(fig2b_cfg, 10 ** 6, seed=SEED)
    for feasible in range(fig2b_cfg.k + 1):
        sigma = math.sqrt(f_an.p[feasible] * (1 - f_an.p[feasible]) / 10 ** 6)
        if abs(f_mc.p[feasible] - f_an.p[feasible]) > 3 * sigma:
            failures.append(f"p[{feasible}] off by more than 3 sigma")
    if abs(math.fsum(f_an.p) - 1.0) > 1e-9:
        failures.append(f"sum p[L] = {math.fsum(f_an.p)} not 1 within 1e-9")
    if not 0.0 <= f_an.p_tilde0 <= f_an.p[0]:
        failures.append("p_tilde0 outside [0, p[0]]")
    erlang_cfg = NetworkConfig(k=1, p_s=1, p_r=1, rsi_lambda=1,
                               sr=LinkSpec(1, 1), rd=LinkSpec(1, 1),
                               rr=LinkSpec(1, 1), sd=LinkSpec(1, 1),
                               sp=LinkSpec(1, 1), rp=LinkSpec(1, 1), i_th=2.0)
    got = an.feasibility_dist(erlang_cfg).p[1]
    want = 1 - 3 * math.exp(-2)
    if abs(got - want) > 1e-10:
        failures.append(f"Erlang value {got} vs {want}")
    report("3 feasibility distribution analytic vs simulation", failures)


def test_criterion_4_diversity_orders(fig4_cfg):
    """Power sweeps 10..50 dB at K=3 reproduce the diversity table:
    slopes within +/-0.3, floors flagged."""
    start = time.time()
    failures = []
    slopes = {(Protocol.NDL, 0.0): 3.0, (Protocol.IDL_DT, 0.0): 4.0,
              (Protocol.SDF, 0.0): 4.0, (Protocol.IDL_DT, 1.0): 1.0,
              (Protocol.SDF, 1.0): 1.0}
    floors = [(Protocol.IDL, 0.0), (Protocol.IDL, 1.0), (Protocol.NDL, 1.0)]
    for (proto, lam), want in slopes.items():
        cfg = dataclasses.replace(fig4_cfg, rsi_lambda=lam)
        fit = analysis.diversity_sweep(cfg, proto, 2.0, 10.0, 50.0, 17)
        if fit.floor_detected or abs(fit.slope - want) > 0.3:
            failures.append(f"{proto.value} lambda={lam}: slope {fit.slope:.3f} "
                            f"(want {want} +/- 0.3, floor={fit.floor_detected})")
    for proto, lam in floors:
        cfg = dataclasses.replace(fig4_cfg, rsi_lambda=lam)
        fit = analysis.diversity_sweep(cfg, proto, 2.0, 10.0, 50.0, 17)
        if not fit.floor_detected:
            failures.append(f"{proto.value} lambda={lam}: floor not detected "
                            f"(slope {fit.slope:.3f})")
    elapsed = time.time() - start
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.0f}s exceeds 1 min")
    report("4 diversity orders from slope fits", failures)


def test_criterion_5_rayleigh_reduction(fig4_cfg):
    """With unit Nakagami shapes the general forms equal the elementary
    Rayleigh expressions within 1e-10 over a 50-point power grid."""
    failures = []
    pis = dict(pi_sr=dB(10), pi_rd=dB(10), pi_rr=dB(3), pi_sd=dB(0))
    x = 3.0
    for lam in (0.0, 1.0):
        for p_db in np.linspace(0.0, 50.0, 50):
            p = dB(float(p_db))
            cfg = dataclasses.replace(fig4_cfg, p_s=p, p_r=p, rsi_lambda=lam)
            checks = [
                ("ndl", an.cdf_conditional(x, cfg, Protocol.NDL, 3),
                 ray.outage_ndl(p, x, 3, lam, pis["pi_sr"], pis["pi_rd"], pis["pi_rr"])),
                ("idl", an.cdf_conditional(x, cfg, Protocol.IDL, 3),
                 ray.outage_idl(p, x, 3, lam, **pis)),
                ("idl_dt", an.cdf_conditional(x, cfg, Protocol.IDL_DT, 3),
                 ray.outage_idl_dt(p, x, 3, lam, **pis)),
                ("sdf", an.cdf_conditional(x, cfg, Protocol.SDF, 3),
                 ray.outage_sdf(p, x, 3, lam, **pis)),
            ]
            for name, general, special in checks:
                if abs(general - special) > 1e-10:
                    failures.append(
                        f"{name} lambda={lam} P={p_db:.1f}dB: |{general} - {special}|")
    report("5 Rayleigh reduction of the general forms (1e-10)", failures)


def test_criterion_6_dominance_and_monotonicity(fig2a_cfg):
    """Structural properties: protocol dominance, CDF monotonicity,
    RSI-scaling monotonicity, throughput identities."""
    failures = []
    xs = np.geomspace(0.02, 120.0, 40)
    prev = {proto: 0.0 for proto in FD}
    for x in xs:
        x = float(x)
        vals = {proto: an.cdf_conditional(x, fig2a_cfg, proto, 3) for proto in FD}
        if not vals[Protocol.SDF] <= vals[Protocol.IDL_DT] + 1e-12 <= \
                vals[Protocol.IDL] + 2e-12:
            failures.append(f"dominance violated at x={x:.3g}")
        for proto in FD:
            if vals[proto] < prev[proto] - 1e-12:
                failures.append(f"{proto.value} CDF decreasing at x={x:.3g}")
            prev[proto] = vals[proto]
    strong = dataclasses.replace(fig2a_cfg, p_s=10.0, p_r=10.0)
    for proto in FD:
        lam_vals = [an.cdf_conditional(3.0, dataclasses.replace(strong, rsi_lambda=lam),
                                       proto, 3) for lam in np.linspace(0, 1, 5)]
        if not all(b >= a - 1e-12 for a, b in zip(lam_vals, lam_vals[1:])):
            failures.append(f"{proto.value} not monotone in the RSI exponent")
    for proto in FD:
        for rate in (0.5, 2.0, 5.0):
            p = an.outage(fig2a_cfg, proto, rate)
            t = an.throughput(fig2a_cfg, proto, rate)
            if abs(t - rate * (1 - p)) > 1e-12 * max(1.0, rate):
                failures.append(f"throughput identity broken for {proto.value} R={rate}")
    if an.throughput_from_outage(Protocol.HD_SDF, 2.0, 0.0) != 1.0:
        failures.append("half-duplex throughput factor is not 1/2")
    report("6 dominance, monotonicity, and throughput identities", failures)


def test_criterion_7_worker_determinism(fig2b_cfg):
    """Simulation results are bit-identical for 1, 2, and 8 workers."""
    failures = []
    estimates = [mc.estimate_outage(fig2b_cfg, Protocol.SDF, 2.0, 10 ** 6,
                                    seed=SEED, cognitive=True, workers=w)
                 for w in (1, 2, 8)]
    if not (estimates[0].p_hat == estimates[1].p_hat == estimates[2].p_hat):
        failures.append(f"outage estimates differ: "
                        f"{[e.p_hat for e in estimates]}")
    feas = [mc.estimate_feasibility(fig2b_cfg, 10 ** 6, seed=SEED, workers=w)
            for w in (1, 2, 8)]
    if not (feas[0].p == feas[1].p == feas[2].p):
        failures.append("feasibility frequencies differ across worker counts")
    report("7 bit-identical results across worker counts", failures)
