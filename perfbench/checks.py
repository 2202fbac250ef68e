"""Output checks, run after the timed passes.

Every check adds one to `attempted` and, when it fails, one to
`failed`.  The relay sweep is checked against fdrs's quadrature
oracles, never against the closed forms under test; the rate sweep's
simulations are checked against its closed-form rows.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import math
from functools import lru_cache
from statistics import NormalDist

from scipy import special

from fdrs import analytic
from fdrs.channel import FD_PROTOCOLS, NetworkConfig, Protocol
from fdrs.cli import parse_config

QUAD_TOL = 1e-8      # closed form against quadrature, as the acceptance suite
VALIDATE_Z = 3.0     # fdrs validate: |z| <= 3 or |delta| <= 1e-3
VALIDATE_ABS = 1e-3


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def parse_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_run(name: str, result: dict, scenario: str) -> Checks:
    """Exit codes, repeatability and the workload's value checks."""
    checks = Checks()
    passes = result["passes"]
    first = passes[0]
    for i, p in enumerate(passes):
        checks.add(p["rc"] == 0, f"pass {i}: exit code {p['rc']}")
        if i:
            checks.add(p["rows_sha256"] == first["rows_sha256"],
                       f"pass {i}: data rows differ from pass 0")
    if "workers1" in result:
        checks.add(result["workers1"]["rows_sha256"] == first["rows_sha256"],
                   "--workers 1 data rows differ from --workers 2")
    if "traced" in result:
        checks.add(result["traced"]["rows_sha256"] == first["rows_sha256"],
                   "traced pass data rows differ from untraced")
    rows = parse_rows(first["rows"])
    {"mc-validate": _check_validate,
     "analytic-relay-sweep": _check_relay_sweep,
     "mixed-rate-sweep": _check_mixed_sweep}[name](rows, parse_config(scenario), checks)
    return checks


def _check_validate(rows, cfg, checks: Checks) -> None:
    protocols = [r["protocol"] for r in rows]
    checks.add(protocols == [p.value for p in FD_PROTOCOLS],
               f"validate rows {protocols}")
    for r in rows:
        checks.add(r["status"] == "PASS", f"validate {r['protocol']}: {r['status']}")


# ---------------------------------------------------------------------------
# analytic-relay-sweep: every row against the quadrature mixture

@lru_cache(maxsize=None)
def _conditional_quad(cfg: NetworkConfig, protocol: Protocol, x: float, relays: int) -> float:
    oracle = {Protocol.NDL: analytic.cdf_ndl_quad, Protocol.IDL: analytic.cdf_idl_quad,
              Protocol.IDL_DT: analytic.cdf_idl_dt_quad,
              Protocol.SDF: analytic.cdf_sdf_quad}[protocol]
    return oracle(x, cfg, relays)


def cognitive_outage_quad(cfg: NetworkConfig, protocol: Protocol, x: float) -> float:
    """P(SINR < x) under the cap: feasibility_dist_quad mixed with cdf_<p>_quad.

    F(x) = P0 - Q_SD(x) P~0 [direct branch only] + sum_L P_L F(x | L).
    The conditional CDFs do not read cfg.k, so they are cached with k
    fixed and shared by every relay count of the sweep.
    """
    feas = analytic.feasibility_dist_quad(cfg)
    parts = [feas.p[0]]
    if protocol.has_dt_branch:
        parts.append(-special.gammaincc(cfg.sd.m, x / (cfg.p_s * cfg.sd.theta))
                     * feas.p_tilde0)
    shared = dataclasses.replace(cfg, k=1)
    for relays in range(1, cfg.k + 1):
        if feas.p[relays] > 0.0:
            parts.append(feas.p[relays] * _conditional_quad(shared, protocol, x, relays))
    return min(max(math.fsum(parts), 0.0), 1.0)


def _check_relay_sweep(rows, cfg, checks: Checks) -> None:
    rate = 2.0   # the sweep's default --rate
    x = 2.0 ** rate - 1.0
    seen = [(int(float(r["axis"])), r["protocol"], r["method"]) for r in rows]
    expected = [(k, p, "analytic") for k in range(1, 17)
                for p in ("ndl", "idl", "idl_dt", "sdf")]
    checks.add(seen == expected, f"relay sweep rows {len(seen)}, expected {len(expected)}")
    for r in rows:
        k, proto = int(float(r["axis"])), Protocol.parse(r["protocol"])
        ref = cognitive_outage_quad(dataclasses.replace(cfg, k=k), proto, x)
        out, thr = float(r["outage"]), float(r["throughput"])
        checks.add(abs(out - ref) <= QUAD_TOL
                   and abs(thr - rate * (1.0 - ref)) <= rate * QUAD_TOL,
                   f"K={k} {proto.value}: outage {out!r} vs quadrature {ref!r}")


# ---------------------------------------------------------------------------
# mixed-rate-sweep: simulation against closed form, half duplex in range

def _check_mixed_sweep(rows, cfg, checks: Checks) -> None:
    by_key = {(r["axis"], r["protocol"], r["method"]): r for r in rows}
    axes = sorted({r["axis"] for r in rows}, key=float)
    fd = ("idl", "idl_dt", "sdf")
    expected = {(a, p, m) for a in axes for p in fd for m in ("analytic", "mc")}
    expected |= {(a, p, "mc") for a in axes for p in ("hd_mrc", "hd_sdf")}
    checks.add(len(axes) == 16 and len(rows) == len(by_key) and set(by_key) == expected,
               f"mixed sweep rows {len(rows)} over {len(axes)} rates")
    # validate's rule allows a 3-sigma miss per protocol, about 0.27 % of
    # correct runs; one sweep asks it of every (rate, protocol) cell, so
    # the z limit is widened until the whole family keeps that rate
    cells = [(a, p) for a in axes for p in fd
             if (a, p, "mc") in by_key and (a, p, "analytic") in by_key]
    family_alpha = 2.0 * (1.0 - NormalDist().cdf(VALIDATE_Z))
    z_limit = NormalDist().inv_cdf(1.0 - family_alpha / (2.0 * max(len(cells), 1)))
    for a, p in cells:
        mc, an = by_key[a, p, "mc"], by_key[a, p, "analytic"]
        delta = float(mc["outage"]) - float(an["outage"])
        se = float(mc["stderr"])
        z = delta / se if se > 0 else (0.0 if delta == 0 else math.inf)
        checks.add(abs(z) <= z_limit or abs(delta) <= VALIDATE_ABS,
                   f"rate {a} {p}: mc {mc['outage']} vs analytic {an['outage']}, z={z:.2f}")
    for a in axes:
        for p in ("hd_mrc", "hd_sdf"):
            r = by_key.get((a, p, "mc"))
            if r is not None:
                checks.add(0.0 <= float(r["outage"]) <= 1.0,
                           f"rate {a} {p}: outage {r['outage']} outside [0, 1]")
