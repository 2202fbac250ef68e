"""Experiment drivers: parameter sweeps, analytic-vs-simulation
validation reports, and diversity-order slope fitting."""
from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

from fdrs import analytic
from fdrs.channel import (
    ConfigError,
    NetworkConfig,
    Protocol,
    config_violations,
    db_to_linear,
    require_cognitive,
)

__all__ = ["SweepSpec", "SweepRow", "SweepResult", "DiversityFit",
           "ValidationRow", "run_sweep", "diversity_fit", "diversity_sweep",
           "validate_report"]

AXES = ("power_db", "rate_bpcu", "relay_count", "ith_db")


def _check_bounds(start: float, stop: float):
    for name, value in (("start", start), ("stop", stop), ("stop - start", stop - start)):
        if not math.isfinite(value):
            raise ValueError(f"sweep {name} must be finite, got {value}")


def relay_counts(start: float, stop: float) -> range:
    """The relay counts a relay_count sweep from start to stop visits."""
    _check_bounds(start, stop)
    counts = range(int(round(start)), int(round(stop)) + 1)
    if counts.stop - counts.start > sys.maxsize:
        raise ValueError(f"sweep stop {stop:g} is too large: a relay_count sweep from "
                         f"{start:g} to it has more counts than can be listed")
    return counts


@dataclass(frozen=True)
class SweepSpec:
    """One sweep axis plus the protocols and evaluation method to run."""

    axis: str
    start: float
    stop: float
    steps: int
    protocols: tuple[Protocol, ...]
    method: str = "analytic"
    rate: float = 2.0
    trials: int = 10 ** 5
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        _check_bounds(self.start, self.stop)
        if self.steps < 2:
            raise ValueError("steps must be >= 2")
        if not self.start < self.stop:
            raise ValueError("start must be < stop")
        if self.axis == "relay_count" and self.steps != len(relay_counts(self.start, self.stop)):
            raise ValueError(f"steps={self.steps} does not match the relay counts "
                             f"from round({self.start:g}) to round({self.stop:g})")
        if self.method not in ("analytic", "mc", "both"):
            raise ValueError("method must be analytic, mc, or both")
        if not self.protocols:
            raise ValueError("at least one protocol required")

    def axis_values(self) -> list[float]:
        """The axis points: the relay counts, or `steps` evenly spaced
        values, computed as numpy.linspace does so that rows keep their
        digits."""
        if self.axis == "relay_count":
            return [float(v) for v in relay_counts(self.start, self.stop)]
        start, stop = float(self.start), float(self.stop)
        step = (stop - start) / (self.steps - 1)
        return [start + i * step for i in range(self.steps - 1)] + [stop]


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    protocol: Protocol
    method: str
    outage: float
    throughput: float
    stderr: float | None = None
    trials: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    errors: dict[str, list[str]]


def _apply_axis(cfg: NetworkConfig, axis: str, value: float) -> NetworkConfig:
    if axis == "power_db":
        p = db_to_linear(value)
        return dataclasses.replace(cfg, p_s=p, p_r=p)
    if axis == "relay_count":
        return dataclasses.replace(cfg, k=int(round(value)))
    if axis == "ith_db":
        return dataclasses.replace(cfg, i_th=db_to_linear(value))
    return cfg  # rate_bpcu leaves the scenario untouched


@analytic.shared_blocks()   # a fresh block scope for each call
def run_sweep(spec: SweepSpec, cfg: NetworkConfig) -> SweepResult:
    """Evaluate outage and throughput along one axis.

    Protocols that fail validation are reported in `errors` and
    skipped; the remaining protocols still produce rows.  Cognitive
    scenarios (sp/rp/ith present) are evaluated through the feasibility
    mixture.  Throughput always uses the common-source-rate threshold;
    the outage column for half-duplex baselines uses the doubled rate
    so outage comparisons are at equal delivered rate.  The closed forms
    run inside one analytic.shared_blocks() scope, so a sweep over the
    relay count or the cap evaluates each block once, and a point's
    feasibility distribution is shared; the scope ends with the call.
    """
    if spec.axis == "ith_db":
        require_cognitive(cfg)
    errors: dict[str, list[str]] = {}
    active: dict[Protocol, list[str]] = {}
    for proto in spec.protocols:
        methods = ("analytic", "mc") if spec.method == "both" else (spec.method,)
        ok = []
        for m in methods:
            if m == "analytic" and spec.method == "both" and proto.simulation_only:
                continue  # "both" degrades to mc-only for the baselines
            v = config_violations(cfg, proto, m)
            if v:
                errors.setdefault(proto.value, []).extend(f"[{m}] {e}" for e in v)
            else:
                ok.append(m)
        if ok:
            active[proto] = ok

    values = spec.axis_values()
    points = [(_apply_axis(cfg, spec.axis, v), v if spec.axis == "rate_bpcu" else spec.rate)
              for v in values]
    # each simulated cell at the throughput threshold, and a half-duplex
    # baseline also at equal delivered rate for the outage column; a
    # full-duplex threshold ignores that rule, so one count serves both
    keys = [(i, proto, equal) for i in range(len(points)) for proto in active
            if "mc" in active[proto]
            for equal in ((True, False) if proto.half_duplex else (False,))]
    if keys:
        from fdrs import montecarlo   # numpy loads at a run's first simulation
        hits = dict(zip(keys, montecarlo.outage_counts(
            [(points[i][0], proto, analytic.outage_threshold(proto, points[i][1], equal))
             for i, proto, equal in keys], spec.trials, spec.seed, spec.workers)))
    rows = []
    for i, (value, (point_cfg, rate)) in enumerate(zip(values, points)):
        for proto in spec.protocols:
            for method in active.get(proto, ()):
                if method == "analytic":
                    # closed forms exist only for full-duplex protocols,
                    # whose threshold ignores the half-duplex rate rule,
                    # so the outage doubles as the throughput outage
                    p_out = analytic.outage(point_cfg, proto, rate, point_cfg.is_cognitive)
                    rows.append(SweepRow(value, proto, "analytic", p_out,
                                         analytic.throughput_from_outage(proto, rate, p_out)))
                else:
                    est = montecarlo.OutageEstimate.from_hits(
                        hits[i, proto, proto.half_duplex], spec.trials, spec.seed)
                    thr_p = hits[i, proto, False] / spec.trials
                    rows.append(SweepRow(value, proto, "mc", est.p_hat,
                                         analytic.throughput_from_outage(proto, rate, thr_p),
                                         stderr=est.stderr, trials=est.trials,
                                         seed=est.seed))
    return SweepResult(rows=tuple(rows), errors=errors)


# ---------------------------------------------------------------------------
# diversity-order estimation

@dataclass(frozen=True)
class DiversityFit:
    """Log-log slope of outage versus power over the fitted tail window."""

    slope: float
    stderr: float
    points_used: int
    floor_detected: bool

    def __post_init__(self):
        if self.points_used < 2:
            raise ValueError("points_used must be >= 2")


def _ols_slope(t: list[float], y: list[float]):
    """Least-squares slope, its standard error, and R^2 of y against t."""
    n = len(t)
    tbar, ybar = math.fsum(t) / n, math.fsum(y) / n
    dt = [v - tbar for v in t]
    dy = [v - ybar for v in y]
    stt = math.fsum(d * d for d in dt)
    slope = math.fsum(a * b for a, b in zip(dt, dy)) / stt
    resid = [b - slope * a for a, b in zip(dt, dy)]
    ss_res = math.fsum(r * r for r in resid)
    ss_tot = math.fsum(d * d for d in dy)
    r2 = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / stt) if n > 2 else 0.0
    return slope, stderr, r2


def diversity_fit(points) -> DiversityFit:
    """Fit -log10(P_out) against log10(P) over the trailing window.

    `points` is a sequence of (P_linear, P_out) with P strictly
    increasing and positive outage.  The fitted window is the largest
    trailing one of >= 4 points with R^2 >= 0.999, which keeps the fit
    off the curved shoulder without letting it run into an error floor;
    if no window qualifies the last 4 points are used.  A tail slope
    (last 4 points) below 0.1 flags a floor.
    """
    pts = [(float(p), float(q)) for p, q in points]
    if len(pts) < 4:
        raise ValueError("diversity fit needs at least 4 points")
    if any(q <= 0 for _, q in pts):
        raise ValueError("outage values must be positive (zero outage is degenerate)")
    if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
        raise ValueError("power values must be strictly increasing")
    t = [math.log10(p) for p, _ in pts]
    y = [-math.log10(q) for _, q in pts]
    tail_slope, _, _ = _ols_slope(t[-4:], y[-4:])
    floor = tail_slope < 0.1
    for length in range(len(t), 3, -1):
        slope, stderr, r2 = _ols_slope(t[-length:], y[-length:])
        if r2 >= 0.999:
            return DiversityFit(slope, stderr, length, floor)
    slope, stderr, _ = _ols_slope(t[-4:], y[-4:])
    return DiversityFit(slope, stderr, 4, floor)


def diversity_sweep(cfg: NetworkConfig, protocol: Protocol, rate: float,
                    pmin_db: float, pmax_db: float, points: int,
                    method: str = "analytic", trials: int = 10 ** 6,
                    seed: int = 0, workers: int = 1) -> DiversityFit:
    """Power sweep P_S = P_R = P followed by a slope fit.

    Simulated points below 100 hits are dropped before the fit; every
    positive analytic point is kept, as each is accurate to
    specfun.REL_TOL or its evaluation raised.  A protocol the method
    cannot evaluate raises ConfigError.
    """
    if method not in ("analytic", "mc"):
        raise ValueError("method must be analytic or mc")
    result = run_sweep(SweepSpec("power_db", pmin_db, pmax_db, points, (protocol,), method,
                                 rate, trials, seed, workers), cfg)
    if result.errors:
        raise ConfigError(result.errors[protocol.value])
    kept = [(db_to_linear(r.axis_value), r.outage) for r in result.rows
            if (r.outage > 0.0 if r.method == "analytic" else r.outage >= 100 / trials)]
    if len(kept) < 4:
        raise ValueError("fewer than 4 usable points above the resolution floor")
    return diversity_fit(kept)


# ---------------------------------------------------------------------------
# analytic-vs-simulation validation

@dataclass(frozen=True)
class ValidationRow:
    protocol: Protocol
    p_analytic: float
    p_hat: float
    stderr: float
    z_score: float
    passed: bool


@analytic.shared_blocks()   # one feasibility distribution for every protocol
def validate_report(cfg: NetworkConfig, protocols, rate: float, trials: int,
                    seed: int, workers: int = 1) -> list[ValidationRow]:
    """z-test of the simulator against every requested closed form.

    A protocol passes when |z| <= 3 or the absolute gap is below 1e-3
    (the z-test is meaningless at probabilities near 0 or 1 where the
    binomial standard error collapses).
    """
    protocols = list(protocols)
    p_an = [analytic.outage(cfg, proto, rate, cfg.is_cognitive) for proto in protocols]
    from fdrs import montecarlo   # numpy loads at a run's first simulation
    hits = montecarlo.outage_counts(
        [(cfg, proto, analytic.outage_threshold(proto, rate)) for proto in protocols],
        trials, seed, workers)
    rows = []
    for proto, pa, h in zip(protocols, p_an, hits):
        est = montecarlo.OutageEstimate.from_hits(h, trials, seed)
        delta = est.p_hat - pa
        z = delta / est.stderr if est.stderr > 0 else (0.0 if delta == 0 else math.inf)
        rows.append(ValidationRow(proto, pa, est.p_hat, est.stderr, z,
                                  passed=abs(z) <= 3.0 or abs(delta) <= 1e-3))
    return rows
