"""Spans and counters around calls into fdrs, installed from outside the program.

The tracer replaces module attributes with timing wrappers and restores
them on uninstall.  Every wrapped call except the special-function
kernels becomes one span: name, start, end, parent span and the time its
children took.  The kernels run millions of times per pass, so they are
aggregated into a call count and a self time per function instead.

Self time is a span's duration minus the part its children cover.
Children on the same thread nest strictly, so their durations add up;
children on pool threads (Monte Carlo chunks) overlap one another, so
the union of their intervals is subtracted instead.
"""
from __future__ import annotations

import dataclasses
import inspect
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

SPECFUN_KERNELS = ("reg_lower_gamma", "reg_upper_gamma", "ln_gamma", "ln_beta",
                   "ln_kummer_m", "tricomi_u", "whittaker_w")
PROTOCOLS = ("ndl", "idl", "idl_dt", "sdf")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cross_thread: bool   # parent is blocked on another thread's stack
    child_s: float       # same-thread children, kernels included
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState:
    def __init__(self):
        # frames are [span id or None, child seconds]; the root frame
        # absorbs the time of top-level calls
        self.stack = [[None, 0.0]]
        self.kernels = defaultdict(lambda: [0, 0.0])


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self._patches: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            st = _ThreadState()
            self._tls.state = st
            with self._lock:
                self._states.append(st)
            return st

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def span(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Wrap module.attr so each call records a Span.

        before(bound_arguments) returns the span's attrs and runs before
        the call; after(result, attrs) may add to them.
        """
        fn = getattr(module, attr)
        sig = inspect.signature(fn)
        main = self._main

        def wrapper(*args, **kwargs):
            attrs = {}
            if before is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = before(bound.arguments)
            st = self._state()
            parent = st.stack[-1][0]
            cross = parent is None and st is not main
            if cross:
                parent = main.stack[-1][0]
            frame = [next(self._ids), 0.0]
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.stack.pop()
                st.stack[-1][1] += t1 - t0
            if after is not None:
                after(result, attrs)
            self.spans.append(Span(frame[0], name, t0, t1, parent, cross,
                                   frame[1], attrs))
            return result

        self._patch(module, attr, wrapper)

    def kernel(self, module, attr: str, name: str) -> None:
        """Wrap module.attr with an aggregated count and self time."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            st = self._state()
            frame = [None, 0.0]
            st.stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                st.stack.pop()
                st.stack[-1][1] += dur
                agg = st.kernels[name]
                agg[0] += 1
                agg[1] += dur - frame[1]

        self._patch(module, attr, wrapper)

    def kernel_totals(self) -> dict[str, tuple[int, float]]:
        totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for st in self._states:
            for name, (calls, self_s) in st.kernels.items():
                totals[name][0] += calls
                totals[name][1] += self_s
        return {k: (v[0], v[1]) for k, v in totals.items()}

    def self_times(self) -> dict[int, float]:
        """Self time of every span, by span id."""
        cross: dict[int, list] = defaultdict(list)
        for s in self.spans:
            if s.cross_thread:
                cross[s.parent].append((s.start, s.end))
        return {s.id: s.duration - s.child_s - _union_length(cross.get(s.id, ()))
                for s in self.spans}

    def dump(self, path) -> None:
        record = {
            "spans": [dataclasses.asdict(s) for s in self.spans],
            "kernels": self.kernel_totals(),
        }
        with open(path, "w") as f:
            json.dump(record, f, default=str)


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


# ---------------------------------------------------------------------------
# what to wrap in fdrs, and how to key repeated work

def _outage_attrs(a) -> dict:
    # the half-duplex rate convention only changes the value of
    # half-duplex protocols
    hd = a["hd_equal_delivered_rate"] if a["protocol"].half_duplex else None
    return {"key": (a["cfg"], a["protocol"], a["rate"], a["cognitive"], hd)}


def _cdf_conditional_attrs(a) -> dict:
    # the conditional CDF reads `relays`, never cfg.k
    cfg = a["cfg"]
    fields = tuple(getattr(cfg, f.name) for f in dataclasses.fields(cfg) if f.name != "k")
    return {"key": (a["x"], fields, a["protocol"], a["relays"]),
            "protocol": a["protocol"].value}


def _draw_attrs(a) -> dict:
    state = a["rng"].bit_generator.state
    return {"key": (state["bit_generator"], repr(state["state"]), a["cfg"].k, a["n"])}


def _count_variates(result, attrs) -> None:
    attrs["variates"] = sum(int(np.size(g)) for g in result.values())


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of fdrs that the per-layer metrics read."""
    from fdrs import analysis, analytic, cli, montecarlo, specfun

    tracer.span(cli, "parse_config", "cli.parse_config")
    tracer.span(analysis, "run_sweep", "analysis.run_sweep")
    tracer.span(analysis, "validate_report", "analysis.validate_report")
    tracer.span(analytic, "outage", "analytic.outage", before=_outage_attrs)
    tracer.span(analytic, "cdf_cognitive", "analytic.cdf_cognitive")
    # _CDF_BY_PROTOCOL holds the cdf_<p> functions directly, so the
    # dispatcher is the one place that sees every conditional CDF
    tracer.span(analytic, "cdf_conditional", "analytic.cdf_conditional",
                before=_cdf_conditional_attrs)
    tracer.span(analytic, "feasibility_dist", "analytic.feasibility_dist")
    # analytic calls the kernels as sf.<name>, and specfun calls its own
    # kernels through module globals, so attribute wrappers see both
    for name in SPECFUN_KERNELS:
        tracer.kernel(specfun, name, f"specfun.{name}")
    tracer.span(montecarlo, "estimate_outage", "montecarlo.estimate_outage")
    # montecarlo imported draw_gains by name: replace that binding
    tracer.span(montecarlo, "draw_gains", "channel.draw_gains",
                before=_draw_attrs, after=_count_variates)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _distinct_ratio(spans) -> float:
    return len({s.attrs["key"] for s in spans}) / len(spans) if spans else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics; a layer the pass never called reads 0."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    self_s = tracer.self_times()

    def total_self(prefix: str) -> float:
        return sum((self_s[s.id] for s in tracer.spans if s.name.startswith(prefix)), 0.0)

    def durations_us(spans) -> list[float]:
        return [s.duration * 1e6 for s in spans]

    m: dict[str, float] = {}
    parse = by_name["cli.parse_config"]
    m["cli.parse_config.ms"] = _pct([s.duration * 1e3 for s in parse], 50)
    m["analysis.self_s"] = total_self("analysis.")

    out = by_name["analytic.outage"]
    m["analytic.outage.calls"] = len(out)
    m["analytic.outage.distinct_ratio"] = _distinct_ratio(out)
    m["analytic.outage.us_p50"] = _pct(durations_us(out), 50)
    m["analytic.outage.us_p90"] = _pct(durations_us(out), 90)
    cond = by_name["analytic.cdf_conditional"]
    m["analytic.cdf_conditional.calls"] = len(cond)
    m["analytic.cdf_conditional.distinct_ratio"] = _distinct_ratio(cond)
    m["analytic.cdf_conditional.self_s"] = total_self("analytic.cdf_conditional")
    for p in PROTOCOLS:
        m[f"analytic.cdf_conditional.{p}.us_p50"] = _pct(
            durations_us([s for s in cond if s.attrs["protocol"] == p]), 50)
    feas = by_name["analytic.feasibility_dist"]
    m["analytic.feasibility_dist.calls"] = len(feas)
    m["analytic.feasibility_dist.us_p50"] = _pct(durations_us(feas), 50)
    m["analytic.self_s"] = total_self("analytic.")

    kernels = tracer.kernel_totals()
    m["specfun.calls"] = sum(c for c, _ in kernels.values())
    m["specfun.self_s"] = sum(t for _, t in kernels.values())
    for name in SPECFUN_KERNELS:
        calls, t = kernels.get(f"specfun.{name}", (0, 0.0))
        m[f"specfun.{name}.calls"] = calls
        m[f"specfun.{name}.self_s"] = t

    draws = by_name["channel.draw_gains"]
    draw_s = sum(s.duration for s in draws)
    m["channel.draw_gains.calls"] = len(draws)
    m["channel.draw_gains.self_s"] = total_self("channel.draw_gains")
    m["channel.gamma_variates_per_s"] = (
        sum(s.attrs["variates"] for s in draws) / draw_s if draw_s else 0.0)
    distinct = _distinct_ratio(draws)
    m["channel.redraw_factor"] = 1.0 / distinct if distinct else 0.0
    m["montecarlo.estimate_outage.calls"] = len(by_name["montecarlo.estimate_outage"])
    m["montecarlo.self_s"] = total_self("montecarlo.")
    return m
