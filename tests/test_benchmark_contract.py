"""The names the benchmark in perfbench/ binds in fdrs still exist.

perfbench wraps fdrs from outside and checks its rows against the
quadrature oracles, so a renamed or deleted function would otherwise
only surface in a benchmark run."""
import ast
import importlib
from pathlib import Path

import pytest

from fdrs import analytic, montecarlo
from fdrs.channel import Protocol

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    return tracer


def test_tracer_installs_traces_and_uninstalls(tracer_module, fig2a_cfg):
    originals = (analytic.outage, analytic.cdf_conditional, montecarlo.draw_gains)
    tracer = tracer_module.Tracer()
    tracer_module.install(tracer)
    try:
        analytic.outage(fig2a_cfg, Protocol.IDL, 2.0)
        montecarlo.estimate_outage(fig2a_cfg, Protocol.IDL, 2.0, 1000, seed=1)
    finally:
        tracer.uninstall()
    assert (analytic.outage, analytic.cdf_conditional, montecarlo.draw_gains) == originals
    names = {s.name for s in tracer.spans}
    assert {"analytic.outage", "analytic.cdf_conditional", "channel.draw_gains"} <= names


def test_checks_bindings_exist():
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    oracles = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "analytic"}
    assert {"cdf_ndl_quad", "feasibility_dist_quad"} <= oracles
    for name in oracles:
        assert callable(getattr(analytic, name, None)), f"analytic.{name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("fdrs"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
