"""Run one workload through fdrs.cli.main in this process and write what it
measured as JSON.  run.py starts it in a fresh interpreter so that the
peak memory it reports belongs to the workload alone.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --scenario FILE --out FILE.json

Passes: one warm-up, then timed passes until --seconds have gone by.
With --trace 1, one more pass runs with the tracer installed and its
spans go to FILE.spans.json; on mc-validate a worker-scaling probe runs
before it.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import fdrs.cli  # noqa: E402
from fdrs import montecarlo  # noqa: E402
from fdrs.channel import FD_PROTOCOLS  # noqa: E402

SCALING_KEYS = ("montecarlo.mtrials_per_s.w1", "montecarlo.mtrials_per_s.w2",
                "montecarlo.scaling_eff")
SCALING_REPEATS = 3
SCALING_RATE = 2.0
SCALING_TRIALS = 10 ** 6


def run_pass(argv: list[str]) -> dict:
    """One call of the CLI; the output is kept in memory, not printed."""
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out):
        rc = fdrs.cli.main(argv)
    wall = perf_counter() - t0
    rows = "\n".join(line for line in out.getvalue().splitlines()
                     if not line.startswith("#"))
    return {"wall_s": wall, "rc": rc, "rows": rows,
            "rows_sha256": hashlib.sha256(rows.encode()).hexdigest()}


def timed_passes(argv: list[str], seconds: float) -> list[dict]:
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(argv))
    return passes


def scaling_probe(scenario: Path, seed: int) -> dict:
    """Monte Carlo rate of the mc-validate simulations with 1 and 2 workers.

    The two worker counts alternate so that drift in machine load falls
    on both; never more threads than the machine has cores.
    """
    cfg = fdrs.cli.parse_config(str(scenario))
    counts = [w for w in (1, 2) if w <= (os.cpu_count() or 1)]
    walls = {w: [] for w in counts}
    for rep in range(SCALING_REPEATS):
        for w in (counts if rep % 2 == 0 else counts[::-1]):
            t0 = perf_counter()
            for proto in FD_PROTOCOLS:
                montecarlo.estimate_outage(cfg, proto, SCALING_RATE, SCALING_TRIALS,
                                           seed, True, w)
            walls[w].append(perf_counter() - t0)
    rate = {w: len(FD_PROTOCOLS) * SCALING_TRIALS / statistics.median(t) / 1e6
            for w, t in walls.items()}
    w1, w2 = rate.get(1, 0.0), rate.get(2, 0.0)
    return dict(zip(SCALING_KEYS, (w1, w2, w2 / (2 * w1) if w1 and w2 else 0.0)))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    scenario = Path(args.scenario)
    argv = workload.argv(scenario, args.seed)

    # one untimed pass first, for lazy imports and cached tables; on
    # mc-validate it runs with one worker, for the determinism check
    result: dict = {}
    if args.workload == "mc-validate":
        result["workers1"] = run_pass(workload.argv(scenario, args.seed, workers=1))
    else:
        run_pass(argv)
    passes = result["passes"] = timed_passes(argv, args.seconds)
    if args.trace:
        # worker scaling is a property of the mc-validate simulations only
        layers = (scaling_probe(scenario, args.seed) if args.workload == "mc-validate"
                  else dict.fromkeys(SCALING_KEYS, 0.0))
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = run_pass(argv)
        finally:
            tracer.uninstall()
        layers.update(tracing.layer_metrics(tracer))
        base = statistics.median(p["wall_s"] for p in passes)
        layers["trace.overhead_ratio"] = traced["wall_s"] / base
        result["traced"] = traced
        result["layers"] = layers
        tracer.dump(Path(args.out).with_suffix(".spans.json"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
