"""fdrs benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics of one
traced pass with --trace 1.  Lines before it report the run context
and every metric by name and unit.  README.md beside this file says
what each workload and metric is for.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
TIME_LIMIT_S = 170.0      # every run ends well inside 180 s

# a fresh interpreter importing the CLI and reading the scenario, as a
# user's first command does
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import fdrs.cli
fdrs.cli.parse_config(sys.argv[1])
print(time.perf_counter() - t0)
"""


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise subprocess.TimeoutExpired("perfbench", TIME_LIMIT_S)
    return left


def run_context() -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "loadavg_1m": os.getloadavg()[0], "src_lines": src_lines}


def measure_setup(scenario: Path, deadline: float) -> float:
    """Median over fresh interpreters of importing fdrs.cli and parsing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(scenario)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining(deadline), check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "fdrs" / "cli.py").is_file():
        return fail(f"no fdrs sources under {SRC}; run from the root of a checkout")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(SRC))
    from checks import check_run, parse_rows
    context = run_context()
    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("context " + json.dumps(context, sort_keys=True))

    WORK.mkdir(exist_ok=True)
    scenario = workload.scenario(ROOT, WORK)
    out_path = WORK / f"{workload.name}-{args.seed}-{args.trace}.json"
    try:
        setup_s = None if args.trace else measure_setup(scenario, deadline)
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scenario", str(scenario),
               "--out", str(out_path)]
        subprocess.run(cmd, cwd=ROOT, timeout=remaining(deadline),
                       check=True)
    except subprocess.CalledProcessError as exc:
        return fail(f"{exc.cmd[1]} exited with {exc.returncode}")
    except subprocess.TimeoutExpired:
        return fail(f"stopped after {TIME_LIMIT_S:g} s")
    with open(out_path) as f:
        result = json.load(f)

    checks = check_run(workload.name, result, str(scenario))
    for what in checks.failures:
        print(f"check failed: {what}")

    walls = [p["wall_s"] for p in result["passes"]]
    wall_s = statistics.median(walls)
    rows = parse_rows(result["passes"][0]["rows"])
    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s, "rows_per_s": len(rows) / wall_s,
                   "peak_rss_mb": result["peak_rss_mb"]}
    print(f"wall_s median of {len(walls)} passes: {wall_s:.4f} s "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    # Monte Carlo trials one pass asked for; validate rows do not list them
    if workload.name == "mc-validate":
        trials = len(rows) * int(workload.args[workload.args.index("--trials") + 1])
    else:
        trials = sum(int(r["trials"]) for r in rows if r["method"] == "mc")
    if trials:
        print(f"mtrials_per_s {trials / wall_s / 1e6:.4f} Mtrials/s "
              f"({trials} trials per pass)")
    print(f"fail_ratio {checks.failed / checks.attempted:.4g} "
          f"({checks.failed} of {checks.attempted} checks)")
    for name, unit in units.items():
        value = metrics[name]
        print(f"{name} {value if isinstance(value, int) else format(value, '.6g')} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
