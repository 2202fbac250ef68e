"""Seed audit of the Monte Carlo stream against the benchmark's checks.

For each seed of a range it runs the `mixed-rate-sweep` and `mc-validate`
CLI calls of perfbench in this process, applies perfbench/checks.py's
rules to their rows without changing them, and prints, per workload
and pooled, the mean and sd of z over every Monte Carlo cell, the
share of cells beyond 3 and beyond the mixed sweep's Bonferroni limit,
and every seed that fails a rule; then, per cell ((rate, protocol) of
the mixed sweep, protocol of validate), the mean z, its standard error
and the count beyond that limit.  pytest does not collect it.  Run it
from the root of a checkout:

    python3 tests/stream_audit.py --mixed-seeds 0-199 --validate-seeds 0-59
"""
from __future__ import annotations

import argparse
import math
import statistics
import sys
import tempfile
from pathlib import Path
from statistics import NormalDist

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def cell_zs(name: str, rows: list[dict]) -> tuple[list[tuple[tuple, float]], int]:
    """(cell, z) of every Monte Carlo cell with a nonzero standard error,
    and the number of cells the workload's check compares."""
    if name == "mc-validate":
        return ([((r["protocol"],), float(r["z"])) for r in rows if float(r["stderr"]) > 0],
                len(rows))
    by_key = {(r["axis"], r["protocol"], r["method"]): r for r in rows}
    pairs = [((axis, proto), mc, by_key[axis, proto, "analytic"])
             for (axis, proto, method), mc in by_key.items()
             if method == "mc" and (axis, proto, "analytic") in by_key]
    return [(cell, (float(mc["outage"]) - float(an["outage"])) / float(mc["stderr"]))
            for cell, mc, an in pairs if float(mc["stderr"]) > 0], len(pairs)


def bonferroni_limit(cells: int) -> float:
    """The mixed sweep check's z limit for a family of `cells` cells."""
    family_alpha = 2.0 * (1.0 - NormalDist().cdf(checks.VALIDATE_Z))
    return NormalDist().inv_cdf(1.0 - family_alpha / (2.0 * cells))


def audit(name: str, seeds: range, work: Path) -> tuple[list[tuple[tuple, float]], int]:
    """(cell, z) of every cell over `seeds`, and the cells one run compares."""
    workload = WORKLOADS[name]
    scenario = workload.scenario(ROOT, work)
    zs, failing = [], []
    for seed in seeds:
        result = {"passes": [run_pass(workload.argv(scenario, seed))]}
        found = checks.check_run(name, result, str(scenario))
        if found.failed:
            failing.append(f"seed {seed}: " + "; ".join(found.failures))
        seed_zs, cells = cell_zs(name, checks.parse_rows(result["passes"][0]["rows"]))
        zs += seed_zs
    print(f"{name} seeds {seeds.start}-{seeds.stop - 1}: {len(failing)} failing a check")
    for line in failing:
        print("   ", line)
    return zs, cells


def report(label: str, cells: list[tuple[tuple, float]], limit: float) -> None:
    zs = [z for _, z in cells]
    mean, sd = statistics.fmean(zs), statistics.stdev(zs)
    beyond3 = sum(abs(z) > checks.VALIDATE_Z for z in zs) / len(zs)
    beyond_limit = sum(abs(z) > limit for z in zs) / len(zs)
    print(f"{label}: {len(zs)} cells, z mean {mean:+.4f} (se {sd / math.sqrt(len(zs)):.4f}),"
          f" sd {sd:.4f}, |z| > 3: {beyond3:.4%}, |z| > {limit:.2f}: {beyond_limit:.4%}")


def report_cells(label: str, cells: list[tuple[tuple, float]], limit: float) -> None:
    """Mean z (with its standard error) and the count beyond `limit`, per cell."""
    by_cell = {}
    for cell, z in cells:
        by_cell.setdefault(cell, []).append(z)
    for cell, zs in by_cell.items():
        se = statistics.stdev(zs) / math.sqrt(len(zs)) if len(zs) > 1 else math.nan
        beyond = sum(abs(z) > limit for z in zs)
        print(f"{label} {' '.join(cell)}: {len(zs)} seeds, z mean {statistics.fmean(zs):+.4f}"
              f" (se {se:.4f}), |z| > {limit:.2f}: {beyond}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mixed-seeds", type=seed_range, default=seed_range("0-199"))
    ap.add_argument("--validate-seeds", type=seed_range, default=seed_range("0-59"))
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as work:
        mixed, cells = audit("mixed-rate-sweep", args.mixed_seeds, Path(work))
        validate, _ = audit("mc-validate", args.validate_seeds, Path(work))
    # every share is taken against the mixed sweep's limit, the only
    # Bonferroni limit the checks apply
    limit = bonferroni_limit(cells)
    report("mixed-rate-sweep", mixed, limit)
    report("mc-validate", validate, limit)
    report("pooled", mixed + validate, limit)
    report_cells("mixed-rate-sweep", mixed, limit)
    report_cells("mc-validate", validate, limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
