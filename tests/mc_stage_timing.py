"""Monte Carlo time split by stage, and the batched call by worker count.

For the `mc-validate` and `mixed-rate-sweep` workloads of perfbench it
takes the cells the CLI hands to `montecarlo.outage_counts` (one CLI
call in this process, with a wrapper that records them), then times
that batched call on full chunks of CHUNK_TRIALS trials with one
worker.  Per chunk it prints the ms, Mtrials/s and minor page faults of

- draw:  `_chunk_rng` and `draw_gains`,
- sinr:  `_point_sinrs`, every point and protocol of the chunk,
- count: the rest of `_count_chunk` (block slicing and the threshold
  comparisons) and of the call around it.

Each stage is timed by a wrapper set on the module global that
`_count_chunk` calls, so the code timed is the code the CLI runs.  The
faults are those of the thread that runs the call
(`getrusage(RUSAGE_THREAD)`).  The split runs on the main thread, as a
one-worker CLI run does, and on a pool thread, which glibc serves from
an arena of its own.  glibc trims either heap whenever enough memory
at its top is free, so memory freed there and taken again faults in
anew.  No perfbench metric counts those faults.  Last it prints the wall time of
one `outage_counts` call with the validate cells at the workload's
trial count, with 1 and with 2 workers in alternating order.  pytest
does not collect it.  Run it from the root of a checkout:

    python3 tests/mc_stage_timing.py --chunks 8 --repeats 5
"""
from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fdrs import montecarlo as mc  # noqa: E402
from worker import run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STAGES = ("draw", "sinr", "count")


def workload_call(name: str, work: Path, seed: int) -> tuple[list, int]:
    """The cells and trial count of the workload's one `outage_counts` call."""
    workload = WORKLOADS[name]
    calls = []
    original = mc.outage_counts

    def record(cells, trials, seed, workers=1):
        calls.append((list(cells), trials))
        return original(cells, trials, seed, workers)

    mc.outage_counts = record
    try:
        result = run_pass(workload.argv(workload.scenario(ROOT, work), seed))
    finally:
        mc.outage_counts = original
    if result["rc"] != 0 or len(calls) != 1:
        raise SystemExit(f"{name}: rc {result['rc']}, {len(calls)} outage_counts calls")
    return calls[0]


def thread_faults() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


def stage_times(cells: list, chunks: int, seed: int) -> dict:
    """(seconds, minor faults) of each stage over `chunks` full chunks,
    one worker, on the calling thread."""
    spent = {stage: [0.0, 0] for stage in ("draw", "sinr")}
    saved = {name: getattr(mc, name) for name in ("_chunk_rng", "draw_gains", "_point_sinrs")}

    def timed(stage, fn):
        def wrapper(*args):
            f0 = thread_faults()
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[stage][0] += time.perf_counter() - t0
                spent[stage][1] += thread_faults() - f0
        return wrapper

    mc._chunk_rng = timed("draw", saved["_chunk_rng"])
    mc.draw_gains = timed("draw", saved["draw_gains"])
    mc._point_sinrs = timed("sinr", saved["_point_sinrs"])
    try:
        f0 = thread_faults()
        t0 = time.perf_counter()
        mc.outage_counts(cells, chunks * mc.CHUNK_TRIALS, seed, workers=1)
        total = time.perf_counter() - t0, thread_faults() - f0
    finally:
        for name, fn in saved.items():
            setattr(mc, name, fn)
    count = tuple(t - d - s for t, d, s in zip(total, spent["draw"], spent["sinr"]))
    return {**{stage: tuple(v) for stage, v in spent.items()}, "count": count}


def report_stages(name: str, cells: list, chunks: int, repeats: int, seed: int) -> None:
    with ThreadPoolExecutor(max_workers=1) as pool:
        on_pool = [pool.submit(stage_times, cells, chunks, seed).result()
                   for _ in range(repeats)]
    on_main = [stage_times(cells, chunks, seed) for _ in range(repeats)]
    print(f"{name}: {len(cells)} cells, per {mc.CHUNK_TRIALS}-trial chunk "
          f"(median of {repeats} runs of {chunks} chunks)")
    for thread, runs in (("main thread", on_main), ("pool thread", on_pool)):
        print(f"  {thread}")
        total = 0.0
        for stage in STAGES:
            ms = statistics.median(r[stage][0] for r in runs) / chunks * 1e3
            faults = statistics.median(r[stage][1] for r in runs) / chunks
            total += ms
            print(f"    {stage:6s} {ms:8.3f} ms  {mc.CHUNK_TRIALS / ms / 1e3:8.2f} Mtrials/s"
                  f"  {faults:8.1f} faults")
        print(f"    {'total':6s} {total:8.3f} ms  {mc.CHUNK_TRIALS / total / 1e3:8.2f} Mtrials/s")


def report_workers(cells: list, trials: int, repeats: int, seed: int) -> None:
    walls = {1: [], 2: []}
    for rep in range(repeats):
        for workers in ((1, 2) if rep % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            mc.outage_counts(cells, trials, seed, workers)
            walls[workers].append(time.perf_counter() - t0)
    w1, w2 = (statistics.median(walls[w]) for w in (1, 2))
    print(f"mc-validate outage_counts, {trials} trials x {len(cells)} cells "
          f"(median of {repeats}): 1 worker {w1:.3f} s, 2 workers {w2:.3f} s, "
          f"speed-up {w1 / w2:.2f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chunks", type=int, default=8, help="full chunks per stage run")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as work:
        calls = {name: workload_call(name, Path(work), args.seed)
                 for name in ("mc-validate", "mixed-rate-sweep")}
    for name, (cells, _) in calls.items():
        report_stages(name, cells, args.chunks, args.repeats, args.seed)
    cells, trials = calls["mc-validate"]
    report_workers(cells, trials, args.repeats, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
