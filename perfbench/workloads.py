"""The benchmark's workloads: the CLI arguments and scenario file of each.

The program sees only the arguments and scenario files built here; the
benchmark seed becomes the Monte Carlo --seed of the workloads that
simulate.  Why each workload exists is in README.md beside this file.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: str                  # scenario shipped in the repo
    args: tuple[str, ...]        # CLI arguments after --config
    seeded: bool                 # takes the benchmark seed as --seed
    overrides: dict = field(default_factory=dict)   # (section, key) -> value

    def scenario(self, root: Path, work: Path) -> Path:
        """The scenario file to pass; written to `work` when overridden."""
        source = root / self.config
        if not self.overrides:
            return source
        parser = configparser.ConfigParser()
        if not parser.read(source):
            raise FileNotFoundError(source)
        for (section, key), value in self.overrides.items():
            parser[section][key] = value
        path = work / f"{self.name}.cfg"
        with open(path, "w") as f:
            parser.write(f)
        return path

    def argv(self, scenario: Path, seed: int, workers: int | None = None) -> list[str]:
        argv = [self.args[0], "--config", str(scenario), *self.args[1:]]
        if self.seeded:
            argv += ["--seed", str(seed)]
        if workers is not None:
            i = argv.index("--workers")
            argv[i + 1] = str(workers)
        return argv


WORKLOADS = {w.name: w for w in (
    Workload(
        "mc-validate", "configs/fig2b.cfg",
        ("validate", "--rate", "2", "--trials", "4000000", "--workers", "2"),
        seeded=True),
    Workload(
        "analytic-relay-sweep", "configs/fig3.cfg",
        ("sweep", "--axis", "relay_count", "--from", "1", "--to", "16",
         "--protocols", "ndl,idl,idl_dt,sdf", "--method", "analytic"),
        seeded=False,
        overrides={("links", "m_rd"): "4", ("cognitive", "m_rp"): "2"}),
    Workload(
        "mixed-rate-sweep", "configs/fig2b.cfg",
        ("sweep", "--axis", "rate_bpcu", "--from", "0.5", "--to", "8", "--steps", "16",
         "--protocols", "idl,idl_dt,sdf,hd_mrc,hd_sdf", "--method", "both",
         "--trials", "100000", "--workers", "1"),
        seeded=True),
)}
