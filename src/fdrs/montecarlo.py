"""Stochastic oracle: estimate outage and feasibility by direct sampling.

Trials are processed in fixed chunks of 65536, each driven by its own
counter-based Philox stream keyed by (seed, chunk index).  The chunk
layout and the reduction (integer success counts) are independent of
how chunks are scheduled, so estimates are bit-identical for any worker
count.

The gains of a chunk depend only on the seed, the chunk index and the
link statistics, not on protocol, rate, power or interference cap.
`outage_counts` therefore draws each chunk once and counts the outages
of every (scenario point, protocol, threshold) cell from that one draw
(common random numbers); each cell's count is the one a separate
simulation with the same seed would give.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from fdrs.analytic import FeasibilityDist, outage_threshold
from fdrs.channel import (
    NetworkConfig,
    Protocol,
    draw_gains,
    validate_config,
)

__all__ = ["OutageEstimate", "CHUNK_TRIALS", "outage_counts", "estimate_outage",
           "estimate_feasibility"]

CHUNK_TRIALS = 65536
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class OutageEstimate:
    """Monte Carlo point estimate with its binomial standard error."""

    p_hat: float
    stderr: float
    trials: int
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.p_hat <= 1.0:
            raise ValueError("p_hat must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @classmethod
    def from_hits(cls, hits: int, trials: int, seed: int) -> "OutageEstimate":
        """Estimate from an outage count over `trials` trials."""
        p_hat = hits / trials
        return cls(p_hat=p_hat, stderr=math.sqrt(p_hat * (1.0 - p_hat) / trials),
                   trials=trials, seed=seed)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, chunk_index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunk_sizes(trials: int):
    full, rest = divmod(trials, CHUNK_TRIALS)
    sizes = [CHUNK_TRIALS] * full
    if rest:
        sizes.append(rest)
    return sizes


def _batch_sinr(gains: dict, cfg: NetworkConfig, protocol: Protocol,
                feasible: np.ndarray | None = None,
                dt_allowed: np.ndarray | None = None) -> np.ndarray:
    """End-to-end SINR of each trial in a gain batch.

    feasible masks out relays violating the interference cap (shape
    (k, n)); dt_allowed gates the direct-transmission branch.  With no
    usable relay and no allowed direct branch the SINR is 0.
    """
    g_sd = gains.get("sd")
    if g_sd is None:
        g_sd = 0.0
    if protocol.half_duplex:
        first = cfg.p_s * gains["sr"]
        second = cfg.p_r * gains["rd"] + cfg.p_s * g_sd
    else:
        first = cfg.p_s * gains["sr"] / (cfg.p_r ** cfg.rsi_lambda * gains["rr"] + 1.0)
        if protocol is Protocol.NDL:
            second = cfg.p_r * gains["rd"]
        elif protocol is Protocol.SDF:
            second = cfg.p_r * gains["rd"] + cfg.p_s * g_sd
        else:  # IDL, IDL_DT: direct signal interferes with the second hop
            second = cfg.p_r * gains["rd"] / (cfg.p_s * g_sd + 1.0)
    per_path = np.minimum(first, second)
    if feasible is not None:
        per_path = np.where(feasible, per_path, -np.inf)
    sinr = per_path.max(axis=0)
    if protocol.has_dt_branch:
        direct = cfg.p_s * g_sd * np.ones_like(sinr)
        if dt_allowed is not None:
            direct = np.where(dt_allowed, direct, -np.inf)
        sinr = np.maximum(sinr, direct)
    return np.maximum(sinr, 0.0)


def _feasibility_masks(gains: dict, cfg: NetworkConfig, protocol: Protocol):
    """Relay and direct-transmission feasibility under the cap.

    Full duplex superimposes source and relay interference at the
    primary receiver, so relay k is usable iff
    P_S g_sp + P_R g_rp[k] <= I_th.  Half-duplex nodes transmit in
    separate slots, so each component is capped on its own.  Direct
    transmission only involves the source.
    """
    i_sp = cfg.p_s * gains["sp"]
    i_rp = cfg.p_r * gains["rp"]
    dt_allowed = i_sp <= cfg.i_th
    if protocol.half_duplex:
        feasible = dt_allowed[None, :] & (i_rp <= cfg.i_th)
    else:
        feasible = (i_sp[None, :] + i_rp) <= cfg.i_th
    return feasible, dt_allowed


def _count_chunk(cfg, groups, n_cells, cognitive, seed, chunk_index, n):
    gains = draw_gains(cfg, _chunk_rng(seed, chunk_index), n)
    hits = np.zeros(n_cells, dtype=np.int64)
    for point_cfg, protocol, thresholds in groups:
        masks = _feasibility_masks(gains, point_cfg, protocol) if cognitive else ()
        sinr = _batch_sinr(gains, point_cfg, protocol, *masks)
        for i, gamma_th in thresholds:
            hits[i] = np.count_nonzero(sinr < gamma_th)
        del masks, sinr  # free before the next pair's arrays exist
    return hits


def _run_chunks(fn, sizes, workers):
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [fn(i, n) for i, n in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(len(sizes)), sizes))


# fields a cell may change without changing the gains drawn for it
_POINT_FIELDS = ("p_s", "p_r", "i_th")


def _draw_fields(cfg: NetworkConfig) -> list:
    return [getattr(cfg, f.name) for f in fields(cfg) if f.name not in _POINT_FIELDS]


def outage_counts(cfg: NetworkConfig, cells: list[tuple[NetworkConfig, Protocol, float]],
                  trials: int, seed: int, cognitive: bool = False,
                  workers: int = 1) -> list[int]:
    """Outage hit counts of many cells from one set of draws.

    A cell is (point_cfg, protocol, gamma_th): the scenario point, the
    protocol and the SINR threshold whose outages are counted.  Every
    chunk is drawn once from cfg, and each (point_cfg, protocol) pair
    evaluates its SINR on it once for all of its thresholds.  A cell's
    point_cfg may differ from cfg only in p_s, p_r and i_th, the
    fields that leave the drawn gains unchanged; anything else raises
    ValueError.  Counts are returned in cell order, each equal to
    the count of a one-cell simulation with the same seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    groups: list[tuple[NetworkConfig, Protocol, list]] = []
    for i, (point_cfg, protocol, gamma_th) in enumerate(cells):
        validate_config(point_cfg, protocol, "mc")
        if cognitive and not point_cfg.is_cognitive:
            raise ValueError("cognitive=True requires sp/rp/ith in the scenario")
        if _draw_fields(point_cfg) != _draw_fields(cfg):
            raise ValueError("cells must share the drawn gains: they may differ "
                             f"from the drawing scenario only in {_POINT_FIELDS}")
        for g_cfg, g_protocol, thresholds in groups:
            if g_protocol is protocol and g_cfg == point_cfg:
                thresholds.append((i, gamma_th))
                break
        else:
            groups.append((point_cfg, protocol, [(i, gamma_th)]))
    if not groups:
        return []
    counts = _run_chunks(
        lambda i, n: _count_chunk(cfg, groups, len(cells), cognitive, seed, i, n),
        _chunk_sizes(trials), workers)
    return np.sum(counts, axis=0).tolist()


def estimate_outage(cfg: NetworkConfig, protocol: Protocol, rate: float,
                    trials: int, seed: int, cognitive: bool = False,
                    workers: int = 1,
                    hd_equal_delivered_rate: bool = True) -> OutageEstimate:
    """Empirical outage frequency at the threshold 2^rate - 1.

    Per trial: draw one realization; under the interference constraint
    restrict selection to the feasible relays (and, for protocols with
    a direct branch, allow direct transmission iff the source alone
    meets the cap); outage iff the resulting SINR < threshold.  An
    empty candidate set yields SINR 0.  Feasibility and outage use the
    same realization, preserving the correlation through the shared
    source-to-primary gain.  This is the one-cell case of
    `outage_counts`.
    """
    gamma_th = outage_threshold(protocol, rate, hd_equal_delivered_rate)
    [hits] = outage_counts(cfg, [(cfg, protocol, gamma_th)], trials, seed,
                           cognitive, workers)
    return OutageEstimate.from_hits(hits, trials, seed)


def _feasibility_chunk(cfg, seed, chunk_index, n):
    gains = draw_gains(cfg, _chunk_rng(seed, chunk_index), n)
    # any full-duplex protocol: they share the cap rule
    feasible, dt_allowed = _feasibility_masks(gains, cfg, Protocol.NDL)
    feasible_count = np.count_nonzero(feasible, axis=0)
    counts = np.bincount(feasible_count, minlength=cfg.k + 1)
    tilde0 = int(np.count_nonzero((feasible_count == 0) & dt_allowed))
    return counts, tilde0


def estimate_feasibility(cfg: NetworkConfig, trials: int, seed: int,
                         workers: int = 1) -> FeasibilityDist:
    """Empirical distribution of the number of cap-compliant relays."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not cfg.is_cognitive:
        raise ValueError("feasibility estimation requires sp/rp/ith in the scenario")
    sizes = _chunk_sizes(trials)
    results = _run_chunks(lambda i, n: _feasibility_chunk(cfg, seed, i, n),
                          sizes, workers)
    counts = np.sum([c for c, _ in results], axis=0)
    tilde0 = sum(t for _, t in results)
    return FeasibilityDist(p=tuple(counts / trials), p_tilde0=tilde0 / trials)
