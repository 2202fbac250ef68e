"""Stochastic oracle: sample the channel gains, and estimate outage and
feasibility from them.

This is the one module that loads numpy.  The closed forms and the
command line import it only when a run simulates, so an analytic run
never pays for numpy's import.

Every link class fades Nakagami-m, so its power gain is drawn as
Gamma(m, avg_power/m); `draw_gains` draws one batch of every
configured link in a fixed order.  `_count_chunk` and
`_feasibility_chunk` call it through this module's global, so a
wrapper set on `montecarlo.draw_gains` sees every draw.  Shapes 1 and
2 are drawn as the sum of one or two unit exponentials, which is
exactly Gamma(m, 1) and costs less than numpy's Gamma sampler there;
every other shape, integer or real, is drawn by that sampler.

Trials are processed in fixed chunks of 65536, each driven by its own
SFC64 stream seeded by SeedSequence([seed, chunk index]).  The seed
may be any non-negative integer and is not reduced modulo 2^64.  The chunk
layout and the reduction (integer success counts) are independent of
how chunks are scheduled, so estimates are bit-identical for any worker
count.

A cell (scenario point, protocol, threshold) describes itself: its
point fixes the gains drawn and whether the interference cap applies.
The gains of a chunk depend only on the seed, the chunk index and the
link statistics, not on protocol, rate, power or cap value, so
`outage_counts` draws each chunk once per group of cells that share
their drawn fields and counts every cell of the group from that one
draw (common random numbers); each cell's count is the one a separate
simulation with the same seed would give.

A chunk is evaluated once per distinct scenario point.  The terms every
protocol of a duplex class shares (the first hop with the relays that
violate the cap set to -inf, P_R g_rd, P_S g_sd and the cap masks) are
computed once per point; each protocol adds only its second hop, the
min and the max over relays, and a protocol with a direct branch
reuses its relay-only twin's max.  The evaluation runs over column
blocks of BLOCK_TRIALS trials so that its (k, n) temporaries stay in
cache.  A trial's SINR depends on its own column only, and hit counts
are exact integer sums over blocks, so no count depends on the block
size.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from fdrs.analytic import FeasibilityDist, outage_threshold
from fdrs.channel import LinkSpec, NetworkConfig, Protocol, require_cognitive, validate_config

__all__ = ["OutageEstimate", "CHUNK_TRIALS", "draw_gains", "outage_counts",
           "estimate_outage", "estimate_feasibility"]

CHUNK_TRIALS = 65536
# trials evaluated together within a chunk, so that the (k, n)
# temporaries stay in cache
BLOCK_TRIALS = 16384


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


# the relayed path a protocol with a direct-transmission branch shares
_RELAY_PATH = {Protocol.IDL_DT: Protocol.IDL, Protocol.HD_SDF: Protocol.HD_MRC}


def _gamma(rng: np.random.Generator, m: float, theta: float, shape) -> np.ndarray:
    """Gamma(m, theta) variates; at shapes 1 and 2 theta times a sum of
    unit exponentials, summed and scaled in place."""
    if m not in (1.0, 2.0):
        return rng.gamma(m, theta, shape)
    out = rng.standard_exponential(shape)
    if m == 2.0:
        out += rng.standard_exponential(shape)
    out *= theta
    return out


def _draw_class(cfg: NetworkConfig, name: str, rng: np.random.Generator,
                n: int) -> np.ndarray:
    """(k, n) gains for a relay-indexed link class, honoring overrides."""
    overrides = (cfg.relay_overrides or {}).get(name)
    base: LinkSpec = getattr(cfg, name)
    if overrides is None:
        return _gamma(rng, base.m, base.theta, (cfg.k, n))
    return np.stack([_gamma(rng, s.m, s.theta, n) for s in overrides])


def draw_gains(cfg: NetworkConfig, rng: np.random.Generator, n: int) -> dict:
    """One batch of n independent realizations of every configured link.

    Draw order is fixed (sr, rd, rr, sd, sp, rp) so a given generator
    state always yields the same gains regardless of which protocol
    later consumes them.
    """
    gains = {
        "sr": _draw_class(cfg, "sr", rng, n),
        "rd": _draw_class(cfg, "rd", rng, n),
        "rr": _draw_class(cfg, "rr", rng, n),
    }
    if cfg.sd is not None:
        gains["sd"] = _gamma(rng, cfg.sd.m, cfg.sd.theta, n)
    if cfg.is_cognitive:
        gains["sp"] = _gamma(rng, cfg.sp.m, cfg.sp.theta, n)
        gains["rp"] = _draw_class(cfg, "rp", rng, n)
    return gains


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, chunk_index])))


def _check_run(trials: int, seed: int):
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _chunk_sizes(trials: int):
    full, rest = divmod(trials, CHUNK_TRIALS)
    sizes = [CHUNK_TRIALS] * full
    if rest:
        sizes.append(rest)
    return sizes


def _feasibility_masks(gains: dict, cfg: NetworkConfig, duplex_classes) -> tuple:
    """Relay feasibility of each duplex class under the cap, and the
    direct-transmission mask.

    Full duplex superimposes source and relay interference at the
    primary receiver, so relay k is usable iff
    P_S g_sp + P_R g_rp[k] <= I_th.  Half-duplex nodes transmit in
    separate slots, so each component is capped on its own.  Direct
    transmission only involves the source.  The relay masks (shape
    (k, n)) are keyed by Protocol.half_duplex.
    """
    i_sp = cfg.p_s * gains["sp"]
    i_rp = cfg.p_r * gains["rp"]
    dt_allowed = i_sp <= cfg.i_th
    feasible = {half_duplex: (dt_allowed[None, :] & (i_rp <= cfg.i_th)) if half_duplex
                else (i_sp[None, :] + i_rp) <= cfg.i_th
                for half_duplex in duplex_classes}
    return feasible, dt_allowed


def _point_sinrs(gains: dict, cfg: NetworkConfig, protocols) -> dict:
    """End-to-end SINR of each trial in a gain batch, for every protocol
    at one scenario point.

    What a duplex class shares is computed once: its first hop, with
    the relays that violate the cap set to -inf (min(-inf, y) = -inf
    keeps them out of the max over relays), P_R g_rd and P_S g_sd.  A
    protocol with a direct-transmission branch reuses the relayed path
    of its relay-only twin (IDL_DT that of IDL, HD_SDF that of HD_MRC).
    The cap applies iff cfg is cognitive; under it the direct branch is
    allowed iff the source alone meets it.  With no usable relay and no
    allowed direct branch the SINR is 0.
    """
    duplex_classes = dict.fromkeys(p.half_duplex for p in protocols)
    direct = cfg.p_s * gains.get("sd", 0.0)
    relay_rd = cfg.p_r * gains["rd"]
    first = {}
    for half_duplex in duplex_classes:
        if half_duplex:
            first[half_duplex] = cfg.p_s * gains["sr"]
        else:
            first[half_duplex] = cfg.p_s * gains["sr"] / (
                cfg.p_r ** cfg.rsi_lambda * gains["rr"] + 1.0)
    direct_branch = direct
    if cfg.is_cognitive:
        feasible, dt_allowed = _feasibility_masks(gains, cfg, duplex_classes)
        for half_duplex, hop in first.items():
            hop[~feasible[half_duplex]] = -np.inf
        direct_branch = np.where(dt_allowed, direct, -np.inf)
    relayed = {}
    sinrs = {}
    for protocol in protocols:
        path = _RELAY_PATH.get(protocol, protocol)
        if path not in relayed:
            if path is Protocol.NDL:
                second = relay_rd
            elif path is Protocol.IDL:  # direct signal interferes with the second hop
                second = relay_rd / (direct + 1.0)
            else:  # SDF, HD_MRC: relayed and direct signals combined
                second = relay_rd + direct
            relayed[path] = np.minimum(first[path.half_duplex], second).max(axis=0)
        sinr = relayed[path]
        if protocol.has_dt_branch:
            sinr = np.maximum(sinr, direct_branch)
        sinrs[protocol] = np.maximum(sinr, 0.0)
    return sinrs


def _count_chunk(groups, n_cells, seed, chunk_index, n):
    hits = np.zeros(n_cells, dtype=np.int64)
    for _, points in groups:
        # every point of a group draws these gains
        gains = draw_gains(points[0][0], _chunk_rng(seed, chunk_index), n)
        for start in range(0, n, BLOCK_TRIALS):
            block = {name: g[..., start:start + BLOCK_TRIALS] for name, g in gains.items()}
            for point_cfg, thresholds in points:
                sinrs = _point_sinrs(block, point_cfg, thresholds)
                for protocol, sinr in sinrs.items():
                    for gamma_th, cells in thresholds[protocol].items():
                        hit = np.count_nonzero(sinr < gamma_th)
                        for i in cells:
                            hits[i] += hit
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


def _entry(pairs: list, key, new):
    # a list, not a dict: a config with relay_overrides cannot be hashed
    for k, value in pairs:
        if k == key:
            return value
    pairs.append((key, new()))
    return pairs[-1][1]


def outage_counts(cells: list[tuple[NetworkConfig, Protocol, float]], trials: int,
                  seed: int, workers: int = 1) -> list[int]:
    """Outage hit counts of many cells, with common random numbers.

    A cell is (point_cfg, protocol, gamma_th): the scenario point, the
    protocol and the SINR threshold whose outages are counted.  The
    cap applies iff point_cfg is cognitive.  Cells whose points differ
    only in p_s, p_r and i_th draw the same gains: each chunk of such a
    group is drawn once, from the (seed, chunk) key every group uses,
    and evaluated once per distinct point_cfg; each distinct (protocol,
    threshold) of a point is counted once for all its cells.  Counts come
    in cell order, each equal to that of a one-cell call with the same seed.
    """
    _check_run(trials, seed)
    groups: list[tuple[list, list[tuple[NetworkConfig, dict]]]] = []
    for i, (point_cfg, protocol, gamma_th) in enumerate(cells):
        validate_config(point_cfg, protocol, "mc")
        points = _entry(groups, _draw_fields(point_cfg), list)
        _entry(points, point_cfg, dict).setdefault(protocol, {}).setdefault(gamma_th, []).append(i)
    if not groups:
        return []
    counts = _run_chunks(lambda i, n: _count_chunk(groups, len(cells), seed, i, n),
                         _chunk_sizes(trials), workers)
    return np.sum(counts, axis=0).tolist()


def estimate_outage(cfg: NetworkConfig, protocol: Protocol, rate: float,
                    trials: int, seed: int, cognitive: bool = False,
                    workers: int = 1) -> OutageEstimate:
    """Empirical outage frequency at the threshold
    `outage_threshold(protocol, rate)`.

    Per trial: draw one realization; under the interference constraint
    restrict selection to the feasible relays (and, for protocols with
    a direct branch, allow direct transmission iff the source alone
    meets the cap); outage iff the resulting SINR < threshold.  An
    empty candidate set yields SINR 0.  Feasibility and outage use the
    same realization, preserving the correlation through the shared
    source-to-primary gain.  Without `cognitive` the cell drops sp, rp
    and i_th; `draw_gains` draws those last, so every other gain is the
    one a cognitive run draws.  This is the one-cell case of
    `outage_counts`.
    """
    cfg = require_cognitive(cfg) if cognitive else replace(cfg, sp=None, rp=None, i_th=None)
    [hits] = outage_counts([(cfg, protocol, outage_threshold(protocol, rate))],
                           trials, seed, workers)
    return OutageEstimate.from_hits(hits, trials, seed)


def _feasibility_chunk(cfg, seed, chunk_index, n):
    gains = draw_gains(cfg, _chunk_rng(seed, chunk_index), n)
    # the full-duplex cap rule, the one the closed form counts under
    feasible, dt_allowed = _feasibility_masks(gains, cfg, (False,))
    feasible_count = np.count_nonzero(feasible[False], axis=0)
    counts = np.bincount(feasible_count, minlength=cfg.k + 1)
    tilde0 = int(np.count_nonzero((feasible_count == 0) & dt_allowed))
    return counts, tilde0


def estimate_feasibility(cfg: NetworkConfig, trials: int, seed: int,
                         workers: int = 1) -> FeasibilityDist:
    """Empirical distribution of the number of cap-compliant relays."""
    _check_run(trials, seed)
    require_cognitive(cfg)
    sizes = _chunk_sizes(trials)
    results = _run_chunks(lambda i, n: _feasibility_chunk(cfg, seed, i, n),
                          sizes, workers)
    counts = np.sum([c for c, _ in results], axis=0)
    tilde0 = sum(t for _, t in results)
    return FeasibilityDist(p=tuple(counts / trials), p_tilde0=tilde0 / trials)
