"""Stochastic oracle: sample the channel gains, and estimate outage and
feasibility from them.

This is the one module that loads numpy.  The closed forms and the
command line import it only when a run simulates, so an analytic run
never pays for numpy's import.

Every link class fades Nakagami-m, so its power gain is drawn as
Gamma(m, avg_power/m): at integer m <= 5 as -log of a product of m
uniforms, which is exact and cheaper than numpy's Gamma sampler there,
and by that sampler otherwise.  `draw_gains` draws one batch of every
configured link in a fixed order; `_count_chunk` calls it through this
module's global, so a wrapper set on `montecarlo.draw_gains` sees every
outage draw.  `_feasibility_chunk` draws only the cap links sp and rp.

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
violate the cap given a first hop of 0, P_R g_rd, P_S g_sd and the cap
masks) are computed once per point; each protocol adds only its second
hop, the min and the max over relays, and a protocol with a direct
branch reuses its relay-only twin's max.  Every hop is >= 0, so a relay
with a 0 first hop never raises the max above 0, and a trial with no
usable relay reads SINR 0: every count is the one that leaving such
relays out gives.  The evaluation runs over column blocks of
BLOCK_TRIALS trials so that its (k, n) temporaries stay in cache.  A
trial's SINR depends on its own column only, and hit counts are exact
integer sums over blocks, so no count depends on the block size.

Every thread that runs chunks of a call evaluates all of its blocks in
one `_Scratch`, sized once for the call's largest relay count.  The
(k, n) work arrays of a block are views of it: P_R g_rd, each duplex
class's first hop and cap mask, and one per-relay array that holds the
RSI, the relays' interference, the cap bound and each relayed path's
min in turn.  So no block allocates them, and a one-worker run does not
free them block after block at the top of the main heap, for the
allocator to trim and the next block to fault back in.  The scratch
lives as long as the call; only (n,) arrays, such as a protocol's max
over relays, are allocated per block.  Feasibility chunks run the same
block loop in the same kind of scratch.
"""
from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import partial

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
    """Gamma(m, theta) variates; at integer m <= 5, -theta log(U_1...U_m),
    the product formed in place and clamped to the smallest positive double
    so that no gain is infinite.  Small gains are resolved to about
    1e-16 theta, which affects only events of probability below 1e-14."""
    if not float(m).is_integer() or m > 5:
        return rng.gamma(m, theta, shape)
    out = rng.random(shape)
    for _ in range(int(m) - 1):
        out *= rng.random(shape)
    np.log(np.maximum(out, math.ulp(0.0), out=out), out=out)
    out *= -theta
    return out


def _draw_class(cfg: NetworkConfig, name: str, rng: np.random.Generator,
                n: int) -> np.ndarray:
    """(k, n) gains of a relay-indexed link class, one spec for all K relays."""
    link: LinkSpec = getattr(cfg, name)
    return _gamma(rng, link.m, link.theta, (cfg.k, n))


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
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


class _Scratch:
    """Work arrays for blocks of up to `k` relays and `n` trials.

    `take` returns a (k, n) view of the named array, made at its first
    use; every later block of any smaller shape writes into the same
    memory.  One thread owns a scratch: the views of a block are only
    valid until the next block takes them.
    """

    def __init__(self, k: int, n: int):
        self._size = k * n
        self._arrays = {}

    def take(self, name, k: int, n: int, dtype=np.float64) -> np.ndarray:
        flat = self._arrays.get(name)
        if flat is None:
            flat = self._arrays[name] = np.empty(self._size, dtype)
        return flat[:k * n].reshape(k, n)


def _blocks(gains: dict, n: int):
    """The gains of each column block of BLOCK_TRIALS trials, in order."""
    for start in range(0, n, BLOCK_TRIALS):
        yield {name: g[..., start:start + BLOCK_TRIALS] for name, g in gains.items()}


def _feasibility_masks(gains: dict, cfg: NetworkConfig, duplex_classes,
                       scratch: _Scratch) -> tuple:
    """Relay feasibility of each duplex class under the cap, and the
    direct-transmission mask.

    Full duplex superimposes source and relay interference at the
    primary receiver, so relay k is usable iff
    P_S g_sp + P_R g_rp[k] <= I_th.  Half-duplex nodes transmit in
    separate slots, so each component is capped on its own.  Direct
    transmission only involves the source.  The relay masks (shape
    (k, n), views of `scratch`) are keyed by Protocol.half_duplex.
    """
    k, n = gains["rp"].shape
    i_sp = cfg.p_s * gains["sp"]
    i_rp = np.multiply(cfg.p_r, gains["rp"], out=scratch.take("per_relay", k, n))
    dt_allowed = i_sp <= cfg.i_th
    feasible = {}
    if True in duplex_classes:
        mask = np.less_equal(i_rp, cfg.i_th, out=scratch.take(("mask", True), k, n, bool))
        feasible[True] = np.bitwise_and(mask, dt_allowed, out=mask)
    if False in duplex_classes:
        i_rp += i_sp
        feasible[False] = np.less_equal(i_rp, cfg.i_th,
                                        out=scratch.take(("mask", False), k, n, bool))
    return feasible, dt_allowed


_NAN_BITS = 0x7FF8000000000000   # a float64 NaN's bits


def _zero_unless(values, allowed, out=None, bound=None):
    """values >= 0 where `allowed` holds, else 0, without a branch: fmin
    passes each value bit for bit against the NaN bound where the rule
    holds, and takes the 0.0 bound where it fails.  The bound's bits go
    to the int64 array `bound` if given."""
    return np.fmin(values, np.multiply(allowed, _NAN_BITS, out=bound).view(np.float64),
                   out=out)


def _point_sinrs(gains: dict, cfg: NetworkConfig, protocols,
                 scratch: _Scratch | None = None) -> dict:
    """End-to-end SINR of each trial in a gain batch, for every protocol
    at one scenario point.

    What a duplex class shares is computed once: its first hop, with
    the relays that violate the cap given a first hop of 0, P_R g_rd and
    P_S g_sd.  Every hop is >= 0, so such a relay cannot raise the max
    over relays above 0: the counts are those of leaving it out.  A
    protocol with a direct-transmission branch reuses the relayed path
    of its relay-only twin (IDL_DT that of IDL, HD_SDF that of HD_MRC).
    The cap applies iff cfg is cognitive; under it the direct branch is
    allowed iff the source alone meets it, and else reads 0.  With no
    usable relay and no allowed direct branch the SINR is 0.

    The (k, n) work arrays are views of `scratch`, a new one if None;
    the SINRs returned are arrays of their own.
    """
    k, n = gains["rd"].shape
    if scratch is None:
        scratch = _Scratch(k, n)
    duplex_classes = dict.fromkeys(p.half_duplex for p in protocols)
    direct = cfg.p_s * gains.get("sd", 0.0)
    relay_rd = np.multiply(cfg.p_r, gains["rd"], out=scratch.take("relay_rd", k, n))
    # the RSI, then the relays' interference, each cap bound and each
    # relayed path's min, in turn
    per_relay = scratch.take("per_relay", k, n)
    first = {}
    for half_duplex in duplex_classes:
        hop = np.multiply(cfg.p_s, gains["sr"], out=scratch.take(("hop", half_duplex), k, n))
        if not half_duplex:
            rsi = np.multiply(cfg.p_r ** cfg.rsi_lambda, gains["rr"], out=per_relay)
            rsi += 1.0
            hop /= rsi
        first[half_duplex] = hop
    direct_branch = direct
    if cfg.is_cognitive:
        feasible, dt_allowed = _feasibility_masks(gains, cfg, duplex_classes, scratch)
        for half_duplex, hop in first.items():
            _zero_unless(hop, feasible[half_duplex], out=hop, bound=per_relay.view(np.int64))
        direct_branch = _zero_unless(direct, dt_allowed)
    relayed = {}
    sinrs = {}
    for protocol in protocols:
        path = _RELAY_PATH.get(protocol, protocol)
        if path not in relayed:
            if path is Protocol.NDL:
                second = relay_rd
            elif path is Protocol.IDL:  # direct signal interferes with the second hop
                second = np.divide(relay_rd, direct + 1.0, out=per_relay)
            else:  # SDF, HD_MRC: relayed and direct signals combined
                second = np.add(relay_rd, direct, out=per_relay)
            relayed[path] = np.minimum(first[path.half_duplex], second, out=per_relay).max(axis=0)
        sinr = relayed[path]
        if protocol.has_dt_branch:
            sinr = np.maximum(sinr, direct_branch)
        sinrs[protocol] = sinr
    return sinrs


def _count_chunk(groups, n_cells, seed, chunk_index, n, scratch):
    hits = np.zeros(n_cells, dtype=np.int64)
    for points in groups.values():
        # every point of a group draws these gains
        gains = draw_gains(next(iter(points)), _chunk_rng(seed, chunk_index), n)
        for block in _blocks(gains, n):
            for point_cfg, thresholds in points.items():
                sinrs = _point_sinrs(block, point_cfg, thresholds, scratch)
                for protocol, sinr in sinrs.items():
                    for gamma_th, cells in thresholds[protocol].items():
                        hit = np.count_nonzero(sinr < gamma_th)
                        for i in cells:
                            hits[i] += hit
    return hits


def _run_chunks(fn, sizes, workers, k_max):
    """fn(chunk index, trials, scratch) of every chunk, in chunk order.

    Each thread that runs chunks makes one scratch at its first chunk,
    for blocks of up to k_max relays, and passes it to all of them; the
    scratches go when the call returns.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    local = threading.local()

    def run(i, n):
        if not hasattr(local, "scratch"):
            local.scratch = _Scratch(k_max, min(max(sizes), BLOCK_TRIALS))
        return fn(i, n, local.scratch)

    if workers == 1:
        return [run(i, n) for i, n in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, range(len(sizes)), sizes))


# fields a cell may change without changing the gains drawn for it
_POINT_FIELDS = ("p_s", "p_r", "i_th")


def _draw_fields(cfg: NetworkConfig) -> tuple:
    return tuple(getattr(cfg, f.name) for f in fields(cfg) if f.name not in _POINT_FIELDS)


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
    # draw fields -> point config -> protocol -> threshold -> cell indices
    groups: dict[tuple, dict[NetworkConfig, dict]] = {}
    for i, (point_cfg, protocol, gamma_th) in enumerate(cells):
        validate_config(point_cfg, protocol, "mc")
        points = groups.setdefault(_draw_fields(point_cfg), {})
        points.setdefault(point_cfg, {}).setdefault(protocol, {}).setdefault(gamma_th, []).append(i)
    if not groups:
        return []
    k_max = max(next(iter(points)).k for points in groups.values())
    counts = _run_chunks(partial(_count_chunk, groups, len(cells), seed),
                         _chunk_sizes(trials), workers, k_max)
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


def _feasibility_chunk(cfg, seed, chunk_index, n, scratch):
    rng = _chunk_rng(seed, chunk_index)   # feasibility reads only the cap links
    gains = {"sp": _gamma(rng, cfg.sp.m, cfg.sp.theta, n),
             "rp": _draw_class(cfg, "rp", rng, n)}
    counts = np.zeros(cfg.k + 1, dtype=np.int64)
    tilde0 = 0
    for block in _blocks(gains, n):
        # the full-duplex cap rule, the one the closed form counts under
        feasible, dt_allowed = _feasibility_masks(block, cfg, (False,), scratch)
        feasible_count = np.count_nonzero(feasible[False], axis=0)
        counts += np.bincount(feasible_count, minlength=cfg.k + 1)
        tilde0 += int(np.count_nonzero((feasible_count == 0) & dt_allowed))
    return counts, tilde0


def estimate_feasibility(cfg: NetworkConfig, trials: int, seed: int,
                         workers: int = 1) -> FeasibilityDist:
    """Empirical distribution of the number of cap-compliant relays."""
    _check_run(trials, seed)
    require_cognitive(cfg)
    results = _run_chunks(partial(_feasibility_chunk, cfg, seed), _chunk_sizes(trials),
                          workers, cfg.k)
    counts = np.sum([c for c, _ in results], axis=0)
    tilde0 = sum(t for _, t in results)
    return FeasibilityDist(p=tuple(counts / trials), p_tilde0=tilde0 / trials)
