"""Scenario description and validation.

A scenario is a relay cluster of K full-duplex decode-and-forward relays
between a source and a destination, with optional direct
source-destination link and optional spectrum-sharing constraint at a
primary receiver.  Every link class fades independently Nakagami-m, so
its power gain is Gamma(m, pi/m) with average power pi.  Noise
variances are fixed at 1 and all powers are stored linear; dB
conversion happens at configuration ingestion.  The gains are sampled
in `fdrs.montecarlo`; this module needs only the standard library.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Protocol(Enum):
    """Cooperation protocol whose end-to-end SINR is analyzed."""

    NDL = "ndl"          # relayed path only, no direct link used or present
    IDL = "idl"          # direct link present, treated purely as interference
    IDL_DT = "idl_dt"    # as IDL, plus direct transmission as a fallback branch
    SDF = "sdf"          # selective cooperation: relayed and direct paths combined
    HD_MRC = "hd_mrc"    # half-duplex baseline with MRC combining (simulation only)
    HD_SDF = "hd_sdf"    # half-duplex selective baseline (simulation only)

    @property
    def uses_direct_link(self) -> bool:
        return self is not Protocol.NDL

    @property
    def half_duplex(self) -> bool:
        return self in (Protocol.HD_MRC, Protocol.HD_SDF)

    @property
    def simulation_only(self) -> bool:
        return self.half_duplex

    @property
    def has_dt_branch(self) -> bool:
        """Protocols where the destination may decode the direct signal alone."""
        return self in (Protocol.IDL_DT, Protocol.SDF, Protocol.HD_SDF)

    @classmethod
    def parse(cls, name: str) -> "Protocol":
        key = name.strip().lower().replace("/", "_").replace("-", "_")
        aliases = {"mhdf_ndl": "ndl", "mhdf_idl": "idl", "mhdf_idl_dt": "idl_dt"}
        key = aliases.get(key, key)
        try:
            return cls(key)
        except ValueError:
            valid = ", ".join(p.value for p in cls)
            raise ValueError(f"unknown protocol {name!r}; expected one of {valid}")


FD_PROTOCOLS = (Protocol.NDL, Protocol.IDL, Protocol.IDL_DT, Protocol.SDF)


class ConfigError(ValueError):
    """Raised with the complete list of configuration violations."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class LinkSpec:
    """Nakagami fading parameters of one link class.

    m is the shape (>= 0.5) and avg_power the mean linear power gain;
    the Gamma scale theta = avg_power / m is derived.
    """

    m: float
    avg_power: float

    def __post_init__(self):
        if not self.m >= 0.5:
            raise ValueError(f"Nakagami shape m must be >= 0.5, got {self.m}")
        if not self.avg_power > 0:
            raise ValueError(f"average power must be > 0, got {self.avg_power}")

    @property
    def theta(self) -> float:
        return self.avg_power / self.m

    @property
    def integer_m(self) -> bool:
        return abs(self.m - round(self.m)) < 1e-9


MAX_MEAN_SNR = 1e300   # 3000 dB: gains drawn far into their tails, and their sums, stay finite


@dataclass(frozen=True)
class NetworkConfig:
    """Full scenario: relay count, powers, RSI scaling, and link classes.

    Link classes: sr (source-relay), rd (relay-destination), rr (residual
    self-interference), optional sd (direct), and the cognitive pair
    sp/rp (source/relay to primary receiver) with interference threshold
    i_th.  sd absent means a no-direct-link scenario; sp/rp/i_th are
    all-present or all-absent.  rsi_lambda in [0, 1] scales the RSI
    power as p_r ** rsi_lambda.  The K relays are i.i.d., as the closed
    forms assume: one spec of each relay-indexed class (sr, rd, rr, rp)
    serves all of them.
    """

    k: int
    p_s: float
    p_r: float
    rsi_lambda: float
    sr: LinkSpec
    rd: LinkSpec
    rr: LinkSpec
    sd: LinkSpec | None = None
    sp: LinkSpec | None = None
    rp: LinkSpec | None = None
    i_th: float | None = None

    def __post_init__(self):
        errors = []
        if self.k < 1:
            errors.append(f"relay count k must be >= 1, got {self.k}")
        if not self.p_s > 0:
            errors.append(f"p_s must be > 0, got {self.p_s}")
        if not self.p_r > 0:
            errors.append(f"p_r must be > 0, got {self.p_r}")
        if not 0.0 <= self.rsi_lambda <= 1.0:
            errors.append(f"lambda must lie in [0, 1], got {self.rsi_lambda}")
        cognitive_fields = (self.sp, self.rp, self.i_th)
        if any(f is not None for f in cognitive_fields) and not all(
                f is not None for f in cognitive_fields):
            errors.append("cognitive fields sp, rp, ith must be all present or all absent")
        if self.i_th is not None and not self.i_th > 0:
            errors.append(f"ith must be > 0, got {self.i_th}")
        if not errors:   # each link's mean SNR, power times average gain
            powers = {"sr": ("p_s", self.p_s), "rd": ("p_r", self.p_r),
                      "rr": ("p_r^lambda", self.p_r ** self.rsi_lambda),
                      "sd": ("p_s", self.p_s), "sp": ("p_s", self.p_s), "rp": ("p_r", self.p_r)}
            for name, (power, value) in powers.items():
                spec = getattr(self, name)
                snr = value * spec.avg_power if spec is not None else 0.0
                if not snr <= MAX_MEAN_SNR:
                    errors.append(f"link {name}: mean SNR {power}*pi_{name} = {snr:.4g} "
                                  f"exceeds {MAX_MEAN_SNR:g} (3000 dB)")
        if errors:
            raise ConfigError(errors)

    @property
    def is_cognitive(self) -> bool:
        return self.i_th is not None

    @property
    def rsi_scale(self) -> float:
        """Gamma scale of the first-hop self-interference term, p_r^lambda * theta_rr."""
        return self.p_r ** self.rsi_lambda * self.rr.theta


# link classes whose shape the closed forms need to be an integer
_INTEGER_SHAPES = {Protocol.IDL: ("rd",), Protocol.IDL_DT: ("rd",), Protocol.SDF: ("rd",)}


def config_violations(cfg: NetworkConfig, protocol: Protocol, method: str) -> list[str]:
    """All reasons (cfg, protocol, method) cannot be evaluated; empty if none.

    The closed forms put integrality conditions on some Nakagami shapes
    (m_rd for the direct-link protocols; m_rp for the feasibility
    probabilities); m_sr, m_rr and m_sd may be any shape.  The simulator
    has no such limits but still needs the links a protocol references
    to exist in the scenario.
    """
    if method not in ("analytic", "mc"):
        raise ValueError(f"method must be 'analytic' or 'mc', got {method!r}")
    errors = []
    if protocol.uses_direct_link and cfg.sd is None:
        errors.append(f"protocol {protocol.value} requires an sd link in the scenario")
    if method == "analytic":
        if protocol.simulation_only:
            errors.append(f"{protocol.value} is a simulation-only baseline; no closed form")
        for name in _INTEGER_SHAPES.get(protocol, ()) + (("rp",) if cfg.is_cognitive else ()):
            link: LinkSpec = getattr(cfg, name)
            if link is not None and not link.integer_m:
                errors.append(
                    f"{protocol.value} analytic requires integer m_{name} (got {link.m})")
    return errors


def validate_config(cfg: NetworkConfig, protocol: Protocol, method: str) -> NetworkConfig:
    """Return cfg unchanged if usable for (protocol, method), else raise ConfigError."""
    errors = config_violations(cfg, protocol, method)
    if errors:
        raise ConfigError(errors)
    return cfg


def require_cognitive(cfg: NetworkConfig) -> NetworkConfig:
    """Return cfg unchanged if it carries the interference cap, else raise ConfigError."""
    if not cfg.is_cognitive:
        raise ConfigError(["scenario has no interference constraint (sp/rp/ith absent)"])
    return cfg


def db_to_linear(x_db: float) -> float:
    """10^(x_db/10); ValueError naming x_db if that overflows or underflows to 0."""
    try:
        value = 10.0 ** (x_db / 10.0)
    except OverflowError:
        value = math.inf
    if value == 0.0 or value == math.inf:
        raise ValueError(f"{x_db:g} dB is out of range: its linear value "
                         f"{'overflows' if value else 'underflows to 0'}")
    return value
