"""Command-line interface: config ingestion, subcommand dispatch, and
bit-stable result emission.

Scenario files are INI-style text with sections [links], [powers] and
optionally [cognitive]; power-like quantities are given in dB and
converted to linear on ingestion.  `main` parses the scenario, runs the
subcommand and writes its output with a run manifest (subcommand,
config digest, tool version, seed, timestamp); the seed is recorded
only when the run drew samples and is None otherwise.  Rerunning a
subcommand with the same config and seed reproduces the data rows
byte for byte, only the timestamp differs.

Exit codes: 0 success, 1 configuration error, 2 numeric or validation
failure.

The simulator, and with it numpy, is imported only by a run that
simulates; an analytic run loads neither.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from fdrs import __version__, analysis, analytic
from fdrs.channel import (
    FD_PROTOCOLS,
    ConfigError,
    LinkSpec,
    NetworkConfig,
    Protocol,
    config_violations,
    db_to_linear,
)

_LINK_KEYS = ("sr", "rd", "rr", "sd")
_COG_KEYS = ("sp", "rp")


def _manifest(path: str, subcommand: str, seed: int | None) -> dict:
    """Provenance attached to every output, in the order of its CSV lines."""
    return {"subcommand": subcommand,
            "config_sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest(),
            "tool_version": __version__, "seed": seed,
            "timestamp": datetime.now(timezone.utc).isoformat()}


def parse_config(path: str) -> NetworkConfig:
    """Read a scenario file, converting dB fields to linear.

    All problems are collected and raised together as a ConfigError so
    a bad file is reported in one pass.
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError([f"config file not found: {path}"])
    errors: list[str] = []

    def get_float(section, key, required=True):
        if not parser.has_option(section, key):
            if required:
                errors.append(f"[{section}] missing key {key!r}")
            return None
        raw = parser.get(section, key)
        try:
            return float(raw)
        except ValueError:
            errors.append(f"[{section}] {key} = {raw!r} is not a number")
            return None

    def get_linear(section, key, required=True):
        x_db = get_float(section, key, required)
        try:
            return None if x_db is None else db_to_linear(x_db)
        except ValueError as exc:
            errors.append(f"[{section}] {key}: {exc}")

    def get_link(section, name, required=True):
        m = get_float(section, f"m_{name}", required)
        pi = get_linear(section, f"pi_{name}_db", required)
        if m is None or pi is None:
            return None
        try:
            return LinkSpec(m=m, avg_power=pi)
        except ValueError as exc:
            errors.append(f"[{section}] link {name}: {exc}")
            return None

    for section in ("links", "powers"):
        if not parser.has_section(section):
            raise ConfigError([f"missing [{section}] section in {path}"])

    links = {name: get_link("links", name, required=(name != "sd"))
             for name in _LINK_KEYS}
    k = get_float("powers", "k")
    if k is not None and not k.is_integer():   # also rejects inf and nan
        errors.append(f"[powers] k = {k!r} is not an integer relay count")
    p_s = get_linear("powers", "p_s_db")
    p_r = get_linear("powers", "p_r_db")
    lam = get_float("powers", "lambda")

    cognitive: dict = {}
    if parser.has_section("cognitive"):
        cognitive = {name: get_link("cognitive", name) for name in _COG_KEYS}
        cognitive["i_th"] = get_linear("cognitive", "ith_db")

    if errors:
        raise ConfigError(errors)
    try:
        return NetworkConfig(
            k=int(k), p_s=p_s, p_r=p_r, rsi_lambda=lam,
            sr=links["sr"], rd=links["rd"], rr=links["rr"], sd=links["sd"],
            sp=cognitive.get("sp"), rp=cognitive.get("rp"),
            i_th=cognitive.get("i_th"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError([str(exc)])


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def _protocol_list(raw: str) -> list[Protocol]:
    return [Protocol.parse(tok) for tok in raw.split(",") if tok.strip()]


# Each cmd_* takes the parsed arguments and scenario and returns its
# payload (a JSON record or CSV lines), the seed it simulated with or
# None, and its exit code; main stamps the manifest and writes it.

def cmd_outage(args, cfg: NetworkConfig):
    proto = Protocol.parse(args.protocol)
    record: dict = {"protocol": proto.value, "rate_bpcu": args.rate,
                    "cognitive": args.cognitive}
    if args.method in ("analytic", "both"):
        p_out = analytic.outage(cfg, proto, args.rate, args.cognitive)
        record["outage_analytic"] = p_out
        record["throughput_analytic"] = analytic.throughput_from_outage(proto, args.rate, p_out)
    if args.method == "analytic":
        return record, None, 0
    from fdrs import montecarlo   # numpy loads at a run's first simulation
    est = montecarlo.estimate_outage(cfg, proto, args.rate, args.trials,
                                     args.seed, args.cognitive, args.workers)
    record.update(outage_mc=est.p_hat, stderr_mc=est.stderr, trials=est.trials)
    return record, args.seed, 0


_CSV_HEADER = "axis,protocol,method,outage,throughput,stderr,trials,seed"


def cmd_sweep(args, cfg: NetworkConfig):
    steps = args.steps
    if steps is None:
        if args.axis == "relay_count":
            steps = len(analysis.relay_counts(args.start, args.stop))
        else:
            raise ConfigError(["--steps is required for non-integer axes"])
    spec = analysis.SweepSpec(axis=args.axis, start=args.start, stop=args.stop,
                              steps=steps, protocols=tuple(_protocol_list(args.protocols)),
                              method=args.method, rate=args.rate,
                              trials=args.trials, seed=args.seed, workers=args.workers)
    result = analysis.run_sweep(spec, cfg)
    lines = [_CSV_HEADER]
    for r in result.rows:
        lines.append(",".join(_fmt(v) for v in (
            r.axis_value, r.protocol.value, r.method, r.outage, r.throughput,
            r.stderr, r.trials, r.seed)))
    for proto, errs in result.errors.items():
        for e in errs:
            print(f"warning: {proto}: {e}", file=sys.stderr)
    seed = None if args.method == "analytic" else args.seed
    return lines, seed, 2 if result.errors else 0


def cmd_pl(args, cfg: NetworkConfig):
    feas = analytic.feasibility_dist(cfg)
    emp = None
    if args.trials:
        from fdrs import montecarlo   # numpy loads at a run's first simulation
        emp = montecarlo.estimate_feasibility(cfg, args.trials, args.seed, args.workers)
    lines = ["quantity,analytic,mc,stderr"]
    for L, p in enumerate(feas.p):
        mc_p = emp.p[L] if emp else None
        se = (p * (1 - p) / args.trials) ** 0.5 if emp else None
        lines.append(",".join(_fmt(v) for v in (f"p[{L}]", p, mc_p, se)))
    lines.append(",".join(_fmt(v) for v in (
        "p_tilde0", feas.p_tilde0, emp.p_tilde0 if emp else None, None)))
    return lines, args.seed if emp else None, 0


def cmd_diversity(args, cfg: NetworkConfig):
    proto = Protocol.parse(args.protocol)
    fit = analysis.diversity_sweep(cfg, proto, args.rate, args.pmin_db,
                                   args.pmax_db, args.points, args.method,
                                   args.trials, args.seed, args.workers)
    record = {"protocol": proto.value, "slope": fit.slope, "stderr": fit.stderr,
              "points_used": fit.points_used, "floor_detected": fit.floor_detected}
    return record, args.seed if args.method == "mc" else None, 0


def cmd_validate(args, cfg: NetworkConfig):
    if args.protocols:
        protos = _protocol_list(args.protocols)
    else:
        why = [config_violations(cfg, p, "analytic") for p in FD_PROTOCOLS]
        protos = [p for p, errs in zip(FD_PROTOCOLS, why) if not errs]
        if not protos:   # no closed form to validate against
            raise ConfigError(list(dict.fromkeys(e for errs in why for e in errs)))
    rows = analysis.validate_report(cfg, protos, args.rate, args.trials,
                                    args.seed, args.workers)
    lines = ["protocol,p_analytic,p_mc,stderr,z,status"]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in (
            r.protocol.value, r.p_analytic, r.p_hat, r.stderr, r.z_score,
            "PASS" if r.passed else "FAIL")))
    return lines, args.seed, 0 if all(r.passed for r in rows) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrs",
        description="Outage statistics for full-duplex relay selection "
                    "in cognitive underlay networks")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, trials=10 ** 6, trials_help=None):
        p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--output", help="write result here instead of stdout")
        p.add_argument("--trials", type=int, default=trials, help=trials_help)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("outage", help="single outage/throughput record (JSON)")
    common(p)
    p.add_argument("--protocol", required=True)
    p.add_argument("--rate", type=float, required=True, help="source rate in bpcu")
    p.add_argument("--cognitive", action="store_true",
                   help="apply the interference constraint")
    p.add_argument("--method", choices=("analytic", "mc", "both"), default="analytic")
    p.set_defaults(fn=cmd_outage)

    p = sub.add_parser("sweep", help="parameter sweep (CSV)")
    common(p)
    p.add_argument("--axis", choices=analysis.AXES, required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--protocols", required=True, help="comma-separated list")
    p.add_argument("--method", choices=("analytic", "mc", "both"), default="analytic")
    p.add_argument("--rate", type=float, default=2.0,
                   help="source rate for non-rate axes (bpcu)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("pl", help="feasible-relay-count distribution (CSV)")
    common(p, trials=0, trials_help="also estimate empirically with this many trials")
    p.set_defaults(fn=cmd_pl)

    p = sub.add_parser("diversity", help="diversity-order slope fit (JSON)")
    common(p)
    p.add_argument("--protocol", required=True)
    p.add_argument("--pmin-db", type=float, required=True)
    p.add_argument("--pmax-db", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--rate", type=float, default=2.0)
    p.add_argument("--method", choices=("analytic", "mc"), default="analytic")
    p.set_defaults(fn=cmd_diversity)

    p = sub.add_parser("validate", help="analytic-vs-simulation report; exit 0 iff all PASS")
    common(p)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--protocols", default=None,
                   help="restrict to these protocols (default: all analytic-valid)")
    p.set_defaults(fn=cmd_validate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built at the first main call and kept for the
    process: parse_args fills a fresh namespace each time, so no call
    sees another's arguments.  A one-shot fdrs process builds it once
    either way; only callers of main in a long-lived process gain."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # checked here because analytic-only runs never read them
        if args.workers < 1:
            raise ValueError(f"workers must be >= 1, got {args.workers}")
        min_trials = 0 if args.subcommand == "pl" else 1   # pl: 0 = no simulation
        if args.trials < min_trials:
            raise ValueError(f"trials must be >= {min_trials}")
        payload, seed, code = args.fn(args, parse_config(args.config))
        manifest = _manifest(args.config, args.subcommand, seed)
        if isinstance(payload, dict):
            lines = [json.dumps({**payload, "manifest": manifest}, sort_keys=True)]
        else:
            lines = [f"# fdrs {key}={value}" for key, value in manifest.items()] + payload
        text = "\n".join(lines) + "\n"
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:   # e.g. a relay_count sweep too long to list
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
