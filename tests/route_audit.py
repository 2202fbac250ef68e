"""Route audit: the production F(x | L) and p[n] against the paper's
alternating closed forms, over a direct-link and a feasibility grid.

The production route takes an idl or idl_dt entry's closed form only
where the a-priori bound ((1 + s) / (1 - s))^L on its condition number
holds, and every other F(x | L), every sdf one among them, and every
p[n] from the positive Gauss-rule integral.  For each grid this prints

- entries: the values asked for;
- closed: the entries production takes from the closed form, by that
  rule, so never an sdf entry or a p[n];
- moved: the entries whose own closed-form sum would keep REL_TOL
  (kappa <= analytic._KAPPA_MAX) but that the production route takes
  from the positive integral;
- raised: the entries whose production value raised ArithmeticError;
- the worst relative gap between production and the closed form over
  the entries where kappa <= _KAPPA_MAX, with the entry it was seen at.

The feasibility grid's relay counts are all rungs, whose cap integrals
R_K[n] = integral P^n Q^(K-n) f_I_SP are integrated.  For every K' that
derives its row from one of them by Pascal's rule (K' = 7, 13..15,
25..31, 49..63), it also prints the worst relative gap between the
derived row and the row integrated directly, over the entries above
analytic._UNDERFLOW (below it REL_TOL is beyond a float, and the rules
claim nothing), and the rows whose direct integration raised
ArithmeticError.

pytest does not collect it.  Run it from the root of a checkout:

    python3 tests/route_audit.py [--quick]

--quick takes every fourth point of each grid.
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import paper_closed_form as paper  # noqa: E402
from fdrs import analytic as an  # noqa: E402
from fdrs.channel import LinkSpec, Protocol, db_to_linear  # noqa: E402
from fdrs.cli import parse_config  # noqa: E402

CONFIGS = HERE.parent / "configs"
DIRECT = ("idl", "idl_dt", "sdf")
MAX_RELAYS = 24


def scenario(name: str, power_db: float | None = None, **links) -> object:
    cfg = parse_config(str(CONFIGS / f"{name}.cfg"))
    changes = {key: LinkSpec(m, getattr(cfg, key).avg_power) for key, m in links.items()}
    if power_db is not None:
        changes.update(p_s=db_to_linear(power_db), p_r=db_to_linear(power_db))
    return dataclasses.replace(cfg, **changes)


def direct_link_points() -> list[tuple]:
    """(scenario, m_rd, power dB, x, protocol): fig2a/2b/3/4; m_rd 1, 2, 4;
    -5..60 dB; x 0.3..255; idl, idl_dt and sdf."""
    return list(itertools.product(
        ("fig2a", "fig2b", "fig3", "fig4"), (1, 2, 4), (-5.0, 0.0, 10.0, 20.0, 30.0, 45.0, 60.0),
        (0.3, 1.0, 3.0, 7.0, 15.0, 63.0, 255.0), DIRECT))


def direct_link_entries(point: tuple):
    """(L, production F(x | L) or the ArithmeticError it raised, closed-form
    value, its kappa, whether production takes the closed form) for
    L = 1..24."""
    name, m_rd, power_db, x, proto = point
    cfg, proto = scenario(name, power_db, rd=m_rd), Protocol(proto)
    s, refs = paper.direct_link(x, cfg, proto, MAX_RELAYS)
    with an.shared_blocks():
        for relays in range(1, MAX_RELAYS + 1):
            try:
                got = an._conditional_cdfs(x, cfg, proto, relays)[relays]
            except ArithmeticError as exc:
                got = exc
            yield (relays, got, *refs[relays], paper.closed_in_production(s, relays, proto))


def feasibility_points() -> list[tuple]:
    """(scenario, m_rp, m_sp, I_th dB, power dB, K): fig2b/3; m_rp 1..3;
    m_sp 1, 2; I_th -20..30 dB; -5..60 dB; K 1..64."""
    return list(itertools.product(
        ("fig2b", "fig3"), (1, 2, 3), (1, 2), (-20.0, -10.0, 0.0, 3.0, 10.0, 20.0, 30.0),
        (-5.0, 0.0, 10.0, 20.0, 30.0, 45.0, 60.0), (1, 3, 8, 16, 32, 64)))


def feasibility_entries(point: tuple):
    """(n, production p[n] or the ArithmeticError feasibility_dist raised,
    closed-form value, its kappa, False) for n = 1..K."""
    name, m_rp, m_sp, ith_db, power_db, k = point
    cfg = dataclasses.replace(scenario(name, power_db, rp=m_rp, sp=m_sp), k=k,
                              i_th=db_to_linear(ith_db))
    try:
        got = an.feasibility_dist(cfg).p[1:]
    except ArithmeticError as exc:
        got = [exc] * k
    for n, (value, (ref, kappa)) in enumerate(zip(got, paper.feasibility(cfg)), 1):
        yield n, value, ref, kappa, False


def derived_rows(point: tuple):
    """(K', n, derived R_K'[n], direct R_K'[n] or the ArithmeticError its
    row raised) for each K' whose rung is the point's K."""
    name, m_rp, m_sp, ith_db, power_db, k = point
    cfg = dataclasses.replace(scenario(name, power_db, rp=m_rp, sp=m_sp), k=k,
                              i_th=db_to_linear(ith_db))
    key = an._feasibility_args(cfg)[1:]
    nodes = an._cap_nodes(*key)
    with an.shared_blocks():
        for relays in range(k - 1, 0, -1):
            if an._rung(relays) != k:
                break
            try:
                derived = an._cap_integrals(relays, key)
                direct = an._cap_row(nodes, relays)
            except ArithmeticError as exc:
                derived, direct = [None], [exc]
            for n, (got, ref) in enumerate(zip(derived, direct)):
                yield relays, n, got, ref


def derived_audit(points: list[tuple]) -> None:
    """Print the derived entries, those below the underflow limit, the
    rows that raised, and the worst relative gap between derived and
    directly integrated entries above that limit."""
    t0 = time.perf_counter()
    count = tiny = raised = 0
    worst, where = 0.0, None
    for point in points:
        for relays, n, got, ref in derived_rows(point):
            if isinstance(ref, ArithmeticError):
                raised += 1
                continue
            count += 1
            if ref < an._UNDERFLOW:
                tiny += 1
            elif abs(got - ref) / ref > worst:
                worst, where = abs(got - ref) / ref, point[:-1] + (relays, n)
    print(f"derived feasibility rows: {count} entries, {tiny} below {an._UNDERFLOW:.3g}, "
          f"{raised} rows raised, worst relative gap {worst:.3g} at {where} "
          f"({time.perf_counter() - t0:.1f} s)")


def audit(name: str, points: list[tuple], entries) -> None:
    """Print entries, closed, moved, raised and the worst relative gap."""
    t0 = time.perf_counter()
    count = closed = moved = raised = 0
    worst, where, failed = 0.0, None, {}
    for point in points:
        for index, got, ref, kappa, bound in entries(point):
            count += 1
            closed += bound
            if isinstance(got, ArithmeticError):
                raised += 1
                failed.setdefault(point, got)
            elif kappa <= an._KAPPA_MAX and ref > 0.0 and abs(got - ref) / ref > worst:
                worst, where = abs(got - ref) / ref, point + (index,)
            moved += kappa <= an._KAPPA_MAX and not bound
    print(f"{name}: {count} entries, {closed} closed, {moved} moved, {raised} raised, "
          f"worst relative gap {worst:.3g} at {where} ({time.perf_counter() - t0:.1f} s)")
    for point, exc in failed.items():
        print(f"  raised at {point}: {exc}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="every fourth grid point")
    step = 4 if parser.parse_args().quick else 1
    audit("direct link", direct_link_points()[::step], direct_link_entries)
    audit("feasibility", feasibility_points()[::step], feasibility_entries)
    derived_audit(feasibility_points()[::step])
    return 0


if __name__ == "__main__":
    sys.exit(main())
