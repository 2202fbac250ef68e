"""Closed-form outage curves cross-checked against the simulator.

Walks the four full-duplex relay-selection protocols over a range of
source rates on the reference scenario and prints the analytic outage
next to a 10^6-trial estimate.  All sixteen estimates come from one
`outage_counts` call over (scenario, protocol, threshold) cells: the
cells share one scenario, so every chunk of draws serves all of them.
Matching columns are the library's own correctness check in miniature:
the closed forms and the simulator share nothing but the scenario
description.

Run:  python demos/closed_form_vs_simulation.py
"""
from fdrs import OutageEstimate, Protocol, outage, outage_counts, outage_threshold
from fdrs.cli import parse_config

cfg = parse_config("configs/fig2a.cfg")
protocols = (Protocol.NDL, Protocol.IDL, Protocol.IDL_DT, Protocol.SDF)

print(f"Scenario: K={cfg.k} relays, RSI exponent {cfg.rsi_lambda}, "
      f"P_S={cfg.p_s:g}, P_R={cfg.p_r:g} (linear)")
print(f"{'rate':>5} {'protocol':>9} {'analytic':>12} {'simulated':>12} {'z':>6}")
cells = [(rate, proto) for rate in (1.0, 2.0, 3.0, 4.0) for proto in protocols]
hits = outage_counts([(cfg, proto, outage_threshold(proto, rate)) for rate, proto in cells],
                     trials=10 ** 6, seed=1)
for (rate, proto), h in zip(cells, hits):
    p_an = outage(cfg, proto, rate)
    est = OutageEstimate.from_hits(h, 10 ** 6, seed=1)
    z = (est.p_hat - p_an) / est.stderr if est.stderr else 0.0
    print(f"{rate:>5.1f} {proto.value:>9} {p_an:>12.6f} {est.p_hat:>12.6f} {z:>+6.2f}")

print("\nEvery |z| should sit well inside +/-3: the simulator and the")
print("closed forms describe the same system.")
