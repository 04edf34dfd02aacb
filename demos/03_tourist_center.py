#!/usr/bin/env python3
"""The sixty-device reference scenario, end to end.

Sixty heterogeneous devices share RAM, CPU and (scaled) storage hosted at an
edge site. Demands grow linearly and back off deterministically on one-bit
capacity events; the long-term average allocations are then compared with
the centralized optimum.
"""

from pathlib import Path

import numpy as np

from aimdalloc import collect_metrics, parse_config, run, solve_separable

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "tourist_center.json"

cfg = parse_config(CONFIG)
print(f"{cfg.n} devices, {cfg.m} resources, {cfg.steps} steps, seed {cfg.seed}")
print("capacities:", [p.capacity for p in cfg.resources])

trace = run(cfg, mode="deterministic")
print(f"\nsimulated in {trace.wall_time_s:.2f}s")

optimum = solve_separable(trace.functions, [p.capacity for p in cfg.resources],
                          tol=cfg.solver_tol)
print("centralized consensus derivative levels:",
      np.array2string(optimum.mu, precision=3),
      f"(certificate residual {optimum.kkt_residual:.1e})")

report = collect_metrics(trace, optimum.x_star)

print("\nstep      spread(r0,r1,r2)              cost ratio   sum of averages")
for k in (100, 500, 1000, 5000, 30000):
    sp = np.array2string(trace.spread[k], precision=3, floatmode="fixed")
    sums = np.array2string(trace.totals_avg[k], precision=2, floatmode="fixed")
    print(f"{k:>6}    {sp:<28}  {report.cost_ratio[k]:>8.4f}   {sums}")

dist = report.final_distance
print(f"\nfinal |average - optimum| over all device-resource pairs:")
print(f"  median {np.median(dist):.2e}, max {dist.max():.2e}")
print(f"event bits broadcast per resource: {list(report.summary.event_bits)}")
print("\nthe derivative spread collapsing toward zero is the consensus that")
print("marks optimality; the averages settle within a grain of the capacity")
print("(the grain being one round of additive growth, n * alpha)")
