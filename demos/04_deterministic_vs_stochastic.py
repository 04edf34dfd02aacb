#!/usr/bin/env python3
"""Deterministic versus stochastic back-off on the same instance.

Both runs share cost functions and seed; only the reaction to a capacity
event differs (synchronized partial back-off vs a coin flip on a full
back-off). The deterministic variant reaches derivative consensus first,
and both settle on the same long-term averages.
"""

from pathlib import Path

import numpy as np

from aimdalloc import compare_modes, parse_config

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "tourist_center.json"

cfg = parse_config(CONFIG)
cr = compare_modes(cfg)
det, sto = cr.traces

print("spread of cost derivatives across devices (consensus indicator):")
print("step      deterministic                stochastic")
for k in (500, 1000, 5000, 30000):
    d = np.array2string(det.spread[k], precision=3, floatmode="fixed")
    s = np.array2string(sto.spread[k], precision=3, floatmode="fixed")
    print(f"{k:>6}    {d:<28} {s}")

print(f"\nconvergence step (spread sustained below "
      f"{np.array2string(cr.spread_threshold, precision=3)}):")
print(f"  deterministic: {cr.convergence_steps[0]}")
print(f"  stochastic:    {cr.convergence_steps[1]}")

diff = cr.final_diff
print(f"\nfinal gap between the two modes' average allocations:")
print(f"  median {np.median(diff):.2e}, max {diff.max():.2e}")

print("\ncommunication overhead (one-bit events per resource):")
print(f"  at the final step:        det {list(cr.event_bits_final[0])}, "
      f"sto {list(cr.event_bits_final[1])}")
print(f"  up to own convergence:    det {list(cr.event_bits_at_convergence[0])}, "
      f"sto {list(cr.event_bits_at_convergence[1])}")
print("\nboth readings are shown because they answer different questions:")
print("fixed-horizon cost vs cost-to-consensus")
