"""Control unit: capacity events from total demand.

The control unit broadcasts one bit per resource whenever aggregate demand
crosses the (optionally derated) capacity. Devices treat a missing broadcast
as a zero bit, so the communication overhead of a run is simply the number
of one-bits in its event matrix (``Trace.cumulative_event_bits``).
"""

from __future__ import annotations

import numpy as np


def capacity_event_bits(totals: np.ndarray, capacities: np.ndarray, gamma_caps: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Event bits for one step as uint8: 1 where total demand strictly exceeds gamma*C.

    Strict inequality: a total exactly at gamma_cap * capacity does not fire.
    Resources are independent. ``out``, a bool array, takes the bits.
    """
    return np.greater(totals, np.multiply(gamma_caps, capacities), out).view(np.uint8)
