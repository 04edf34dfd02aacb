"""Derived run metrics: consensus, optimality gap, feasibility, overhead."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import _check_domain, _check_shape, make_ensemble
from .engine import Trace


def _median(a: np.ndarray) -> float:
    """``np.median(a)`` bit for bit, for a non-empty float array, without importing ``numpy.ma``."""
    half = a.size // 2
    part = np.partition(a, [half - 1, half, -1] if a.size % 2 == 0 else [half, -1], axis=None)
    mid = part[half] + 0.0 if a.size % 2 else (part[half - 1] + part[half] + 0.0) / 2  # np.mean starts at +0.0
    return float(part[-1] if np.isnan(part[-1]) else mid)  # a NaN sorts last


@dataclass(frozen=True)
class MetricsSummary:
    final_cost_ratio: float
    final_spread: tuple[float, ...]
    distance_median: float
    distance_max: float
    event_bits: tuple[int, ...]
    wall_time_s: float


@dataclass
class MetricsReport:
    """Metric series derived from a trace and the optimum, plus a summary block.

    The cost ratio shares the trace's step axis; the per-device distance to
    the optimum is kept at the final snapshot. The trace's own series
    (spread, totals, event bits) are read off the ``Trace``.
    """

    cost_ratio: np.ndarray            # (K+1,)
    final_distance: np.ndarray        # (n, m)  |x_bar - x*| at the final snapshot
    summary: MetricsSummary


def collect_metrics(trace: Trace, optimum: np.ndarray) -> MetricsReport:
    """Combine a trace with the centralized optimum into report series.

    ``optimum`` is the (n, m) allocation matrix the averages are measured
    against; the cost-ratio series divides the running sum-of-costs at the
    averages by the total cost at the optimum.
    """
    optimum = _check_domain(_check_shape(optimum, trace.n, trace.m, "optimum"))
    # each device's value, summed left to right as the scalar API would
    per_device = make_ensemble(trace.functions, trace.m).values(optimum)
    optimum_cost = float(sum(per_device.tolist()))
    cost_ratio = (
        trace.cost_sum_avg / optimum_cost if optimum_cost > 0 else np.full_like(trace.cost_sum_avg, np.nan)
    )
    distance = np.abs(trace.xbar_snap[-1] - optimum)
    summary = MetricsSummary(
        final_cost_ratio=float(cost_ratio[-1]),
        final_spread=tuple(float(v) for v in trace.spread[-1]),
        distance_median=_median(distance),
        distance_max=float(distance.max()),
        event_bits=tuple(int(v) for v in trace.cumulative_event_bits[-1]),
        wall_time_s=trace.wall_time_s,
    )
    return MetricsReport(cost_ratio=cost_ratio, final_distance=distance, summary=summary)
