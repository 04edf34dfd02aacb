"""Derived run metrics: consensus, optimality gap, feasibility, overhead."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import LoopEnsemble, _check_domain
from .engine import Trace


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
    optimum = np.asarray(optimum, dtype=float)
    if optimum.shape != (trace.n, trace.m):
        raise ValueError(
            f"optimum shape {optimum.shape} does not match trace ({trace.n}, {trace.m})"
        )
    # each function's own value, summed left to right as the scalar API would
    per_device = LoopEnsemble(trace.functions, trace.m).values(_check_domain(optimum))
    optimum_cost = float(sum(per_device.tolist()))
    cost_ratio = (
        trace.cost_sum_avg / optimum_cost if optimum_cost > 0 else np.full_like(trace.cost_sum_avg, np.nan)
    )
    distance = np.abs(trace.xbar_snap[-1] - optimum)
    summary = MetricsSummary(
        final_cost_ratio=float(cost_ratio[-1]),
        final_spread=tuple(float(v) for v in trace.spread[-1]),
        distance_median=float(np.median(distance)),
        distance_max=float(distance.max()),
        event_bits=tuple(int(v) for v in trace.cumulative_event_bits[-1]),
        wall_time_s=trace.wall_time_s,
    )
    return MetricsReport(cost_ratio=cost_ratio, final_distance=distance, summary=summary)
