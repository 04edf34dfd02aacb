import dataclasses

import numpy as np
import pytest

from aimdalloc import (
    collect_metrics,
    evaluate_cost,
    run,
    solve_separable,
)

from _stand_ins import tiny_config


@pytest.fixture(scope="module")
def small_run(bundled_config):
    cfg = dataclasses.replace(bundled_config, steps=500)
    trace = run(cfg, mode="deterministic")
    opt = solve_separable(trace.functions, [p.capacity for p in cfg.resources], tol=1e-9)
    return cfg, trace, opt


class TestCollectMetrics:
    def test_shape_mismatch_rejected(self, small_run):
        _, trace, _ = small_run
        with pytest.raises(ValueError):
            collect_metrics(trace, np.zeros((3, 3)))

    def test_fixed_point_trace_scores_perfectly(self, small_run):
        # rebuilt trace whose averages sit exactly at the optimum
        _, trace, opt = small_run
        S = trace.xbar_snap.shape[0]
        fixed = dataclasses.replace(
            trace,
            xbar_snap=np.tile(opt.x_star, (S, 1, 1)),
            cost_sum_avg=np.full_like(
                trace.cost_sum_avg,
                sum(evaluate_cost(f, opt.x_star[i]) for i, f in enumerate(trace.functions)),
            ),
        )
        report = collect_metrics(fixed, opt.x_star)
        assert report.summary.distance_median == 0.0
        assert report.summary.distance_max == 0.0
        assert report.summary.final_cost_ratio == pytest.approx(1.0, rel=1e-12)

    def test_single_device_has_zero_spread(self):
        cfg = tiny_config(n=1, steps=30)
        trace = run(cfg)
        opt = solve_separable(trace.functions, [p.capacity for p in cfg.resources], tol=1e-9)
        report = collect_metrics(trace, opt.x_star)
        assert np.all(trace.spread == 0.0)
        assert report.summary.final_spread == (0.0, 0.0, 0.0)

    def test_cumulative_bits_match_events(self, small_run):
        _, trace, opt = small_run
        report = collect_metrics(trace, opt.x_star)
        np.testing.assert_array_equal(report.summary.event_bits, trace.events.sum(axis=0))

    def test_summary_matches_series(self, small_run):
        _, trace, opt = small_run
        report = collect_metrics(trace, opt.x_star)
        assert report.summary.final_cost_ratio == report.cost_ratio[-1]
        np.testing.assert_array_equal(report.summary.final_spread, trace.spread[-1])
        assert report.summary.distance_median == np.median(report.final_distance)
        assert report.summary.distance_max == report.final_distance.max()


class TestSteadyStateModel:
    """The README's first-order model of the steady state, on the bundled reference runs.

    An event round on resource j lowers its total by D = (1 - beta) Gamma mu n,
    any other round raises it by G = n alpha, so the event rate is
    G / (G + D) and the time-average total sits (G - D) / 2 above the
    threshold. The tolerances were fixed before the runs were read.
    """

    @pytest.mark.parametrize("mode_index", [0, 1], ids=["deterministic", "stochastic"])
    def test_rate_and_mean_total(self, reference_comparison, mode_index):
        trace = reference_comparison.traces[mode_index]
        mu = reference_comparison.optimum.mu
        for j, p in enumerate(trace.config.resources):
            gain = trace.n * p.alpha
            drop = (1.0 - p.beta) * p.gamma_norm * mu[j] * trace.n
            rate = trace.events[1000:, j].mean()
            assert abs(rate / (gain / (gain + drop)) - 1.0) <= 0.03, j
            predicted = (p.gamma_cap * p.capacity + (gain - drop) / 2.0) / p.capacity
            assert abs(trace.totals_avg[-1, j] / p.capacity - predicted) <= 0.005, j
