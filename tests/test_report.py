import dataclasses
import json

import numpy as np
import pytest

from aimdalloc import (
    Config,
    ResourceParams,
    build_world,
    collect_metrics,
    compare_modes,
    convergence_step,
    export_comparison,
    export_trace,
    run,
    solve_separable,
)

from _stand_ins import WeightedSquare


@pytest.fixture(scope="module")
def exported(tmp_path_factory, bundled_config):
    cfg = dataclasses.replace(bundled_config, steps=300)
    trace = run(cfg, mode="deterministic")
    opt = solve_separable(trace.functions, [p.capacity for p in cfg.resources], tol=1e-9)
    report = collect_metrics(trace, opt.x_star)
    out = tmp_path_factory.mktemp("export")
    manifest = export_trace(trace, report, out)
    return cfg, trace, report, manifest


class TestExport:
    def test_minimal_trace_row_count(self, tmp_path):
        # one device, one resource, one step: exactly init + one data row pair
        cfg = Config(
            n=1,
            m=1,
            steps=1,
            mode="deterministic",
            resources=(ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1),),
            seed=0,
        )
        world = build_world([WeightedSquare(1.0)], cfg.resources, "deterministic", cfg.seed)
        trace = run(cfg, world=world)
        opt = solve_separable([WeightedSquare(1.0)], [1.0], tol=1e-9)
        report = collect_metrics(trace, opt.x_star)
        manifest = export_trace(trace, report, tmp_path)
        assert manifest.rows["trace.csv"] == 2
        text = (tmp_path / "trace.csv").read_text().splitlines()
        assert text[0] == "step,device,resource,x,x_bar,grad_at_xbar"
        assert len(text) == 3

    def test_reexport_is_byte_identical(self, exported, tmp_path):
        cfg, trace, report, manifest = exported
        again = export_trace(trace, report, tmp_path)
        for name in ("trace.csv", "events.csv", "metrics.csv", "summary.json"):
            assert (tmp_path / name).read_bytes() == (manifest.directory / name).read_bytes()

    def test_files_reparse_and_match_manifest(self, exported):
        cfg, trace, report, manifest = exported
        for name in ("trace.csv", "events.csv", "metrics.csv"):
            lines = (manifest.directory / name).read_text().splitlines()
            header, data = lines[0], lines[1:]
            assert len(data) == manifest.rows[name]
            width = len(header.split(","))
            assert all(len(line.split(",")) == width for line in data)

    def test_trace_row_arithmetic(self, exported):
        cfg, trace, report, manifest = exported
        assert manifest.rows["trace.csv"] == len(trace.snap_steps) * cfg.n * cfg.m
        assert manifest.rows["events.csv"] == (cfg.steps + 1) * cfg.m
        assert manifest.rows["metrics.csv"] == cfg.steps + 1

    def test_summary_matches_recomputation_from_csv(self, exported):
        cfg, trace, report, manifest = exported
        doc = json.loads((manifest.directory / "summary.json").read_text())
        lines = (manifest.directory / "metrics.csv").read_text().splitlines()
        last = lines[-1].split(",")
        header = lines[0].split(",")
        ratio = float(last[header.index("cost_ratio")])
        assert ratio == pytest.approx(doc["summary"]["final_cost_ratio"], rel=1e-8)
        bits = [int(last[header.index(f"cum_bits_r{j}")]) for j in range(cfg.m)]
        assert bits == doc["summary"]["event_bits"]

    def test_summary_config_hash_present(self, exported):
        cfg, trace, report, manifest = exported
        doc = json.loads((manifest.directory / "summary.json").read_text())
        assert doc["config_hash"] == trace.config_hash
        assert doc["mode"] == "deterministic"


class TestConvergenceStep:
    def test_never_above_returns_zero(self):
        spread = np.zeros((10, 2))
        assert convergence_step(spread, np.array([1.0, 1.0])) == 0

    def test_settles_after_last_violation(self):
        # last step above threshold is index 3, so the settle point is 4
        spread = np.array([[5.0], [3.0], [0.5], [2.0], [0.4], [0.3]])
        assert convergence_step(spread, np.array([1.0])) == 4

    def test_never_settles(self):
        spread = np.ones((4, 1)) * 9.0
        assert convergence_step(spread, np.array([1.0])) == 4


class TestCompareModes:
    def test_requires_both_mode(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, mode="deterministic", steps=50)
        with pytest.raises(ValueError):
            compare_modes(cfg)

    def test_identical_modes_are_identical(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, steps=300)
        cr = compare_modes(cfg, modes=("deterministic", "deterministic"))
        np.testing.assert_array_equal(cr.traces[0].xbar_snap, cr.traces[1].xbar_snap)
        assert np.all(cr.final_diff == 0.0)
        assert cr.convergence_steps[0] == cr.convergence_steps[1]

    def test_shared_functions_and_shapes(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, steps=300)
        cr = compare_modes(cfg)
        assert cr.traces[0].functions == cr.traces[1].functions
        assert cr.final_diff.shape == (cfg.n, cfg.m)

    def test_export_comparison_layout(self, bundled_config, tmp_path):
        cfg = dataclasses.replace(bundled_config, steps=200)
        cr = compare_modes(cfg)
        manifest = export_comparison(cr, tmp_path)
        assert (tmp_path / "deterministic" / "trace.csv").exists()
        assert (tmp_path / "stochastic" / "metrics.csv").exists()
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["modes"] == ["deterministic", "stochastic"]
        assert "deterministic/trace.csv" in manifest.rows
        assert set(doc["event_bits_at_convergence"]) == {"deterministic", "stochastic"}


class TestReferenceComparison:
    """Full-length deterministic vs stochastic behavior on the bundled scenario."""

    def test_deterministic_converges_earlier(self, reference_comparison):
        det_step, sto_step = reference_comparison.convergence_steps
        assert det_step < sto_step
        assert det_step < 5000

    def test_spread_shrinks_over_time_in_both_modes(self, reference_comparison):
        for trace in reference_comparison.traces:
            assert np.all(trace.spread[30000] < trace.spread[1000])

    def test_event_bits_both_readings_available(self, reference_comparison):
        final = reference_comparison.event_bits_final
        at_conv = reference_comparison.event_bits_at_convergence
        for mode_final, mode_conv in zip(final, at_conv):
            assert all(c <= f for c, f in zip(mode_conv, mode_final))
