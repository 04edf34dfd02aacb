"""Frozen-file check of the export format.

The committed files under ``golden/`` were produced by the run below; any
drift in float formatting, column order, row order or the dynamics themselves
shows up as a byte difference.
"""

from pathlib import Path

from aimdalloc import (
    Config,
    CostFunction,
    ResourceParams,
    collect_metrics,
    export_trace,
    run,
    solve_separable,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_config():
    functions = (
        CostFunction(1, 3, 2, 4, 5),
        CostFunction(2, 7, 1, 2, 3),
    )
    return Config(
        n=2,
        m=3,
        steps=12,
        mode="deterministic",
        resources=(
            ResourceParams(capacity=0.5, alpha=0.05, beta=0.7, gamma_norm=0.02),
            ResourceParams(capacity=0.4, alpha=0.04, beta=0.8, gamma_norm=0.02),
            ResourceParams(capacity=0.6, alpha=0.05, beta=0.75, gamma_norm=0.02),
        ),
        seed=12345,
        functions=functions,
    )


def test_exports_match_committed_golden_files(tmp_path):
    cfg = golden_config()
    trace = run(cfg)
    opt = solve_separable(
        cfg.functions, [p.capacity for p in cfg.resources], tol=1e-10
    )
    report = collect_metrics(trace, opt.x_star)
    export_trace(trace, report, tmp_path)
    for name in ("trace.csv", "events.csv", "metrics.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
