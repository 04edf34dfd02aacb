"""perfbench wraps package functions by name; those names must stay where it looks, and be called as it counts."""

import contextlib
import importlib.util
import json
import sys
from pathlib import Path

from aimdalloc import aimd, cli, costs, engine, oracle, report

from conftest import REPO_ROOT

OWNERS = (aimd, cli, costs, engine, oracle, report, costs.CostEnsemble)


@contextlib.contextmanager
def installed(monkeypatch, traced: bool):
    """perfbench's wrappers in place for the block: yields (spans, recorder, the owners' names before).

    Every replaced name is put back afterwards, and checked to be.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("_perfbench_workload", REPO_ROOT / "perfbench" / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    before = [dict(vars(owner)) for owner in OWNERS]
    spans = workload.Spans()
    rec = workload.Recorder(spans, "traced" if traced else "timed")
    try:
        workload.install(spans, rec, traced=traced)
        yield spans, rec, before
    finally:
        for owner, saved in zip(OWNERS, before):
            for name in set(vars(owner)) - set(saved):
                delattr(owner, name)
            for name, value in saved.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)
    assert [dict(vars(owner)) for owner in OWNERS] == before


def test_traced_install_finds_every_wrapped_name(monkeypatch):
    with installed(monkeypatch, traced=True) as (_, _, before):
        replaced = {name for owner, saved in zip(OWNERS, before) for name, value in vars(owner).items()
                    if saved.get(name) is not value}
    assert {"md_deterministic", "md_stochastic", "step_world", "kkt_residual", "collect_metrics",
            "export_trace", "solve_separable", "gradients", "values"} <= replaced


def test_compare_is_counted_as_two_trajectories_in_mode_order(monkeypatch, tmp_path):
    """perfbench pairs the i-th run, collect and export as one trajectory; any other count reads as failures."""
    config = tmp_path / "quickstart.json"
    config.write_text(json.dumps({**json.loads((REPO_ROOT / "configs" / "quickstart.json").read_text()),
                                  "steps": 50}))
    with installed(monkeypatch, traced=False) as (spans, rec, _):
        assert cli.main(["compare", str(config), "--out", str(tmp_path / "out")]) == 0
    calls = [spans.names[i] for i in spans.name if spans.names[i] not in ("config.parse_config", "engine.build_world")]
    assert calls == ["engine.run", "oracle.solve_separable", "metrics.collect_metrics", "report.export_trace",
                     "engine.run", "metrics.collect_metrics", "report.export_trace"]
    assert [r["mode"] for r in rec.runs] == ["deterministic", "stochastic"]
    assert (len(rec.solves), len(rec.collects)) == (1, 2)
    assert [Path(e["directory"]).name for e in rec.exports] == ["deterministic", "stochastic"]
