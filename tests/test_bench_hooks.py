"""perfbench's traced runs wrap package functions by name; those names must stay where it looks."""

import importlib.util
import sys

from aimdalloc import aimd, cli, costs, engine, oracle, report

from conftest import REPO_ROOT


def test_traced_install_finds_every_wrapped_name(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ under perfbench/
    spec = importlib.util.spec_from_file_location("_perfbench_workload", REPO_ROOT / "perfbench" / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    owners = (aimd, cli, costs, engine, oracle, report, costs.CostEnsemble)
    before = [dict(vars(owner)) for owner in owners]
    spans = workload.Spans()
    try:
        workload.install(spans, workload.Recorder(spans, "traced"), traced=True)
        replaced = {name for owner, saved in zip(owners, before) for name, value in vars(owner).items()
                    if saved.get(name) is not value}
    finally:
        for owner, saved in zip(owners, before):
            for name in set(vars(owner)) - set(saved):
                delattr(owner, name)
            for name, value in saved.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)
    assert [dict(vars(owner)) for owner in owners] == before
    assert {"md_deterministic", "md_stochastic", "step_world", "kkt_residual", "collect_metrics",
            "export_trace", "solve_separable", "gradients", "values"} <= replaced
