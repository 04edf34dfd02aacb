import runpy

import pytest

from conftest import REPO_ROOT


@pytest.mark.parametrize("name, headers", [
    ("01_cost_family", ["sampling", "evaluation and exact gradients",
                        "closed forms vs central differences", "increasing-convex audit",
                        "normalization estimate"]),
    ("02_backoff_rules", ["additive increase", "scaling factor", "deterministic back-off",
                          "stochastic back-off", "running average"]),
], ids=["01", "02"])
def test_demo_runs(name, headers, capsys):
    runpy.run_path(str(REPO_ROOT / "demos" / f"{name}.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("=== ")] == [f"=== {h} ===" for h in headers]
