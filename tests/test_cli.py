import json
import re

import numpy as np
import pytest

from aimdalloc import engine
from aimdalloc.cli import main

from conftest import REPO_ROOT
from _stand_ins import BlowUp
from test_config import minimal_doc, write_doc


def small_doc(**overrides):
    doc = minimal_doc(n=4, steps=60, seed=11)
    doc["resources"] = [
        {"capacity": 1.0, "alpha": 0.05, "beta": 0.7, "gamma_norm": 0.01},
        {"capacity": 0.8, "alpha": 0.04, "beta": 0.8, "gamma_norm": 0.01},
        {"capacity": 1.2, "alpha": 0.05, "beta": 0.75, "gamma_norm": 0.01},
    ]
    doc.update(overrides)
    return doc


class TestRunCommand:
    def test_writes_all_files(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc())
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        for name in ("trace.csv", "events.csv", "metrics.csv", "summary.json"):
            assert (tmp_path / "out" / name).exists()
        assert "final cost ratio" in capsys.readouterr().out

    def test_mode_flag_resolves_both(self, tmp_path):
        cfg = write_doc(tmp_path, small_doc(mode="both"))
        code = main(["run", str(cfg), "--mode", "stochastic", "--out", str(tmp_path / "o")])
        assert code == 0

    def test_both_without_flag_is_config_error(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc(mode="both"))
        code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        doc = small_doc()
        doc["resources"][0]["beta"] = 2.0
        cfg = write_doc(tmp_path, doc)
        assert main(["run", str(cfg)]) == 2
        assert "beta" in capsys.readouterr().err

    def test_seed_and_stride_overrides(self, tmp_path):
        cfg = write_doc(tmp_path, small_doc())
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--seed", "99", "--stride", "5"]) == 0
        doc = json.loads((out / "summary.json").read_text())
        assert doc["seed"] == 99
        assert doc["config"]["trace_stride"] == 5


class TestCompareCommand:
    def test_comparison_outputs(self, tmp_path):
        cfg = write_doc(tmp_path, small_doc(mode="both"))
        out = tmp_path / "cmp"
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        assert (out / "comparison.json").exists()
        assert (out / "deterministic" / "summary.json").exists()
        assert (out / "stochastic" / "summary.json").exists()

    def test_single_mode_config_rejected(self, tmp_path):
        cfg = write_doc(tmp_path, small_doc(mode="deterministic"))
        assert main(["compare", str(cfg), "--out", str(tmp_path / "x")]) == 2


class TestSolveCommand:
    def test_writes_optimum(self, tmp_path):
        cfg = write_doc(tmp_path, small_doc())
        out = tmp_path / "solve"
        assert main(["solve", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "optimum.json").read_text())
        assert len(doc["x_star"]) == 4
        assert len(doc["mu"]) == 3
        assert doc["converged"]

    def test_feasibility_of_reported_solution(self, tmp_path):
        cfg = write_doc(tmp_path, small_doc())
        out = tmp_path / "solve"
        main(["solve", str(cfg), "--out", str(out)])
        doc = json.loads((out / "optimum.json").read_text())
        sums = [sum(row[j] for row in doc["x_star"]) for j in range(3)]
        caps = [1.0, 0.8, 1.2]
        assert all(abs(s - c) <= 1e-6 * c for s, c in zip(sums, caps))


class TestSweepCommand:
    def test_aggregates_seeds(self, tmp_path):
        cfg = write_doc(tmp_path, small_doc())
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--seeds", "1..3", "--out", str(out)]) == 0
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["seeds"] == [1, 2, 3]
        assert (out / "seed_2" / "summary.json").exists()
        assert len(doc["event_bits_mean"]) == 3

    def test_bad_seed_range(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc())
        assert main(["sweep", str(cfg), "--seeds", "5..1"]) == 2
        assert "seeds" in capsys.readouterr().err


class TestKktTolerance:
    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--mode", "deterministic"],
            ["compare"],
            ["solve"],
            ["sweep", "--seeds", "42..42", "--mode", "deterministic"],
        ],
    )
    def test_residual_above_tolerance_exits_before_export(self, tmp_path, capsys, command):
        # the quickstart optimum certifies at about 4e-9, far above 1e-12
        doc = json.loads((REPO_ROOT / "configs" / "quickstart.json").read_text())
        doc["kkt_tol"] = 1e-12
        cfg = write_doc(tmp_path, doc)
        out = tmp_path / "out"
        code = main([command[0], str(cfg), *command[1:], "--out", str(out)])
        assert code == 3
        assert "above kkt_tol" in capsys.readouterr().err
        assert not out.exists()


class TestNonFiniteRun:
    def test_nan_gradient_exits_before_export(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            engine, "resolve_functions",
            lambda cfg: tuple(BlowUp(1.0, [np.inf, 0.05, np.inf], np.nan) for _ in range(cfg.n)),
        )
        cfg = write_doc(tmp_path, small_doc())
        out = tmp_path / "out"
        code = main(["run", str(cfg), "--mode", "deterministic", "--out", str(out)])
        assert code == 3
        assert re.search(r"run error: step \d+, resource 1: ", capsys.readouterr().err)
        assert not out.exists()
