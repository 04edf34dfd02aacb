import argparse
import json
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from aimdalloc import engine, parse_config
from aimdalloc.cli import _build_parser, main

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


def readme_synopsis():
    """Each subcommand's flags as the README's CLI synopsis lists them."""
    text = (REPO_ROOT / "README.md").read_text()
    return {
        name: set(re.findall(r"--[a-z]+", rest))
        for name, rest in re.findall(r"^aimdalloc (\w+) +CONFIG(.*)$", text, re.MULTILINE)
    }


class TestParser:
    SUBPARSERS = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices

    @pytest.mark.parametrize("command", ["run", "compare", "solve", "sweep"])
    def test_flags_match_readme_synopsis(self, command):
        options = {
            s for a in self.SUBPARSERS[command]._actions for s in a.option_strings
        } - {"-h", "--help"}
        assert options == readme_synopsis()[command]

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "c.json", "--stride", "5"],
            ["sweep", "c.json", "--seeds", "1..2", "--seed", "5"],
        ],
    )
    def test_flags_outside_synopsis_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


QUICKSTART_COMMANDS = [
    ["run", "--mode", "deterministic"],
    ["compare"],
    ["solve"],
    ["sweep", "--seeds", "42..42", "--mode", "deterministic"],
]


def quickstart_copy(tmp_path, **overrides):
    doc = json.loads((REPO_ROOT / "configs" / "quickstart.json").read_text())
    doc.update(overrides)
    return write_doc(tmp_path, doc)


class TestRunCommand:
    def test_writes_all_files(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc())
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        for name in ("trace.csv", "events.csv", "metrics.csv", "summary.json"):
            assert (tmp_path / "out" / name).exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("run (deterministic) finished: 60 steps, event bits [")
        assert lines[1].startswith("final cost ratio ")
        assert lines[2] == f"wrote events.csv, metrics.csv, summary.json, trace.csv to {tmp_path / 'out'}"

    def test_mode_flag_resolves_both(self, tmp_path):
        cfg = write_doc(tmp_path, small_doc(mode="both"))
        code = main(["run", str(cfg), "--mode", "stochastic", "--out", str(tmp_path / "o")])
        assert code == 0

    def test_both_without_flag_is_config_error(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc(mode="both"))
        code = main(["run", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error: invalid config: mode: 'both' needs the compare command or --mode" in capsys.readouterr().err

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
    def test_comparison_outputs(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc(mode="both"))
        out = tmp_path / "cmp"
        assert main(["compare", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("compare deterministic vs stochastic: convergence steps ")
        assert lines[1].startswith("final average-allocation gap: median ")
        assert lines[2] == f"wrote comparison to {out}"
        assert (out / "comparison.json").exists()
        assert (out / "deterministic" / "summary.json").exists()
        assert (out / "stochastic" / "summary.json").exists()

    def test_single_mode_config_rejected(self, tmp_path):
        cfg = write_doc(tmp_path, small_doc(mode="deterministic"))
        assert main(["compare", str(cfg), "--out", str(tmp_path / "x")]) == 2


class TestSolveCommand:
    def test_writes_optimum(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc())
        out = tmp_path / "solve"
        assert main(["solve", str(cfg), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("solved: mu = [") and " kkt residual " in lines[0]
        assert lines[1] == f"wrote optimum.json to {out}"
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

    def test_optimum_json_is_the_dict_form(self, tmp_path):
        """The records streamed from the population are the bytes ``json.dumps`` gives their dicts."""
        cfg = REPO_ROOT / "configs" / "tourist_center.json"
        out = tmp_path / "solve"
        assert main(["solve", str(cfg), "--out", str(out)]) == 0
        text = (out / "optimum.json").read_text()
        doc = json.loads(text)
        assert doc["cost_functions"] == engine.resolve_functions(parse_config(cfg)).to_dicts()
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


class TestSweepCommand:
    def test_aggregates_seeds(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc())
        out = tmp_path / "sweep"
        assert main(["sweep", str(cfg), "--seeds", "1..3", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:3]] == ["seed 1", "seed 2", "seed 3"]
        assert all(" cost ratio " in line for line in lines[:3])
        assert lines[3] == f"wrote sweep.json to {out}"
        doc = json.loads((out / "sweep.json").read_text())
        assert doc["seeds"] == [1, 2, 3]
        assert (out / "seed_2" / "summary.json").exists()
        assert len(doc["event_bits_mean"]) == 3

    def test_bad_seed_range(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc())
        assert main(["sweep", str(cfg), "--seeds", "5..1"]) == 2
        assert "seeds" in capsys.readouterr().err
        assert main(["sweep", str(cfg), "--seeds", "1-5"]) == 2
        assert "--seeds: expected A..B, got '1-5'" in capsys.readouterr().err


class TestKktTolerance:
    @pytest.mark.parametrize("command", QUICKSTART_COMMANDS)
    def test_residual_above_tolerance_exits_before_export(self, tmp_path, capsys, command):
        # the quickstart optimum certifies at about 4e-9, far above 1e-12
        cfg = quickstart_copy(tmp_path, kkt_tol=1e-12)
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


class TestTraceBudget:
    def test_oversized_trace_exits_before_sampling(self, tmp_path, capsys, monkeypatch):
        def refuse_sampling(cfg):
            raise AssertionError("functions sampled before the trace budget check")

        monkeypatch.setattr(engine, "resolve_functions", refuse_sampling)
        cfg = write_doc(tmp_path, small_doc(n=60_000, steps=30_000))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: 60000 devices would take about 10.5 GiB "
                              f"({engine.DEVICE_BYTES} bytes each and a 10.5 GiB trace), above the 4 GiB budget")
        assert err.endswith("; use fewer devices or keep fewer snapshots with a larger --stride (trace_stride)\n")
        assert not out.exists()

    def test_address_space_limit_exits_before_sampling(self, tmp_path, capsys, monkeypatch):
        """A soft RLIMIT_AS that leaves 64 MiB refuses a 0.1 GiB trace the fixed budget allows."""
        def refuse_sampling(cfg):
            raise AssertionError("functions sampled before the trace budget check")

        with open("/proc/self/statm") as fh:
            limit = int(fh.read().split()[0]) * resource.getpagesize() + 64 * 2**20
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))
        monkeypatch.setattr(engine, "resolve_functions", refuse_sampling)
        cfg = write_doc(tmp_path, small_doc(n=600, steps=30_000))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert re.match(r"config error: 600 devices would take about 0\.1 GiB .* above the 0\.0[0-9]+ GiB budget;",
                        capsys.readouterr().err)
        assert not out.exists()


class TestOutOfMemory:
    @pytest.mark.parametrize("kind", ["numpy", "bare"])
    def test_exits_3_with_the_reason(self, tmp_path, capsys, monkeypatch, kind):
        if kind == "numpy":
            with pytest.raises(MemoryError) as raised:
                np.empty(2**62, dtype=np.uint8)  # beyond any address space: refused unallocated
            error, expected = raised.value, f"run error: out of memory: {raised.value}\n"
            assert str(error).startswith("Unable to allocate")
        else:
            error, expected = MemoryError(), "run error: out of memory\n"

        def run(cfg, mode=None):
            raise error

        monkeypatch.setattr(engine, "run", run)
        cfg = write_doc(tmp_path, small_doc())
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--mode", "deterministic", "--out", str(out)]) == 3
        assert capsys.readouterr().err == expected
        assert not out.exists()


class TestDeviceBudget:
    """Many devices are refused, before sampling, by their arrays as well as their trace."""

    @pytest.fixture(autouse=True)
    def refuse_sampling(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("functions sampled before the device budget check")

        monkeypatch.setattr(engine, "resolve_functions", refuse)

    def test_run_with_a_small_trace(self, tmp_path, capsys):
        # a 0.4 GiB trace (two snapshots of 5 000 000 x 3 for x and x_bar) fits the budget;
        # with 5 000 000 devices' arrays the run does not
        cfg = write_doc(tmp_path, small_doc(n=5_000_000, steps=10, trace_stride=10))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--mode", "deterministic", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: 5000000 devices would take about 6.0 GiB "
            f"({engine.DEVICE_BYTES} bytes each and a 0.4 GiB trace), above the 4 GiB budget"
        )
        assert not out.exists()

    def test_solve(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc(n=50_000_000))
        out = tmp_path / "out"
        assert main(["solve", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: 50000000 devices would take about 55.9 GiB")
        assert not out.exists()

    def test_solve_within_the_budget_is_sampled(self, tmp_path, capsys):
        cfg = write_doc(tmp_path, small_doc(n=1_000_000))
        assert main(["solve", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "functions sampled before" in capsys.readouterr().err


class TestOutBlockedByFile:
    @pytest.fixture(autouse=True)
    def refuse_simulating(self, monkeypatch):
        def refuse(cfg):
            raise AssertionError("functions resolved before the output directory was checked")

        monkeypatch.setattr(engine, "resolve_functions", refuse)

    @pytest.mark.parametrize("command", QUICKSTART_COMMANDS)
    @pytest.mark.parametrize("under", [False, True])
    def test_config_error_before_simulating(self, tmp_path, capsys, command, under):
        cfg = quickstart_copy(tmp_path)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        assert main([command[0], str(cfg), *command[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: invalid config: out_dir: {blocker} is not a directory\n"

    @pytest.mark.parametrize(
        "command, taken",
        [(QUICKSTART_COMMANDS[1], "stochastic"), (QUICKSTART_COMMANDS[3], "seed_42")],
    )
    def test_file_in_place_of_a_subdirectory(self, tmp_path, capsys, command, taken):
        cfg = quickstart_copy(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / taken).write_text("")
        assert main([command[0], str(cfg), *command[1:], "--out", str(out)]) == 2
        assert f"out_dir: {out / taken} is not a directory" in capsys.readouterr().err
        assert os.listdir(out) == [taken]


class TestNoMaskedArrays:
    def test_commands_leave_numpy_ma_unimported(self, tmp_path):
        """``numpy.ma`` costs a process about 13 ms and 1.2 MiB; np.median, np.unique, np.isin and
        np.percentile import it, so no command may call them (quickstart cut to 300 steps)."""
        config = tmp_path / "quickstart.json"
        config.write_text(json.dumps({**json.loads((REPO_ROOT / "configs" / "quickstart.json").read_text()),
                                      "steps": 300}))
        argvs = [f"run {config} --stride 7 --mode stochastic", f"compare {config} --stride 7",
                 f"solve {config}", f"sweep {config} --stride 7 --mode deterministic --seeds 1..2"]
        script = ("import sys\nfrom aimdalloc.cli import main\n"
                  "for i, argv in enumerate(sys.argv[1:]):\n"
                  "    assert main(argv.split() + ['--out', f'out{i}']) == 0, argv\n"
                  "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
        path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script, *argvs], cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
