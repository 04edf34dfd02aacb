"""The benchmark's own tests: a small smoke run on configs/quickstart.json and its checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workload  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]
DIGESTS = json.loads((HERE / "digests.json").read_text())


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, table", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, table):
    proc = _bench("--workload", "smoke", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 2
    names = [item["name"] for item in BENCH[table]]
    assert list(last["metrics"]) == names
    for item in BENCH[table]:
        metric = last["metrics"][item["name"]]
        assert metric["unit"] == item["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(line.split()[:1] == [item["name"]] and f" {item['unit']} " in line
                   and "(n=" in line for line in lines)
    provenance = json.loads(lines[0].removeprefix("provenance "))
    assert {"git_commit", "seed", "nproc", "python", "numpy", "thread_env"} <= set(provenance)
    assert "recorded digests checked" in proc.stdout


def test_traced_layers_add_up_to_the_traced_wall_time():
    spans = workload.Spans(clock=iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 10.0, 11.0]).__next__)
    root = spans.open("cli")
    inner = spans.wrap("costs.values", lambda: None)
    outer = spans.wrap("engine.run", lambda: inner())
    outer()
    inner()
    spans.close(root)
    name, parent, start, end = spans.arrays()
    dur, own = workload.self_times(parent, start, end)
    assert list(parent) == [-1, 0, 1, 0]
    assert list(dur) == [11.0, 4.0, 1.0, 4.0]
    assert list(own) == [3.0, 3.0, 1.0, 4.0]
    assert own.sum() == dur[0]


@pytest.fixture(scope="module")
def smoke_invocation():
    """One checked CLI invocation of the smoke workload, with its files kept."""
    spec = WORKLOADS["smoke"]
    seed = spec["default_seed"]
    previous = Path.cwd()
    os.chdir(run.ROOT)
    run.WORK.mkdir(exist_ok=True)
    argv = run.workload_argv(spec, run.make_config("smoke", spec["config"]), seed)
    res = run.run_child(argv, "timed", time.monotonic() + 120)
    yield spec, res, DIGESTS["smoke"]["files"]
    shutil.rmtree(run.OUT, ignore_errors=True)
    os.chdir(previous)


def _corrupted(rel, edit, check):
    path = run.OUT / rel
    original = path.read_bytes()
    path.write_bytes(edit(original))
    try:
        return check()
    finally:
        path.write_bytes(original)


def test_clean_invocation_passes(smoke_invocation):
    spec, res, expected = smoke_invocation
    check = run.check_invocation(spec, res, expected, None)
    assert check["failed"] == 0, check["reasons"]
    assert check["digests"] == expected


@pytest.mark.parametrize("rel, failed", [
    ("deterministic/metrics.csv", 1),
    ("stochastic/summary.json", 1),
    ("comparison.json", 2),
])
def test_corrupted_export_is_a_failed_operation(smoke_invocation, rel, failed):
    spec, res, expected = smoke_invocation
    header = (run.OUT / rel).read_bytes().partition(b"\n")[0]

    def flip_digit(data):
        i = data.index(b"1", len(header) + 1)
        return data[:i] + b"2" + data[i + 1:]

    check = _corrupted(rel, flip_digit, lambda: run.check_invocation(spec, res, expected, None))
    assert check["failed"] == failed
    assert any("recorded digest" in r for r in check["reasons"])
    # the same corruption against an earlier invocation's digests, at a seed
    # with nothing recorded, shows as non-determinism
    check = _corrupted(rel, flip_digit, lambda: run.check_invocation(spec, res, None, expected))
    assert check["failed"] == failed


def test_non_finite_export_is_a_failed_operation(smoke_invocation):
    spec, res, _ = smoke_invocation

    def nan_cell(data):
        first_row_end = data.index(b"\n", data.index(b"\n") + 1)
        return data[:first_row_end] + b",nan" + data[first_row_end:]

    check = _corrupted("stochastic/trace.csv", nan_cell,
                       lambda: run.check_invocation(spec, res, None, None))
    assert check["failed"] == 1
    assert any("non-finite" in r for r in check["reasons"])


def test_missing_export_fails_every_operation(smoke_invocation):
    spec, res, expected = smoke_invocation
    path = run.OUT / "stochastic/events.csv"
    original = path.read_bytes()
    path.unlink()
    try:
        check = run.check_invocation(spec, res, expected, None)
    finally:
        path.write_bytes(original)
    assert check["failed"] == 2
    assert any("missing" in r for r in check["reasons"])


def test_model_invariants_and_cli_status_fail_operations(smoke_invocation):
    spec, res, _ = smoke_invocation
    overshoot = json.loads(json.dumps(res))
    overshoot["runs"][1]["overshoot_ok"] = False
    assert run.check_invocation(spec, overshoot, None, None)["failed"] == 1
    uncertified = json.loads(json.dumps(res))
    uncertified["solves"][0]["kkt_residual"] = 10 * uncertified["kkt_tol"]
    assert run.check_invocation(spec, uncertified, None, None)["failed"] == 2
    crashed = {"status": 3, "error": "run error"}
    assert run.check_invocation(spec, crashed, None, None)["failed"] == 2


def test_generated_configs_pass_parse_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(run.ROOT / "src"))
    from aimdalloc.config import parse_config

    base = parse_config(run.ROOT / "configs/tourist_center.json")
    for name, spec in WORKLOADS.items():
        if "base" not in spec["config"]:
            continue
        cfg = parse_config(run.make_config(name, spec["config"]))
        for key, value in spec["config"]["set"].items():
            assert getattr(cfg, key) == value
        scale = cfg.n / base.n if spec["config"].get("scale_capacity_with_n") else 1.0
        assert [r.capacity for r in cfg.resources] == pytest.approx(
            [r.capacity * scale for r in base.resources])


def test_workload_records_match_benchmark_json():
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == [n for n in WORKLOADS if n != "smoke"]
    for name in WORKLOADS:
        assert DIGESTS[name]["seed"] == WORKLOADS[name]["default_seed"]


def test_fails_without_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "tourist-compare", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
