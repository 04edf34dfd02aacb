"""Benchmark of the aimdalloc CLI: end-to-end time, memory and accuracy, and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--trace 0|1]
    python3 perfbench/run.py --record-digests

Run it from the root of a checkout.  The package is imported from ``src/``;
nothing is installed.  Workloads (argv and generated-config recipes) are in
``perfbench/workloads.json``; metric names, units and bounds in
``BENCHMARK.json``.

One *operation* is one trajectory that the CLI simulates, solves and exports.
Each invocation of the CLI runs in a fresh single-threaded interpreter
(``perfbench/workload.py``) that calls ``aimdalloc.cli.main(argv)``.  With
``--trace 0`` the run repeats the whole invocation until ``--seconds`` have
passed, starting after each one two more processes that stop after set-up,
and prints the median of each end-to-end metric.  With ``--trace 1`` it alternates
untraced and traced invocations and prints the per-layer metrics of the traced
ones with the tracing overhead.

Every invocation is checked: the CLI must return 0; every round's total must
stay within gamma*C + n*alpha + 1e-9 (read from the Trace, not the CSV); the
oracle's KKT residual must be within kkt_tol; every exported number must be
finite; repeated invocations in one run must write identical files; and at a
workload's default seed the file digests must equal ``perfbench/digests.json``.
A failed check fails the trajectories whose files or data it concerns.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the provenance and every metric with its unit and sample count; the full
record goes to ``.perfbench_out/``.  ``--workload all`` runs every workload at
its default seed and prints one table.  ``--record-digests`` rewrites
``digests.json`` from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path(".perfbench_out")
OUT = WORK / "out"  # fixed and relative: it enters summary.json through the config
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
SETUP_SAMPLES_PER_INVOCATION = 2
DEADLINE_S = 170.0  # every run ends well inside the 180 s the driver allows


class CheckoutError(RuntimeError):
    """The directory is not a checkout the benchmark can run in."""


def load_specs():
    for rel in ("BENCHMARK.json", "src/aimdalloc/cli.py", "configs/tourist_center.json"):
        if not (ROOT / rel).is_file():
            raise CheckoutError(f"{rel} is missing; run from the root of an aimdalloc checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())["workloads"]
    digests_path = HERE / "digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.is_file() else {}
    return bench, workloads, digests


# ---------------------------------------------------------------- inputs


def make_config(name: str, recipe: dict) -> str:
    """Config path for a workload, writing the generated config when there is a recipe."""
    if "path" in recipe:
        return recipe["path"]
    base = json.loads((ROOT / recipe["base"]).read_text())
    doc = {**base, **recipe.get("set", {})}
    if recipe.get("scale_capacity_with_n"):
        scale = doc["n"] / base["n"]
        doc["resources"] = [{**r, "capacity": r["capacity"] * scale} for r in base["resources"]]
    path = WORK / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def workload_argv(spec: dict, config: str, seed: int) -> list[str]:
    fields = {"config": config, "seed": seed, "last_seed": seed + spec["trajectories"] - 1,
              "out": str(OUT)}
    return [arg.format(**fields) for arg in spec["argv"]]


# ---------------------------------------------------------------- processes


def run_child(argv: list[str], mode: str, deadline: float) -> dict:
    """One fresh workload process; returns its result record."""
    shutil.rmtree(OUT, ignore_errors=True)
    request = WORK / "request.json"
    result = WORK / "result.json"
    result.unlink(missing_ok=True)
    request.write_text(json.dumps({
        "src": str(ROOT / "src"), "argv": argv, "mode": mode,
        "result": str(result), "spans": str(WORK / "spans.npz"),
    }))
    env = {**os.environ, **THREAD_ENV, "PYTHONHASHSEED": "0"}
    env.pop("PYTHONPATH", None)
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workload.py"), str(request)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"status": None, "error": f"workload process killed after {timeout:.0f} s"}
    if proc.returncode != 0 or not result.is_file():
        return {"status": None, "error": f"workload process exit {proc.returncode}: "
                                          f"{proc.stderr[-2000:]}"}
    return json.loads(result.read_text())


# ---------------------------------------------------------------- output checks


def file_digest(path: Path) -> str:
    """SHA-256 of an export; summary.json without its run-time field."""
    if path.name == "summary.json":
        doc = json.loads(path.read_text())
        doc["summary"].pop("wall_time_s", None)
        data = json.dumps(doc, sort_keys=True).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def file_finite(path: Path) -> bool:
    """Every number in an exported CSV or JSON file is finite."""
    if path.suffix == ".csv":
        # values are written with format(v, ".9g"): non-finite ones read nan/inf
        body = path.read_bytes().partition(b"\n")[2]
        return b"nan" not in body and b"inf" not in body
    return _all_finite(json.loads(path.read_text(), parse_constant=float))


def check_invocation(spec: dict, res: dict, expected: dict | None,
                     reference: dict | None) -> dict:
    """Count failed trajectories of one invocation and digest its exports.

    ``expected`` are recorded digests (default seed only); ``reference`` the
    digests of an earlier invocation with the same argv in this run.
    """
    n_traj = spec["trajectories"]
    out = {"attempted": n_traj, "failed": n_traj, "reasons": [], "digests": {},
           "cost_ratio_gap": None, "event_bits": 0, "bit_slots": 0}
    if res.get("status") != 0:
        out["reasons"].append(f"CLI status {res.get('status')}: {res.get('error')}")
        return out
    runs, collects, exports = res["runs"], res["collects"], res["exports"]
    if not len(runs) == len(collects) == len(exports) == n_traj:
        out["reasons"].append(f"expected {n_traj} trajectories, saw runs={len(runs)} "
                              f"solves={len(collects)} exports={len(exports)}")
        return out

    references = (("recorded digest", expected), ("earlier invocation", reference))

    def file_problems(rel: str) -> list[str]:
        path = OUT / rel
        if not path.is_file():
            return [f"{rel}: missing"]
        problems = [] if file_finite(path) else [f"{rel}: non-finite number"]
        digest = out["digests"][rel] = file_digest(path)
        for label, table in references:
            if table is not None and table.get(rel) != digest:
                problems.append(f"{rel}: differs from {label}")
        return problems

    shared = [p for rel in spec["shared_files"] for p in file_problems(rel)]
    out["reasons"] += shared
    failed = 0
    for run, collect, export in zip(runs, collects, exports):
        problems = []
        if not run["overshoot_ok"]:
            problems.append(f"seed {run['seed']} {run['mode']}: a round total exceeds "
                            "gamma*C + n*alpha + 1e-9")
        solve = res["solves"][collect["solve"]]
        if not solve["kkt_residual"] <= res["kkt_tol"]:
            problems.append(f"seed {run['seed']}: kkt residual {solve['kkt_residual']:.3e} "
                            f"above kkt_tol {res['kkt_tol']:.1e}")
        directory = Path(export["directory"]).relative_to(OUT)
        for name in export["files"]:
            problems += file_problems((directory / name).as_posix())
        failed += bool(problems or shared)
        out["reasons"] += problems
    for label, table in references:
        if table is not None and set(table) != set(out["digests"]):
            out["reasons"].append(f"the files written differ from the {label}s")
            failed = n_traj
    out["failed"] = failed
    out["cost_ratio_gap"] = max(abs(c["final_cost_ratio"] - 1.0) for c in collects)
    out["event_bits"] = sum(r["event_bits"] for r in runs)
    out["bit_slots"] = sum(r["rounds"] * r["m"] for r in runs)
    return out


# ---------------------------------------------------------------- measuring


def provenance(name: str, seed: int, numpy_version: str | None) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # not a parent directory's repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": name,
        "seed": seed,
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thread_env": THREAD_ENV,
    }


def measure(name: str, spec: dict, seed: int, seconds: float, traced: bool,
            digests: dict) -> dict:
    """Run one workload for ``seconds`` and gather its samples and checks."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    argv = workload_argv(spec, make_config(name, spec["config"]), seed)
    recorded = digests.get(name)
    expected = recorded["files"] if recorded and recorded["seed"] == seed else None

    errors: list[str] = []
    setup_samples: list[float] = []
    invocations: list[dict] = []
    run_child(argv, "setup", deadline)  # warm-up: bytecode and file caches
    modes = ("timed", "traced") if traced else ("timed",)
    reference = None
    while not invocations or time.monotonic() - started < seconds:
        for mode in modes:
            res = run_child(argv, mode, deadline)
            check = check_invocation(spec, res, expected, reference)
            if reference is None and check["failed"] == 0:
                reference = check["digests"]
            invocations.append({"mode": mode, "result": res, "check": check})
        # set-up samples spread over the whole run, as the machine's speed drifts
        for _ in range(0 if traced else SETUP_SAMPLES_PER_INVOCATION):
            res = run_child(argv, "setup", deadline)
            if res.get("status") == "setup":
                setup_samples.append(res["setup_s"])
            else:
                errors.append(f"set-up process: {res.get('error')}")
        if time.monotonic() > deadline - 60:
            break
    shutil.rmtree(OUT, ignore_errors=True)
    return {"argv": argv, "errors": errors, "setup_samples": setup_samples,
            "invocations": invocations, "expected_digests": expected is not None,
            "seconds": time.monotonic() - started}


def _median(values: list) -> float | int:
    """Median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def summarize(name: str, seed: int, m: dict, traced: bool) -> dict:
    """Metrics with sample counts, and the correctness verdict, of one measurement."""
    inv = m["invocations"]
    attempted = sum(i["check"]["attempted"] for i in inv)
    failed = sum(i["check"]["failed"] for i in inv)
    reasons = list(m["errors"]) + [r for i in inv for r in i["check"]["reasons"]]
    done = [i for i in inv if i["result"].get("status") == 0]
    timed = [i["result"] for i in done if i["mode"] == "timed"]
    checked = [i["check"] for i in done if i["check"]["cost_ratio_gap"] is not None]
    samples: dict[str, list[float]] = {}

    def put(key, values):
        values = [v for v in values if v is not None]
        if values:
            samples[key] = values

    if not traced:
        put("wall_s", [r["wall_s"] for r in timed])
        put("setup_s", m["setup_samples"] + [r["setup_s"] for r in timed])
        put("peak_rss_mb", [r["peak_rss_mb"] for r in timed])
        put("event_bits_per_round", [c["event_bits"] / c["bit_slots"] for c in checked])
    else:
        layers = [i["result"]["layers"] for i in done if i["mode"] == "traced"]
        for key in (layers[0] if layers else {}):
            put(key, [lay[key] for lay in layers])
        for lay in layers:
            parts = sum(v for k, v in lay.items() if k.endswith(".self_s") and k.count(".") == 1)
            parts += lay["cli.import_s"]
            if abs(parts - lay["trace.wall_s"]) > 1e-6 * lay["trace.wall_s"]:
                reasons.append(f"layer self times sum to {parts:.6f} s, traced wall "
                               f"{lay['trace.wall_s']:.6f} s")
        traced_bits = [lay["control.event_bits"] for lay in layers]
        trace_bits = [i["check"]["event_bits"] for i in done if i["mode"] == "traced"]
        if traced_bits != trace_bits:
            reasons.append(f"capacity_event_bits returned {traced_bits} one-bits, "
                           f"Trace.events holds {trace_bits}")
        put("trace.untraced_wall_s", [r["wall_s"] for r in timed])
        # invocations alternate untraced, traced: pairs ran close together in time
        pairs = [(a["result"]["wall_s"], b["result"]["wall_s"]) for a, b in zip(inv[::2], inv[1::2])
                 if a["result"].get("status") == 0 and b["result"].get("status") == 0]
        put("trace.overhead_s", [t - u for u, t in pairs])
        put("trace.overhead_pct", [100.0 * (t - u) / u for u, t in pairs])
    put("cost_ratio_gap", [c["cost_ratio_gap"] for c in checked])
    numpy_version = next((i["result"].get("numpy") for i in done), None)
    return {
        "provenance": provenance(name, seed, numpy_version),
        "argv": m["argv"],
        "seconds": m["seconds"],
        "invocations": len(inv),
        "digests_checked": m["expected_digests"],
        "correct": failed == 0 and not reasons,
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons[:50],
        "metrics": {k: (_median(v), len(v)) for k, v in samples.items()}
        | ({"error_rate": (failed / attempted, attempted)} if attempted else {}),
        "samples": samples,
    }


def report_line(summary: dict, table: list[dict]) -> dict:
    """The contract's last-line object: one BENCHMARK.json table's metrics, with units."""
    metrics = {}
    for item in table:
        key = item["name"]
        if key not in summary["metrics"]:
            raise RuntimeError(f"metric {key} was not measured: {summary['reasons'][:3]}")
        metrics[key] = {"value": summary["metrics"][key][0], "unit": item["unit"]}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": metrics}


def print_summary(summary: dict, units: dict) -> None:
    print(f"provenance {json.dumps(summary['provenance'], sort_keys=True)}")
    print(f"argv aimdalloc {' '.join(summary['argv'])}")
    print(f"invocations {summary['invocations']} in {summary['seconds']:.1f} s, "
          f"trajectories attempted {summary['attempted']}, failed {summary['failed']}, "
          f"recorded digests {'checked' if summary['digests_checked'] else 'not at this seed'}")
    for reason in summary["reasons"]:
        print(f"FAILED {reason}")
    for key, unit in units.items():
        if key in summary["metrics"]:
            value, samples = summary["metrics"][key]
            print(f"  {key:36s} {value:>14.6g} {unit:11s} (n={samples})")


def run_one(name: str, seed: int, seconds: float, traced: bool, specs) -> dict:
    bench, workloads, digests = specs
    summary = summarize(name, seed, measure(name, workloads[name], seed, seconds, traced,
                                            digests), traced)
    # every measured metric is printed, error_rate and cost_ratio_gap also untraced
    print_summary(summary, {item["name"]: item["unit"]
                            for item in bench["end_to_end"] + bench["per_layer"]})
    record = WORK / f"result-{name}-{seed}-trace{int(traced)}.json"
    record.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return report_line(summary, bench["per_layer"] if traced else bench["end_to_end"])


def record_digests(specs) -> int:
    _, workloads, _ = specs
    doc = {}
    for name, spec in workloads.items():
        seed = spec["default_seed"]
        m = measure(name, spec, seed, 0.0, False, {})
        check = m["invocations"][0]["check"]
        if check["failed"]:
            print(f"{name}: not recorded, {check['reasons'][:3]}", file=sys.stderr)
            return 1
        doc[name] = {"seed": seed, "files": dict(sorted(check["digests"].items()))}
        print(f"{name}: {len(check['digests'])} digests at seed {seed}")
    (HERE / "digests.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        specs = load_specs()
    except CheckoutError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.record_digests:
        return record_digests(specs)
    bench, workloads, _ = specs
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        lines = {}
        for name in names:
            print(f"== {name}")
            seed = workloads[name]["default_seed"] if args.seed is None else args.seed
            lines[name] = run_one(name, seed, seconds, bool(args.trace), specs)
        print(json.dumps(lines))
        return 0 if all(line["correct"] for line in lines.values()) else 1
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {names + ['all']}")
    name = args.workload
    seed = workloads[name]["default_seed"] if args.seed is None else args.seed
    print(json.dumps(run_one(name, seed, seconds, bool(args.trace), specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
