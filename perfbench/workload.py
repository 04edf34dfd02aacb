"""One workload process: a fresh interpreter that calls ``aimdalloc.cli.main(argv)``.

Usage (``run.py`` starts it; it is not meant to be run by hand):

    python3 perfbench/workload.py REQUEST.json

REQUEST.json holds ``src`` (the checkout's source directory), ``argv`` (the
CLI arguments), ``mode`` and ``result`` (where to write the result JSON);
traced runs also give ``spans`` (where to write the recorded spans).

Modes:

- ``timed``: only calls made once per trajectory are wrapped (parse_config,
  build_world, engine.run, solve_separable, collect_metrics, export_trace).
- ``traced``: every layer boundary is wrapped, per-round calls included; the
  spans are kept in memory and written out when the CLI has returned.
- ``setup``: the process stops at the return of the first ``build_world``,
  which gives one more set-up sample at the price of a short process.

Every layer is measured from outside, by replacing a function at the name its
caller looks it up under; nothing in ``src/`` is changed.  The result JSON
carries the wall and set-up times, the peak RSS, and per-trajectory facts the
benchmark checks: overshoot bound, oracle certificate, event bits, cost ratio
and the files each export wrote.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

#: the package modules; a span belongs to the layer its name starts with
LAYERS = ("config", "costs", "aimd", "control", "engine", "oracle", "metrics", "report", "cli")


class SetupDone(BaseException):
    """Ends a ``setup`` process at the first build_world return.

    A BaseException, so the CLI's ``except Exception`` lets it through.
    """


class Spans:
    """Nested timing spans kept in flat arrays: name id, start, end, parent index.

    Single-threaded by design: the open span is the parent of the next one.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = len(self.end)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` timed as span ``name``; ``on_return(result)`` runs after the span ends."""
        nid = self._id(name)
        names, parents, starts, ends, stack, clock = (
            self.name, self.parent, self.start, self.end, self._stack, self.clock,
        )

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = len(ends)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return spanned

    def arrays(self):
        import numpy as np

        return (
            np.frombuffer(self.name, dtype=np.int_).copy(),
            np.frombuffer(self.parent, dtype=np.int_).copy(),
            np.frombuffer(self.start, dtype=float).copy(),
            np.frombuffer(self.end, dtype=float).copy(),
        )


def self_times(parent, start, end):
    """Per-span duration and self time (duration minus the time its children cover).

    Children of one span never overlap (one thread), so the covered time is
    the sum of their durations.
    """
    import numpy as np

    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur, dur - covered


class Recorder:
    """Facts taken from the values the wrapped functions return."""

    def __init__(self, spans: Spans, mode: str):
        self.spans = spans
        self.mode = mode
        self.setup_end: float | None = None
        self.kkt_tol: float | None = None
        self.runs: list[dict] = []
        self.solves: list[dict] = []
        self.collects: list[dict] = []
        self.exports: list[dict] = []
        self.event_vectors: list = []  # traced runs: every capacity_event_bits result

    def on_parse(self, cfg):
        self.kkt_tol = float(cfg.kkt_tol)

    def on_build_world(self, _world):
        if self.setup_end is None:
            self.setup_end = self.spans.clock()
            if self.mode == "setup":
                raise SetupDone

    def on_run(self, trace):
        import numpy as np

        cfg = trace.config
        # the round-total bound gamma*C + n*alpha, read from the Trace itself
        # because the 9-digit CSV is coarser than the 1e-9 slack
        bound = np.array(
            [p.gamma_cap * p.capacity + trace.n * p.alpha for p in cfg.resources]
        )
        slack = bound - trace.totals_inst.max(axis=0)
        self.runs.append(
            {
                "mode": trace.mode,
                "seed": int(trace.seed),
                "n": int(trace.n),
                "m": int(trace.m),
                "rounds": int(len(trace.steps) - 1),
                "event_bits": int(trace.events.sum(dtype=np.int64)),
                "clamps": int(trace.clamp_low + trace.clamp_high),
                "overshoot_ok": bool(np.all(trace.totals_inst <= bound + 1e-9)),
                "overshoot_min_slack": float(slack.min()),
                "trace_bytes": int(
                    sum(v.nbytes for v in vars(trace).values() if isinstance(v, np.ndarray))
                ),
            }
        )

    def on_solve(self, optimum):
        self.solves.append(
            {
                "kkt_residual": float(optimum.kkt_residual),
                "iterations": int(optimum.iterations),
            }
        )

    def on_collect(self, report):
        self.collects.append(
            {
                "final_cost_ratio": float(report.summary.final_cost_ratio),
                "solve": len(self.solves) - 1,
            }
        )

    def on_export(self, manifest):
        directory = Path(manifest.directory)
        self.exports.append(
            {
                "directory": str(directory),
                "files": {name: (directory / name).stat().st_size for name in sorted(manifest.rows)},
            }
        )


def install(spans: Spans, rec: Recorder, traced: bool) -> None:
    """Wrap the layer boundaries at the names their callers look up."""
    from aimdalloc import aimd, cli, costs, engine, oracle, report

    cli.parse_config = spans.wrap("config.parse_config", cli.parse_config, rec.on_parse)
    engine.build_world = spans.wrap("engine.build_world", engine.build_world, rec.on_build_world)
    engine.run = spans.wrap("engine.run", engine.run, rec.on_run)
    solve = spans.wrap("oracle.solve_separable", oracle.solve_separable, rec.on_solve)
    collect = spans.wrap("metrics.collect_metrics", cli.collect_metrics, rec.on_collect)
    export = spans.wrap("report.export_trace", cli.export_trace, rec.on_export)
    for module in (cli, report):
        module.solve_separable = solve
        module.collect_metrics = collect
        module.export_trace = export
    if not traced:
        return
    engine.sample_cost_functions = spans.wrap(
        "costs.sample_cost_functions", engine.sample_cost_functions
    )
    costs.CostEnsemble.__init__ = spans.wrap("costs.CostEnsemble", costs.CostEnsemble.__init__)
    costs.CostEnsemble.values = spans.wrap("costs.values", costs.CostEnsemble.values)
    costs.CostEnsemble.gradients = spans.wrap("costs.gradients", costs.CostEnsemble.gradients)
    for name in ("additive_increase", "scaling_factor", "md_deterministic", "md_stochastic",
                 "update_average"):
        setattr(aimd, name, spans.wrap(f"aimd.{name}", getattr(aimd, name)))
    engine.capacity_event_bits = spans.wrap(
        "control.capacity_event_bits", engine.capacity_event_bits, rec.event_vectors.append
    )
    engine.step_world = spans.wrap("engine.step_world", engine.step_world)
    oracle.kkt_residual = spans.wrap("oracle.kkt_residual", oracle.kkt_residual)


def layer_metrics(spans: Spans, rec: Recorder) -> dict[str, float]:
    """Per-layer figures of a traced process, from its spans and recorded facts.

    Times are seconds.  The ``<layer>.self_s`` entries, ``cli.import_s`` and
    ``cli.self_s`` partition ``trace.wall_s`` exactly.  Inclusive times such as
    ``engine.step_us`` contain the tracing of the calls inside them.
    """
    import numpy as np

    name, parent, start, end = spans.arrays()
    dur, own = self_times(parent, start, end)
    layer = np.array([n.split(".")[0] for n in spans.names])[name]

    def pick(span_name):
        if span_name not in spans.names:
            return np.zeros(len(name), dtype=bool)
        return name == spans.names.index(span_name)

    def total(span_name):
        return float(dur[pick(span_name)].sum())

    out: dict[str, float] = {}
    out["config.parse_s"] = total("config.parse_config")
    out["cli.import_s"] = total("cli.import")
    out["costs.sample_s"] = total("costs.sample_cost_functions")
    out["costs.ensemble_build_s"] = total("costs.CostEnsemble")
    for fn in ("costs.values", "costs.gradients", "aimd.scaling_factor", "aimd.md_deterministic",
               "aimd.md_stochastic", "control.capacity_event_bits"):
        out[f"{fn}.calls"] = int(pick(fn).sum())
        out[f"{fn}.self_s"] = float(own[pick(fn)].sum())
    for fn in ("aimd.update_average", "aimd.additive_increase", "engine.step_world"):
        out[f"{fn}.self_s"] = float(own[pick(fn)].sum())
    out["aimd.clamps"] = sum(r["clamps"] for r in rec.runs)
    out["control.event_bits"] = int(sum(int(v.sum()) for v in rec.event_vectors))

    run_s = total("engine.run")
    out["engine.run_s"] = run_s
    out["engine.record_s"] = float(own[pick("engine.run")].sum())
    step_us = dur[pick("engine.step_world")] * 1e6
    out["engine.step_us.p50"] = float(np.percentile(step_us, 50)) if step_us.size else 0.0
    out["engine.step_us.p99"] = float(np.percentile(step_us, 99)) if step_us.size else 0.0
    out["engine.step_us.samples"] = int(step_us.size)
    device_rounds = sum(r["n"] * r["rounds"] for r in rec.runs)
    out["engine.device_rounds_per_s"] = device_rounds / run_s if run_s > 0 else 0.0
    out["engine.trace_mb"] = max((r["trace_bytes"] for r in rec.runs), default=0) / 1e6

    out["oracle.solve_s"] = total("oracle.solve_separable")
    out["oracle.kkt_s"] = total("oracle.kkt_residual")
    out["oracle.iterations"] = sum(s["iterations"] for s in rec.solves)
    out["oracle.kkt_residual"] = max((s["kkt_residual"] for s in rec.solves), default=0.0)
    out["metrics.collect_s"] = total("metrics.collect_metrics")
    export_s = total("report.export_trace")
    export_bytes = sum(sum(e["files"].values()) for e in rec.exports)
    out["report.export_s"] = export_s
    out["report.export_bytes"] = export_bytes
    out["report.export_mb_per_s"] = export_bytes / 1e6 / export_s if export_s > 0 else 0.0

    for lay in LAYERS[:-1]:
        out[f"{lay}.self_s"] = float(own[layer == lay].sum())
    out["cli.self_s"] = float(own[pick("cli")].sum())
    out["trace.wall_s"] = float(dur[0])
    return out


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    mode = req["mode"]
    src = Path(req["src"]).resolve()
    sys.path.insert(0, str(src))

    spans = Spans()
    rec = Recorder(spans, mode)
    root = spans.open("cli")
    t0 = spans.start[root]
    imp = spans.open("cli.import")
    import aimdalloc.cli
    spans.close(imp)
    if Path(aimdalloc.cli.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported aimdalloc from {aimdalloc.cli.__file__}, not from {src}")
    install(spans, rec, traced=(mode == "traced"))

    status, error = None, None
    try:
        status = aimdalloc.cli.main(list(req["argv"]))
    except SetupDone:
        status = "setup"
    except Exception:
        error = traceback.format_exc()
    finally:
        spans.close(root)
    wall_s = spans.end[root] - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    import numpy as np

    result = {
        "status": status,
        "error": error,
        "wall_s": wall_s,
        "setup_s": None if rec.setup_end is None else rec.setup_end - t0,
        "peak_rss_mb": peak_rss_mb,
        "numpy": np.__version__,
        "kkt_tol": rec.kkt_tol,
        "runs": rec.runs,
        "solves": rec.solves,
        "collects": rec.collects,
        "exports": rec.exports,
        "layers": None,
    }
    if mode == "traced":
        result["layers"] = layer_metrics(spans, rec)
        name, parent, start, end = spans.arrays()
        np.savez(req["spans"], names=np.array(spans.names), name=name, parent=parent,
                 start=start, end=end)
    Path(req["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
