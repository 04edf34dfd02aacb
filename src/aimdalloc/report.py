"""Trace serialization, the certified oracle call, and mode-versus-mode comparison runs.

Exports are byte-stable: floats carry 9 significant digits, column and JSON
key order is fixed, and every file ends in a newline, so identical runs
produce identical files and golden-file tests are possible.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import engine
from .aimd import RUN_MODES
from .config import Config, ConfigError, serialize_config
from .engine import SimulationError, Trace
from .metrics import MetricsReport, collect_metrics
from .oracle import OptimalAllocation, solve_separable


#: convergence threshold per resource, as a fraction of the larger peak spread
SPREAD_FRACTION = 0.05

#: trace.csv rows formatted and written per block; sized in rows, not
#: snapshots, because one snapshot of a wide run is n * m rows
_BLOCK_ROWS = 8192

#: fewest trace.csv rows worth a process of their own; a trace with fewer
#: than two of these is formatted in-process (see BENCH_export_fork.json)
_FORK_ROWS = 4500

_FLOAT = "%.9g".__mod__
_TRACE_ROW = "%s%.9g,%.9g,%.9g\n"


def certified_optimum(config: Config, functions) -> OptimalAllocation:
    """The optimum under the config's capacities and solver_tol, certified to its kkt_tol.

    A KKT residual above kkt_tol raises SimulationError, before anything is measured.
    """
    capacities = [p.capacity for p in config.resources]
    optimum = solve_separable(functions, capacities, tol=config.solver_tol)
    if optimum.kkt_residual > config.kkt_tol:
        raise SimulationError(
            f"kkt residual {optimum.kkt_residual:.3e} above kkt_tol {config.kkt_tol:g}"
        )
    return optimum


def write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as JSON with sorted keys, two-space indent and a final newline.

    ``indent`` forces the pure-Python encoder, so top-level lists of flat int/str
    records (``cost_functions``) go through the C encoder and are re-indented:
    encoded strings hold no raw newline, so ``},<newline>{`` joins two records.
    """
    flat = [key for key, rows in doc.items() if type(key) is str and type(rows) is list and rows
            and all(type(row) is dict and row for row in rows)
            and {type(v) for row in rows for v in row.values()} <= {int, str}]
    text = json.dumps({**doc, **dict.fromkeys(flat, 0)}, sort_keys=True, indent=2)
    for key in flat:
        rows = json.dumps(doc[key], sort_keys=True, separators=(",\n      ", ": "))
        rows = rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
        slot = f"\n  {json.dumps(key)}: "
        text = text.replace(slot + "0", f"{slot}[\n    {{\n      {rows}\n    }}\n  ]", 1)
    path.write_text(text + "\n")


@dataclass(frozen=True)
class ExportManifest:
    """Data files written for one run, with their data row counts."""

    directory: Path
    rows: dict[str, int]


def export_trace(trace: Trace, report: MetricsReport, out_dir: str | Path) -> ExportManifest:
    """Write trace.csv, events.csv, metrics.csv and summary.json.

    trace.csv holds the per-device snapshots; events.csv and metrics.csv are
    full rate. Floats are written with ``"%.9g" % v``, which is the same
    string as ``format(v, ".9g")`` for every double (signed zeros,
    subnormals, infinities and NaN included). trace.csv is streamed in blocks
    of ``_BLOCK_ROWS`` rows, so its text never has to fit in memory at once.

    A large trace.csv is split into contiguous row ranges, up to one per
    available CPU (see ``_row_bounds``). Each range after the first is
    formatted by a forked worker into an anonymous temporary file in
    ``out_dir``, while this process writes the first range and the other
    files; the workers' files are then appended in row order, so the bytes
    are those of the in-process writer. A failed worker raises RuntimeError
    once every worker is reaped; an error here kills and reaps them.
    Returns the manifest of files with data row counts (headers excluded).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bounds = _row_bounds(trace)
    rows = {"trace.csv": bounds[-1]}
    workers = []  # (pid, anonymous temporary file) per unreaped worker, in row order
    failed = []  # exit statuses of the workers that failed
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            tmp = tempfile.TemporaryFile(dir=out)
            pid = os.fork()
            if pid == 0:
                _worker(tmp, trace, lo, hi)
            workers.append((pid, tmp))
        with open(out / "trace.csv", "w") as fh:
            fh.write("step,device,resource,x,x_bar,grad_at_xbar\n")
            _write_rows(fh, trace, 0, bounds[1])
            _write_full_rate(trace, report, out, rows)
            fh.flush()
            while workers:
                pid, tmp = workers[0]
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del workers[0]
                with tmp:
                    if status != 0:
                        failed.append(status)
                    elif not failed:
                        tmp.seek(0)
                        shutil.copyfileobj(tmp, fh.buffer, 1 << 20)
        if failed:
            raise RuntimeError(f"{len(failed)} trace.csv worker(s) failed, exit status {failed[0]}")
    finally:
        for pid, tmp in workers:  # unreaped only after an error
            import signal  # failure path only: every CLI start pays for top-level imports

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            tmp.close()
    return ExportManifest(directory=out, rows=rows)


def _row_bounds(trace: Trace) -> list[int]:
    """Boundaries of the trace.csv row ranges: ``[0, b1, ..., rows]``.

    One range per process: the first is this process's, each later one a
    worker's. This process also formats events.csv and metrics.csv, so its
    range is shortened by their value count (three values make one trace
    row) and the workers split the rest equally. It is one range, and no
    fork happens, when ``os.fork`` is missing, when more than one thread is
    running, when only one CPU is available, or when the trace has fewer
    than ``2 * _FORK_ROWS`` rows.
    """
    total = trace.x_snap.size
    procs = min(_cpus(), total // _FORK_ROWS)
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [0, total]
    extra = trace.events.size + trace.spread.shape[0] * (4 * trace.m + 2)
    first = max(0, (3 * total + extra) // procs - extra) // 3
    rest = total - first
    return [0] + [first + rest * k // (procs - 1) for k in range(procs)]


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker(tmp, trace: Trace, lo: int, hi: int):
    """Forked child: format rows [lo, hi) into ``tmp`` and end the process.

    It never returns, so the child cannot run its parent's code after the
    fork, and ``os._exit`` flushes none of the parent's buffers it inherited.
    The child only formats floats; it calls no BLAS and takes no lock. That
    is what makes the fork safe even where native threads, such as an
    OpenBLAS pool, exist (Python 3.12 and later warn on ``fork()`` then).
    """
    status = 1
    try:
        with open(tmp.fileno(), "w", closefd=False) as fh:
            _write_rows(fh, trace, lo, hi)
        status = 0
    except Exception:
        import traceback  # failure path only, like ``signal`` in export_trace

        traceback.print_exc()
    finally:
        os._exit(status)


def _write_rows(fh, trace: Trace, lo: int, hi: int) -> None:
    """Write trace.csv data rows [lo, hi) to ``fh`` in blocks of ``_BLOCK_ROWS`` rows.

    Row r is snapshot r // (n * m), device (r // m) % n, resource r % m. Each
    block is one ``%`` of the row template repeated once per row over one
    list in which the ``step,device,resource,`` prefixes and the three float
    columns are interleaved; an extended-slice assignment raises if a column's
    length differs from the block's.
    """
    n, m = trace.n, trace.m
    per_snap = n * m
    steps = [f"{step}," for step in trace.snap_steps.tolist()]
    cells = [f"{i},{j}," for i in range(n) for j in range(m)]
    x, xbar, grad = (a.reshape(-1) for a in (trace.x_snap, trace.xbar_snap, trace.grad_snap))
    full = _TRACE_ROW * _BLOCK_ROWS
    for start in range(lo, hi, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, hi)
        prefixes = []
        for s in range(start // per_snap, (stop - 1) // per_snap + 1):
            base = s * per_snap
            cut = cells[max(start - base, 0) : min(stop - base, per_snap)]
            prefixes += map(steps[s].__add__, cut)
        flat = [None] * (4 * (stop - start))
        flat[0::4] = prefixes
        flat[1::4] = x[start:stop].tolist()
        flat[2::4] = xbar[start:stop].tolist()
        flat[3::4] = grad[start:stop].tolist()
        template = full if stop - start == _BLOCK_ROWS else _TRACE_ROW * (stop - start)
        fh.write(template % tuple(flat))


def _write_full_rate(trace: Trace, report: MetricsReport, out: Path, rows: dict[str, int]):
    """Write events.csv, metrics.csv and summary.json, adding their row counts to ``rows``."""
    m = trace.m
    lines = ["step,resource,event"]
    lines += [
        f"{k},{j},{e}" for k, row in enumerate(trace.events.tolist()) for j, e in enumerate(row)
    ]
    rows["events.csv"] = len(lines) - 1
    (out / "events.csv").write_text("\n".join(lines) + "\n")

    cols = (
        ["step"]
        + [f"spread_r{j}" for j in range(m)]
        + ["cost_ratio"]
        + [f"sum_avg_r{j}" for j in range(m)]
        + [f"sum_inst_r{j}" for j in range(m)]
        + [f"cum_bits_r{j}" for j in range(m)]
    )
    floats = [
        *trace.spread.T.tolist(),
        report.cost_ratio.tolist(),
        *trace.totals_avg.T.tolist(),
        *trace.totals_inst.T.tolist(),
    ]
    columns = [map(str, trace.steps.tolist())]
    columns += [map(_FLOAT, col) for col in floats]
    columns += [map(str, col) for col in trace.cumulative_event_bits.T.tolist()]
    lines = [",".join(cols)]
    lines += map(",".join, zip(*columns, strict=True))
    rows["metrics.csv"] = len(lines) - 1
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")

    summary = {
        "config": serialize_config(trace.config),
        "config_hash": trace.config_hash,
        "mode": trace.mode,
        "seed": trace.seed,
        "cost_functions": [
            f.to_dict() if hasattr(f, "to_dict") else {"repr": repr(f)}
            for f in trace.functions
        ],
        "clamp_low": trace.clamp_low,
        "clamp_high": trace.clamp_high,
        "summary": asdict(report.summary),
    }
    write_json(out / "summary.json", summary)
    rows["summary.json"] = 1


def convergence_step(spread: np.ndarray, thresholds: np.ndarray) -> int:
    """First step after which every resource's spread stays at or below threshold.

    Returns 0 when the spread never exceeds the thresholds and one past the
    last step when it never settles.
    """
    above = np.any(spread > thresholds[None, :], axis=1)
    idx = np.nonzero(above)[0]
    return 0 if idx.size == 0 else int(idx[-1]) + 1


@dataclass
class ComparisonReport:
    """Two runs on identical cost functions and seeds, measured side by side.

    Event overhead is reported two ways on purpose: total bits at the common
    final step, and bits accumulated up to each run's own convergence step.
    A faster-converging mode can show more bits at a fixed step yet fewer
    bits to reach consensus; both readings are provided rather than ranked.
    """

    modes: tuple[str, str]
    traces: tuple[Trace, Trace]
    reports: tuple[MetricsReport, MetricsReport]
    optimum: OptimalAllocation
    final_diff: np.ndarray        # (n, m)  |x_bar_A - x_bar_B| at the final step
    spread_threshold: np.ndarray  # (m,)
    convergence_steps: tuple[int, int]

    @property
    def event_bits_final(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(r.summary.event_bits for r in self.reports)

    @property
    def event_bits_at_convergence(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        out = []
        for trace, step in zip(self.traces, self.convergence_steps):
            step = min(step, len(trace.steps) - 1)
            out.append(tuple(int(v) for v in trace.cumulative_event_bits[step]))
        return tuple(out)


def compare_modes(config: Config) -> ComparisonReport:
    """Run both update modes on the same instance and measure their gap.

    The config must say ``mode: both`` (else ConfigError); the pair is
    ``RUN_MODES``, measured against one ``certified_optimum``. The
    convergence-step estimate uses a common per-resource threshold:
    ``SPREAD_FRACTION`` of the larger of the two runs' peak spreads, judged
    sustainedly.
    """
    if config.mode != "both":
        raise ConfigError(["mode: compare needs mode 'both'"])
    traces = tuple(engine.run(config, mode=mode) for mode in RUN_MODES)
    optimum = certified_optimum(config, traces[0].functions)
    thresholds = SPREAD_FRACTION * np.maximum(*(t.spread.max(axis=0) for t in traces))
    return ComparisonReport(
        modes=RUN_MODES,
        traces=traces,
        reports=tuple(collect_metrics(t, optimum.x_star) for t in traces),
        optimum=optimum,
        final_diff=np.abs(traces[0].xbar_snap[-1] - traces[1].xbar_snap[-1]),
        spread_threshold=thresholds,
        convergence_steps=tuple(convergence_step(t.spread, thresholds) for t in traces),
    )


def export_comparison(cr: ComparisonReport, out_dir: str | Path) -> ExportManifest:
    """Write both runs' exports into per-mode subdirectories plus comparison.json."""
    out = Path(out_dir)  # made with its per-mode subdirectories
    rows: dict[str, int] = {}
    for mode, trace, report in zip(cr.modes, cr.traces, cr.reports, strict=True):
        sub = out / mode
        manifest = export_trace(trace, report, sub)
        for name, count in manifest.rows.items():
            rows[f"{mode}/{name}"] = count
    doc = {
        "modes": list(cr.modes),
        "spread_threshold": [float(v) for v in cr.spread_threshold],
        "convergence_steps": list(cr.convergence_steps),
        "event_bits": {
            mode: list(r.summary.event_bits) for mode, r in zip(cr.modes, cr.reports)
        },
        "event_bits_at_convergence": {
            mode: list(bits)
            for mode, bits in zip(cr.modes, cr.event_bits_at_convergence)
        },
        "final_avg_diff_median": float(np.median(cr.final_diff)),
        "final_avg_diff_max": float(cr.final_diff.max()),
        "optimum_mu": [float(v) for v in cr.optimum.mu],
        "optimum_kkt_residual": cr.optimum.kkt_residual,
    }
    write_json(out / "comparison.json", doc)
    rows["comparison.json"] = 1
    return ExportManifest(directory=out, rows=rows)
