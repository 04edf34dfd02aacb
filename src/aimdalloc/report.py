"""Trace serialization, the certified oracle call, and mode-versus-mode comparison runs.

Exports are byte-stable: floats carry 9 significant digits, column and JSON
key order is fixed, and every file ends in a newline, so identical runs
produce identical files and golden-file tests are possible. Every CSV row and
population record is written by ``_write_blocks``, one ``%`` per block of rows.
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
from .costs import FIELD_RANGES, Population, make_ensemble
from .engine import SimulationError, Trace
from .metrics import MetricsReport, _median, collect_metrics
from .oracle import OptimalAllocation, solve_separable


#: convergence threshold per resource, as a fraction of the larger peak spread
SPREAD_FRACTION = 0.05

#: values (cells) formatted and written per CSV block, whatever a row's width;
#: one trace.csv snapshot of a wide run (n * m rows of 3 cells) is several blocks
_BLOCK_CELLS = 16384

#: a population member's record after another one, as ``json.dumps(..., sort_keys=True, indent=2)`` lays it out
_RECORD = ",\n    {\n" + ",\n".join(f'      "{name}": %d' for name in sorted(FIELD_RANGES)) + "\n    }"

#: fewest trace.csv rows worth a process of their own; a trace with fewer
#: than two of these is formatted in-process (see BENCH_export_fork.json)
_FORK_ROWS = 4500


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

    A top-level ``Population`` (``cost_functions``) or 2-D float array (``x_star``) is dumped as
    ``[]``; its rows (members' ``to_dict`` records, or lists of floats spelled by ``%r`` as json
    spells a finite float) are then streamed into that slot by ``_write_blocks``. A non-finite
    entry raises ValueError.
    """
    slots = sorted(key for key, value in doc.items() if isinstance(value, (Population, np.ndarray)))
    text = json.dumps({**doc, **dict.fromkeys(slots, [])}, sort_keys=True, indent=2)
    with open(path, "w") as fh:
        for key in slots:
            slot = f"\n  {json.dumps(key)}: ["
            head, text = text.split(slot + "]", 1)
            fh.write(head + slot)
            table = doc[key]
            if isinstance(table, Population):
                table, record = table.fields[:, np.argsort(list(FIELD_RANGES))], _RECORD
            elif np.isfinite(table).all():
                record = ",\n    [\n" + ",\n".join(["      %r"] * table.shape[1]) + "\n    ]"
            else:
                raise ValueError(f"{key} has a non-finite entry, which JSON cannot hold")
            columns = lambda start, stop: table[start:stop].T.tolist()  # columns in the record's order
            _write_blocks(fh, record[1:], 0, min(1, len(table)), columns)
            _write_blocks(fh, record, 1, len(table), columns)
            fh.write("\n  ]" if len(table) else "]")
        fh.write(text + "\n")


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
    subnormals, infinities and NaN included), and ints with ``"%d" % v``,
    which is ``str(v)`` for a Python int.

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
    The child formats floats and evaluates gradients with elementwise numpy
    ufuncs; it calls no BLAS and takes no lock, so the fork is safe even where
    native threads, such as an OpenBLAS pool, exist (Python 3.12+ warns then).
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


def _write_blocks(fh, row: str, lo: int, hi: int, columns, template=None) -> None:
    """Write rows [lo, hi) to ``fh`` in blocks of ``_BLOCK_CELLS`` cells, one per ``%`` field of ``row``.

    A block is one ``%`` of ``template(start, stop)``, by default ``row`` once per row, over the block's
    ``columns(start, stop)`` (one sequence per field) interleaved, which raises if a column's length is off.
    """
    rows = max(1, _BLOCK_CELLS // row.count("%"))
    for start in range(lo, hi, rows):
        stop = min(start + rows, hi)
        cols = columns(start, stop)
        flat = [None] * (len(cols) * (stop - start))
        for c, col in enumerate(cols):
            flat[c :: len(cols)] = col
        fh.write((template(start, stop) if template else row * (stop - start)) % tuple(flat))


def _write_rows(fh, trace: Trace, lo: int, hi: int) -> None:
    """Write trace.csv data rows [lo, hi) to ``fh`` through ``_write_blocks``.

    Row r is snapshot r // (n * m), device (r // m) % n, resource r % m. A block's template joins the
    per-cell ``device,resource,`` strings with the three ``%.9g`` fields and the snapshot's ``step,``,
    so only the floats go through ``%``. Each snapshot's gradients are evaluated once per process.
    """
    per_snap, row = trace.n * trace.m, "%.9g,%.9g,%.9g\n"
    steps = [f"{step}," for step in trace.snap_steps.tolist()]
    cells = [f"{i},{j}," for i in range(trace.n) for j in range(trace.m)]
    x, xbar = trace.x_snap.reshape(-1), trace.xbar_snap.reshape(-1)
    gradients, held = make_ensemble(trace.functions, trace.m).gradients, [-1, None]
    template = lambda start, stop: "".join(
        steps[s] + (row + steps[s]).join(cells[max(start - s * per_snap, 0) : stop - s * per_snap]) + row
        for s in range(start // per_snap, (stop - 1) // per_snap + 1))

    def columns(start, stop):
        first, last = start // per_snap, (stop - 1) // per_snap + 1
        grads = [held[1]] if first == held[0] else []  # the last snapshot of the block before
        if first + len(grads) < last:
            grads.append(gradients(trace.xbar_snap[first + len(grads) : last]).reshape(-1))
        held[:] = last - 1, grads[-1][-per_snap:]
        grad = np.concatenate(grads) if len(grads) > 1 else grads[0]
        grad = grad[start - first * per_snap : stop - first * per_snap].tolist()
        return [x[start:stop].tolist(), xbar[start:stop].tolist(), grad]

    _write_blocks(fh, row, lo, hi, columns, template)


def _write_full_rate(trace: Trace, report: MetricsReport, out: Path, rows: dict[str, int]):
    """Write events.csv, metrics.csv and summary.json, adding their row counts to ``rows``."""
    m = trace.m
    events = trace.events.reshape(-1)
    series = [trace.steps, *trace.spread.T, report.cost_ratio, *trace.totals_avg.T,
              *trace.totals_inst.T, *trace.cumulative_event_bits.T]
    (steps,) = {len(s) for s in series}  # ValueError unless every series has one value per step
    header = ["step", *[f"spread_r{j}" for j in range(m)], "cost_ratio"]
    header += [f"{name}_r{j}" for name in ("sum_avg", "sum_inst", "cum_bits") for j in range(m)]
    files = {
        "events.csv": ("step,resource,event", "%d,%d,%d\n", events.size, lambda a, b: [
            *map(np.ndarray.tolist, divmod(np.arange(a, b), m)), events[a:b].tolist()]),
        "metrics.csv": (",".join(header), "%d" + ",%.9g" * (3 * m + 1) + ",%d" * m + "\n",
                        steps, lambda a, b: [s[a:b].tolist() for s in series]),
    }
    for name, (head, row, count, columns) in files.items():
        with open(out / name, "w") as fh:
            fh.write(head + "\n")
            _write_blocks(fh, row, 0, count, columns)
        rows[name] = count

    summary = {
        "config": serialize_config(trace.config),
        "config_hash": trace.config_hash,
        "mode": trace.mode,
        "seed": trace.seed,
        "cost_functions": trace.functions if isinstance(trace.functions, Population)
        else [f.to_dict() if hasattr(f, "to_dict") else {"repr": repr(f)} for f in trace.functions],
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
        "final_avg_diff_median": _median(cr.final_diff),
        "final_avg_diff_max": float(cr.final_diff.max()),
        "optimum_mu": [float(v) for v in cr.optimum.mu],
        "optimum_kkt_residual": cr.optimum.kkt_residual,
    }
    write_json(out / "comparison.json", doc)
    rows["comparison.json"] = 1
    return ExportManifest(directory=out, rows=rows)
