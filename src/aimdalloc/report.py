"""Trace serialization, the certified oracle call, and mode-versus-mode comparison runs.

Exports are byte-stable: floats carry 9 significant digits, column and JSON
key order is fixed, and every file ends in a newline, so identical runs
produce identical files and golden-file tests are possible. Every CSV and
JSON table is written by one ``_write_blocks`` loop: a CSV block is spelled by
``_format_rows`` from numpy lookups, with the bytes of ``%`` (the few cells
whose digits the lookups cannot prove are left to ``%`` itself), and a block
of JSON records by one ``%`` over the row-major table.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import shutil
import tempfile
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from types import SimpleNamespace

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

#: values (cells) formatted and written per block of CSV rows or JSON records, whatever
#: a row's width; one trace.csv snapshot of a wide run (n * m rows of 6 cells) is several blocks
_BLOCK_CELLS = 16384

#: a population member's record after another one, as ``json.dumps(..., sort_keys=True, indent=2)`` lays it out
_RECORD = ",\n    {\n" + ",\n".join(f'      "{name}": %d' for name in sorted(FIELD_RANGES)) + "\n    }"

#: fewest trace.csv rows worth a process of their own; a trace with fewer
#: than two of these is formatted in-process (see BENCH_csv_words.json)
_FORK_ROWS = 18000


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
    spells a finite float) are then streamed into that slot by ``_write_blocks``, one ``%`` of the
    record repeated per row over a block of the row-major table. A non-finite entry raises ValueError.
    """
    slots = sorted(key for key, value in doc.items() if isinstance(value, (Population, np.ndarray)))
    text = json.dumps({**doc, **dict.fromkeys(slots, [])}, sort_keys=True, indent=2)
    with open(path, "wb") as fh:
        for key in slots:
            slot = f"\n  {json.dumps(key)}: ["
            head, text = text.split(slot + "]", 1)
            fh.write((head + slot).encode())
            table = doc[key]
            if isinstance(table, Population):
                table, record = table.fields[:, np.argsort(list(FIELD_RANGES))], _RECORD
            elif np.isfinite(table).all():
                record = ",\n    [\n" + ",\n".join(["      %r"] * table.shape[1]) + "\n    ]"
            else:
                raise ValueError(f"{key} has a non-finite entry, which JSON cannot hold")
            spell = lambda a, b: (record * (b - a) % tuple(table[a:b].ravel().tolist()))[a == 0 :].encode()
            _write_blocks(fh, 0, len(table), table.shape[1], spell)  # [a == 0 :]: no comma before the first
            fh.write(b"\n  ]" if len(table) else b"]")
        fh.write((text + "\n").encode())


@dataclass(frozen=True)
class ExportManifest:
    """Data files written for one run, with their data row counts."""

    directory: Path
    rows: dict[str, int]


def export_trace(trace: Trace, report: MetricsReport, out_dir: str | Path) -> ExportManifest:
    """Write trace.csv, events.csv, metrics.csv and summary.json.

    trace.csv holds the per-device snapshots; events.csv and metrics.csv are
    full rate. Floats are spelled as ``"%.9g" % v`` spells them, which is the
    same string as ``format(v, ".9g")`` for every double (signed zeros,
    subnormals, infinities and NaN included), and ints as ``"%d" % v``, which
    is ``str(v)`` for a Python int: byte for byte, by ``_format_rows``.

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
    _digit_tables()  # built here once, not again in each worker
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            tmp = tempfile.TemporaryFile(dir=out)
            pid = os.fork()
            if pid == 0:
                _worker(tmp, trace, lo, hi)
            workers.append((pid, tmp))
        with open(out / "trace.csv", "wb") as fh:
            fh.write(b"step,device,resource,x,x_bar,grad_at_xbar\n")
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
                        shutil.copyfileobj(tmp, fh, 1 << 20)
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
    range is shortened by their events.csv rows and metrics.csv cells (four
    of these cost about one trace row) and the workers split the rest
    equally. It is one range, and no fork happens, when ``os.fork`` is
    missing, when more than one thread is running, when only one CPU is
    available, or when the trace has fewer than ``2 * _FORK_ROWS`` rows.
    """
    total = trace.x_snap.size
    procs = min(_cpus(), total // _FORK_ROWS)
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [0, total]
    extra = trace.events.size + trace.spread.shape[0] * (4 * trace.m + 2)
    first = max(0, (4 * total + extra) // procs - extra) // 4
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
        with open(tmp.fileno(), "wb", closefd=False) as fh:
            _write_rows(fh, trace, lo, hi)
        status = 0
    except Exception:
        import traceback  # failure path only, like ``signal`` in export_trace

        traceback.print_exc()
    finally:
        os._exit(status)


def _write_blocks(fh, lo: int, hi: int, width: int, spell) -> None:
    """Write rows [lo, hi) of ``width`` cells to binary ``fh``: ``spell(start, stop)`` per block of ``_BLOCK_CELLS`` cells."""
    rows = max(1, _BLOCK_CELLS // width)
    for start in range(lo, hi, rows):
        fh.write(spell(start, min(start + rows, hi)))


@functools.cache
def _digit_tables() -> SimpleNamespace:
    """``_format_rows``' lookup tables, built with numpy at first use.

    ``words[1000 * kind + d]`` spells the three digits of d (000..999) as one NUL-padded little-endian
    word. Kinds: 0 all three digits; 1-3 a point after 0, 1 or 2 of them; 4-6 the same less the
    fraction's trailing zeros, and then a bare point; 7 less trailing zeros; 8 less leading zeros; 9 the
    same but a lone 0 kept. ``kinds[24 g + 2 k + last]`` is 1000 times the kind of a float's digit group
    g at decimal exponent k - 3 (``last``: no nonzero digit follows the group), ``prefix[k]`` the word
    before its digits, and ``scale[e + 6]`` is 10 ** (8 - e). ``fields`` hold ``%d`` and ``%.9g``.
    """
    d = np.arange(1000)
    chars = np.zeros((1000, 5), np.uint8)  # the three digits of d, a point and a NUL
    chars[:, :3] = np.stack([d // 100, d // 10 % 10, d % 10], 1) + ord("0")
    chars[:, 3] = ord(".")
    # always; a nonzero digit at or after digit 0, 1, 2; at or before digit 0, 1, 2; never
    flags = np.stack([d >= 0, d > 0, d % 100 > 0, d % 10 > 0, d >= 100, d >= 10, d >= 1, d < 0], 1)
    layouts = [[0, 1, 2, 4], [3, 0, 1, 2], [0, 3, 1, 2], [0, 1, 3, 2]]  # no point, point after 0, 1, 2 digits
    layout = [layouts[i] for i in (0, 1, 2, 3, 1, 2, 3, 0, 0, 0)]
    keep = [[0] * 4] * 4 + [[1, 1, 2, 3], [0, 2, 2, 3], [0, 0, 3, 3], [1, 2, 3, 7], [4, 5, 6, 7], [4, 5, 0, 7]]
    words = np.where(flags[:, keep], chars[:, layout], 0).transpose(1, 0, 2)  # (kind, d, character)
    k = np.arange(12)
    at = np.maximum(k - 2, 0) - 3 * np.arange(3)[:, None]  # (3, 12): digits of group g before the point
    point = (at >= 0) & (at < 3) & (k >= 3)  # the point falls in (or just before) the group
    kinds = np.stack([np.where(point, 1 + at, 0), np.where(point, 4 + at, 7 * (at < 3))], 2)
    kinds[2, :, 0] = kinds[2, :, 1]  # no digit follows group 2
    return SimpleNamespace(
        words=np.ascontiguousarray(words).view("<u4").ravel(),
        kinds=1000 * kinds.ravel(),
        prefix=np.frombuffer(b"0.00" b"0.0\0" b"0.\0\0" + bytes(36), "<u4"),
        scale=10.0 ** (8 - np.arange(-6, 11)),
        fields=np.frombuffer(b"%d\0\0%.9g", "<u4"),
    )


def _format_rows(columns, seps: bytes) -> bytes:
    """The rows' text: cell c is ``"%.9g" % v`` in a float column and ``"%d" % v`` in any other, then ``seps[c]``.

    Neighbouring columns of one dtype with as many words per cell (5 a float, 1-3 an int) fill one slab of
    a (words, rows) matrix of NUL-padded words in one pass. The text is the transposed matrix less its NULs,
    ``%``-formatted over the cells the words cannot spell, which hold a ``%`` field instead.
    """
    tables, rows = _digit_tables(), len(columns[0])
    sizes = [5 if col.dtype.kind == "f" else 1 + sum(col.max() >= np.array([1000, 1000_000])) for col in columns]
    words, sep = np.empty((sum(sizes), rows), "<u4"), np.frombuffer(seps, np.uint8).astype("<u4")[:, None]
    cells, values, c, top = [], [], 0, 0  # cells spelled by %: their places in the block, and their values
    for (size, _), same in itertools.groupby(zip(sizes, (col.dtype for col in columns))):
        n = len(list(same))
        run = np.concatenate(columns[c : c + n])
        slab = words[top : top + n * size].reshape(n, size, rows).transpose(1, 0, 2)
        if size == 5:
            slab[4] = sep[c : c + n]
            slab, slow = slab[:4], _float_words(run.astype(np.float64, copy=False), slab[:4], tables)
        else:  # the digit groups of v, units first: leading zeros dropped, and a lone 0 above the units
            slow, units = np.flatnonzero((run < 0) | (run >= 1000 ** size)), run.astype(np.int32)
            for g, word in enumerate(slab[::-1]):
                above = units // 1000 if g < size - 1 else 0
                group = units - 1000 * above + (above == 0) * (8000 if g else 9000)
                tables.words.take(group.reshape(word.shape), out=word, mode="clip")
                units = above
        if slow.size:
            i, r = np.divmod(slow, rows)
            slab[:, i, r] = 0
            slab[0, i, r] = tables.fields[size // 5]
            cells.append(r * len(columns) + c + i)
            values += run[slow].tolist()
        if size < 5:
            slab[-1] |= sep[c : c + n] << 24
        c, top = c + n, top + n * size
    text = words.T.tobytes().translate(None, b"\0")
    return text % tuple(values[i] for i in np.argsort(np.concatenate(cells)).tolist()) if values else text


def _float_words(v: np.ndarray, words: np.ndarray, tables) -> np.ndarray:
    """Fill ``words`` (4, c, r) with the prefix and digit groups of ``"%.9g" % v`` for v (c * r), less those it returns.

    A value is spelled from its decimal exponent e, the floor of ``log10``, and its nine digits q, the
    product s = v * 10 ** (8 - e) rounded to an integer. The power of ten is exact, so s is rounded once,
    and each k + 1/2 is a double: off a half-integer, ``rint`` rounds s as ``%`` rounds the exact product.
    The cells returned are left to ``%``: v outside [1e-3, 1e9), e + 3 outside [0, 11], s < 1e8 or
    q >= 1e9 (an exponent off by one, or a carry to 10 ** 9), or s a half-integer. 0.0 is spelled too.
    """
    with np.errstate(all="ignore"):  # nan, inf, 0 and negatives are kept out of ``ok``
        ok = (v >= 1e-3) & (v < 1e9)
        w = np.where(ok, v, 1.0)
        e = np.floor(np.log10(w)).astype(np.int32)
    s = w * tables.scale.take(e + 6)  # scale[e + 6] is 10 ** (8 - e), exact for e <= 8
    q = np.rint(s)
    e += 3  # e in [-3, 8] is e + 3 in [0, 11]; the lookups clip the cells left to %, whose words are redone
    slow = np.flatnonzero(~ok | (e.view(np.uint32) >= 12) | (s < 1e8) | (q >= 1e9) | (np.abs(q - s) == 0.5))
    q[slow] = 0  # so the int32 cast below cannot overflow
    slow = slow[v[slow].view(np.int64) != 0]  # 0.0, not -0.0: its exponent is 0 already, and its digits 0
    tables.prefix.take(e.reshape(words.shape[1:]), out=words[0], mode="clip")
    q = q.astype(np.int32)
    groups, at = np.empty((2, 3, q.size), np.int32)  # per digit group of q: its digits, and its kind's index
    groups[1] = q // 1000
    groups[0] = groups[1] // 1000
    groups[2] = q - 1000 * groups[1]
    groups[1] -= 1000 * groups[0]
    at[:] = 2 * e + np.arange(0, 72, 24, dtype=np.int32)[:, None]
    at[1] += groups[2] == 0  # no nonzero digit after group 1
    at[0] += (groups[2] == 0) & (groups[1] == 0)  # nor after group 0
    groups += tables.kinds.take(at, mode="clip")
    tables.words.take(groups.reshape(words[1:].shape), out=words[1:], mode="clip")
    return slow


def _write_rows(fh, trace: Trace, lo: int, hi: int) -> None:
    """Write trace.csv data rows [lo, hi) to binary ``fh``: ``_write_blocks`` over ``_format_rows``.

    Row r is snapshot r // (n * m), device (r // m) % n, resource r % m: a block's step, device and
    resource columns are made from its row numbers. Each snapshot's gradients are evaluated once per
    process.
    """
    per_snap = trace.n * trace.m
    x, xbar = trace.x_snap.reshape(-1), trace.xbar_snap.reshape(-1)
    gradients, held = make_ensemble(trace.functions, trace.m).gradients, [-1, None]

    def columns(start, stop):
        first, last = start // per_snap, (stop - 1) // per_snap + 1
        grads = [held[1]] if first == held[0] else []  # the last snapshot of the block before
        if first + len(grads) < last:
            grads.append(gradients(trace.xbar_snap[first + len(grads) : last]).reshape(-1))
        held[:] = last - 1, grads[-1][-per_snap:]
        grad = np.concatenate(grads) if len(grads) > 1 else grads[0]
        snap, cell = np.divmod(np.arange(start, stop), per_snap)
        return [trace.snap_steps[snap], *np.divmod(cell, trace.m), x[start:stop], xbar[start:stop],
                grad[start - first * per_snap : stop - first * per_snap]]

    _write_blocks(fh, lo, hi, 6, lambda a, b: _format_rows(columns(a, b), b",,,,,\n"))


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
        "events.csv": ("step,resource,event", b",,\n", events.size,
                       lambda a, b: [*np.divmod(np.arange(a, b), m), events[a:b]]),
        "metrics.csv": (",".join(header), b"," * len(series[1:]) + b"\n", steps,
                        lambda a, b: [s[a:b] for s in series]),
    }
    for name, (head, seps, count, columns) in files.items():
        with open(out / name, "wb") as fh:
            fh.write(head.encode() + b"\n")
            _write_blocks(fh, 0, count, len(seps), lambda a, b: _format_rows(columns(a, b), seps))
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
