import dataclasses
import json
import os
import tempfile
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aimdalloc.report
from aimdalloc import (
    Config,
    ResourceParams,
    SimulationError,
    build_world,
    collect_metrics,
    compare_modes,
    export_trace,
    parse_config,
    run,
    sample_cost_functions,
    solve_separable,
)
from aimdalloc.costs import FIELD_RANGES, Population
from aimdalloc.report import convergence_step

from conftest import REPO_ROOT
from _stand_ins import Echo, WeightedSquare, reference_export_csv
from test_golden import golden_config


@pytest.fixture(scope="module")
def exported(tmp_path_factory, bundled_config):
    cfg = dataclasses.replace(bundled_config, steps=300)
    trace = run(cfg, mode="deterministic")
    opt = solve_separable(trace.functions, [p.capacity for p in cfg.resources], tol=1e-9)
    report = collect_metrics(trace, opt.x_star)
    out = tmp_path_factory.mktemp("export")
    manifest = export_trace(trace, report, out)
    return cfg, trace, report, manifest


class TestExport:
    def test_minimal_trace_row_count(self, tmp_path):
        # one device, one resource, one step: exactly init + one data row pair
        cfg = Config(
            n=1,
            m=1,
            steps=1,
            mode="deterministic",
            resources=(ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1),),
            seed=0,
        )
        world = build_world([WeightedSquare(1.0)], cfg.resources, "deterministic", cfg.seed)
        trace = run(cfg, world=world)
        opt = solve_separable([WeightedSquare(1.0)], [1.0], tol=1e-9)
        report = collect_metrics(trace, opt.x_star)
        manifest = export_trace(trace, report, tmp_path)
        assert manifest.rows["trace.csv"] == 2
        text = (tmp_path / "trace.csv").read_text().splitlines()
        assert text[0] == "step,device,resource,x,x_bar,grad_at_xbar"
        assert len(text) == 3

    def test_hand_built_cost_records_are_stable(self, tmp_path):
        # WeightedSquare keeps object's repr, whose address differs between two live worlds
        runs = [one_device_export() for _ in range(2)]
        for out, (trace, report) in zip(("a", "b"), runs):
            export_trace(trace, report, tmp_path / out)
            doc = json.loads((tmp_path / out / "summary.json").read_text())
            assert doc["cost_functions"] == [{"repr": "_stand_ins.WeightedSquare"}]

    def test_reexport_is_byte_identical(self, exported, tmp_path):
        cfg, trace, report, manifest = exported
        again = export_trace(trace, report, tmp_path)
        for name in ("trace.csv", "events.csv", "metrics.csv", "summary.json"):
            assert (tmp_path / name).read_bytes() == (manifest.directory / name).read_bytes()

    def test_files_reparse_and_match_manifest(self, exported):
        cfg, trace, report, manifest = exported
        for name in ("trace.csv", "events.csv", "metrics.csv"):
            lines = (manifest.directory / name).read_text().splitlines()
            header, data = lines[0], lines[1:]
            assert len(data) == manifest.rows[name]
            width = len(header.split(","))
            assert all(len(line.split(",")) == width for line in data)

    def test_trace_row_arithmetic(self, exported):
        cfg, trace, report, manifest = exported
        assert manifest.rows["trace.csv"] == len(trace.snap_steps) * cfg.n * cfg.m
        assert manifest.rows["events.csv"] == (cfg.steps + 1) * cfg.m
        assert manifest.rows["metrics.csv"] == cfg.steps + 1

    def test_summary_matches_recomputation_from_csv(self, exported):
        cfg, trace, report, manifest = exported
        doc = json.loads((manifest.directory / "summary.json").read_text())
        lines = (manifest.directory / "metrics.csv").read_text().splitlines()
        last = lines[-1].split(",")
        header = lines[0].split(",")
        ratio = float(last[header.index("cost_ratio")])
        assert ratio == pytest.approx(doc["summary"]["final_cost_ratio"], rel=1e-8)
        bits = [int(last[header.index(f"cum_bits_r{j}")]) for j in range(cfg.m)]
        assert bits == doc["summary"]["event_bits"]

    def test_summary_config_hash_present(self, exported):
        cfg, trace, report, manifest = exported
        doc = json.loads((manifest.directory / "summary.json").read_text())
        assert doc["config_hash"] == trace.config_hash
        assert doc["mode"] == "deterministic"


CSV_FILES = ("trace.csv", "events.csv", "metrics.csv")

SPECIAL_FLOATS = [
    -0.0, 5e-324, -5e-324, 1e-300, np.inf, -np.inf, np.nan,
    123456789.0, 1234567890.0, -1234567890.0, 1e16, 0.1,
]


def assert_matches_reference(trace, report, tmp_path, reference_dir=None):
    manifest = export_trace(trace, report, tmp_path / "new")
    if reference_dir is None:
        reference_dir = tmp_path / "reference"
        reference_dir.mkdir()
        reference_export_csv(trace, report, reference_dir)
    for name in CSV_FILES:
        assert (manifest.directory / name).read_bytes() == (reference_dir / name).read_bytes(), name


def spiked_export(trace, report):
    """``trace`` and ``report`` with special floats spread through every float column.

    A ``Trace`` keeps no gradients, so its functions become ``Echo`` stand-ins,
    whose gradient is the spiked x_bar itself: grad_at_xbar gets every special float.
    """

    def spiked(a):
        # rows of the last axis, so each resource's metrics.csv column gets every special float
        a = a.astype(float)
        rows = a.reshape(-1, a.shape[-1] if a.ndim > 1 else 1)
        idx = np.arange(0, len(rows), 97)
        rows[idx] = np.resize(SPECIAL_FLOATS, idx.size)[:, None]
        rows[-len(SPECIAL_FLOATS):] = np.array(SPECIAL_FLOATS)[:, None]
        return a

    fields = ("x_snap", "xbar_snap", "spread", "totals_avg", "totals_inst")
    trace = dataclasses.replace(
        trace, functions=(Echo(),) * trace.n, **{f: spiked(getattr(trace, f)) for f in fields}
    )
    return trace, dataclasses.replace(report, cost_ratio=spiked(report.cost_ratio))


def assert_specials_in_every_float_column(directory):
    want = {format(v, ".9g") for v in SPECIAL_FLOATS}
    for name, first in (("trace.csv", 3), ("metrics.csv", 1)):
        header, *rows = (directory / name).read_text().splitlines()
        for label, column in list(zip(header.split(","), zip(*(r.split(",") for r in rows))))[first:]:
            if not label.startswith("cum_bits"):
                assert want <= set(column), (name, label)


def one_device_export():
    """Trace and report of one device on one resource for one step: two trace.csv rows."""
    cfg = Config(
        n=1,
        m=1,
        steps=1,
        mode="deterministic",
        resources=(ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1),),
        seed=0,
    )
    world = build_world([WeightedSquare(1.0)], cfg.resources, "deterministic", cfg.seed)
    trace = run(cfg, world=world)
    opt = solve_separable([WeightedSquare(1.0)], [1.0], tol=1e-9)
    return trace, collect_metrics(trace, opt.x_star)


@pytest.fixture(scope="module")
def long_runs(tmp_path_factory, bundled_config):
    """Both modes at 1 200 steps (every step to 1 000, then every 10th), with reference CSVs."""
    cr = compare_modes(dataclasses.replace(bundled_config, steps=1200))
    runs = {}
    for mode, trace, report in zip(cr.modes, cr.traces, cr.reports):
        reference_dir = tmp_path_factory.mktemp(f"reference-{mode}")
        reference_export_csv(trace, report, reference_dir)
        runs[mode] = (trace, report, reference_dir)
    return runs


class TestExportMatchesReference:
    """The streamed %-formatted writer reproduces the per-cell reference byte for byte."""

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_bundled_config(self, long_runs, tmp_path, mode):
        trace, report, reference_dir = long_runs[mode]
        assert np.any(np.diff(trace.snap_steps) == 1) and np.any(np.diff(trace.snap_steps) == 10)
        assert_matches_reference(trace, report, tmp_path, reference_dir)

    def test_special_floats(self, exported, tmp_path):
        _, trace, report, _ = exported
        assert_matches_reference(*spiked_export(trace, report), tmp_path)
        assert_specials_in_every_float_column(tmp_path / "new")

    def test_blocks_end_mid_snapshot(self, long_runs, tmp_path, monkeypatch):
        """Blocks of 98 cells split trace.csv snapshots of n * m rows, and every CSV ends in a partial block.

        That is 16 rows of trace.csv (6 cells), 32 of events.csv (3 cells) and 7 of
        metrics.csv (14 cells at m = 3). In-process, each snapshot's gradients are
        evaluated exactly once: a block straddling two snapshots reuses the first one's.
        """
        trace, report, reference_dir = long_runs["deterministic"]
        monkeypatch.setattr(aimdalloc.report, "_BLOCK_CELLS", 98)
        trace_rows, events_rows, metrics_rows = (98 // width for width in (6, 3, 2 + 4 * trace.m))
        assert (trace.n * trace.m) % trace_rows and trace.x_snap.size % trace_rows
        assert (trace.events.size, trace.steps.size) == (3603, 1201)
        assert trace.events.size % events_rows and trace.steps.size % metrics_rows
        monkeypatch.setattr(aimdalloc.report, "_cpus", lambda: 1)
        evaluated = []
        make_ensemble = aimdalloc.report.make_ensemble

        def counting(functions, m):
            ensemble = make_ensemble(functions, m)
            gradients = ensemble.gradients
            ensemble.gradients = lambda x, out=None: evaluated.append(len(x)) or gradients(x, out)
            return ensemble

        monkeypatch.setattr(aimdalloc.report, "make_ensemble", counting)
        assert_matches_reference(trace, report, tmp_path, reference_dir)
        assert sum(evaluated) == len(trace.snap_steps) and 0 not in evaluated

    def test_one_device_one_resource_one_step(self, tmp_path):
        assert_matches_reference(*one_device_export(), tmp_path)


class TestFullRateMemory:
    """events.csv and metrics.csv are formatted a block at a time, never as whole-file text."""

    @staticmethod
    def export_peak(tmp_path, monkeypatch, m):
        """``_write_full_rate``'s tracemalloc peak on 6 001 random steps of m resources, and the series' bytes."""
        trace, report = one_device_export()
        rng = np.random.default_rng(7)
        steps = 6001
        trace = dataclasses.replace(
            trace,
            x_snap=np.zeros((1, 1, m)),
            steps=np.arange(steps),
            events=rng.integers(0, 2, (steps, m), dtype=np.uint8),
            totals_inst=rng.random((steps, m)),
            totals_avg=rng.random((steps, m)),
            spread=rng.random((steps, m)),
            cost_sum_avg=rng.random(steps),
        )
        report = dataclasses.replace(report, cost_ratio=rng.random(steps))
        series = [trace.steps, trace.events, trace.cumulative_event_bits, trace.spread,
                  report.cost_ratio, trace.totals_avg, trace.totals_inst]
        monkeypatch.setattr(aimdalloc.report, "_BLOCK_CELLS", 560)
        rows = {}
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            aimdalloc.report._write_full_rate(trace, report, tmp_path, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - t0 < 1.0
        assert rows == {"events.csv": steps * m, "metrics.csv": steps, "summary.json": 1}
        assert (tmp_path / "metrics.csv").read_text().count(",") == (steps + 1) * (4 * m + 1)
        return peak, sum(a.nbytes for a in series)

    def test_peak_stays_below_the_series(self, tmp_path, monkeypatch):
        peak, series = self.export_peak(tmp_path, monkeypatch, 1)
        assert peak < series

    def test_wide_rows_peak_stays_below_the_series(self, tmp_path, monkeypatch):
        """At m = 3 a metrics.csv row is 14 cells; the block's budget is in cells, so its text stays small."""
        peak, series = self.export_peak(tmp_path, monkeypatch, 3)
        assert peak < series


class TestTraceRowsMemory:
    def test_peak_is_set_by_the_budget_not_the_rows(self, long_runs, tmp_path, monkeypatch):
        """trace.csv's rows are formatted a block at a time: ten times the rows peak no higher."""
        trace, _, _ = long_runs["stochastic"]
        monkeypatch.setattr(aimdalloc.report, "_BLOCK_CELLS", 300)
        peaks = []
        for rows in (2_000, 20_000):
            with open(tmp_path / "trace.csv", "wb") as fh:
                tracemalloc.start()
                try:
                    aimdalloc.report._write_rows(fh, trace, 0, rows)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        text = (tmp_path / "trace.csv").stat().st_size
        assert peaks[1] < 1.25 * peaks[0] and peaks[1] < text / 5, (peaks, text)

    def test_peak_is_set_by_the_budget_not_the_devices(self, long_runs, tmp_path, monkeypatch):
        """A snapshot's step, device and resource columns are made per block: ten times the devices peak no higher.

        A snapshot's gradients are n * m values by design (evaluated once per snapshot), so the
        ensemble is a stand-in whose gradient is x_bar itself and the peak is the writer's own.
        """
        trace, _, _ = long_runs["stochastic"]
        monkeypatch.setattr(aimdalloc.report, "make_ensemble",
                            lambda functions, m: SimpleNamespace(gradients=lambda x, out=None: x))
        rng = np.random.default_rng(3)
        peaks = []
        for n in (10_000, 100_000):
            snap = rng.random((1, n, trace.m))
            one = dataclasses.replace(trace, snap_steps=np.array([1000]), x_snap=snap, xbar_snap=snap / 3)
            with open(tmp_path / "trace.csv", "wb") as fh:
                tracemalloc.start()
                try:
                    aimdalloc.report._write_rows(fh, one, 0, snap.size)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert (tmp_path / "trace.csv").read_bytes().count(b"\n") == snap.size
        assert peaks[1] < 1.25 * peaks[0], peaks


def spelled(columns, seps):
    """``_format_rows`` text of the columns as a str, with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return aimdalloc.report._format_rows([np.asarray(c) for c in columns], seps).decode()


def by_percent(columns, seps):
    """The same rows with ``"%.9g" % v`` per float and ``"%d" % v`` per int."""
    cells = [["%.9g" % v if isinstance(v, float) else "%d" % v for v in np.asarray(c).tolist()]
             for c in columns]
    return "".join(v + sep for row in zip(*cells) for v, sep in zip(row, seps.decode()))


#: doubles whose scaled product v * 10 ** (8 - e) rounds onto a half-integer that is not exact,
#: where ties-to-even on the product gives the wrong last digit; one per direction and exponent
ROUNDED_ONTO_HALF = [
    3.742819985, 4.849745755, 0.8413616555, 0.5999585185, 0.03674182535, 0.01556770065,
    0.002684178275, 0.006838587785, 716.2646575, 114.0812545, 885102.5365, 400091.9115,
    27137371.95, 24900037.85,
]
#: exact decimal ties at the ninth digit, which round to even
EXACT_TIES = [12345678.25, 12345678.75, 1234567.125, 1234567.375, 123456.0625, 100000000.5, 100000001.5]
#: values that round up across a power of ten, and both sides of the fixed form's edges
CARRIES = [9.9999999996, 99999999.95, 0.000999999999996, 999999999.5, 999999999.49, 0.0999999999951]
EDGES = [np.nextafter(edge, toward) for edge in (1e-4, 1e-3, 1e9) for toward in (0, edge, np.inf)]


class TestFormatRows:
    """``_format_rows`` spells floats as ``"%.9g" % v`` and ints as ``"%d" % v``, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(1e-3, 1e9), st.floats(1e-5, 1e10)), min_size=1, max_size=40),
           st.randoms(use_true_random=False))
    def test_any_double_in_mixed_blocks(self, values, rnd):
        """NaN, infinities, signed zeros and subnormals among values the words spell, in 1 to 3 columns."""
        width = rnd.randint(1, 3)
        rows = len(values) // width or 1
        values = (values * width)[: rows * width]
        columns = [np.array(values[c::width], dtype=np.float64) for c in range(width)]
        seps = b"," * (width - 1) + b"\n"
        assert spelled(columns, seps) == by_percent(columns, seps)

    @pytest.mark.parametrize("values", [ROUNDED_ONTO_HALF, EXACT_TIES, CARRIES, EDGES],
                             ids=["rounded onto half", "exact ties", "carries", "edges"])
    def test_targeted_doubles(self, values):
        assert spelled([values], b"\n") == by_percent([values], b"\n")

    def test_exponent_one_off_either_way(self, monkeypatch):
        """An exponent one too high or low is not corrected but left to ``%``, so the cell still spells right."""
        log10, rng = np.log10, np.random.default_rng(5)
        monkeypatch.setattr(np, "log10", lambda w: log10(w) + rng.choice([-1.0, 0.0, 1.0], np.shape(w)))
        values = rng.random(3000) * 10.0 ** rng.integers(-4, 10, 3000)
        assert spelled([values], b"\n") == by_percent([values], b"\n")

    def test_left_to_percent(self):
        """``_float_words`` leaves half-integer products and carries to a power of ten to ``%``, and nothing else here."""
        rounds_up = [v for v in CARRIES if float("%.9g" % v) in 10.0 ** np.arange(-3.0, 10.0)]
        assert len(rounds_up) == len(CARRIES) - 1  # all but 999999999.49
        left = ROUNDED_ONTO_HALF + EXACT_TIES + rounds_up
        v = np.array(left + [999999999.49, 0.0, 0.123456789, 1.5, 12345.6789])
        slow = aimdalloc.report._float_words(v, np.empty((4, 1, v.size), "<u4"), aimdalloc.report._digit_tables())
        assert slow.tolist() == list(range(len(left)))

    def test_rounded_onto_half_are_hard_cases(self):
        """Each value's scaled product is an inexact half-integer that ties-to-even rounds the wrong way."""
        for v in ROUNDED_ONTO_HALF:
            e = int(np.floor(np.log10(v)))
            scaled = v * 10.0 ** (8 - e)
            exact = Fraction(v) * 10 ** (8 - e)
            assert scaled % 1 == 0.5 and exact != Fraction(scaled), v
            assert int(np.rint(scaled)) != round(exact), v

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint64])
    def test_ints(self, dtype):
        info = np.iinfo(dtype)
        values = [0, 9, 10, 99, 100, 999, 1000, 99_999, 999_999, 10**6, 10**6 + 1, 999_999_999,
                  10**9, 10**12, info.max, -1, -1000, -(10**9), info.min]
        column = np.array([v for v in values if info.min <= v <= info.max], dtype=dtype)
        for width in (1, 2):
            columns = [column, column[::-1]][:width]
            seps = b"," * (width - 1) + b"\n"
            assert spelled(columns, seps) == by_percent(columns, seps)
        small = column[(column >= 0) & (column < 1000)]
        assert spelled([small], b"\n") == by_percent([small], b"\n")

    def test_mixed_columns(self):
        rng = np.random.default_rng(11)
        rows = 500
        floats = rng.random(rows) * 10.0 ** rng.integers(-5, 11, rows)
        floats[::37] = [np.nan, -0.0, 0.0, np.inf, -1.5, 5e-324, 1e300, -np.inf, 1e-3, 0.1, 1e9, 7.0, 0.5, 123.0]
        huge = rng.integers(0, 2**64 - 1, rows, dtype=np.uint64, endpoint=True)  # next to int64, not a float64 run
        columns = [rng.integers(0, 30_000, rows), floats, rng.integers(-10**12, 10**12, rows), huge,
                   floats[::-1].copy(), rng.integers(0, 2, rows).astype(np.uint8)]
        seps = b",,,,,\n"
        assert spelled(columns, seps) == by_percent(columns, seps)

    def test_bundled_traces_take_the_fast_path(self, long_runs, tmp_path, monkeypatch):
        """Fewer than 0.1% of the float cells of the 1 200-step bundled exports are left to ``%``."""
        float_words, counts = aimdalloc.report._float_words, [0, 0]

        def counting(v, words, tables):
            slow = float_words(v, words, tables)
            counts[0] += v.size
            counts[1] += slow.size
            return slow

        monkeypatch.setattr(aimdalloc.report, "_float_words", counting)
        monkeypatch.setattr(aimdalloc.report, "_cpus", lambda: 1)
        for mode, (trace, report, reference_dir) in long_runs.items():
            assert_matches_reference(trace, report, tmp_path / mode, reference_dir)
        cells, slow = counts
        assert cells == 2 * (3 * 183_780 + 1201 * (3 * 3 + 1))  # trace.csv's and metrics.csv's floats
        assert slow < cells / 1000, counts


@pytest.fixture
def forks(monkeypatch):
    """Pids of the workers ``export_trace`` forks, recorded in the parent."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def split_rows(monkeypatch, cpus):
    """Make ``export_trace`` split any trace.csv into one row range per CPU of ``cpus``."""
    monkeypatch.setattr(aimdalloc.report, "_FORK_ROWS", 1)
    monkeypatch.setattr(aimdalloc.report, "_cpus", lambda: cpus)


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


class TestSplitExport:
    """trace.csv formatted by forked row-range workers has the in-process bytes."""

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_bundled_config(self, long_runs, tmp_path, monkeypatch, forks, mode, cpus):
        trace, report, reference_dir = long_runs[mode]
        assert trace.x_snap.size == 183_780
        split_rows(monkeypatch, cpus)
        assert_matches_reference(trace, report, tmp_path, reference_dir)
        assert len(forks) == cpus - 1
        assert_reaped(forks)

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_special_floats(self, exported, tmp_path, monkeypatch, forks, cpus):
        _, trace, report, _ = exported
        trace, report = spiked_export(trace, report)
        split_rows(monkeypatch, cpus)
        assert_matches_reference(trace, report, tmp_path)
        assert_specials_in_every_float_column(tmp_path / "new")
        assert len(forks) == cpus - 1

    def test_ranges_end_mid_snapshot_and_mid_block(self, long_runs, tmp_path, monkeypatch, forks):
        trace, report, reference_dir = long_runs["deterministic"]
        split_rows(monkeypatch, 3)
        monkeypatch.setattr(aimdalloc.report, "_BLOCK_CELLS", 42)  # 7 rows of 6 cells
        rows = aimdalloc.report._BLOCK_CELLS // 6
        bounds = aimdalloc.report._row_bounds(trace)
        per_snap = trace.n * trace.m
        assert all(b % per_snap for b in bounds[1:-1])
        assert all((hi - lo) % rows for lo, hi in zip(bounds, bounds[1:]))
        assert per_snap % rows and bounds[-1] % rows
        cells = aimdalloc.report._BLOCK_CELLS  # events.csv rows are 3 cells, metrics.csv rows 2 + 4 m
        assert trace.events.size % (cells // 3) and trace.steps.size % (cells // (2 + 4 * trace.m))
        assert_matches_reference(trace, report, tmp_path, reference_dir)
        assert len(forks) == 2

    @pytest.mark.parametrize("case", ["small trace", "one cpu", "no fork", "thread running"])
    def test_serial_cases_never_fork(self, exported, tmp_path, monkeypatch, case):
        _, trace, report, _ = exported
        if case == "small trace":
            trace, report = one_device_export()
            monkeypatch.setattr(aimdalloc.report, "_cpus", lambda: 3)
        else:
            split_rows(monkeypatch, 1 if case == "one cpu" else 3)

        def no_fork():
            raise AssertionError("os.fork called")

        if case == "no fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", no_fork)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, daemon=True)
        if case == "thread running":
            waiter.start()
        try:
            assert_matches_reference(trace, report, tmp_path)
        finally:
            release.set()
            if waiter.is_alive():
                waiter.join(timeout=10)
        assert not waiter.is_alive()

    def test_failed_worker_raises_after_reaping(self, exported, tmp_path, monkeypatch, forks, capfd):
        _, trace, report, _ = exported
        split_rows(monkeypatch, 3)
        write_rows = aimdalloc.report._write_rows

        def failing_in_workers(fh, trace, lo, hi):
            if lo > 0:
                raise OSError("worker cannot write")
            write_rows(fh, trace, lo, hi)

        monkeypatch.setattr(aimdalloc.report, "_write_rows", failing_in_workers)
        with pytest.raises(RuntimeError, match="2 trace.csv worker.* exit status 1"):
            export_trace(trace, report, tmp_path)
        assert capfd.readouterr().err.count("OSError: worker cannot write") == 2  # each worker's traceback
        assert len(forks) == 2
        assert_reaped(forks)
        assert sorted(os.listdir(tmp_path)) == sorted([*CSV_FILES, "summary.json"])

    def test_parent_error_kills_and_reaps_workers(self, exported, tmp_path, monkeypatch, forks):
        _, trace, report, _ = exported
        split_rows(monkeypatch, 3)
        write_rows, temporary_file, files = aimdalloc.report._write_rows, tempfile.TemporaryFile, []

        def stuck_in_workers(fh, trace, lo, hi):
            if lo > 0:
                time.sleep(60)
            write_rows(fh, trace, lo, hi)

        def failing(*args):
            raise OSError("parent cannot write")

        monkeypatch.setattr(aimdalloc.report, "_write_rows", stuck_in_workers)
        monkeypatch.setattr(aimdalloc.report, "_write_full_rate", failing)
        monkeypatch.setattr(tempfile, "TemporaryFile", lambda **kw: files.append(temporary_file(**kw)) or files[-1])
        start = time.perf_counter()
        with pytest.raises(OSError, match="parent cannot write"):
            export_trace(trace, report, tmp_path)
        assert time.perf_counter() - start < 30  # the stuck workers were killed, not waited for
        assert len(forks) == 2 and len(files) == 2 and all(f.closed for f in files)
        assert_reaped(forks)
        assert os.listdir(tmp_path) == ["trace.csv"]

    def test_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, want in ((5, 5), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert aimdalloc.report._cpus() == want


def indented(doc):
    return json.dumps(doc, sort_keys=True, indent=2,
                      default=lambda v: v.tolist() if isinstance(v, np.ndarray) else v.to_dicts()) + "\n"


class TestWriteJson:
    """``write_json`` writes the bytes of ``json.dumps(doc, sort_keys=True, indent=2)``."""

    @pytest.fixture
    def written(self, monkeypatch):
        docs = []
        write_json = aimdalloc.report.write_json

        def capture(path, doc):
            docs.append((path, doc))
            write_json(path, doc)

        monkeypatch.setattr(aimdalloc.report, "write_json", capture)
        return docs

    def test_bundled_and_golden_summaries(self, exported, written, tmp_path):
        cfg, trace, report, manifest = exported
        export_trace(trace, report, tmp_path / "bundled")
        cfg = golden_config()
        trace = run(cfg)
        opt = solve_separable(cfg.functions, [p.capacity for p in cfg.resources], tol=1e-10)
        export_trace(trace, collect_metrics(trace, opt.x_star), tmp_path / "golden")
        assert [len(doc["cost_functions"]) for _, doc in written] == [60, 2]
        for path, doc in written:
            assert path.read_text() == indented(doc)

    @pytest.mark.parametrize(
        "rows",
        [
            [f.to_dict() for f in sample_cost_functions(3, 500)],
            [{"repr": s} for s in ('say "hi"', "two\nlines", "},", '{"', "ünï", "},\n      {")],
            [{"b": 1, "a": "x"}, {"c": True}],
            [],
            [{"a": 1}, {}],
            [{"a": 1.5}],
            [{"a": [1, 2]}],
            [1, "a"],
        ],
    )
    def test_record_lists(self, rows, tmp_path):
        doc = {"a_first": [{"x": 1}], "cost_functions": rows, "z": {"nested": rows}, "zz": 0}
        aimdalloc.report.write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == indented(doc)

    @pytest.mark.parametrize("n", [0, 1, 2, 500])
    @pytest.mark.parametrize("block_rows", [7, 8192])
    def test_populations(self, n, block_rows, tmp_path, monkeypatch):
        """Populations, two in one document, are streamed as the records ``json.dumps`` gives."""
        monkeypatch.setattr(aimdalloc.report, "_BLOCK_CELLS", block_rows * len(FIELD_RANGES))
        pop = sample_cost_functions(n, n)
        doc = {"a_first": [{"x": 1}], "cost_functions": pop, "z": {"nested": [1]}, "zz": pop[::-3]}
        aimdalloc.report.write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == indented(doc)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 500])
    @pytest.mark.parametrize("block_rows", [7, 8192])
    def test_float_tables(self, n, m, block_rows, tmp_path, monkeypatch):
        """A float matrix (``x_star``) is streamed as the lists of floats ``json.dumps`` gives."""
        monkeypatch.setattr(aimdalloc.report, "_BLOCK_CELLS", block_rows * m)
        rng = np.random.default_rng(n + m)
        table = rng.random((n, m)) * 10.0 ** rng.integers(-320, 300, (n, m))
        odd = [-0.0, 0.0, 0.1 + 0.2, 1 / 3, 2.0**-1074, 1.7976931348623157e308, 123456789.12345678, 1e22]
        table.reshape(-1)[: len(odd)] = odd[: table.size]
        doc = {"a_first": [0.5], "x_star": table, "y": {"nested": [1e16]}, "z": table[::-2, ::-1]}
        aimdalloc.report.write_json(tmp_path / "doc.json", doc)
        assert (tmp_path / "doc.json").read_text() == indented(doc)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_table_refused(self, bad, tmp_path):
        table = np.ones((4, 3))
        table[2, 1] = bad
        with pytest.raises(ValueError, match="x_star has a non-finite entry"):
            aimdalloc.report.write_json(tmp_path / "doc.json", {"x_star": table})

    def test_export_builds_no_member_or_record(self, exported, tmp_path, monkeypatch):
        """summary.json's records are read off the population's matrix."""
        def refuse(*args):
            raise AssertionError("a member or a record dict was built")

        _, trace, report, manifest = exported
        monkeypatch.setattr(Population, "to_dicts", refuse)
        monkeypatch.setattr(Population, "__getitem__", refuse)
        export_trace(trace, report, tmp_path)
        assert (tmp_path / "summary.json").read_bytes() == (manifest.directory / "summary.json").read_bytes()


class TestConvergenceStep:
    def test_never_above_returns_zero(self):
        spread = np.zeros((10, 2))
        assert convergence_step(spread, np.array([1.0, 1.0])) == 0

    def test_settles_after_last_violation(self):
        # last step above threshold is index 3, so the settle point is 4
        spread = np.array([[5.0], [3.0], [0.5], [2.0], [0.4], [0.3]])
        assert convergence_step(spread, np.array([1.0])) == 4

    def test_never_settles(self):
        spread = np.ones((4, 1)) * 9.0
        assert convergence_step(spread, np.array([1.0])) == 4


class TestCompareModes:
    def test_requires_both_mode(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, mode="deterministic", steps=50)
        with pytest.raises(ValueError):
            compare_modes(cfg)

    def test_uncertified_optimum_raises(self):
        # the quickstart optimum certifies at about 4e-9, far above 1e-12
        cfg = parse_config(REPO_ROOT / "configs" / "quickstart.json")
        with pytest.raises(SimulationError, match="above kkt_tol"):
            compare_modes(dataclasses.replace(cfg, steps=50, kkt_tol=1e-12))

    def test_shared_functions_and_shapes(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, steps=300)
        cr = compare_modes(cfg)
        assert cr.traces[0].functions == cr.traces[1].functions
        assert cr.final_diff.shape == (cfg.n, cfg.m)

    def test_export_comparison_layout(self, bundled_config, tmp_path):
        cfg = dataclasses.replace(bundled_config, steps=200)
        manifest = compare_modes(cfg, tmp_path).manifest
        assert (tmp_path / "deterministic" / "trace.csv").exists()
        assert (tmp_path / "stochastic" / "metrics.csv").exists()
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["modes"] == ["deterministic", "stochastic"]
        # the manifest names every file written
        assert sorted(manifest.rows) == sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.*"))
        assert set(doc["event_bits_at_convergence"]) == {"deterministic", "stochastic"}

    def test_exporting_frees_each_trace_before_the_next_run(self, bundled_config, tmp_path, live_snapshots):
        cfg = dataclasses.replace(bundled_config, steps=200)
        cr = compare_modes(cfg, tmp_path)
        assert live_snapshots == [[], [False]]
        assert [trace.x_snap.shape[0] for trace in cr.traces] == [1, 1]  # cut to the final snapshot
        full = compare_modes(cfg)  # the cut traces measure what the full ones do
        assert cr.convergence_steps == full.convergence_steps
        assert cr.event_bits_at_convergence == full.event_bits_at_convergence
        np.testing.assert_array_equal(cr.spread_threshold, full.spread_threshold)
        np.testing.assert_array_equal(cr.final_diff, full.final_diff)

    def test_without_out_dir_both_full_traces_are_kept(self, bundled_config, live_snapshots):
        cr = compare_modes(dataclasses.replace(bundled_config, steps=200))
        assert live_snapshots == [[], [True]]
        assert [trace.x_snap.shape[0] for trace in cr.traces] == [len(trace.snap_steps) for trace in cr.traces]
        assert len(cr.traces[0].snap_steps) > 1
        assert cr.manifest is None


class TestReferenceComparison:
    """Full-length deterministic vs stochastic behavior on the bundled scenario."""

    def test_deterministic_converges_earlier(self, reference_comparison):
        det_step, sto_step = reference_comparison.convergence_steps
        assert det_step < sto_step
        assert det_step < 5000

    def test_spread_shrinks_over_time_in_both_modes(self, reference_comparison):
        for trace in reference_comparison.traces:
            assert np.all(trace.spread[30000] < trace.spread[1000])

    def test_event_bits_both_readings_available(self, reference_comparison):
        final = reference_comparison.event_bits_final
        at_conv = reference_comparison.event_bits_at_convergence
        for mode_final, mode_conv in zip(final, at_conv):
            assert all(c <= f for c, f in zip(mode_conv, mode_final))
