"""Synchronous-round simulation of n devices sharing m capacity-limited resources.

Round structure, from the state at step k: devices react to the event bits
S(k) (back off where a bit is set, otherwise grow by alpha), averages update,
and the control unit evaluates the new totals to produce S(k+1) for the next
round. Demand measured at a step is therefore acted on exactly one step
later, which bounds the instantaneous overshoot by n * alpha per resource.

Every device hears the same broadcast, so one round is a single matrix step
over the whole population, x(k+1) = A(k) x(k) + alpha. One loop,
``_advance``, makes it in same-shape passes over all m resource columns, into
buffers the ``WorldState`` keeps: the scaling factor and back-off factor F on
every column (beta and gamma_norm kept tiled to (n, m)), F = 1 on the idle
columns, then x * F + A, with A alpha tiled and zeroed on the event columns.
That is x * f on an event column and x + alpha on an idle one, bit for bit.
At 60 devices a pass costs about 0.5 us, against 1.6 us for an (m,)
broadcast; at 10 000 a masked copy costs 144 us against 22 us for a
multiply, and fresh (n, m) temporaries cost page faults. So a round gathers
no column, broadcasts no (m,) row, copies nothing under a mask and makes no
(n, m) temporary of its own: the rules write theirs into two spare buffers
of the world. At 60 devices that makes a round of ``run`` about a tenth faster than a
``step_world`` call with the rules' temporaries: 23 and 27 against 26 and 30 us,
deterministic and stochastic, in one set of paired runs (``BENCH_lean_loop.json``).

``run`` binds the world's buffers, the rules and the plan lookup once per
block of rounds and runs the loop over it: each round steps the averages and
their gradients straight into a row of a (rounds, n, m) block of about
``_BLOCK_BYTES``, its totals and event bits into the trace's rows, and keeps
any snapshot; once per block ``run`` fills the block's rows of the series
read off the averages (their totals, the derivative spread and the population
cost) with one ensemble call on the whole block, and stops at the first that
is not finite. ``step_world`` is the same loop over one round.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import aimd
from .aimd import AVERAGE_FLOOR, ClampStats, DegenerateAverageError
from .config import Config, config_hash
from .control import capacity_event_bits
from .costs import Population, _check_shape, as_population, make_ensemble, sample_cost_functions


#: most bytes a trace plus the devices' arrays may take (less under a tight RLIMIT_AS); more is refused before sampling
TRACE_BUDGET_BYTES = 4 * 2**30

#: bytes a device takes besides the trace at m = 3, read off the code: 293 for its rows of the
#: population and its tables, and up to about 700 more in one phase (the world's rows and
#: pattern plans, or the oracle's rows); tracemalloc peaks at n = 200 000 were 1 090 for a
#: 500-round stochastic run with every pattern's plan, its trace included, and 561 for a solve
DEVICE_BYTES = 1_200

#: bytes of one (rounds, n, m) block the recorder buffers between series fills;
#: small enough that the block and the cost evaluation's temporaries stay in
#: cache (a 1 MiB block made a 10 000-device run about 40% slower per round)
_BLOCK_BYTES = 128 * 2**10


class SimulationError(RuntimeError):
    """A run aborted; the message carries the cause (and the step, if a round failed)."""


def _as_index(cols: np.ndarray):
    """Ascending column numbers as a basic slice when evenly spaced, so indexing makes a view."""
    steps = set(np.diff(cols).tolist())
    if cols.size and len(steps) <= 1:
        return slice(int(cols[0]), int(cols[-1]) + 1, steps.pop() if steps else 1)
    return cols


@dataclass
class WorldState:
    """A run's population, per-resource constants and current state, stepped in place.

    ``grads`` caches each device's cost gradient at its current averages; it
    is what the back-off scaling rule reads this round. ``totals`` is the
    per-resource sum of ``x`` that produced ``events``; it views a buffer
    the next round refills. The stochastic stream ``rng`` advances on event
    steps; ``clamp`` counts scaling-factor clips.
    """

    mode: str
    functions: Population | tuple
    ensemble: object
    capacity: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma_cap: np.ndarray
    gamma_norm: np.ndarray
    rng: np.random.Generator
    clamp: ClampStats
    x: np.ndarray
    x_bar: np.ndarray
    grads: np.ndarray
    totals: np.ndarray
    events: np.ndarray
    k: int = 0

    def __post_init__(self):
        n, m = self.x.shape
        self._beta = np.tile(self.beta, (n, 1))
        self._gamma_norm = np.tile(self.gamma_norm, (n, 1))
        # the raw ratio, 1 - lambda and x / (k + 2); the factors
        self._work = np.empty((n, m))
        self._factor = np.empty((n, m))
        self._patterns: dict[bytes, tuple] = {}

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]

    def pattern(self) -> tuple:
        """The current event pattern's round plan, built the first time the pattern occurs.

        It holds the event and idle column indices (events None when there
        are none), A, and the (n, m) transpose of a stochastic world's
        resource-major (m, n) draw buffer, idle rows at 1.0, with one slice of
        that buffer per run of event rows.
        """
        key = self.events.tobytes()
        if key not in self._patterns:
            if len(self._patterns) >= 64:
                self._patterns.clear()
            cols = np.flatnonzero(self.events)
            add = np.tile(self.alpha, (self.n, 1))
            add[:, cols] = 0.0
            uniform = np.ones((self.m if self.mode == "stochastic" else 0, self.n))
            runs = np.split(cols, np.flatnonzero(np.diff(cols) != 1) + 1) if cols.size else []
            self._patterns[key] = (
                _as_index(cols) if cols.size else None, _as_index(np.flatnonzero(self.events == 0)),
                add, uniform.T, [uniform[r[0]:r[-1] + 1] for r in runs],
            )
        return self._patterns[key]


def resolve_functions(config: Config) -> Population:
    """The device cost functions a config denotes (sampling from the seed)."""
    if config.functions is not None:
        return config.functions
    stream = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    return sample_cost_functions(stream, config.n)


def build_world(functions, params, mode: str, seed: int) -> WorldState:
    """All-zero starting state for an explicit device population.

    ``functions`` may be family members or any objects with ``value``/
    ``gradient`` on length-m vectors; ``params`` is one ResourceParams per
    resource. The stochastic back-off stream is derived from ``seed`` and is
    independent of the stream ``resolve_functions`` samples from, so the same
    seed yields the same functions in both modes.
    """
    if mode not in aimd.RUN_MODES:
        raise ValueError(f"world mode must be one of {aimd.RUN_MODES}, got {mode!r}")
    functions = as_population(functions)
    params = tuple(params)
    if not params:
        raise ValueError("need at least one resource")
    ensemble = make_ensemble(functions, len(params))
    n, m = len(ensemble), len(params)
    zeros = np.zeros((n, m))
    return WorldState(
        mode=mode,
        functions=functions,
        ensemble=ensemble,
        capacity=np.array([p.capacity for p in params]),
        alpha=np.array([p.alpha for p in params]),
        beta=np.array([p.beta for p in params]),
        gamma_cap=np.array([p.gamma_cap for p in params]),
        gamma_norm=np.array([p.gamma_norm for p in params]),
        rng=np.random.default_rng(np.random.SeedSequence([seed, 1])),
        clamp=ClampStats(),
        x=zeros.copy(),
        x_bar=zeros.copy(),
        grads=np.asarray(ensemble.gradients(zeros), dtype=float),
        totals=np.zeros(m),
        events=np.zeros(m, dtype=np.uint8),
    )


def check_footprint(n: int, trace_bytes: int = 0) -> None:
    """Raise ValueError if n devices and a trace of ``trace_bytes`` would pass the budget; call it before sampling.

    The budget is ``TRACE_BUDGET_BYTES``, or the soft RLIMIT_AS less what the process maps if smaller.
    """
    budget = TRACE_BUDGET_BYTES
    try:
        import resource
        if (soft := resource.getrlimit(resource.RLIMIT_AS)[0]) != resource.RLIM_INFINITY:
            with open("/proc/self/statm") as fh:  # its first field is the pages the process maps
                budget = min(budget, soft - int(fh.read().split()[0]) * resource.getpagesize())
    except (ImportError, OSError):  # no resource module or no /proc: the fixed budget
        pass
    if (need := n * DEVICE_BYTES + trace_bytes) > budget:
        trace = f" and a {trace_bytes / 2**30:.1f} GiB trace" if trace_bytes else ""
        raise ValueError(
            f"{n} devices would take about {need / 2**30:.1f} GiB ({DEVICE_BYTES} bytes each{trace}), "
            f"above the {budget / 2**30:g} GiB budget; use fewer devices"
            + (" or keep fewer snapshots with a larger --stride (trace_stride)" if trace_bytes else "")
        )


def _device_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-resource totals of an (..., n, m) array into ``out`` (..., m), the devices added one after another.

    Each column is added device after device from +0.0, the order and start of numpy's reduce over
    the device axis, so the bits are the reduce's, an all -0.0 column's +0.0 included; a pairwise
    sum would change the last bits. ``np.einsum`` adds in that order, in one pass with no temporary,
    when the devices are not the innermost axis in memory: ``a`` C-ordered with m >= 2. Any other
    ``a`` (m = 1, F-ordered, transposed) takes the last row of ``np.add.accumulate`` plus +0.0.
    """
    if a.shape[-1] > 1 and a.flags.c_contiguous:
        return np.einsum("...ij->...j", a, out=out)
    return np.add(np.add.accumulate(a, -2)[..., -1, :], 0.0, out)


def step_world(w: WorldState) -> None:
    """Advance ``w`` by one synchronous round, in place.

    All event columns back off together (deterministically or stochastically
    per the world's mode, with the scaling factor computed from the averages
    before this update); all other columns grow additively. Stochastic draws
    fill one event column after another, in ascending column order. A
    degenerate average under an event aborts the run, naming the step and
    the first event column at fault.
    """
    _advance(w, [(w.x_bar, w.grads, np.empty(w.m), np.empty(w.m, dtype=bool), 0)])


def _advance(w: WorldState, rows, snaps=None) -> None:
    """Step ``w`` one round per (x_bar, grads, totals, bool event bits, snapshot flag) row of ``rows``.

    A round writes its averages, gradients, device totals and event bits into its row's arrays, which
    the world then holds, and a flagged round copies x and x_bar into the next pair of ``snaps``. The
    world's buffers, the rules and the plan lookup are bound once per call; the rules' temporaries go
    into the world's ``_work`` and their factors into its ``_factor``.
    """
    x, work, lam_out, clamp, multiply = w.x, w._work, w._factor, w.clamp, np.multiply
    gamma, beta, capacity, gamma_cap = w._gamma_norm, w._beta, w.capacity, w.gamma_cap
    pattern, gradients, random, deterministic = w.pattern, w.ensemble.gradients, w.rng.random, w.mode == "deterministic"
    scaling, increase, average = aimd.scaling_factor, aimd.additive_increase, aimd.update_average
    factor_of = aimd.deterministic_factor if deterministic else aimd.stochastic_factor
    for x_bar, grads, totals, bits, snap in rows:
        events, idle, add, uniform, draws = pattern()
        if events is not None:
            try:
                lam = scaling(gamma, w.grads, w.x_bar, clamp, lam_out, events, work)
            except DegenerateAverageError as e:
                cols = np.flatnonzero(w.events)
                j = cols[np.any(w.x_bar[:, cols] <= AVERAGE_FLOOR, axis=0)][0]
                raise SimulationError(f"step {w.k}, resource {j}: {e}") from e
            if deterministic:
                factor_of(lam, beta, lam, work)[:, idle] = 1.0
            else:
                for draw in draws:
                    random(out=draw)
                factor_of(uniform, lam, beta, lam)
            multiply(x, lam, x)
        increase(x, add, x)
        w.x_bar = average(w.x_bar, x, w.k, x_bar, work)
        w.grads = gradients(w.x_bar, grads)
        w.totals = _device_sum(x, totals)
        w.events = capacity_event_bits(totals, capacity, gamma_cap, out=bits)
        w.k += 1
        if snap:
            x_dst, xbar_dst = next(snaps)
            x_dst[...], xbar_dst[...] = x, w.x_bar


def snapshot_steps(total_steps: int, stride: int | None) -> np.ndarray:
    """Steps at which full matrices are recorded; the final step always is.

    With no explicit stride, every step below 1000 is kept and every 10th
    after, which keeps long traces small without losing the early transient.
    """
    if stride is None:
        if total_steps < 1000:
            ks = np.arange(total_steps + 1)
        else:
            ks = np.concatenate([np.arange(1000), np.arange(1000, total_steps + 1, 10)])
    else:
        ks = np.arange(0, total_steps + 1, stride)
    if ks[-1] != total_steps:
        ks = np.append(ks, total_steps)
    return ks


@dataclass
class Trace:
    """Time-indexed record of one run.

    Scalar-per-resource series (events, totals, derivative spread) and the
    population cost at the averages are kept at every step; x and x_bar as
    (n, m) matrices at ``snapshot_steps`` (``functions`` give the gradients
    there again). Config and mode replay the run bit for bit unless ``run``
    was given a prebuilt world, whose functions the config does not hold.
    """

    config: Config
    config_hash: str
    mode: str
    seed: int
    steps: np.ndarray             # (K+1,)
    events: np.ndarray            # (K+1, m) 0/1
    totals_inst: np.ndarray       # (K+1, m)
    totals_avg: np.ndarray        # (K+1, m)
    spread: np.ndarray            # (K+1, m) max-min of gradient profile
    cost_sum_avg: np.ndarray      # (K+1,)
    snap_steps: np.ndarray        # (S,)
    x_snap: np.ndarray            # (S, n, m)
    xbar_snap: np.ndarray         # (S, n, m)
    functions: Population | tuple
    clamp_low: int
    clamp_high: int
    wall_time_s: float

    @property
    def n(self) -> int:
        return self.x_snap.shape[1]

    @property
    def m(self) -> int:
        return self.x_snap.shape[2]

    @cached_property
    def cumulative_event_bits(self) -> np.ndarray:
        """(K+1, m) running count of broadcast one-bits per resource."""
        return np.cumsum(self.events.astype(np.int64), axis=0)


def _check_finite(totals_inst, spread, cost_sum_avg, first_step: int = 0) -> None:
    """Raise SimulationError at the first step whose recorded series are not all finite.

    The series may be a block of rows starting at ``first_step``. A gradient
    that overflows to inf or turns NaN shows up in the derivative spread at
    once and, through the back-off, in the totals and the cost.
    """
    per_resource = np.isfinite(totals_inst) & np.isfinite(spread)
    ok = per_resource.all(axis=1) & np.isfinite(cost_sum_avg)
    if ok.all():
        return
    i = int(np.argmin(ok))
    k = first_step + i
    if per_resource[i].all():
        raise SimulationError(f"step {k}: population cost {cost_sum_avg[i]} is not finite")
    j = int(np.argmin(per_resource[i]))
    raise SimulationError(
        f"step {k}, resource {j}: total {totals_inst[i, j]} or derivative spread "
        f"{spread[i, j]} is not finite"
    )


def run(config: Config, mode: str | None = None, world: WorldState | None = None) -> Trace:
    """Simulate ``config.steps`` rounds and record the trace.

    ``mode`` overrides ``config.mode`` (handy when a config says "both" and
    the caller runs each variant separately). A prebuilt ``world`` (from
    ``build_world``) substitutes for the config's population, which is how
    hand-built cost functions get full traces; its shape must match the
    config, and the run advances it in place. A trace (snapshots plus
    full-rate series) estimated above ``TRACE_BUDGET_BYTES`` together with
    ``DEVICE_BYTES`` per device raises ValueError (``check_footprint``)
    before anything is sampled or allocated. A total, derivative spread or
    population cost that is inf or NaN raises SimulationError naming the
    first step (and resource) where it appeared, once its block is filled.
    """
    if config.steps < 1:
        raise ValueError("need at least one step")
    total, n, m = config.steps, config.n, config.m
    snaps = snapshot_steps(total, config.trace_stride)
    # two (S, n, m) float snapshot stacks and their (S,) steps; per step: three (m,) float series,
    # the cost, the step index, m event bytes, and for the export m cumulative bits and the cost ratio
    need = 8 * (len(snaps) * (2 * n * m + 1) + (total + 1) * (4 * m + 3)) + (total + 1) * m
    check_footprint(n, need)
    t0 = time.perf_counter()
    if world is None:
        w = build_world(
            resolve_functions(config), config.resources, mode or config.mode, config.seed
        )
    else:
        w = world
        _check_shape(w.x, n, m, "world")
        if mode is not None and mode != w.mode:
            raise ValueError(f"world was built for mode {w.mode!r}, not {mode!r}")
        if w.k != 0:
            raise ValueError("pass a freshly built world (k = 0); traces start at step 0")

    snap_flags = np.bincount(snaps, minlength=total + 1).tolist()  # 1 at each snapshot's step
    events = np.zeros((total + 1, m), dtype=np.uint8)
    totals_inst = np.zeros((total + 1, m))
    totals_avg = np.zeros((total + 1, m))
    spread = np.zeros((total + 1, m))
    cost_sum_avg = np.zeros(total + 1)
    x_snap = np.zeros((len(snaps), n, m))
    xbar_snap = np.zeros((len(snaps), n, m))

    rounds = max(1, min(total + 1, _BLOCK_BYTES // (8 * n * m)))
    xbar_block = np.empty((rounds, n, m))
    grad_block = np.empty((rounds, n, m))
    xbar_rows, grad_rows = list(xbar_block), list(grad_block)
    # round 0 is the world as given (step 0 is always a snapshot); later rounds step into the rows
    xbar_block[0], grad_block[0], events[0], totals_inst[0] = w.x_bar, w.grads, w.events, w.totals
    x_snap[0], xbar_snap[0] = w.x, w.x_bar
    snap_rows, bits = zip(x_snap[1:], xbar_snap[1:]), events.view(bool)
    for start in range(0, total + 1, rounds):
        stop = min(start + rounds, total + 1)
        first = max(start, 1)
        _advance(w, zip(xbar_rows[first - start:], grad_rows[first - start:], totals_inst[first:stop],
                        bits[first:stop], snap_flags[first:stop]), snap_rows)
        xb = xbar_block[: stop - start]
        _device_sum(xb, totals_avg[start:stop])
        # max and min are exact, so the resource-major copy changes no bit
        g = np.ascontiguousarray(grad_block[: stop - start].transpose(0, 2, 1))
        spread[start:stop] = g.max(axis=-1) - g.min(axis=-1)
        cost_sum_avg[start:stop] = w.ensemble.values(xb).sum(axis=-1)
        # a blown-up block stops the run before the next one is simulated
        _check_finite(totals_inst[start:stop], spread[start:stop], cost_sum_avg[start:stop], start)

    return Trace(
        config=config,
        config_hash=config_hash(config),
        mode=w.mode,
        seed=config.seed,
        steps=np.arange(total + 1),
        events=events,
        totals_inst=totals_inst,
        totals_avg=totals_avg,
        spread=spread,
        cost_sum_avg=cost_sum_avg,
        snap_steps=snaps,
        x_snap=x_snap,
        xbar_snap=xbar_snap,
        functions=w.functions,
        clamp_low=w.clamp.low,
        clamp_high=w.clamp.high,
        wall_time_s=time.perf_counter() - t0,
    )
