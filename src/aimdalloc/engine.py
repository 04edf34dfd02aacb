"""Synchronous-round simulation of n devices sharing m capacity-limited resources.

Round structure, from the state at step k: devices react to the event bits
S(k) (back off where a bit is set, otherwise grow by alpha), averages update,
and the control unit evaluates the new totals to produce S(k+1) for the next
round. Demand measured at a step is therefore acted on exactly one step
later, which bounds the instantaneous overshoot by n * alpha per resource.

Every device hears the same broadcast, so one round is a single matrix step
over the whole population, x(k+1) = A(k) x(k) + alpha: ``step_world``
advances one mutable ``WorldState`` in place, backing off all event columns
with one scaling-factor call and one back-off call.
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
from .costs import CostFunction, make_ensemble, sample_cost_functions


class SimulationError(RuntimeError):
    """A run aborted; the message carries the cause (and the step, if a round failed)."""


@dataclass
class WorldState:
    """A run's population, per-resource constants and current state, stepped in place.

    ``grads`` caches each device's cost gradient at its current averages; it
    is what the back-off scaling rule reads this round. ``totals`` is the
    per-resource sum of ``x`` that produced ``events``. The stochastic stream
    ``rng`` advances on event steps; ``clamp`` counts scaling-factor clips.
    """

    mode: str
    functions: tuple
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

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def m(self) -> int:
        return self.x.shape[1]


def resolve_functions(config: Config) -> tuple[CostFunction, ...]:
    """The device cost functions a config denotes (sampling from the seed)."""
    if config.functions is not None:
        return config.functions
    stream = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    return sample_cost_functions(stream, config.n, config.m)


def build_world(functions, params, mode: str, seed: int) -> WorldState:
    """All-zero starting state for an explicit device population.

    ``functions`` may be family members or any objects with ``value``/
    ``gradient`` on length-m vectors; ``params`` is one ResourceParams per
    resource. The stochastic back-off stream is derived from ``seed`` and is
    independent of the stream ``resolve_functions`` samples from, so the same
    seed yields the same functions in both modes.
    """
    if mode not in ("deterministic", "stochastic"):
        raise ValueError(f"world mode must be deterministic or stochastic, got {mode!r}")
    functions = tuple(functions)
    params = tuple(params)
    if not functions:
        raise ValueError("need at least one device")
    if not params:
        raise ValueError("need at least one resource")
    n, m = len(functions), len(params)
    ensemble = make_ensemble(functions, m)
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


def step_world(w: WorldState) -> None:
    """Advance ``w`` by one synchronous round, in place.

    All event columns back off together (deterministically or stochastically
    per the world's mode, with the scaling factor computed from the averages
    before this update); all other columns grow additively. Stochastic draws
    fill one event column after another, in ascending column order. A
    degenerate average under an event aborts the run, naming the step and
    the first event column at fault.
    """
    x_next = aimd.additive_increase(w.x, w.alpha)
    cols = np.flatnonzero(w.events)
    if cols.size:
        try:
            lam = aimd.scaling_factor(
                w.gamma_norm[cols], w.grads[:, cols], w.x_bar[:, cols], w.clamp
            )
        except DegenerateAverageError as e:
            j = cols[np.any(w.x_bar[:, cols] <= AVERAGE_FLOOR, axis=0)][0]
            raise SimulationError(f"step {w.k}, resource {j}: {e}") from e
        if w.mode == "deterministic":
            x_next[:, cols] = aimd.md_deterministic(w.x[:, cols], lam, w.beta[cols])
        else:
            x_next[:, cols] = aimd.md_stochastic(
                w.x[:, cols].T, lam.T, w.beta[cols, None], w.rng
            ).T
    w.x_bar = aimd.update_average(w.x_bar, x_next, w.k)
    w.x = x_next
    w.grads = w.ensemble.gradients(w.x_bar)
    w.totals = x_next.sum(axis=0)
    w.events = capacity_event_bits(w.totals, w.capacity, w.gamma_cap)
    w.k += 1


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
    population cost at the averages are kept at every step; full (n, m)
    matrices are kept at ``snapshot_steps``. Config, seed and mode are
    enough to replay the run bit for bit.
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
    grad_snap: np.ndarray         # (S, n, m)
    functions: tuple[CostFunction, ...]
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


def _check_finite(totals_inst, spread, cost_sum_avg) -> None:
    """Raise SimulationError at the first step whose recorded series are not all finite.

    A gradient that overflows to inf or turns NaN shows up in the derivative
    spread at once and, through the back-off, in the totals and the cost.
    """
    per_resource = np.isfinite(totals_inst) & np.isfinite(spread)
    ok = per_resource.all(axis=1) & np.isfinite(cost_sum_avg)
    if ok.all():
        return
    k = int(np.argmin(ok))
    if per_resource[k].all():
        raise SimulationError(f"step {k}: population cost {cost_sum_avg[k]} is not finite")
    j = int(np.argmin(per_resource[k]))
    raise SimulationError(
        f"step {k}, resource {j}: total {totals_inst[k, j]} or derivative spread "
        f"{spread[k, j]} is not finite"
    )


def run(config: Config, mode: str | None = None, world: WorldState | None = None) -> Trace:
    """Simulate ``config.steps`` rounds and record the trace.

    ``mode`` overrides ``config.mode`` (handy when a config says "both" and
    the caller runs each variant separately). A prebuilt ``world`` (from
    ``build_world``) substitutes for the config's population, which is how
    hand-built cost functions get full traces; its shape must match the
    config, and the run advances it in place. After the last round, a total,
    derivative spread or population cost that is inf or NaN raises
    SimulationError naming the first step (and resource) where it appeared.
    """
    if config.steps < 1:
        raise ValueError("need at least one step")
    t0 = time.perf_counter()
    if world is None:
        w = build_world(
            resolve_functions(config), config.resources, mode or config.mode, config.seed
        )
    else:
        w = world
        if (w.n, w.m) != (config.n, config.m):
            raise ValueError(
                f"world shape ({w.n}, {w.m}) does not match config "
                f"({config.n}, {config.m})"
            )
        if mode is not None and mode != w.mode:
            raise ValueError(f"world was built for mode {w.mode!r}, not {mode!r}")
        if w.k != 0:
            raise ValueError("pass a freshly built world (k = 0); traces start at step 0")
    total = config.steps
    n, m = w.n, w.m

    snaps = snapshot_steps(total, config.trace_stride)
    snap_mask = np.zeros(total + 1, dtype=bool)
    snap_mask[snaps] = True

    events = np.zeros((total + 1, m), dtype=np.uint8)
    totals_inst = np.zeros((total + 1, m))
    totals_avg = np.zeros((total + 1, m))
    spread = np.zeros((total + 1, m))
    cost_sum_avg = np.zeros(total + 1)
    x_snap = np.zeros((len(snaps), n, m))
    xbar_snap = np.zeros((len(snaps), n, m))
    grad_snap = np.zeros((len(snaps), n, m))

    snap_row = 0
    for k in range(total + 1):
        if k > 0:
            step_world(w)
        events[k] = w.events
        totals_inst[k] = w.totals
        totals_avg[k] = w.x_bar.sum(axis=0)
        spread[k] = w.grads.max(axis=0) - w.grads.min(axis=0)
        cost_sum_avg[k] = w.ensemble.values(w.x_bar).sum()
        if snap_mask[k]:
            x_snap[snap_row] = w.x
            xbar_snap[snap_row] = w.x_bar
            grad_snap[snap_row] = w.grads
            snap_row += 1
    _check_finite(totals_inst, spread, cost_sum_avg)

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
        grad_snap=grad_snap,
        functions=w.functions,
        clamp_low=w.clamp.low,
        clamp_high=w.clamp.high,
        wall_time_s=time.perf_counter() - t0,
    )
