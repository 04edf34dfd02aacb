"""Synchronous-round simulation of n devices sharing m capacity-limited resources.

Round structure, from the state at step k: devices react to the event bits
S(k) (back off where a bit is set, otherwise grow by alpha), averages update,
and the control unit evaluates the new totals to produce S(k+1) for the next
round. Demand measured at a step is therefore acted on exactly one step
later, which bounds the instantaneous overshoot by n * alpha per resource.

The whole population updates as (n, m) matrices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import aimd
from .aimd import ClampStats, DegenerateAverageError
from .config import Config, config_hash
from .control import capacity_event_bits
from .costs import CostFunction, make_ensemble, sample_cost_functions


class SimulationError(RuntimeError):
    """A run aborted; the message carries the cause (and the step, if a round failed)."""


@dataclass(frozen=True)
class SimContext:
    """Immutable per-run data shared by all world states of a run."""

    n: int
    m: int
    mode: str
    functions: tuple
    ensemble: object
    capacity: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma_cap: np.ndarray
    gamma_norm: np.ndarray
    clamp: ClampStats


@dataclass(frozen=True)
class WorldState:
    """State of every device at one step, plus the event bits they will react to.

    ``grads`` caches each device's cost gradient at its current averages; it
    is what the back-off scaling rule reads this round. The stochastic stream
    ``rng`` is shared along a trajectory and advances on event steps.
    """

    ctx: SimContext
    x: np.ndarray
    x_bar: np.ndarray
    grads: np.ndarray
    events: np.ndarray
    k: int
    rng: np.random.Generator


def resolve_functions(config: Config) -> tuple[CostFunction, ...]:
    """The device cost functions a config denotes (sampling from the seed)."""
    if config.cost_spec.kind == "explicit":
        return config.cost_spec.functions
    stream = np.random.default_rng(np.random.SeedSequence([config.seed, 0]))
    return sample_cost_functions(stream, config.n, config.m)


def build_world(functions, params, mode: str, seed: int) -> WorldState:
    """All-zero starting state for an explicit device population.

    ``functions`` may be family members or any objects with ``value``/
    ``gradient`` on length-m vectors; ``params`` is one ResourceParams per
    resource. The stochastic back-off stream is derived from ``seed``.
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
    ctx = SimContext(
        n=n,
        m=m,
        mode=mode,
        functions=functions,
        ensemble=ensemble,
        capacity=np.array([p.capacity for p in params]),
        alpha=np.array([p.alpha for p in params]),
        beta=np.array([p.beta for p in params]),
        gamma_cap=np.array([p.gamma_cap for p in params]),
        gamma_norm=np.array([p.gamma_norm for p in params]),
        clamp=ClampStats(),
    )
    zeros = np.zeros((n, m))
    return WorldState(
        ctx=ctx,
        x=zeros.copy(),
        x_bar=zeros.copy(),
        grads=np.asarray(ensemble.gradients(zeros), dtype=float),
        events=np.zeros(m, dtype=np.uint8),
        k=0,
        rng=np.random.default_rng(np.random.SeedSequence([seed, 1])),
    )


def init_world(config: Config, mode: str | None = None) -> WorldState:
    """All-zero starting state with cost functions sampled or taken from config.

    The sampling stream and the stochastic back-off stream are derived from
    the run seed independently, so the same seed yields the same functions
    in both modes.
    """
    return build_world(
        resolve_functions(config), config.resources, mode or config.mode, config.seed
    )


def step_world(w: WorldState) -> WorldState:
    """Advance one synchronous round; returns the new state.

    Event columns back off (deterministically or stochastically per the run
    mode, with the scaling factor computed from the averages before this
    update); all other columns grow additively. A degenerate average under an
    event aborts the run with step context.
    """
    ctx = w.ctx
    x_next = aimd.additive_increase(w.x, ctx.alpha)
    for j in np.flatnonzero(w.events):
        try:
            lam = aimd.scaling_factor(
                ctx.gamma_norm[j], w.grads[:, j], w.x_bar[:, j], ctx.clamp
            )
        except DegenerateAverageError as e:
            raise SimulationError(f"step {w.k}, resource {j}: {e}") from e
        if ctx.mode == "deterministic":
            x_next[:, j] = aimd.md_deterministic(w.x[:, j], lam, ctx.beta[j])
        else:
            x_next[:, j] = aimd.md_stochastic(w.x[:, j], lam, ctx.beta[j], w.rng)
    x_bar_next = aimd.update_average(w.x_bar, x_next, w.k)
    totals = x_next.sum(axis=0)
    return WorldState(
        ctx=ctx,
        x=x_next,
        x_bar=x_bar_next,
        grads=ctx.ensemble.gradients(x_bar_next),
        events=capacity_event_bits(totals, ctx.capacity, ctx.gamma_cap),
        k=w.k + 1,
        rng=w.rng,
    )


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

    @property
    def final_x(self) -> np.ndarray:
        return self.x_snap[-1]

    @property
    def final_xbar(self) -> np.ndarray:
        return self.xbar_snap[-1]

    @cached_property
    def cumulative_event_bits(self) -> np.ndarray:
        """(K+1, m) running count of broadcast one-bits per resource."""
        return np.cumsum(self.events.astype(np.int64), axis=0)


def run(config: Config, mode: str | None = None, world: WorldState | None = None) -> Trace:
    """Simulate ``config.steps`` rounds and record the trace.

    ``mode`` overrides ``config.mode`` (handy when a config says "both" and
    the caller runs each variant separately). A prebuilt ``world`` (from
    ``build_world``) substitutes for the config's population, which is how
    hand-built cost functions get full traces; its shape must match the
    config.
    """
    if config.steps < 1:
        raise ValueError("need at least one step")
    t0 = time.perf_counter()
    if world is None:
        w = init_world(config, mode=mode)
    else:
        w = world
        if (w.ctx.n, w.ctx.m) != (config.n, config.m):
            raise ValueError(
                f"world shape ({w.ctx.n}, {w.ctx.m}) does not match config "
                f"({config.n}, {config.m})"
            )
        if mode is not None and mode != w.ctx.mode:
            raise ValueError(f"world was built for mode {w.ctx.mode!r}, not {mode!r}")
        if w.k != 0:
            raise ValueError("pass a freshly built world (k = 0); traces start at step 0")
    ctx = w.ctx
    total = config.steps
    n, m = ctx.n, ctx.m

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
            w = step_world(w)
        events[k] = w.events
        totals_inst[k] = w.x.sum(axis=0)
        totals_avg[k] = w.x_bar.sum(axis=0)
        spread[k] = w.grads.max(axis=0) - w.grads.min(axis=0)
        cost_sum_avg[k] = ctx.ensemble.values(w.x_bar).sum()
        if snap_mask[k]:
            x_snap[snap_row] = w.x
            xbar_snap[snap_row] = w.x_bar
            grad_snap[snap_row] = w.grads
            snap_row += 1

    return Trace(
        config=config,
        config_hash=config_hash(config),
        mode=ctx.mode,
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
        functions=ctx.functions,
        clamp_low=ctx.clamp.low,
        clamp_high=ctx.clamp.high,
        wall_time_s=time.perf_counter() - t0,
    )
