"""Hand-built cost objects, small configs and worlds shared by several test modules."""

import functools
import time

import numpy as np

from aimdalloc import Config, ResourceParams, build_world, engine
from aimdalloc import aimd
from aimdalloc.aimd import AVERAGE_FLOOR, LAMBDA_MARGIN, DegenerateAverageError
from aimdalloc.config import config_hash
from aimdalloc.costs import (
    AssumptionReport,
    AssumptionViolation,
    LoopEnsemble,
    make_ensemble,
    sample_cost_functions,
)
from aimdalloc.control import capacity_event_bits
from aimdalloc.engine import SimulationError, Trace, resolve_functions, snapshot_steps
from aimdalloc.oracle import (
    BracketError,
    OptimalAllocation,
    UnsupportedFunctionError,
    kkt_residual,
)


class Echo:
    """Cost stand-in whose gradient returns its argument unchanged, so grad_at_xbar repeats x_bar."""

    def value(self, x) -> float:
        return 0.0

    def gradient(self, x) -> np.ndarray:
        return x


class WeightedSquare:
    """f(x) = w * sum(x_j^2); the simplest strictly convex increasing cost."""

    separable = True

    def __init__(self, w: float):
        self.w = float(w)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.w * (x * x).sum())

    def gradient(self, x) -> np.ndarray:
        return 2.0 * self.w * np.asarray(x, dtype=float)

    def partial(self, x, j: int) -> float:
        return float(2.0 * self.w * np.asarray(x, dtype=float)[j])


class Negation:
    """f(x) = -sum(x): decreasing, so the increasing-cost check must fail."""

    separable = True

    def value(self, x) -> float:
        return float(-np.asarray(x, dtype=float).sum())

    def gradient(self, x) -> np.ndarray:
        return -np.ones_like(np.asarray(x, dtype=float))

    def partial(self, x, j: int) -> float:
        return -1.0


class Constant:
    """f(x) = 1: derivative is zero everywhere, never strictly positive."""

    separable = True

    def value(self, x) -> float:
        return 1.0

    def gradient(self, x) -> np.ndarray:
        return np.zeros_like(np.asarray(x, dtype=float))

    def partial(self, x, j: int) -> float:
        return 0.0


class Coupled:
    """f(x) = (sum(x))^2: convex but not additively separable."""

    separable = False

    def value(self, x) -> float:
        s = float(np.asarray(x, dtype=float).sum())
        return s * s

    def gradient(self, x) -> np.ndarray:
        s = float(np.asarray(x, dtype=float).sum())
        return np.full_like(np.asarray(x, dtype=float), 2.0 * s)

    def partial(self, x, j: int) -> float:
        return float(2.0 * np.asarray(x, dtype=float).sum())


class RootSum:
    """f(x) = sum(sqrt(x_j)): increasing but concave, so its partials fall."""

    separable = True

    def value(self, x) -> float:
        return float(np.sqrt(np.asarray(x, dtype=float)).sum())

    def gradient(self, x) -> np.ndarray:
        return 0.5 / np.sqrt(np.asarray(x, dtype=float))

    def partial(self, x, j: int) -> float:
        return float(self.gradient(x)[j])


class Wrapped:
    """Delegates to another cost object, hiding its type from the family fast paths."""

    separable = True

    def __init__(self, f):
        self._f = f

    def value(self, x):
        return self._f.value(x)

    def gradient(self, x):
        return self._f.gradient(x)

    def partial(self, x, j):
        return self._f.partial(x, j)


class Wiggly:
    """w * sum(x_j^2) plus a ripple of period 2*pi*1e-9 that makes the partial non-monotone.

    The partial w * (2 x_j + 3e-9 sin(1e9 x_j)) falls on short stretches,
    so the demand it induces jumps by at most a few 1e-9 per device.
    """

    separable = True

    def __init__(self, w: float):
        self.w = float(w)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.w * (x * x + 3e-18 * (1.0 - np.cos(1e9 * x))).sum())

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.w * (2.0 * x + 3e-9 * np.sin(1e9 * x))

    def partial(self, x, j: int) -> float:
        return float(self.gradient(x)[j])


class BlowUp:
    """w * sum(x_j^2) whose partial j turns ``bad`` (NaN or inf) once x_j > thresholds[j]."""

    separable = True

    def __init__(self, w: float, thresholds, bad: float):
        self.w = float(w)
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.bad = bad

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.w * (x * x).sum())

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x > self.thresholds, self.bad, 2.0 * self.w * x)

    def partial(self, x, j: int) -> float:
        return float(self.gradient(x)[j])


@functools.cache
def sampled_functions(n):
    """``sample_cost_functions(n, n)``, drawn once per session; 10 000 draws take about 0.1 s."""
    return sample_cost_functions(n, n)


def tiny_config(**overrides):
    """Two sampled devices on three resources, ten deterministic rounds."""
    fields = dict(
        n=2,
        m=3,
        steps=10,
        mode="deterministic",
        resources=(
            ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.01),
            ResourceParams(capacity=0.8, alpha=0.25, beta=0.6, gamma_norm=0.01),
            ResourceParams(capacity=1.2, alpha=0.2, beta=0.5, gamma_norm=0.01),
        ),
        seed=5,
    )
    fields.update(overrides)
    return Config(**fields)


def hand_world(mode="deterministic"):
    """Two single-resource quadratics with slopes 2w.

    Their scaling factors are the constants 0.1 * 2w, i.e. 0.2 and 0.4.
    """
    return build_world(
        [WeightedSquare(1.0), WeightedSquare(2.0)],
        [ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1)],
        mode,
        seed=1,
    )


def reference_demand(ensemble, j, mu, cap, iters):
    """Reference demand bisection: each step moves the brackets with two ``np.where`` calls.

    This is ``oracle._demand`` before its bracket update became a branch-free
    select, kept verbatim so tests can require the same bits.
    """
    n = len(ensemble)
    sat = ensemble.partial_column(np.full(n, cap), j) <= mu
    lo = np.zeros(n)
    hi = np.full(n, cap)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        below = ensemble.partial_column(mid, j) <= mu
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.where(sat, cap, 0.5 * (lo + hi))


def plain_bisection_solve(functions, capacities, tol: float = 1e-8) -> OptimalAllocation:
    """Reference dual solver: every bisection step evaluates the demand.

    This is ``solve_separable`` before its bisection was replayed from
    certified brackets, kept verbatim so tests can require the same bits;
    its demand is ``reference_demand``.

    For each resource, drives the common derivative level mu so that the sum
    of the per-device inverse derivatives hits the capacity within
    ``tol * capacity``. Every supplied function must declare itself separable.
    """
    functions = list(functions)
    if not functions:
        raise ValueError("need at least one cost function")
    for f in functions:
        if not getattr(f, "separable", False):
            raise UnsupportedFunctionError(
                "solve_separable needs additively separable costs; "
                "use solve_projected_gradient instead"
            )
    capacities = np.asarray(capacities, dtype=float)
    if np.any(capacities <= 0):
        raise ValueError("capacities must be positive")
    n, m = len(functions), len(capacities)
    inner_iters = int(np.ceil(np.log2(max(n, 2) / tol))) + 5
    x_star = np.zeros((n, m))
    mu = np.zeros(m)
    outer_total = 0
    ensemble = make_ensemble(functions, m)
    per_function = LoopEnsemble(functions, m)

    for j, cap in enumerate(capacities):
        mu_hi = float(per_function.partial_column(np.full(n, cap), j).max())
        if mu_hi <= 0.0:
            raise BracketError(f"resource {j}: all derivatives vanish up to capacity")

        def demand(level):
            return reference_demand(ensemble, j, level, cap, inner_iters)

        # make sure the upper end over-supplies; expand if numerically short
        for _ in range(64):
            if demand(mu_hi).sum() >= cap:
                break
            mu_hi *= 2.0
        else:
            raise BracketError(f"resource {j}: could not bracket capacity")

        mu_lo = 0.0
        xs = None
        for _ in range(200):
            outer_total += 1
            mid = 0.5 * (mu_lo + mu_hi)
            xs = demand(mid)
            gap = xs.sum() - cap
            if abs(gap) <= tol * cap:
                mu[j] = mid
                break
            if gap > 0:
                mu_hi = mid
            else:
                mu_lo = mid
        else:
            raise BracketError(
                f"resource {j}: dual bisection did not reach tolerance {tol}"
            )
        x_star[:, j] = xs

    residual = kkt_residual(functions, x_star, capacities)
    return OptimalAllocation(
        x_star=x_star, mu=mu, kkt_residual=residual, iterations=outer_total
    )


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def reference_export_csv(trace, report, out) -> None:
    """Reference CSV writer: one ``format`` call and one f-string per cell.

    These are ``export_trace``'s trace.csv, events.csv and metrics.csv loops
    before it streamed ``%``-formatted row blocks, kept verbatim so tests can
    require the same bytes, except that trace.csv's gradients come from one
    ensemble evaluation per snapshot, since a ``Trace`` no longer keeps them.
    ``out`` must be an existing directory.
    """
    m = trace.m
    ensemble = make_ensemble(trace.functions, m)

    lines = ["step,device,resource,x,x_bar,grad_at_xbar"]
    for s, step in enumerate(trace.snap_steps):
        grad = ensemble.gradients(trace.xbar_snap[s])
        for i in range(trace.n):
            for j in range(m):
                lines.append(
                    f"{int(step)},{i},{j},"
                    f"{_fmt(trace.x_snap[s, i, j])},"
                    f"{_fmt(trace.xbar_snap[s, i, j])},"
                    f"{_fmt(grad[i, j])}"
                )
    (out / "trace.csv").write_text("\n".join(lines) + "\n")

    lines = ["step,resource,event"]
    for k in range(trace.events.shape[0]):
        for j in range(m):
            lines.append(f"{k},{j},{int(trace.events[k, j])}")
    (out / "events.csv").write_text("\n".join(lines) + "\n")

    cols = (
        ["step"]
        + [f"spread_r{j}" for j in range(m)]
        + ["cost_ratio"]
        + [f"sum_avg_r{j}" for j in range(m)]
        + [f"sum_inst_r{j}" for j in range(m)]
        + [f"cum_bits_r{j}" for j in range(m)]
    )
    lines = [",".join(cols)]
    cum = trace.cumulative_event_bits
    for k in range(len(trace.steps)):
        parts = [str(int(trace.steps[k]))]
        parts += [_fmt(v) for v in trace.spread[k]]
        parts.append(_fmt(report.cost_ratio[k]))
        parts += [_fmt(v) for v in trace.totals_avg[k]]
        parts += [_fmt(v) for v in trace.totals_inst[k]]
        parts += [str(int(v)) for v in cum[k]]
        lines.append(",".join(parts))
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")


def closed_form_value(case_id, x0, x1, x2, a, b, c, d):
    """Cost of family case ``case_id`` at (x0, x1, x2) with weights a, b, c, d, in closed form.

    The paper's three cases as ``costs`` wrote them before its coefficient
    tables became the one formula, kept verbatim as the tables' reference.
    Coordinates and weights broadcast.
    """
    if case_id == 1:
        return (
            a * (x0**2 + 0.5 * x0**4)
            + b * (2.0 * x1**4 + 0.5 * x1**6)
            + c * (x2**2 + 0.25 * x2**4)
            + 0.125 * d * x2**8
        )
    if case_id == 2:
        return a * x0**2 + b * (x1**2 + 0.5 * x1**4) + 1.5 * c * x2**4
    return (
        a * x0**6 / 3.0
        + b * x1**2
        + c * x2**2
        + d * (x1**6 / 6.0 + 0.125 * x2**4)
    )


def closed_form_gradient(case_id, x0, x1, x2, a, b, c, d):
    """The three partials of family case ``case_id``; kept and broadcast like ``closed_form_value``.

    Partial k reads only x_k (the cases are separable).
    """
    if case_id == 1:
        g0 = a * (2.0 * x0 + 2.0 * x0**3)
        g1 = b * (8.0 * x1**3 + 3.0 * x1**5)
        g2 = c * (2.0 * x2 + x2**3) + d * x2**7
    elif case_id == 2:
        g0 = 2.0 * a * x0
        g1 = b * (2.0 * x1 + 2.0 * x1**3)
        g2 = 6.0 * c * x2**3
    else:
        g0 = 2.0 * a * x0**5
        g1 = 2.0 * b * x1 + d * x1**5
        g2 = 2.0 * c * x2 + 0.5 * d * x2**3
    return g0, g1, g2


def per_row_cost_tables(functions):
    """Reference ``Population`` tables, filled one function at a time.

    This is the original table fill, before it filled each case's
    rows with one indexed assignment, kept verbatim so tests can require the
    same bits. Returns ``(v2, v4, v6, v8), (g1, g3, g5, g7)``.
    """
    n = len(functions)
    m = 3
    v2 = np.zeros((n, m))
    v4 = np.zeros((n, m))
    v6 = np.zeros((n, m))
    v8 = np.zeros((n, m))
    g1 = np.zeros((n, m))
    g3 = np.zeros((n, m))
    g5 = np.zeros((n, m))
    g7 = np.zeros((n, m))
    for i, f in enumerate(functions):
        a, b, c, d = f.a, f.b, f.c, f.d
        if f.case_id == 1:
            v2[i] = (a, 0.0, c)
            v4[i] = (0.5 * a, 2.0 * b, 0.25 * c)
            v6[i] = (0.0, 0.5 * b, 0.0)
            v8[i] = (0.0, 0.0, 0.125 * d)
            g1[i] = (2.0 * a, 0.0, 2.0 * c)
            g3[i] = (2.0 * a, 8.0 * b, c)
            g5[i] = (0.0, 3.0 * b, 0.0)
            g7[i] = (0.0, 0.0, d)
        elif f.case_id == 2:
            v2[i] = (a, b, 0.0)
            v4[i] = (0.0, 0.5 * b, 1.5 * c)
            g1[i] = (2.0 * a, 2.0 * b, 0.0)
            g3[i] = (0.0, 2.0 * b, 6.0 * c)
        else:
            v2[i] = (0.0, b, c)
            v4[i] = (0.0, 0.0, 0.125 * d)
            v6[i] = (a / 3.0, d / 6.0, 0.0)
            g1[i] = (0.0, 2.0 * b, 2.0 * c)
            g3[i] = (0.0, 0.0, 0.5 * d)
            g5[i] = (2.0 * a, d, 0.0)
    return (v2, v4, v6, v8), (g1, g3, g5, g7)


def reference_gradients(ensemble, x):
    """Reference ``Population.gradients``: one expression, a temporary per term.

    This is the method before it weighted and added the terms in place, kept
    verbatim so tests can require the same bits.
    """
    g1, g3, g5, g7 = ensemble._tables[0]
    p2 = x * x
    p3 = p2 * x
    p5 = p3 * p2
    p7 = p5 * p2
    return g1 * x + g3 * p3 + g5 * p5 + g7 * p7


def reference_values(ensemble, x):
    """Reference ``Population.values``: each device's resources added by ``sum(axis=-1)``.

    This is the method before it added the resource columns one by one, kept
    verbatim so tests can require the same bits.
    """
    v2, v4, v6, v8 = ensemble._tables[1]
    x = np.asarray(x, dtype=float)
    p2 = x * x
    p4 = p2 * p2
    p6 = p4 * p2
    p8 = p4 * p4
    p2 *= v2
    p2 += np.multiply(p4, v4, out=p4)
    p2 += np.multiply(p6, v6, out=p6)
    p2 += np.multiply(p8, v8, out=p8)
    return p2.sum(axis=-1)


def reference_partial_column(ensemble, t, j):
    """Reference ``Population.partial_column``: Horner form on strided table columns.

    This is the method before it read each resource's coefficients from
    contiguous rows, kept verbatim so tests can require the same bits.
    """
    c1, c3, c5, c7 = (g[:, j] for g in ensemble._tables[0])
    t2 = t * t
    return ((c7 * t2 + c5) * t2 + c3) * t2 * t + c1 * t


def reference_device_sum(a):
    """Reference device totals of an (n, m) or (B, n, m) array: numpy's reduce.

    These are ``step_world``'s ``x_next.sum(axis=0)`` and the block
    recorder's ``xb.sum(axis=1)`` before both became one running sum, kept
    verbatim so tests can require the same bits.
    """
    return a.sum(axis=0) if a.ndim == 2 else a.sum(axis=1)


def reference_scaling_factor(gamma_norm, grad, x_bar_j, stats=None):
    """Reference back-off scaling factor: ``np.any`` guard, ``np.clip``, two counts.

    This is ``aimd.scaling_factor`` before its guard read the minimum and its
    clamp counts were skipped on unclamped calls, kept verbatim so tests can
    require the same bits, counts and errors.
    """
    x_bar_arr = np.asarray(x_bar_j, dtype=float)
    if np.any(x_bar_arr <= AVERAGE_FLOOR):
        raise DegenerateAverageError(
            f"average allocation <= {AVERAGE_FLOOR} in scaling factor"
        )
    raw = gamma_norm * np.asarray(grad, dtype=float) / x_bar_arr
    lam = np.clip(raw, LAMBDA_MARGIN, 1.0 - LAMBDA_MARGIN)
    if stats is not None:
        stats.low += int(np.count_nonzero(raw < LAMBDA_MARGIN))
        stats.high += int(np.count_nonzero(raw > 1.0 - LAMBDA_MARGIN))
    return float(lam) if lam.ndim == 0 else lam


def reference_step_world(w):
    """Reference round: gathers the event columns, backs them off, scatters them back.

    This is ``engine.step_world`` before every resource column took the same
    passes over reused buffers, kept verbatim so tests can require the same
    bits, counts, draws and errors. It rebinds ``w.x``, ``w.x_bar``,
    ``w.grads``, ``w.totals`` and ``w.events`` to new arrays.
    """
    x_next = aimd.additive_increase(w.x, w.alpha)
    cols = w.events.nonzero()[0]
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
    w.totals = engine._device_sum(x_next)
    w.events = capacity_event_bits(w.totals, w.capacity, w.gamma_cap)
    w.k += 1


def reference_run(config, mode=None, world=None):
    """Reference recorder: every full-rate series filled one round at a time.

    This is ``engine.run``'s per-round recording loop before the recorder
    filled the averages' series once per block of rounds, kept verbatim so
    tests can require the same bits; its rounds are ``reference_step_world``.
    The trace budget and world checks are left out; ``world``, when given,
    must be freshly built for ``config``. Returns the ``Trace`` and, beside
    it, the (S, n, m) gradients the rounds computed at the snapshot steps.
    """
    total, n, m = config.steps, config.n, config.m
    snaps = snapshot_steps(total, config.trace_stride)
    t0 = time.perf_counter()
    if world is None:
        w = build_world(
            resolve_functions(config), config.resources, mode or config.mode, config.seed
        )
    else:
        w = world

    snap_mask = np.zeros(total + 1, dtype=bool)
    snap_mask[snaps] = True

    events = np.zeros((total + 1, m), dtype=np.uint8)
    totals_inst = np.zeros((total + 1, m))
    totals_avg = np.zeros((total + 1, m))
    spread = np.zeros((total + 1, m))
    cost_sum_avg = np.zeros(total + 1)
    x_snap = np.zeros((len(snaps), n, m))
    xbar_snap = np.zeros((len(snaps), n, m))
    grads_at_snaps = np.zeros((len(snaps), n, m))

    snap_row = 0
    for k in range(total + 1):
        if k > 0:
            reference_step_world(w)
        events[k] = w.events
        totals_inst[k] = w.totals
        totals_avg[k] = w.x_bar.sum(axis=0)
        spread[k] = w.grads.max(axis=0) - w.grads.min(axis=0)
        cost_sum_avg[k] = w.ensemble.values(w.x_bar).sum()
        if snap_mask[k]:
            x_snap[snap_row] = w.x
            xbar_snap[snap_row] = w.x_bar
            grads_at_snaps[snap_row] = w.grads
            snap_row += 1

    trace = Trace(
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
    return trace, grads_at_snaps


def reference_verify_assumption1(f, box, samples, rng=0):
    """Reference Assumption 1 check: one ``partial`` call per point, axis and bump.

    This is ``costs.verify_assumption1`` before it drew every bump at once
    and evaluated the points through a population ensemble, kept verbatim (input
    checks left out) so tests can require the same report. A bump is drawn
    only after its cell's positivity check passed, so on a failing function
    ``rng`` stops earlier than in the batched check.
    """
    box = [(float(lo), float(hi)) for lo, hi in box]
    rng = np.random.default_rng(rng)
    m = len(box)
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    pts = lows + rng.random((samples, m)) * (highs - lows)
    for row in pts:
        for j in range(m):
            g = float(f.partial(row, j))
            if not g > 0.0:
                return AssumptionReport(
                    passed=False,
                    points_checked=samples,
                    first_violation=AssumptionViolation(
                        kind="positivity",
                        axis=j,
                        point=tuple(row),
                        detail=f"partial {g} is not strictly positive",
                    ),
                )
            bumped = row.copy()
            bumped[j] = row[j] + (highs[j] - row[j]) * float(rng.random())
            g_up = float(f.partial(bumped, j))
            # tiny relative slack for float noise in the closed forms
            if g_up < g * (1.0 - 1e-12) - 1e-15:
                return AssumptionReport(
                    passed=False,
                    points_checked=samples,
                    first_violation=AssumptionViolation(
                        kind="monotonicity",
                        axis=j,
                        point=tuple(row),
                        detail=f"partial fell from {g} to {g_up} along axis {j}",
                    ),
                )
    return AssumptionReport(passed=True, points_checked=samples)


def reference_estimate_gamma(functions, box, grid, safety=1.0):
    """Reference normalization bound: one ``partial`` call per function, point and axis.

    This is ``costs.estimate_gamma`` before it evaluated each lattice point
    through a population ensemble, kept verbatim (input checks left out) so tests
    can require the same bits.
    """
    functions = list(functions)
    box = [(float(lo), float(hi)) for lo, hi in box]
    m = len(box)
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    best = np.full(m, np.inf)
    for f in functions:
        for point in mesh:
            for j in range(m):
                g = float(f.partial(point, j))
                if g == 0.0:
                    continue
                ratio = point[j] / g
                if ratio < best[j]:
                    best[j] = ratio
    if not np.all(np.isfinite(best)):
        bad = [j for j in range(m) if not np.isfinite(best[j])]
        raise ValueError(f"all partials vanished on the grid for resource axes {bad}")
    return safety * best
