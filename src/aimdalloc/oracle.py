"""Centralized solvers for the capacity-constrained social-cost minimum.

Two independent routes to the same optimum: a dual bisection that exploits
additive separability across resources (exact up to bisection tolerance),
replayed from certified brackets so that most of its steps need no demand
evaluation, and a projected-gradient method that only needs values and
gradients. Either result carries a KKT-style residual so callers can
certify it.

Cost objects follow the same small protocol as elsewhere: ``value(x)`` and
``gradient(x)``/``partial(x, j)`` on length-m vectors, plus a truthy
``separable`` attribute when cross-partials vanish. Populations are evaluated
through ``costs.make_ensemble``; certificates, the dual bracket and the
projected-gradient objective use the per-function ``LoopEnsemble`` so they
carry each function's own arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import LoopEnsemble, make_ensemble


#: devices holding at most this fraction of a capacity count as inactive
#: in the KKT certificate and the consensus-derivative estimate
ACTIVE_THRESHOLD = 1e-9

#: evaluation cap of each Illinois search that certifies the dual brackets
_SEARCH_EVALS = 40


class UnsupportedFunctionError(ValueError):
    """The separable solver was given a function it cannot decouple."""


class BracketError(RuntimeError):
    """Dual bisection could not bracket the capacity (degenerate instance)."""


@dataclass
class OptimalAllocation:
    """Solver output: allocations, per-resource multipliers, certificate data.

    ``iterations`` counts the solver's steps: for ``solve_separable`` the
    dual bisection steps summed over resources, skipped ones included, the
    same count plain bisection takes; for ``solve_projected_gradient`` the
    gradient steps.
    """

    x_star: np.ndarray      # (n, m)
    mu: np.ndarray          # (m,)
    kkt_residual: float
    iterations: int
    converged: bool = True


def _derivative_spread_term(x_col, g_col, capacity):
    active = x_col > ACTIVE_THRESHOLD * capacity
    if not np.any(active):
        return 0.0
    g_act = g_col[active]
    spread = float(g_act.max() - g_act.min())
    if spread == 0.0:
        return 0.0
    mean = float(g_act.mean())
    if mean <= 0.0:
        return np.inf
    return spread / mean


def _residual_from_grads(x, grads, capacities):
    worst = 0.0
    for j, cap in enumerate(capacities):
        feas = abs(float(x[:, j].sum()) - cap) / cap
        spread = _derivative_spread_term(x[:, j], grads[:, j], cap)
        worst = max(worst, feas, spread)
    return worst


def kkt_residual(functions, x, capacities) -> float:
    """Distance-to-optimality proxy for an allocation matrix.

    Per resource, the larger of the relative feasibility gap and the
    normalized derivative spread (max minus min over devices holding more
    than ``ACTIVE_THRESHOLD`` of capacity, divided by the mean derivative);
    the result is the max over resources. Zero at the exact optimum.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("allocation matrix has a negative component")
    capacities = np.asarray(capacities, dtype=float)
    if x.shape != (len(functions), len(capacities)):
        raise ValueError(
            f"allocation shape {x.shape} does not match "
            f"({len(functions)}, {len(capacities)})"
        )
    grads = LoopEnsemble(functions, len(capacities)).gradients(x)
    return _residual_from_grads(x, grads, capacities)


def _demand(ensemble, j, mu, cap, iters):
    """Every device's inverse derivative on resource ``j``, by one shared bisection.

    Solves d f_i / d x_j = mu for x_j in [0, cap] with the other coordinates
    at zero (separability). Partials are nondecreasing and zero at zero, so
    the bracket holds wherever the partial at ``cap`` exceeds ``mu``;
    elsewhere the inverse saturates at ``cap``.
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


def _illinois(gap_at, records, cap, target, width, max_evals):
    """Illinois search for a level whose gap is within ``width`` of ``target``.

    Starts from the tightest recorded (level, gap) pairs on either side of
    ``target``; level 0, never evaluated, stands in with gap -cap. Stops at
    the first evaluation inside the band, after ``max_evals`` evaluations, or
    when the bracket cannot shrink further.
    """
    a, ga = max(((lv, g) for lv, g in records if g < target), default=(0.0, -cap))
    above = [(lv, g) for lv, g in records if g > target]
    if not above:
        return
    b, gb = min(above)
    side = 0
    for _ in range(max_evals):
        c = b - (gb - target) * (b - a) / (gb - ga)
        if not a < c < b:
            c = 0.5 * (a + b)
            if not a < c < b:
                return
        gc = gap_at(c)
        if abs(gc - target) <= width:
            return
        if gc < target:
            a, ga = c, gc
            if side < 0:
                gb = target + 0.5 * (gb - target)
            side = -1
        else:
            b, gb = c, gc
            if side > 0:
                ga = target + 0.5 * (ga - target)
            side = 1


def solve_separable(functions, capacities, tol: float = 1e-8) -> OptimalAllocation:
    """Dual bisection per resource: equalize derivatives, meet capacity exactly.

    For each resource, drives the common derivative level mu so that the sum
    of the per-device inverse derivatives (``_demand``) hits the capacity
    within ``tol * capacity``, by bisection on [0, mu_hi] with at most 200
    steps. Every supplied function must declare itself separable.

    The bisection is replayed from certified brackets: an Illinois search
    first records (level, gap) pairs on both sides of the accepted band, then
    the bisection runs step by step, and a midpoint at or below a level whose
    gap fell short by more than the band goes up, one at or above a level
    that over-supplied by more than the band goes down, both unevaluated.
    ``_demand`` is nondecreasing in mu for any deterministic ``partial_column``
    (every device's inner bisection visits the same midpoints and compares
    the same partials against mu), and the pairwise sum over devices keeps
    that order, so every skipped step takes the branch plain bisection would
    have taken: ``x_star``, ``mu`` and ``iterations`` (the count of bisection
    steps) are bit for bit those of plain bisection.
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
        band = tol * cap
        records = []  # every evaluated (level, gap); no demand vectors are kept

        def gap_at(level):
            gap = _demand(ensemble, j, level, cap, inner_iters).sum() - cap
            records.append((level, gap))
            return gap

        # make sure the upper end over-supplies; expand if numerically short
        for _ in range(64):
            if gap_at(mu_hi) >= 0.0:
                break
            mu_hi *= 2.0
        else:
            raise BracketError(f"resource {j}: could not bracket capacity")

        # certify levels just outside the band on both sides, then replay
        _illinois(gap_at, records, cap, -1.5 * band, 0.5 * band, _SEARCH_EVALS)
        _illinois(gap_at, records, cap, 1.5 * band, 0.5 * band, _SEARCH_EVALS)
        short = max((lv for lv, g in records if g < -band), default=-np.inf)
        over = min((lv for lv, g in records if g > band), default=np.inf)

        mu_lo = 0.0
        xs = None
        for _ in range(200):
            outer_total += 1
            mid = 0.5 * (mu_lo + mu_hi)
            if mid <= short:
                mu_lo = mid
                continue
            if mid >= over:
                mu_hi = mid
                continue
            xs = _demand(ensemble, j, mid, cap, inner_iters)
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


def project_capacity_simplex(v, capacity: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = capacity} (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = np.nonzero(u + (capacity - css) / ks > 0)[0][-1]
    tau = (capacity - css[rho]) / (rho + 1)
    return np.maximum(v + tau, 0.0)


def solve_projected_gradient(
    functions,
    capacities,
    tol: float = 1e-6,
    max_iters: int = 50_000,
    x0: np.ndarray | None = None,
) -> OptimalAllocation:
    """Projected gradient descent on the product of capacity simplices.

    Backtracking line search against the usual quadratic upper bound; stops
    as soon as the KKT residual drops to ``tol`` (checked before the first
    step, so an optimal start returns at iteration 0). Hitting ``max_iters``
    returns the best iterate flagged ``converged=False``.
    """
    functions = list(functions)
    if not functions:
        raise ValueError("need at least one cost function")
    capacities = np.asarray(capacities, dtype=float)
    if np.any(capacities <= 0):
        raise ValueError("capacities must be positive")
    n, m = len(functions), len(capacities)

    if x0 is None:
        x = np.tile(capacities / n, (n, 1))
    else:
        x = np.asarray(x0, dtype=float).copy()
        if x.shape != (n, m):
            raise ValueError(f"x0 shape {x.shape} does not match ({n}, {m})")
        for j in range(m):
            x[:, j] = project_capacity_simplex(x[:, j], capacities[j])

    per_function = LoopEnsemble(functions, m)

    def total_cost(mat):
        # sequential sum, as the scalar API would accumulate it
        return float(sum(per_function.values(mat)))

    fx = total_cost(x)
    grads = per_function.gradients(x)
    step = 1.0
    for it in range(max_iters + 1):
        residual = _residual_from_grads(x, grads, capacities)
        if residual <= tol:
            return OptimalAllocation(
                x_star=x, mu=_mean_active_gradient(x, grads, capacities),
                kkt_residual=residual, iterations=it, converged=True,
            )
        if it == max_iters:
            break
        while True:
            cand = np.empty_like(x)
            for j in range(m):
                cand[:, j] = project_capacity_simplex(x[:, j] - step * grads[:, j], capacities[j])
            diff = cand - x
            f_cand = total_cost(cand)
            bound = fx + float((grads * diff).sum()) + float((diff * diff).sum()) / (2.0 * step)
            if f_cand <= bound + 1e-15 * max(1.0, abs(fx)):
                break
            step *= 0.5
            if step < 1e-18:
                break
        x, fx = cand, f_cand
        grads = per_function.gradients(x)
        step *= 1.25

    residual = _residual_from_grads(x, grads, capacities)
    return OptimalAllocation(
        x_star=x, mu=_mean_active_gradient(x, grads, capacities),
        kkt_residual=residual, iterations=max_iters, converged=False,
    )


def _mean_active_gradient(x, grads, capacities):
    """Per-resource consensus derivative estimate (mean over active devices)."""
    mu = np.zeros(len(capacities))
    for j, cap in enumerate(capacities):
        active = x[:, j] > ACTIVE_THRESHOLD * cap
        mu[j] = float(grads[active, j].mean()) if np.any(active) else 0.0
    return mu
