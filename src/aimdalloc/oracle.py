"""Centralized solvers for the capacity-constrained social-cost minimum.

Two independent routes to the same optimum: a dual bisection that exploits
additive separability across resources (exact up to bisection tolerance),
replayed from exact demands at levels that Newton finds on an approximate
one, so that most of its steps need no demand evaluation, and a
projected-gradient method that only needs values and gradients. Either
result carries a KKT-style residual so callers can certify it.

Cost objects follow the same small protocol as elsewhere: ``value(x)`` and
``gradient(x)`` on length-m vectors, plus a truthy ``separable`` attribute
when cross-partials vanish. Every population evaluation (demands,
certificates, the dual bracket and the projected-gradient objective) goes
through ``costs.make_ensemble``: a family ``Population`` evaluates itself, with
the bits of its members' own scalar methods. Objects outside the family are
inverted through rows of their ``gradient`` and bisected without a replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import Population, _check_domain, _check_shape, make_ensemble


#: devices holding at most this fraction of a capacity count as inactive
#: in the KKT certificate and the consensus-derivative estimate
ACTIVE_THRESHOLD = 1e-9


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


def _certificate(x, grads, capacities) -> tuple[float, np.ndarray]:
    """``kkt_residual`` of ``x``, and per resource the mean derivative of its active devices (0 if none)."""
    worst, mu = 0.0, np.zeros(len(capacities))
    for j, cap in enumerate(capacities):
        g_act = grads[x[:, j] > ACTIVE_THRESHOLD * cap, j]
        mu[j] = mean = float(g_act.mean()) if g_act.size else 0.0
        spread = float(g_act.max() - g_act.min()) if g_act.size else 0.0
        if spread:
            spread = spread / mean if mean > 0.0 else np.inf
        feas = abs(float(x[:, j].sum()) - cap) / cap
        # a NaN term reads as inf: max() would drop it unless it came first
        worst = max(worst, *(np.inf if np.isnan(t) else t for t in (feas, spread)))
    return worst, mu


def kkt_residual(functions, x, capacities) -> float:
    """Distance-to-optimality proxy for an allocation matrix.

    Per resource, the larger of the relative feasibility gap and the
    normalized derivative spread (max minus min over devices holding more
    than ``ACTIVE_THRESHOLD`` of capacity, divided by their mean derivative:
    0 with no such device or no spread, inf around a mean at or below 0);
    the result is the max over resources. Zero at the exact optimum; inf
    when a term is NaN. Negative or NaN allocations, and capacities that are
    not positive and finite, raise ``ValueError``.
    """
    x = _check_domain(x)
    capacities = _check_capacities(capacities)
    ensemble = make_ensemble(functions, len(capacities))
    _check_shape(x, len(ensemble), len(capacities))
    return _certificate(x, ensemble.gradients(x), capacities)[0]


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
        below = (ensemble.partial_column(mid, j) <= mu).astype(float)
        # branch-free np.where(below, mid, lo) and np.where(below, hi, mid):
        # exact, since 0 <= lo <= mid <= hi, all finite, and none is -0.0
        lo = np.maximum(lo, mid * below)
        hi = np.maximum(mid, hi * below)
    return np.where(sat, cap, 0.5 * (lo + hi))


def _check_capacities(capacities) -> np.ndarray:
    capacities = np.asarray(capacities, dtype=float)
    if not np.all((capacities > 0.0) & (capacities < np.inf)):  # NaN fails both
        raise ValueError("capacities must be positive and finite")
    return capacities


def solve_separable(functions, capacities, tol: float = 1e-8) -> OptimalAllocation:
    """Dual bisection per resource: equalize derivatives, meet capacity exactly.

    For each resource, drives the common derivative level mu so that the sum
    of the per-device inverse derivatives (``_demand``) hits the capacity
    within ``tol * capacity``, by bisection on [0, mu_hi] with at most 200
    steps. Any function outside the family must declare itself separable.

    The bisection is replayed from exact records. On each side of the
    accepted band, Newton steps on ``Population.newton_demand`` find a
    level 1.1 to 1.3 bands out, and one exact ``_demand`` there makes a
    record; populations without coefficient columns make none. A midpoint at
    or below an exact level that fell short by more than the band then goes
    up, one at or above an exact level that over-supplied by more goes down,
    both unevaluated. ``_demand`` is nondecreasing in mu for any
    deterministic ``partial_column`` (outside the family, any deterministic
    ``gradient``): every device's inner bisection visits the same midpoints
    and compares the same partials against mu, and the pairwise sum keeps
    that order. So every skipped step takes the branch plain bisection would
    have taken, whatever the Newton demand returned: ``x_star``, ``mu`` and
    ``iterations`` (the count of bisection steps) are bit for bit those of
    plain bisection.
    """
    capacities = _check_capacities(capacities)
    ensemble = make_ensemble(functions, len(capacities))
    if not isinstance(ensemble, Population) and not all(getattr(f, "separable", False) for f in ensemble.functions):
        raise UnsupportedFunctionError(
            "solve_separable needs additively separable costs; use solve_projected_gradient instead"
        )
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    n, m = len(ensemble), len(capacities)
    inner_iters = int(np.ceil(np.log2(max(n, 2) / tol))) + 5
    x_star = np.zeros((n, m))
    mu = np.zeros(m)
    outer_total = 0

    for j, cap in enumerate(capacities):
        # the functions' own partials; partial_column's Horner form rounds differently
        at_cap = np.zeros((n, m))
        at_cap[:, j] = cap
        mu_hi = float(ensemble.gradients(at_cap)[:, j].max())
        if mu_hi <= 0.0:
            raise BracketError(f"resource {j}: all derivatives vanish up to capacity")
        band = tol * cap
        # the largest exact level short by more than the band, the smallest over by more
        short, over = -np.inf, np.inf

        def gap_at(level):
            nonlocal short, over
            gap = _demand(ensemble, j, level, cap, inner_iters).sum() - cap
            if gap < -band:
                short = max(short, level)
            elif gap > band:
                over = min(over, level)
            return gap

        # make sure the upper end over-supplies; expand if numerically short
        for _ in range(64):
            if gap_at(mu_hi) >= 0.0:
                break
            mu_hi *= 2.0
        else:
            raise BracketError(f"resource {j}: could not bracket capacity")

        # Newton on the approximate demand from min_i p_i(total / n), where no
        # device demands more than total / n. Each demand min(p_i^-1(mu), cap) is
        # concave in mu (p_i is convex and increasing), so the sum climbs to total
        # without passing it. Aimed 1.2 bands past capacity and stopped within 0.1,
        # it ends 1.1 to 1.3 bands out, where the exact demand misses the band too.
        for side in (-1.0, 1.0) if isinstance(ensemble, Population) else ():
            total = cap + 1.2 * side * band
            level, t = ensemble.partial_column(total / n, j).min(), None
            for _ in range(40):
                t, slope = ensemble.newton_demand(level, j, cap, t)
                excess, rise = t.sum() - total, slope.sum()
                if not (abs(excess) > 0.1 * band and rise > 0.0):
                    break  # in the band, or no slope left to follow
                level -= excess / rise
            if 0.0 < level < mu_hi:
                gap_at(level)

        mu_lo = 0.0
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

    residual = _certificate(x_star, ensemble.gradients(x_star), capacities)[0]
    return OptimalAllocation(
        x_star=x_star, mu=mu, kkt_residual=residual, iterations=outer_total
    )


def project_capacity_simplex(v: np.ndarray, capacity: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = capacity} (sort-based)."""
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
    returns the last iterate flagged ``converged=False``. ``mu`` is the last
    certificate's mean derivative over active devices.
    """
    capacities = _check_capacities(capacities)
    ensemble = make_ensemble(functions, len(capacities))
    n, m = len(ensemble), len(capacities)

    if x0 is None:
        x = np.tile(capacities / n, (n, 1))
    else:
        x = _check_shape(x0, n, m, "x0").copy()
        for j in range(m):
            x[:, j] = project_capacity_simplex(x[:, j], capacities[j])

    def total_cost(mat):
        # sequential sum, as the scalar API would accumulate it
        return float(sum(ensemble.values(mat)))

    fx = total_cost(x)
    grads = ensemble.gradients(x)
    step = 1.0
    for it in range(max_iters + 1):
        residual, mu = _certificate(x, grads, capacities)
        if residual <= tol or it == max_iters:
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
        grads = ensemble.gradients(x)
        step *= 1.25
    return OptimalAllocation(
        x_star=x, mu=mu, kkt_residual=residual, iterations=it, converged=bool(residual <= tol),
    )

