"""Centralized solvers for the capacity-constrained social-cost minimum.

Two independent routes to the same optimum: a dual bisection that exploits
additive separability across resources (exact up to bisection tolerance),
replayed from brackets found on a Newton demand and certified by the exact
one, so that most of its steps need no demand evaluation, and a
projected-gradient method that only needs values and gradients. Either
result carries a KKT-style residual so callers can certify it.

Cost objects follow the same small protocol as elsewhere: ``value(x)`` and
``gradient(x)`` on length-m vectors, plus a truthy ``separable`` attribute
when cross-partials vanish. Populations are evaluated through
``costs.make_ensemble``; certificates, the dual bracket and the
projected-gradient objective use the per-function ``LoopEnsemble`` so they
carry each function's own arithmetic. Objects outside the built-in family are
bracketed and inverted through rows of their ``gradient``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostEnsemble, LoopEnsemble, _check_domain, make_ensemble


#: devices holding at most this fraction of a capacity count as inactive
#: in the KKT certificate and the consensus-derivative estimate
ACTIVE_THRESHOLD = 1e-9

#: evaluation cap of each Illinois search that finds the dual brackets
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
        # a NaN term reads as inf: max() would drop it unless it came first
        worst = max(worst, *(np.inf if np.isnan(t) else t for t in (feas, spread)))
    return worst


def kkt_residual(functions, x, capacities) -> float:
    """Distance-to-optimality proxy for an allocation matrix.

    Per resource, the larger of the relative feasibility gap and the
    normalized derivative spread (max minus min over devices holding more
    than ``ACTIVE_THRESHOLD`` of capacity, divided by the mean derivative);
    the result is the max over resources. Zero at the exact optimum; inf
    when a term is NaN. Negative or NaN allocations raise ``ValueError``.
    """
    x = _check_domain(x)
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
        below = (ensemble.partial_column(mid, j) <= mu).astype(float)
        # branch-free np.where(below, mid, lo) and np.where(below, hi, mid):
        # exact, since 0 <= lo <= mid <= hi, all finite, and none is -0.0
        lo = np.maximum(lo, mid * below)
        hi = np.maximum(mid, hi * below)
    return np.where(sat, cap, 0.5 * (lo + hi))


def _newton_demand(columns, mu, cap):
    """Approximate ``_demand``: five Newton passes on one resource's coefficient columns.

    The partial c1 t + c3 t^3 + c5 t^5 + c7 t^7 is increasing and convex for
    t >= 0, so Newton descends to its root from where one term alone reaches
    mu (a zero term never does). A wrong result only costs certification.
    """
    c1, c3, c5, c7 = columns
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.min((mu / columns) ** [[1.0], [1 / 3], [1 / 5], [1 / 7]], axis=0)
        for _ in range(5):
            t2 = t * t
            excess = ((c7 * t2 + c5) * t2 + c3) * t2 * t + c1 * t - mu
            t = t - excess / (((7.0 * c7 * t2 + 5.0 * c5) * t2 + 3.0 * c3) * t2 + c1)
    return np.minimum(t, cap)


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

    The bisection is replayed from exact records. Illinois searches find a
    level just outside the accepted band on each side, on the Newton demand
    where the population has coefficient columns; one exact ``_demand`` there
    certifies it, and where it does not, or without columns, the search goes
    on with exact gaps. Then a midpoint at or below an exact level that fell
    short by more than the band goes up, one at or above an exact level that
    over-supplied by more goes down, both unevaluated. ``_demand`` is
    nondecreasing in mu for any deterministic ``partial_column`` (outside the
    family, any deterministic ``gradient``): every device's inner bisection
    visits the same midpoints and compares the same partials against mu, and
    the pairwise sum keeps that order. So every skipped step takes the branch
    plain bisection would have taken, whatever the Newton demand returned:
    ``x_star``, ``mu`` and ``iterations`` (the count of bisection steps) are
    bit for bit those of plain bisection.
    """
    functions = tuple(functions)
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
        records = []  # every exact (level, gap); no demand vectors are kept

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

        approx = []  # every (level, gap) of the Newton demand, apart from records

        def approx_gap_at(level):
            approx.append((level, _newton_demand(ensemble._columns[j], level, cap).sum() - cap))
            return approx[-1][1]

        for side in (-1.0, 1.0):
            target = 1.5 * side * band
            if isinstance(ensemble, CostEnsemble):
                _illinois(approx_gap_at, records + approx, cap, target, 0.5 * band, _SEARCH_EVALS)
            beyond = sorted(lv for lv, g in approx if side * g > band)
            if not beyond or side * gap_at(beyond[0 if side > 0 else -1]) <= band:
                _illinois(gap_at, records, cap, target, 0.5 * band, _SEARCH_EVALS)
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
    functions = tuple(functions)
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
