"""Hand-built cost objects, small configs and worlds shared by several test modules."""

import numpy as np

from aimdalloc import Config, ResourceParams, build_world
from aimdalloc.costs import LoopEnsemble, make_ensemble
from aimdalloc.oracle import (
    BracketError,
    OptimalAllocation,
    UnsupportedFunctionError,
    _demand,
    kkt_residual,
)


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


def plain_bisection_solve(functions, capacities, tol: float = 1e-8) -> OptimalAllocation:
    """Reference dual solver: every bisection step evaluates the demand.

    This is ``solve_separable`` before its bisection was replayed from
    certified brackets, kept verbatim so tests can require the same bits.

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
            return _demand(ensemble, j, level, cap, inner_iters)

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
