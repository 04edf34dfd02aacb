"""Private device cost functions: a three-case family of convex polynomials.

Each device owns one sampled member of the family. Values and partial
derivatives are exact closed forms (no autodiff), so they can be checked
against finite differences. The family covers three resources: RAM, CPU
cycles and scaled disk storage, in that axis order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

RESOURCE_COUNT = 3

#: inclusive integer range of every field of a ``CostFunction``, in field order
FIELD_RANGES = {"case_id": (1, 3), "a": (1, 25), "b": (1, 20), "c": (1, 15), "d": (1, 10)}

CASE_IDS = tuple(range(1, FIELD_RANGES["case_id"][1] + 1))


class UnsupportedFamilyError(ValueError):
    """Raised when a sampler is asked for a resource count it does not cover."""


def _case_value(case_id, x0, x1, x2, a, b, c, d):
    """Cost of family case ``case_id`` at (x0, x1, x2) with weights a, b, c, d.

    Coordinates and weights broadcast, so one call evaluates a single point or
    every row of a same-case block; both give the same bits per entry.
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


def _case_gradient(case_id, x0, x1, x2, a, b, c, d):
    """The three partials of family case ``case_id``; broadcasts like ``_case_value``.

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


@dataclass(frozen=True)
class CostFunction:
    """One device's private cost: a tagged case of the polynomial family.

    ``case_id`` picks the case; a (RAM), b (CPU), c (storage) and d (other
    costs) are its integer weights. All three cases are nonnegative on the
    positive orthant, vanish at the origin, and have strictly increasing
    partial derivatives in each coordinate for x > 0, which is what the
    back-off scaling rule relies on. ``value``/``gradient``/``partial``
    broadcast over leading axes, so a (P, 3) batch of points evaluates in one
    call.
    """

    case_id: int
    a: int
    b: int
    c: int
    d: int

    #: all cases are sums of single-coordinate terms, so cross-partials vanish
    separable = True

    def __post_init__(self):
        for name, (lo, hi) in FIELD_RANGES.items():
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if not lo <= v <= hi:
                raise ValueError(f"{name}={v} outside [{lo}, {hi}]")

    def value(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        out = _case_value(self.case_id, x[..., 0], x[..., 1], x[..., 2], self.a, self.b, self.c, self.d)
        return out if out.ndim else float(out)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.stack(
            _case_gradient(self.case_id, x[..., 0], x[..., 1], x[..., 2], self.a, self.b, self.c, self.d),
            axis=-1,
        )

    def partial(self, x, j: int) -> float | np.ndarray:
        if not 0 <= j < RESOURCE_COUNT:
            raise IndexError(f"resource index {j} out of range [0, {RESOURCE_COUNT})")
        out = self.gradient(x)[..., j]
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in FIELD_RANGES}

    @classmethod
    def from_dict(cls, d: dict) -> "CostFunction":
        extra = set(d) - set(FIELD_RANGES)
        if extra:
            raise ValueError(f"unknown cost-function keys: {sorted(extra)}")
        try:
            fields = {name: d[name] for name in FIELD_RANGES}
        except KeyError as e:
            raise ValueError(f"cost function missing key {e.args[0]!r}") from None
        return cls(**fields)


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def sample_cost_functions(rng, n: int, m: int = RESOURCE_COUNT) -> tuple[CostFunction, ...]:
    """Draw ``n`` cost functions uniformly from the family in one batch.

    Each device's case tag and four coefficients come from the same stream in
    a fixed order (case, a, b, c, d), device after device, so a given seed
    always yields the same functions. ``rng`` may be a seed or a
    ``numpy.random.Generator``.
    """
    if m != RESOURCE_COUNT:
        raise UnsupportedFamilyError(
            f"the built-in family is defined for exactly {RESOURCE_COUNT} resources, got m={m}"
        )
    low, high = np.array(list(FIELD_RANGES.values())).T
    rows = _as_rng(rng).integers(low, high + 1, size=(n, len(FIELD_RANGES))).tolist()
    return tuple(CostFunction(*row) for row in rows)


def _check_domain(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise ValueError("allocation has a negative or NaN component")
    return x


def evaluate_cost(f, x) -> float:
    """Cost of allocation ``x`` (componentwise nonnegative) under ``f``."""
    return f.value(_check_domain(x))


def partial_derivative(f, x, j: int) -> float:
    """Exact partial derivative of ``f`` at ``x`` with respect to resource ``j``."""
    return f.partial(_check_domain(x), j)


@dataclass(frozen=True)
class AssumptionViolation:
    kind: str  # "positivity" or "monotonicity"
    axis: int
    point: tuple[float, ...]
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    passed: bool
    points_checked: int
    first_violation: AssumptionViolation | None = None


def verify_assumption1(f, box: Sequence[tuple[float, float]], samples: int, rng=0) -> AssumptionReport:
    """Sampled check that ``f`` is increasing with nondecreasing partials.

    Draws ``samples`` points uniformly in ``box`` (one (lo, hi) pair per
    axis, within the positive orthant) and tests, per axis, that the partial
    is strictly positive and does not decrease when the coordinate moves
    toward the upper box edge. Returns a report rather than raising; the
    first violation in (point, axis) order is recorded, positivity before
    monotonicity. All points and bumps are drawn up front, so ``rng`` ends in
    the same state whether or not the check passes.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    box = [(float(lo), float(hi)) for lo, hi in box]
    for ax, (lo, hi) in enumerate(box):
        if lo < 0 or hi <= lo:
            raise ValueError(f"box axis {ax} must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    rng = _as_rng(rng)
    m = len(box)
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    pts = lows + rng.random((samples, m)) * (highs - lows)
    # bumped[j] is pts with coordinate j moved toward the upper box edge
    bumped = np.repeat(pts[None], m, axis=0)
    axes = np.arange(m)
    bumped[axes, :, axes] = (pts + (highs - pts) * rng.random((samples, m))).T
    ens = LoopEnsemble([f], m)
    g = ens.gradients(pts[:, None, :])[:, 0, :]
    g_up = ens.gradients(bumped[..., None, :])[axes, :, 0, axes].T
    not_positive = ~(g > 0.0)
    # tiny relative slack for float noise in the closed forms
    failed = not_positive | (g_up < g * (1.0 - 1e-12) - 1e-15)
    if not failed.any():
        return AssumptionReport(passed=True, points_checked=samples)
    r, j = divmod(int(failed.argmax()), m)
    g0, g1 = float(g[r, j]), float(g_up[r, j])
    if not_positive[r, j]:
        kind, detail = "positivity", f"partial {g0} is not strictly positive"
    else:
        kind, detail = "monotonicity", f"partial fell from {g0} to {g1} along axis {j}"
    return AssumptionReport(
        passed=False,
        points_checked=samples,
        first_violation=AssumptionViolation(kind=kind, axis=j, point=tuple(pts[r]), detail=detail),
    )


def estimate_gamma(
    functions: Iterable,
    box: Sequence[tuple[float, float]],
    grid: int,
    safety: float = 1.0,
) -> np.ndarray:
    """Per-resource normalization bound from the sampled functions.

    Returns ``safety * min x_j / (d f / d x_j)`` over every supplied function
    and every point of a ``grid``-per-axis lattice on ``box``. With that
    constant, the back-off scaling factor evaluated anywhere on the lattice
    is at most ``safety``. Grid points where a partial vanishes are skipped
    (boundary artifacts only, given increasing functions). This is a
    diagnostic over concrete functions on a bounded box; the run
    configuration owns the value actually used.
    """
    functions = list(functions)
    if not functions:
        raise ValueError("need at least one cost function")
    if grid < 2:
        raise ValueError("grid must be >= 2 points per axis")
    if not 0.0 < safety <= 1.0:
        raise ValueError("safety factor must be in (0, 1]")
    box = [(float(lo), float(hi)) for lo, hi in box]
    for ax, (lo, hi) in enumerate(box):
        if lo <= 0 or hi <= lo:
            raise ValueError(f"box axis {ax} must satisfy 0 < lo < hi, got ({lo}, {hi})")
    m = len(box)
    axes = [np.linspace(lo, hi, grid) for lo, hi in box]
    mesh = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    ens = LoopEnsemble(functions, m)
    # per (function, axis) minimum over the lattice in point order, then the
    # first function holding each axis' minimum: the same pick, signed zeros
    # included, as a scan over functions, then points
    per_function = np.full((len(functions), m), np.inf)
    for point in mesh:
        g = ens.gradients(np.tile(point, (len(functions), 1)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = point / g
        # vanished partials are skipped; NaN ratios never compare below
        lower = (ratio < per_function) & (g != 0.0)
        per_function[lower] = ratio[lower]
    best = per_function[per_function.argmin(axis=0), np.arange(m)]
    if not np.all(np.isfinite(best)):
        bad = [j for j in range(m) if not np.isfinite(best[j])]
        raise ValueError(f"all partials vanished on the grid for resource axes {bad}")
    return safety * best


#: the population ``_case_groups`` saw last and its groups, replaced as one pair
#: so that a caller on another thread never reads one population's groups as another's
_latest = [(None, None)]


def _case_groups(functions: tuple) -> list[tuple] | None:
    """``(case_id, rows, a, b, c, d)`` per case present, weights as float (len(rows),) arrays.

    None unless every function is a family member. Kept for the latest tuple by
    identity, so a run groups its population once (hashing it costs as much).
    """
    seen, groups = _latest[0]
    if seen is not functions:
        groups = None
        if all(isinstance(f, CostFunction) for f in functions):
            case_ids = np.array([f.case_id for f in functions], dtype=int)
            weights = np.array([(f.a, f.b, f.c, f.d) for f in functions], dtype=float)
            groups = [
                (case_id, rows, *weights[rows].T)
                for case_id in CASE_IDS
                if (rows := np.flatnonzero(case_ids == case_id)).size
            ]
        _latest[0] = functions, groups
    return groups


class CostEnsemble:
    """Vectorized values and gradients for a fixed list of family members.

    Every case is a polynomial with even-degree value terms and odd-degree
    gradient terms, so one (n, m) coefficient matrix per degree evaluates the
    whole device population in a handful of elementwise products. Results
    agree with the scalar API to floating-point roundoff.
    """

    def __init__(self, functions: Sequence[CostFunction]):
        if not functions:
            raise ValueError("need at least one cost function")
        self.functions = tuple(functions)
        if (groups := _case_groups(self.functions)) is None:
            raise TypeError("CostEnsemble requires built-in family members")
        # gradient tables g1, g3, g5, g7; the value table of degree 2k + 2 is
        # the gradient table of degree 2k + 1 over 2k + 2, the same bits as the
        # scalar formula for integer weights: 2a / 6 rounds the same real as a / 3
        tables = np.zeros((4, len(functions), RESOURCE_COUNT))
        for case_id, rows, a, b, c, d in groups:
            z = np.zeros_like(a)
            if case_id == 1:
                coeffs = ((2.0 * a, z, 2.0 * c), (2.0 * a, 8.0 * b, c), (z, 3.0 * b, z), (z, z, d))
            elif case_id == 2:
                coeffs = ((2.0 * a, 2.0 * b, z), (z, 2.0 * b, 6.0 * c), (z, z, z), (z, z, z))
            else:
                coeffs = ((z, 2.0 * b, 2.0 * c), (z, z, 0.5 * d), (2.0 * a, d, z), (z, z, z))
            tables[:, rows] = np.array(coeffs).transpose(0, 2, 1)
        self._g = tuple(tables)
        self._v = tuple(g / (2 * k + 2) for k, g in enumerate(self._g))
        # (m, 4, n): resource j's g1, g3, g5, g7 columns, contiguous for partial_column
        self._columns = np.ascontiguousarray(tables.transpose(2, 0, 1))

    def __len__(self) -> int:
        return len(self.functions)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Per-device cost at the (..., n, m) allocation ``x``, shape (..., n).

        The terms are weighted and added in place, in the order
        v2 p2 + v4 p4 + v6 p6 + v8 p8, so a block of many matrices needs only
        the four power arrays as temporaries. Each device's resources are then
        added column by column, (r0 + r1) + r2, the order ``sum(axis=-1)``
        adds them in, without its one 3-wide loop per device.
        """
        v2, v4, v6, v8 = self._v
        x = np.asarray(x, dtype=float)
        p2 = x * x
        p4 = p2 * p2
        p6 = p4 * p2
        p8 = p4 * p4
        p2 *= v2
        p2 += np.multiply(p4, v4, out=p4)
        p2 += np.multiply(p6, v6, out=p6)
        p2 += np.multiply(p8, v8, out=p8)
        total = p2[..., 0] + p2[..., 1]
        total += p2[..., 2]
        return total

    def gradients(self, x: np.ndarray) -> np.ndarray:
        """(..., n, m) partials at ``x``; row i of each matrix is device i's gradient.

        The terms are weighted and added in place, in the order
        g1 x + g3 p3 + g5 p5 + g7 p7, as in ``values``.
        """
        g1, g3, g5, g7 = self._g
        x = np.asarray(x, dtype=float)
        p2 = x * x
        p3 = p2 * x
        p5 = p3 * p2
        p7 = p5 * p2
        out = g1 * x
        out += np.multiply(p3, g3, out=p3)
        out += np.multiply(p5, g5, out=p5)
        out += np.multiply(p7, g7, out=p7)
        return out

    def partial_column(self, t: np.ndarray, j: int) -> np.ndarray:
        """(n,) partials on resource ``j``, device i evaluated at t[i] e_j.

        Horner form of the odd polynomial; all coefficients are nonnegative,
        so the result is nondecreasing in t.
        """
        c1, c3, c5, c7 = self._columns[j]
        t2 = t * t
        return ((c7 * t2 + c5) * t2 + c3) * t2 * t + c1 * t


class LoopEnsemble:
    """Population evaluation with each function's own arithmetic, bit for bit.

    Anything exposing ``value(x)`` and ``gradient(x)`` on length-m vectors
    works; this keeps small hand-built worlds (single-resource quadratics and
    the like) runnable through the same engine and oracle.
    Each entry is exactly what the function's own method returns. Family
    members on the family's resource count are grouped by case once, and each
    case's formula evaluates all its rows in one expression; any other
    population is evaluated row by row. ``values`` and ``gradients`` also take
    leading block axes, (..., n, m), like ``CostEnsemble``'s.
    """

    def __init__(self, functions, m: int):
        self.functions = tuple(functions)
        self.m = m
        self._cases = _case_groups(self.functions) if m == RESOURCE_COUNT else None

    def __len__(self) -> int:
        return len(self.functions)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Per-device cost at the (..., n, m) allocation ``x``, shape (..., n)."""
        x = np.asarray(x, dtype=float)
        if self._cases is None:
            return self._row_loop(lambda f, xi: float(f.value(xi)), x).reshape(x.shape[:-1])
        out = np.empty(x.shape[:-1])
        for case_id, rows, *weights in self._cases:
            out[..., rows] = _case_value(case_id, *np.moveaxis(x[..., rows, :], -1, 0), *weights)
        return out

    def gradients(self, x: np.ndarray) -> np.ndarray:
        """(..., n, m) partials at ``x``; row i of each matrix is device i's gradient."""
        x = np.asarray(x, dtype=float)
        if self._cases is None:
            return self._row_loop(lambda f, xi: f.gradient(xi), x).reshape(*x.shape[:-1], -1)
        out = np.empty(x.shape)
        for case_id, rows, *weights in self._cases:
            out[..., rows, :] = np.stack(
                _case_gradient(case_id, *np.moveaxis(x[..., rows, :], -1, 0), *weights), axis=-1
            )
        return out

    def _row_loop(self, method, x):
        """``method(f, x_i)`` for every device row of every (n, m) matrix in ``x``."""
        mats = x.reshape(-1, *x.shape[-2:])
        return np.array(
            [[method(f, xi) for f, xi in zip(self.functions, mat)] for mat in mats], dtype=float
        )

    def partial_column(self, t: np.ndarray, j: int) -> np.ndarray:
        """(n,) partials on resource ``j``, device i evaluated at t[i] e_j."""
        x = np.zeros((len(self.functions), self.m))
        x[:, j] = t
        return self.gradients(x)[:, j]


def make_ensemble(functions, m: int):
    """Population evaluator for ``functions`` on m resources.

    Built-in family members on the family's resource count get the vectorized
    ``CostEnsemble``; anything else gets the per-function ``LoopEnsemble``.
    """
    if m == RESOURCE_COUNT and _case_groups(tuple(functions)) is not None:
        return CostEnsemble(functions)
    return LoopEnsemble(functions, m)
