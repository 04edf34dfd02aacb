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

COEFF_RANGES = {"a": (1, 25), "b": (1, 20), "c": (1, 15), "d": (1, 10)}

CASE_IDS = (1, 2, 3)


class UnsupportedFamilyError(ValueError):
    """Raised when a sampler is asked for a resource count it does not cover."""


@dataclass(frozen=True)
class CostCoefficients:
    """Integer cost weights: a (RAM), b (CPU), c (storage), d (other costs)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name, (lo, hi) in COEFF_RANGES.items():
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValueError(f"coefficient {name} must be an integer, got {v!r}")
            if not lo <= v <= hi:
                raise ValueError(f"coefficient {name}={v} outside [{lo}, {hi}]")


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

    All three cases are nonnegative on the positive orthant, vanish at the
    origin, and have strictly increasing partial derivatives in each
    coordinate for x > 0, which is what the back-off scaling rule relies on.
    ``value``/``gradient``/``partial`` broadcast over leading axes, so a
    (P, 3) batch of points evaluates in one call.
    """

    case_id: int
    coeffs: CostCoefficients

    #: all cases are sums of single-coordinate terms, so cross-partials vanish
    separable = True

    def __post_init__(self):
        v = self.case_id
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v not in CASE_IDS:
            raise ValueError(f"case_id must be one of {CASE_IDS}, got {v!r}")

    def value(self, x) -> float | np.ndarray:
        x = np.asarray(x, dtype=float)
        w = self.coeffs
        out = _case_value(self.case_id, x[..., 0], x[..., 1], x[..., 2], w.a, w.b, w.c, w.d)
        return out if out.ndim else float(out)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        w = self.coeffs
        return np.stack(
            _case_gradient(self.case_id, x[..., 0], x[..., 1], x[..., 2], w.a, w.b, w.c, w.d),
            axis=-1,
        )

    def partial(self, x, j: int) -> float | np.ndarray:
        if not 0 <= j < RESOURCE_COUNT:
            raise IndexError(f"resource index {j} out of range [0, {RESOURCE_COUNT})")
        out = self.gradient(x)[..., j]
        return out if out.ndim else float(out)

    def to_dict(self) -> dict:
        c = self.coeffs
        return {"case_id": self.case_id, "a": c.a, "b": c.b, "c": c.c, "d": c.d}

    @classmethod
    def from_dict(cls, d: dict) -> "CostFunction":
        extra = set(d) - {"case_id", "a", "b", "c", "d"}
        if extra:
            raise ValueError(f"unknown cost-function keys: {sorted(extra)}")
        try:
            coeffs = CostCoefficients(d["a"], d["b"], d["c"], d["d"])
            return cls(case_id=d["case_id"], coeffs=coeffs)
        except KeyError as e:
            raise ValueError(f"cost function missing key {e.args[0]!r}") from None


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
    low, high = np.array([(1, len(CASE_IDS)), *COEFF_RANGES.values()]).T
    rows = _as_rng(rng).integers(low, high + 1, size=(n, 5)).tolist()
    return tuple(CostFunction(case_id, CostCoefficients(*coeffs)) for case_id, *coeffs in rows)


def _check_domain(x, m: int | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if m is not None and x.shape[-1] != m:
        raise ValueError(f"allocation vector has length {x.shape[-1]}, expected {m}")
    if np.any(x < 0):
        raise ValueError("allocation vector has a negative component")
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
    first violation found is recorded.
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
        for f in functions:
            if not isinstance(f, CostFunction):
                raise TypeError("CostEnsemble requires built-in family members")
        self.functions = tuple(functions)
        n = len(functions)
        m = RESOURCE_COUNT
        v2 = np.zeros((n, m))
        v4 = np.zeros((n, m))
        v6 = np.zeros((n, m))
        v8 = np.zeros((n, m))
        g1 = np.zeros((n, m))
        g3 = np.zeros((n, m))
        g5 = np.zeros((n, m))
        g7 = np.zeros((n, m))
        for i, f in enumerate(functions):
            a, b, c, d = f.coeffs.a, f.coeffs.b, f.coeffs.c, f.coeffs.d
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
        self._v = (v2, v4, v6, v8)
        self._g = (g1, g3, g5, g7)

    def __len__(self) -> int:
        return len(self.functions)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Per-device cost at the (n, m) allocation matrix ``x``."""
        v2, v4, v6, v8 = self._v
        p2 = x * x
        p4 = p2 * p2
        p6 = p4 * p2
        p8 = p4 * p4
        return (v2 * p2 + v4 * p4 + v6 * p6 + v8 * p8).sum(axis=1)

    def gradients(self, x: np.ndarray) -> np.ndarray:
        """(n, m) matrix of partials, row i being device i's gradient."""
        g1, g3, g5, g7 = self._g
        p2 = x * x
        p3 = p2 * x
        p5 = p3 * p2
        p7 = p5 * p2
        return g1 * x + g3 * p3 + g5 * p5 + g7 * p7

    def partial_column(self, t: np.ndarray, j: int) -> np.ndarray:
        """(n,) partials on resource ``j``, device i evaluated at t[i] e_j.

        Horner form of the odd polynomial; all coefficients are nonnegative,
        so the result is nondecreasing in t.
        """
        c1, c3, c5, c7 = (g[:, j] for g in self._g)
        t2 = t * t
        return ((c7 * t2 + c5) * t2 + c3) * t2 * t + c1 * t


class LoopEnsemble:
    """Population evaluation with each function's own arithmetic, bit for bit.

    Anything exposing ``value(x)``, ``gradient(x)`` and ``partial(x, j)`` on
    length-m vectors works; this keeps small hand-built worlds (single-resource
    quadratics and the like) runnable through the same engine and oracle.
    Each entry is exactly what the function's own method returns. Family
    members on the family's resource count are grouped by case once, and each
    case's formula evaluates all its rows in one expression; any other
    population is evaluated row by row.
    """

    def __init__(self, functions, m: int):
        self.functions = tuple(functions)
        self.m = m
        self._cases = None
        if m == RESOURCE_COUNT and all(isinstance(f, CostFunction) for f in self.functions):
            case_ids = np.array([f.case_id for f in self.functions], dtype=int)
            weights = np.array(
                [(f.coeffs.a, f.coeffs.b, f.coeffs.c, f.coeffs.d) for f in self.functions],
                dtype=float,
            )
            self._cases = [
                (case_id, rows, *weights[rows].T)
                for case_id in CASE_IDS
                if (rows := np.flatnonzero(case_ids == case_id)).size
            ]

    def __len__(self) -> int:
        return len(self.functions)

    def values(self, x: np.ndarray) -> np.ndarray:
        if self._cases is None:
            return np.array([float(f.value(xi)) for f, xi in zip(self.functions, x)])
        out = np.empty(len(self.functions))
        for case_id, rows, *weights in self._cases:
            out[rows] = _case_value(case_id, *x[rows].T, *weights)
        return out

    def gradients(self, x: np.ndarray) -> np.ndarray:
        if self._cases is None:
            return np.stack(
                [np.asarray(f.gradient(xi), dtype=float) for f, xi in zip(self.functions, x)]
            )
        out = np.empty((len(self.functions), RESOURCE_COUNT))
        for case_id, rows, *weights in self._cases:
            out[rows] = np.stack(_case_gradient(case_id, *x[rows].T, *weights), axis=-1)
        return out

    def partial_column(self, t: np.ndarray, j: int) -> np.ndarray:
        """(n,) partials on resource ``j``, device i evaluated at t[i] e_j."""
        out = np.empty(len(self.functions))
        if self._cases is None:
            point = np.zeros(self.m)
            for i, f in enumerate(self.functions):
                point[j] = t[i]
                out[i] = float(f.partial(point, j))
            return out
        for case_id, rows, *weights in self._cases:
            point = np.zeros((RESOURCE_COUNT, rows.size))
            point[j] = t[rows]
            out[rows] = _case_gradient(case_id, *point, *weights)[j]
        return out


def make_ensemble(functions, m: int):
    """Population evaluator for ``functions`` on m resources.

    Built-in family members on the family's resource count get the vectorized
    ``CostEnsemble``; anything else gets the per-function ``LoopEnsemble``.
    """
    if m == RESOURCE_COUNT and all(isinstance(f, CostFunction) for f in functions):
        return CostEnsemble(functions)
    return LoopEnsemble(functions, m)
