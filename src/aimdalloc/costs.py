"""Private device cost functions: a three-case family of convex polynomials.

Each device owns one sampled member of the family. The family is written
once, as the coefficients of x, x^3, x^5 and x^7 in each resource's partial
(``_gradient_coefficients``). ``Population`` is its one evaluator; a member
evaluates through its own one-row population, so a scalar call gives that
device's population row bit for bit. Values and partials are exact closed
forms (no autodiff), checkable against finite differences. The family covers
three resources: RAM, CPU cycles and scaled disk storage, in that axis order.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

RESOURCE_COUNT = 3

#: inclusive integer range of every field of a ``CostFunction``, in field order
FIELD_RANGES = {"case_id": (1, 3), "a": (1, 25), "b": (1, 20), "c": (1, 15), "d": (1, 10)}


def _gradient_coefficients(case_id, a, b, c, d) -> np.ndarray:
    """(4, ..., 3) coefficients of x, x^3, x^5 and x^7 in each resource's partial.

    The arguments are scalars or arrays that broadcast; their shape is the
    middle axes of the result. The cases' costs, in closed form:

    1. a (x0^2 + x0^4 / 2) + b (2 x1^4 + x1^6 / 2) + c (x2^2 + x2^4 / 4) + d x2^8 / 8
    2. a x0^2 + b (x1^2 + x1^4 / 2) + 3 c x2^4 / 2
    3. a x0^6 / 3 + b x1^2 + c x2^2 + d (x1^6 / 6 + x2^4 / 8)

    Each coefficient is an integer weight times 0.5, 1, 2, 3, 6 or 8, exact in
    floating point, so a scalar and an array call give the same bits.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(w, dtype=float) for w in (a, b, c, d)))
    z = np.zeros_like(a)
    by_case = np.array((
        ((2.0 * a, z, 2.0 * c), (2.0 * a, 8.0 * b, c), (z, 3.0 * b, z), (z, z, d)),
        ((2.0 * a, 2.0 * b, z), (z, 2.0 * b, 6.0 * c), (z, z, z), (z, z, z)),
        ((z, 2.0 * b, 2.0 * c), (z, z, 0.5 * d), (2.0 * a, d, z), (z, z, z)),
    ))  # (case, degree, resource, ...)
    pick = np.expand_dims(np.asarray(case_id, dtype=int) - 1, (0, 1, 2))
    tables = np.take_along_axis(by_case, pick, axis=0)[0]
    return np.ascontiguousarray(np.moveaxis(tables, 1, -1))


def _value_coefficients(g: np.ndarray) -> np.ndarray:
    """Coefficients of x^2, x^4, x^6 and x^8 in the value, from the gradient's ``g``.

    For integer weights these are the closed forms' own: 2a / 6 rounds the same real as a / 3.
    """
    return g / np.reshape([2.0, 4.0, 6.0, 8.0], (4,) + (1,) * (g.ndim - 1))


def _family_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (RESOURCE_COUNT,):
        raise ValueError(f"family members take allocations of length {RESOURCE_COUNT}, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class CostFunction:
    """One device's private cost: a tagged case of the polynomial family.

    ``case_id`` picks the case; a (RAM), b (CPU), c (storage) and d (other
    costs) are its integer weights. All three cases are nonnegative on the
    positive orthant, vanish at the origin, and have strictly increasing
    partial derivatives in each coordinate for x > 0, which is what the
    back-off scaling rule relies on. ``value``/``gradient``/``partial``
    broadcast over leading axes, so a (P, 3) batch of points evaluates in one
    call; a last axis that is not 3 long raises ``ValueError``. ``value``
    and ``gradient`` are row 0 of the member's own one-row ``Population``
    (``_ensemble``, built on first use).
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

    @cached_property
    def _ensemble(self) -> "Population":
        return as_population((self,))

    def value(self, x) -> float | np.ndarray:
        out = self._ensemble.values(_family_point(x)[..., None, :])[..., 0]
        return out if out.ndim else float(out)

    def gradient(self, x) -> np.ndarray:
        return self._ensemble.gradients(_family_point(x)[..., None, :])[..., 0, :]

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


#: each field's inclusive low and high, as two rows in ``FIELD_RANGES`` order
_LOW, _HIGH = np.array(list(FIELD_RANGES.values())).T


class Population(Sequence):
    """Family members held as one read-only (n, 5) integer matrix ``fields``, columns in ``FIELD_RANGES`` order.

    An immutable sequence of ``CostFunction``: a member is built only when it
    is indexed, and a slice is the population of its rows. It equals, and
    hashes like, a population or a tuple of the same members. The matrix is
    range-checked once, as a whole. It is also the family's vectorized
    evaluator: every case has even-degree value and odd-degree gradient terms,
    so one (4, n, 3) table of coefficients (``_tables``, built on first use)
    evaluates the population in a handful of elementwise products. Row i is
    bit for bit member i's own ``value`` and ``gradient``, which are row 0 of
    its one-row population.
    """

    def __init__(self, fields):
        fields = np.asarray(fields)
        if fields.dtype.kind not in "iu" or fields.ndim != 2 or fields.shape[1] != len(FIELD_RANGES):
            raise ValueError(f"a population is an (n, 5) integer matrix, got {fields.dtype} {fields.shape}")
        if (outside := (fields < _LOW) | (fields > _HIGH)).any():
            i, k = divmod(int(outside.argmax()), len(FIELD_RANGES))
            name, (lo, hi) = list(FIELD_RANGES.items())[k]
            raise ValueError(f"member {i}: {name}={fields[i, k]} outside [{lo}, {hi}]")
        # every range fits a byte, so a device's row takes 5 bytes
        self.fields = fields.astype(np.int8)
        self.fields.flags.writeable = False
        self._flat, self._work = np.empty(0), {}

    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, i):
        return Population(self.fields[i]) if isinstance(i, slice) else CostFunction(*self.fields[i].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, Population):
            return np.array_equal(self.fields, other.fields)
        return tuple(self) == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        # a member hashes as its field tuple, so this is the hash of the tuple of members
        return hash(tuple(map(tuple, self.fields.tolist())))

    def to_dicts(self) -> list[dict]:
        """Every member's ``to_dict``, read off the matrix."""
        return [dict(zip(FIELD_RANGES, row)) for row in self.fields.tolist()]

    @cached_property
    def _tables(self) -> tuple:
        """The (4, n, 3) gradient and value tables and the (m, 4, n) columns, built once."""
        g = _gradient_coefficients(*self.fields.T)
        g.flags.writeable = False
        # resource j's g1, g3, g5, g7 columns, contiguous for partial_column
        return g, _value_coefficients(g), np.ascontiguousarray(g.transpose(2, 0, 1))

    def _powers(self, shape: tuple) -> tuple:
        """Scratch for allocations of ``shape``: the power arrays as the rows of one (4, *shape) view of one kept
        buffer, it and its last three rows, g1, and views of the g3 to g7 and value tables broadcasting against
        them, so one multiply weights three or four terms. At 10 000 devices fresh buffers cost more in page
        faults than the arithmetic: about 510 against 150 us a ``gradients`` call.
        """
        if shape not in self._work:
            size, lead = 4 * int(np.prod(shape)), (1,) * (len(shape) - 2)
            if size > self._flat.size:
                self._flat, self._work = np.empty(size), {}
            (g, v, _), p = self._tables, self._flat[:size].reshape(4, *shape)
            self._work[shape] = (*p, p, p[1:], g[0], g[1:].reshape(3, *lead, *g.shape[1:]),
                                 v.reshape(4, *lead, *v.shape[1:]))
        return self._work[shape]

    def values(self, x: np.ndarray) -> np.ndarray:
        """Per-device cost at the (..., n, m) allocation ``x``, shape (..., n).

        The terms are weighted in one multiply and added in place, v2 p2 + v4 p4 + v6 p6 + v8 p8, so a block
        of many matrices needs only the four power arrays as temporaries. Each device's resources are then
        added column by column, (r0 + r1) + r2, in ``sum(axis=-1)``'s order but without its loop per device.
        """
        p2, p4, p6, p8, powers, _, _, _, weights = self._powers(x.shape)
        np.multiply(x, x, p2)
        np.multiply(p2, p2, p4)
        np.multiply(p4, p2, p6)
        np.multiply(p4, p4, p8)
        np.multiply(powers, weights, powers)
        p2 += p4
        p2 += p6
        p2 += p8
        total = p2[..., 0] + p2[..., 1]
        total += p2[..., 2]
        return total

    def gradients(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(..., n, m) partials at ``x``, written to ``out`` when given; row i of each matrix is device i's gradient.

        The three odd terms are weighted in one multiply, and the terms added in
        place in the order g1 x + g3 p3 + g5 p5 + g7 p7, as in ``values``.
        """
        p2, p3, p5, p7, _, odd, g1, weights, _ = self._powers(x.shape)
        np.multiply(x, x, p2)
        np.multiply(p2, x, p3)
        np.multiply(p3, p2, p5)
        np.multiply(p5, p2, p7)
        np.multiply(odd, weights, odd)
        out = np.multiply(g1, x, out)
        out += p3
        out += p5
        out += p7
        return out

    def partial_column(self, t: np.ndarray, j: int) -> np.ndarray:
        """(n,) partials on resource ``j``, device i evaluated at t[i] e_j.

        Horner form of the odd polynomial; all coefficients are nonnegative,
        so the result is nondecreasing in t.
        """
        c1, c3, c5, c7 = self._tables[2][j]
        t2 = t * t
        return ((c7 * t2 + c5) * t2 + c3) * t2 * t + c1 * t

    def newton_demand(self, mu: float, j: int, cap: float, t=None) -> tuple[np.ndarray, np.ndarray]:
        """Approximate inverse t of ``partial_column`` at ``mu``, clipped at ``cap``, and d t / d mu.

        The partial p is increasing and convex for t >= 0, so five Newton passes
        descend to its root from where one term alone reaches mu (a zero term
        never does). A ``t`` given (the last call's, at a lower mu) is below the
        root instead: the first pass lands above it, and the rest descend. The
        slope is 1 / p' at the last pass, and 0 for a device saturated at ``cap``.
        """
        c1, c3, c5, c7 = columns = self._tables[2][j]
        with np.errstate(divide="ignore", invalid="ignore"):
            if t is None:
                t = np.min((mu / columns) ** [[1.0], [1 / 3], [1 / 5], [1 / 7]], axis=0)
            for _ in range(5):
                t2 = t * t
                dp = ((7.0 * c7 * t2 + 5.0 * c5) * t2 + 3.0 * c3) * t2 + c1
                t = t - (self.partial_column(t, j) - mu) / dp
            return np.minimum(t, cap), np.where(t < cap, 1.0 / dp, 0.0)


def as_population(functions):
    """``functions`` as one ``Population`` when every one is a family member, else as a tuple.

    The one conversion of explicit members (config files, ``Config(functions=...)``,
    hand-built lists); a population passes through, so nothing walks its members.
    """
    if isinstance(functions, Population):
        return functions
    functions = tuple(functions)
    if not all(isinstance(f, CostFunction) for f in functions):
        return functions
    rows = [[getattr(f, name) for name in FIELD_RANGES] for f in functions]
    return Population(np.array(rows, dtype=np.int64).reshape(-1, len(FIELD_RANGES)))


def sample_cost_functions(rng, n: int) -> Population:
    """Draw ``n`` cost functions uniformly from the family in one batch.

    Each device's case tag and four coefficients come from the same stream in
    a fixed order (case, a, b, c, d), device after device, so a given seed
    always yields the same functions. ``rng`` may be a seed or a
    ``numpy.random.Generator``.
    """
    return Population(_as_rng(rng).integers(_LOW, _HIGH + 1, size=(n, len(FIELD_RANGES))))


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
    ens = make_ensemble([f], m)
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
    ens = make_ensemble(functions, m)
    # per (function, axis) minimum over the lattice in point order, then the
    # first function holding each axis' minimum: the same pick, signed zeros
    # included, as a scan over functions, then points
    per_function = np.full((len(ens), m), np.inf)
    for point in mesh:
        g = ens.gradients(np.tile(point, (len(ens), 1)))
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


class LoopEnsemble:
    """Population evaluation row by row, through each function's own methods.

    Anything exposing ``value(x)`` and ``gradient(x)`` on length-m vectors
    works; this keeps small hand-built worlds (single-resource quadratics and
    the like) runnable through the same engine and oracle. Each entry is
    exactly what the function's own method returns. ``values`` and
    ``gradients`` also take leading block axes, (..., n, m), like
    ``Population``'s.
    """

    def __init__(self, functions, m: int):
        self.functions = tuple(functions)
        self.m = m

    def __len__(self) -> int:
        return len(self.functions)

    def values(self, x: np.ndarray) -> np.ndarray:
        """Per-device cost at the (..., n, m) allocation ``x``, shape (..., n)."""
        x = np.asarray(x, dtype=float)
        return self._row_loop(lambda f, xi: float(f.value(xi)), x).reshape(x.shape[:-1])

    def gradients(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """(..., n, m) partials at ``x``, written to ``out`` when given; row i of each matrix is device i's gradient."""
        x = np.asarray(x, dtype=float)
        grads = self._row_loop(lambda f, xi: f.gradient(xi), x).reshape(*x.shape[:-1], -1)
        if out is None:
            return grads
        out[...] = grads
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
    """Population evaluator for ``functions`` on m resources; the one check that the list is not empty.

    Built-in family members on the family's resource count get a copy of
    their ``Population`` sharing its ``fields`` and ``_tables`` but not its
    power buffer, which would outlive the caller on a population held longer
    (a config's). Anything else gets the per-function ``LoopEnsemble``, whose
    rows raise ``ValueError`` for family members on another count.
    """
    functions = as_population(functions)
    if not functions:
        raise ValueError("need at least one cost function")
    if m != RESOURCE_COUNT or not isinstance(functions, Population):
        return LoopEnsemble(functions, m)
    functions._tables  # built on the caller's population, so every copy shares them
    ensemble = copy.copy(functions)
    ensemble._flat, ensemble._work = np.empty(0), {}
    return ensemble


#: perfbench's traced runs wrap ``costs.CostEnsemble``; the alias goes with ROADMAP item 8
CostEnsemble = Population
