"""Per-device AIMD update rules and the running-average recursion.

All rules are pure functions mapping old values to new ones; the simulation
engine owns sequencing. Scalars and numpy arrays are both accepted, so the
same kernels drive single-device unit tests and whole-population updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: below this, an average allocation is treated as degenerate in the
#: back-off scaling rule (division would blow up)
AVERAGE_FLOOR = 1e-9

#: clamp margin keeping the scaling factor strictly inside (0, 1)
LAMBDA_MARGIN = 1e-6

#: the two back-off variants a run can simulate, in comparison order
RUN_MODES = ("deterministic", "stochastic")

# the constants as 0-d arrays: a ufunc takes one of those in about half the
# time it takes to convert a Python float, at the same bits
_FLOOR, _LOW, _HIGH, _ONE = map(np.array, (AVERAGE_FLOOR, LAMBDA_MARGIN, 1.0 - LAMBDA_MARGIN, 1.0))


class DegenerateAverageError(ValueError):
    """Average allocation too close to zero for the scaling rule."""


@dataclass(frozen=True)
class ResourceParams:
    """Constants of one shared resource.

    gamma_cap is the capacity fraction whose crossing triggers an event
    (1.0 = plain capacity); gamma_norm is the normalization constant that
    keeps the back-off scaling factor inside (0, 1).
    """

    capacity: float
    alpha: float
    beta: float
    gamma_cap: float = 1.0
    gamma_norm: float = 1.0

    def __post_init__(self):
        # each message starts with the field name; config errors prefix its path
        if not 0 < self.capacity < math.inf:
            raise ValueError(f"capacity must be positive and finite, got {self.capacity}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if not 0.0 < self.gamma_cap <= 1.0:
            raise ValueError(f"gamma_cap must be in (0, 1], got {self.gamma_cap}")
        if not 0 < self.gamma_norm < math.inf:
            raise ValueError(f"gamma_norm must be positive and finite, got {self.gamma_norm}")


@dataclass
class ClampStats:
    """Counts of scaling-factor clamps, for run diagnostics."""

    low: int = 0
    high: int = 0


def additive_increase(x, alpha, out=None):
    """Linear demand growth: x + alpha, written to ``out`` when given."""
    return np.add(x, alpha, out)


def scaling_factor(gamma_norm, grad, x_bar_j, stats: ClampStats | None = None, out=None,
                   cols=None, scratch=None):
    """Back-off scaling factor: gamma_norm * grad / x_bar_j, kept inside (0, 1).

    Elementwise; ``grad`` and ``x_bar_j`` may be (n, k) blocks of k resource
    columns with ``gamma_norm`` holding one constant per column. The raw
    ratio is clipped into [LAMBDA_MARGIN, 1 - LAMBDA_MARGIN]; clips are
    counted in ``stats`` when given, so configurations whose normalization
    is too loose are observable. Raises DegenerateAverageError when any
    average is at or below AVERAGE_FLOOR. ``out`` receives the factor and
    ``scratch``, another array, the raw ratio. With ``cols`` (an index into
    the last axis) only those columns are guarded and counted, though every
    column gets a factor.
    """
    # the whole-array count is the cheap test; the guarded columns decide
    low = np.count_nonzero(np.less_equal(x_bar_j, _FLOOR))
    if low and (cols is None or np.count_nonzero(np.asarray(x_bar_j)[..., cols] <= AVERAGE_FLOOR)):
        raise DegenerateAverageError(
            f"average allocation <= {AVERAGE_FLOOR} in scaling factor"
        )
    raw = np.divide(np.multiply(gamma_norm, grad, scratch), x_bar_j, scratch)
    lam = np.minimum(np.maximum(raw, _LOW, out=out), _HIGH, out=out)
    if stats is not None and np.count_nonzero(lam != raw):
        counted = raw if cols is None else raw[..., cols]
        stats.low += int(np.count_nonzero(counted < LAMBDA_MARGIN))
        stats.high += int(np.count_nonzero(counted > 1.0 - LAMBDA_MARGIN))
    return float(lam) if lam.ndim == 0 else lam


def deterministic_factor(lam, beta, out=None, scratch=None):
    """Synchronous back-off multiplier lam * beta + (1 - lam); ``out`` may be ``lam``, ``scratch`` takes 1 - lam."""
    keep = np.subtract(_ONE, lam, scratch)
    factor = np.multiply(lam, beta, out)
    factor += keep
    return factor


def md_deterministic(x, lam, beta):
    """Synchronous back-off: (lam * beta + (1 - lam)) * x.

    The multiplier lies in (beta, 1) for lam in (0, 1), so the decrease is
    never deeper than a full beta back-off.
    """
    return deterministic_factor(lam, beta) * x


def stochastic_factor(u, lam, beta, out=None):
    """Randomized back-off multiplier for draws ``u``: beta where u < lam, else 1.

    As max(beta, 1 - [u < lam]), exact for beta in [0, 1), every pass can write to ``out``, which may be ``lam``.
    """
    miss = np.subtract(_ONE, np.less(u, lam, out), out)
    return np.maximum(beta, miss, out=out)


def md_stochastic(x, lam, beta, rng: np.random.Generator):
    """Randomized back-off: beta * x with probability lam, else x unchanged; beta in [0, 1).

    Elementwise for arrays (one draw per entry). Draws come only from the
    supplied generator, so the caller controls reproducibility.
    """
    x_arr = np.asarray(x, dtype=float)
    out = stochastic_factor(rng.random(size=x_arr.shape), lam, beta) * x_arr
    return float(out) if out.ndim == 0 else out


def update_average(x_bar, x_next, k, out=None, scratch=None):
    """Running-average step: ((k+1) x_bar + x_next) / (k+2), written to ``out`` when given.

    After starting from x_bar(0) = x(0), the iterate equals the arithmetic
    mean of x(0..k+1). ``scratch``, another array, takes x_next / (k+2).
    """
    avg = np.multiply((k + 1.0) / (k + 2.0), x_bar, out)
    avg += np.divide(x_next, np.array(k + 2.0), scratch)
    return avg
