"""Hand-built cost objects, small configs and worlds shared by several test modules."""

import numpy as np

from aimdalloc import Config, ResourceParams, build_world


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
