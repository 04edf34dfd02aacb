#!/usr/bin/env python3
"""Tour of the device cost model.

Samples a few private cost functions, evaluates them, cross-checks the
closed-form partial derivatives against finite differences, runs the
convexity/monotonicity audit, and estimates a per-resource normalization
constant from the sampled population.
"""

import numpy as np

from aimdalloc import (
    estimate_gamma,
    evaluate_cost,
    partial_derivative,
    sample_cost_functions,
    verify_assumption1,
)

rng = np.random.default_rng(7)

print("=== sampling ===")
functions = sample_cost_functions(rng, 5)
for i, f in enumerate(functions):
    print(f"device {i}: case {f.case_id}, weights a={f.a} b={f.b} c={f.c} d={f.d}")

print("\n=== evaluation and exact gradients ===")
x = np.array([0.8, 0.4, 0.6])
for i, f in enumerate(functions[:3]):
    grads = [partial_derivative(f, x, j) for j in range(3)]
    print(f"device {i}: cost at {x} = {evaluate_cost(f, x):.4f}, gradient = "
          + np.array2string(np.array(grads), precision=4))

print("\n=== closed forms vs central differences ===")
h = 1e-5
worst = 0.0
for f in functions:
    for _ in range(20):
        p = 0.1 + rng.random(3) * 1.9
        for j in range(3):
            up, down = p.copy(), p.copy()
            up[j] += h
            down[j] -= h
            fd = (evaluate_cost(f, up) - evaluate_cost(f, down)) / (2 * h)
            worst = max(worst, abs(partial_derivative(f, p, j) - fd) / fd)
print(f"largest relative disagreement over 300 probes: {worst:.2e}")

print("\n=== increasing-convex audit ===")
for i, f in enumerate(functions):
    report = verify_assumption1(f, [(0.01, 3.0)] * 3, samples=500, rng=rng)
    print(f"device {i}: {'ok' if report.passed else report.first_violation}")

print("\n=== normalization estimate ===")
box = [(0.1, 32.0), (0.1, 20.0), (0.1, 25.0)]
gamma = estimate_gamma(sample_cost_functions(rng, 60), box, grid=5)
print("per-resource min x / (df/dx) over the population grid:",
      np.array2string(gamma, precision=6))
print(f"(the bundled scenario configures 1/90 = {1/90:.6f}; the estimate is a")
print(" diagnostic lower bound on that choice, not a replacement for it)")
