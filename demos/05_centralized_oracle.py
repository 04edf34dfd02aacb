#!/usr/bin/env python3
"""The centralized solvers and their certificates.

Solves a small instance two independent ways (dual bisection on the
separable structure, projected gradient on the capacity simplices), checks
the KKT-style residual, and samples random feasible points to confirm the
optimum dominates.
"""

import numpy as np

from aimdalloc import (
    evaluate_cost,
    kkt_residual,
    sample_cost_functions,
    solve_projected_gradient,
    solve_separable,
)

rng = np.random.default_rng(11)
n = 8
functions = sample_cost_functions(rng, n)
capacities = np.array([4.0, 3.0, 5.0])

sep = solve_separable(functions, capacities, tol=1e-9)
pgd = solve_projected_gradient(functions, capacities, tol=1e-7)

print(f"{n} devices, capacities {capacities.tolist()}")
print(f"dual bisection:      residual {sep.kkt_residual:.2e}, "
      f"{sep.iterations} outer iterations")
print(f"projected gradient:  residual {pgd.kkt_residual:.2e}, "
      f"{pgd.iterations} iterations, converged={pgd.converged}")
print(f"largest componentwise disagreement: {np.abs(sep.x_star - pgd.x_star).max():.2e}")

print("\nconsensus derivative level per resource (what every active device's")
print("marginal cost equals at the optimum):", np.array2string(sep.mu, precision=4))

print("\nallocation matrix (rows = devices):")
print(np.array2string(sep.x_star, precision=3, floatmode="fixed"))
print("column sums:", np.array2string(sep.x_star.sum(axis=0), precision=6))

members = list(functions)  # indexing a population builds a fresh member each time; build each once
best = sum(evaluate_cost(f, sep.x_star[i]) for i, f in enumerate(members))
print(f"\ntotal cost at the optimum: {best:.4f}")
worse = 0
for _ in range(1000):
    y = np.empty((n, 3))
    for j, cap in enumerate(capacities):
        draw = rng.exponential(size=n)
        y[:, j] = cap * draw / draw.sum()
    if sum(evaluate_cost(f, y[i]) for i, f in enumerate(members)) >= best:
        worse += 1
print(f"random feasible allocations costing at least as much: {worse}/1000")

equal_split = np.tile(capacities / n, (n, 1))
print(f"\nresidual of the naive equal split: {kkt_residual(functions, equal_split, capacities):.3f}")
print("(nonzero spread: equal shares ignore how differently devices value resources)")
