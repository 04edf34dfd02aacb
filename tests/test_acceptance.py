"""End-to-end acceptance suite for the sixty-device reference scenario.

Each test is one acceptance criterion, checked at its stated tolerance, and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them inline).
Expensive simulations are shared through module-scoped fixtures.
"""

import dataclasses
import filecmp
import time

import numpy as np
import pytest

from aimdalloc import (
    collect_metrics,
    evaluate_cost,
    export_trace,
    partial_derivative,
    run,
    sample_cost_functions,
    solve_projected_gradient,
    solve_separable,
    update_average,
)

SWEEP_SEEDS = (101, 202, 303, 404, 505)

# reference per-resource event counts for the sixty-device scenario,
# checked as ±35% bands on seed-averaged totals
STOCHASTIC_EVENT_REFERENCE = {
    500: (184, 187, 137),
    1000: (381, 388, 283),
    30000: (11515, 11851, 8357),
}
DETERMINISTIC_EVENT_REFERENCE_500 = (266, 350, 318)
EVENT_BAND = 0.35


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def comparison(reference_comparison):
    """Deterministic and stochastic reference runs plus the oracle."""
    return reference_comparison


@pytest.fixture(scope="module")
def det_trace(comparison):
    return comparison.traces[0]


@pytest.fixture(scope="module")
def sto_trace(comparison):
    return comparison.traces[1]


@pytest.fixture(scope="module")
def det_report(comparison):
    return comparison.reports[0]


@pytest.fixture(scope="module")
def sweep_runs(bundled_config):
    """Per-seed stochastic full runs and deterministic short runs."""
    sto, det500 = [], []
    for seed in SWEEP_SEEDS:
        cfg = bundled_config.with_overrides(seed=seed)
        sto.append(run(cfg, mode="stochastic"))
        det500.append(run(dataclasses.replace(cfg, steps=500), mode="deterministic"))
    return sto, det500


def test_criterion_1_oracle_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(424242)
    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 11))
        fns = sample_cost_functions(rng, n)
        caps = 1.0 + rng.random(3) * 4.0
        sep = solve_separable(fns, caps, tol=1e-9)
        pgd = solve_projected_gradient(fns, caps, tol=1e-7)
        gap = float(np.abs(sep.x_star - pgd.x_star).max())
        worst_gap = max(worst_gap, gap)
        best = sum(evaluate_cost(f, sep.x_star[i]) for i, f in enumerate(fns))
        for _ in range(100):
            y = np.empty((n, 3))
            for j, cap in enumerate(caps):
                draw = rng.exponential(size=n)
                y[:, j] = cap * draw / draw.sum()
            other = sum(evaluate_cost(f, y[i]) for i, f in enumerate(fns))
            if best > other + 1e-9:
                _report("1", False, f"random feasible point beat the optimum by {best - other:.3e}")
        if gap > 1e-5:
            break
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-5 and elapsed < 10.0
    _report("1", ok, f"max cross-solver gap {worst_gap:.2e}, optimum dominated 2000 samples, {elapsed:.1f}s")


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(100):
        f = sample_cost_functions(rng, 1)[0]
        x = 0.1 + rng.random(3) * 1.9
        for j in range(3):
            exact = partial_derivative(f, x, j)
            up, down = x.copy(), x.copy()
            up[j] += 1e-5
            down[j] -= 1e-5
            approx = (evaluate_cost(f, up) - evaluate_cost(f, down)) / 2e-5
            worst = max(worst, abs(exact - approx) / abs(approx))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    _report("2", ok, f"max relative finite-difference error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_average_recursion():
    rng = np.random.default_rng(9001)
    xs = rng.random(10_001) * 4.0
    x_bar = xs[0]
    for k in range(10_000):
        x_bar = update_average(x_bar, xs[k + 1], k)
    rel = abs(x_bar - xs.mean()) / xs.mean()
    ok = rel <= 1e-12
    _report("3", ok, f"recursion vs direct-sum relative error {rel:.2e}")


def test_criterion_4_convergence_to_optimum(det_report):
    dist = det_report.final_distance
    med, mx = float(np.median(dist)), float(dist.max())
    ok = med <= 2e-2 and mx <= 1e-1
    _report("4", ok, f"final |avg - optimum| median {med:.3e} (<=2e-2), max {mx:.3e} (<=1e-1)")


def test_criterion_5_cost_ratio(det_report):
    ratio = det_report.summary.final_cost_ratio
    ok = 0.99 <= ratio <= 1.01
    _report("5", ok, f"final cost ratio {ratio:.4f} (target [0.99, 1.01])")


def test_criterion_6_constraint_satisfaction(det_trace, bundled_config):
    sums = det_trace.totals_avg[-1]
    caps = np.array([p.capacity for p in bundled_config.resources])
    rel = sums / caps
    ok = bool(np.all((rel >= 0.99) & (rel <= 1.01)))
    _report("6", ok, "final sum of averages / capacity = "
            + ", ".join(f"{v:.4f}" for v in rel) + " (target [0.99, 1.01])")


def test_criterion_7_consensus(det_trace, sto_trace):
    early = det_trace.spread[500]
    late = det_trace.spread[5000]
    decay_ok = bool(np.all(late < 0.25 * early))
    faster_ok = bool(np.all(late < sto_trace.spread[5000]))
    ok = decay_ok and faster_ok
    _report("7", ok,
            f"spread@5000 / spread@500 = {np.array2string(late / early, precision=3)} (<0.25 each); "
            f"deterministic < stochastic at 5000: {faster_ok}")


def test_criterion_8_mode_agreement(comparison):
    med = float(np.median(comparison.final_diff))
    ok = med <= 1e-2
    _report("8", ok, f"median |avg_det - avg_sto| at end {med:.3e} (<=1e-2)")


def test_criterion_9_event_counts(sweep_runs):
    sto, det500 = sweep_runs
    failures = []
    detail = []
    for checkpoint, ref in STOCHASTIC_EVENT_REFERENCE.items():
        mean = np.mean([t.cumulative_event_bits[checkpoint] for t in sto], axis=0)
        lo = np.array(ref) * (1 - EVENT_BAND)
        hi = np.array(ref) * (1 + EVENT_BAND)
        detail.append(f"S@{checkpoint} mean {np.array2string(mean, precision=0)} ref {ref}")
        if not np.all((mean >= lo) & (mean <= hi)):
            failures.append(f"stochastic counts at {checkpoint} outside ±35% of {ref}: {mean}")
    mean_d = np.mean([t.cumulative_event_bits[500] for t in det500], axis=0)
    ref = np.array(DETERMINISTIC_EVENT_REFERENCE_500)
    detail.append(f"D@500 mean {np.array2string(mean_d, precision=0)} ref {tuple(ref)}")
    if not np.all((mean_d >= ref * (1 - EVENT_BAND)) & (mean_d <= ref * (1 + EVENT_BAND))):
        failures.append(f"deterministic counts at 500 outside ±35% of {tuple(ref)}: {mean_d}")
    _report("9", not failures, "; ".join(detail + failures))


def test_criterion_10_overshoot_bound(det_trace, bundled_config):
    caps = np.array([p.capacity for p in bundled_config.resources])
    alphas = np.array([p.alpha for p in bundled_config.resources])
    n = bundled_config.n
    bound = caps + n * alphas  # gamma_cap is 1.0 in the reference scenario
    peak = det_trace.totals_inst.max(axis=0)
    within = bool(np.all(peak <= bound + 1e-9))

    derated = dataclasses.replace(
        bundled_config,
        steps=3000,
        resources=tuple(dataclasses.replace(p, gamma_cap=0.9) for p in bundled_config.resources),
    )
    derated_trace = run(derated, mode="deterministic")
    base_exceed = peak - caps
    derated_exceed = derated_trace.totals_inst.max(axis=0) - caps
    shrunk = bool(np.all(derated_exceed < base_exceed))
    ok = within and shrunk
    _report("10", ok,
            f"peak totals {np.array2string(peak, precision=3)} <= bound "
            f"{np.array2string(bound, precision=3)}: {within}; "
            f"derated threshold shrinks exceedance: {shrunk}")


def test_criterion_11_determinism(bundled_config, tmp_path):
    cfg = dataclasses.replace(bundled_config, steps=2000)
    identical = True
    for mode in ("deterministic", "stochastic"):
        dirs = []
        for rep in range(2):
            trace = run(cfg, mode=mode)
            opt = solve_separable(trace.functions, [p.capacity for p in cfg.resources],
                                  tol=cfg.solver_tol)
            report = collect_metrics(trace, opt.x_star)
            out = tmp_path / f"{mode}_{rep}"
            export_trace(trace, report, out)
            dirs.append(out)
        for name in ("trace.csv", "events.csv", "metrics.csv"):
            if not filecmp.cmp(dirs[0] / name, dirs[1] / name, shallow=False):
                identical = False
    _report("11", identical, "repeated runs export byte-identical trace files in both modes")
