import threading

import numpy as np
import pytest

from aimdalloc import oracle
from aimdalloc import (
    UnsupportedFunctionError,
    evaluate_cost,
    kkt_residual,
    sample_cost_functions,
    solve_projected_gradient,
    solve_separable,
)
from aimdalloc.costs import LoopEnsemble, Population, make_ensemble
from aimdalloc.engine import resolve_functions
from aimdalloc.oracle import project_capacity_simplex

from _stand_ins import (
    BlowUp,
    Constant,
    Coupled,
    WeightedSquare,
    Wiggly,
    Wrapped,
    plain_bisection_solve,
    reference_demand,
    sampled_functions,
)


def random_feasible(rng, n, capacities):
    """Uniform positive allocation summing to each capacity."""
    y = np.empty((n, len(capacities)))
    for j, cap in enumerate(capacities):
        draw = rng.exponential(size=n)
        y[:, j] = cap * draw / draw.sum()
    return y


def brute_force_separable(functions, capacities, step=1e-2):
    """Exhaustive grid minimizer, one resource at a time (3 devices only)."""
    assert len(functions) == 3
    x = np.zeros((3, len(capacities)))
    for j, cap in enumerate(capacities):
        vals = np.arange(0.0, cap + step / 2, step)
        a, b = np.meshgrid(vals, vals, indexing="ij")
        c = cap - a - b
        ok = c >= -1e-12
        pts = np.zeros((a.size, len(capacities)))

        def axis_cost(f, coords):
            pts.fill(0.0)
            pts[:, j] = coords.ravel()
            return np.asarray(f.value(pts)).reshape(coords.shape)

        total = axis_cost(functions[0], a) + axis_cost(functions[1], b) + axis_cost(
            functions[2], np.maximum(c, 0.0)
        )
        total[~ok] = np.inf
        i0, i1 = np.unravel_index(np.argmin(total), total.shape)
        x[:, j] = (a[i0, i1], b[i0, i1], max(c[i0, i1], 0.0))
    return x


class TestSeparableSolver:
    def test_hand_worked_two_device_problem(self):
        # equalizing 2 x1 = 4 x2 under x1 + x2 = 3 gives (2, 1) at level 4
        opt = solve_separable([WeightedSquare(1.0), WeightedSquare(2.0)], [3.0], tol=1e-10)
        np.testing.assert_allclose(opt.x_star[:, 0], [2.0, 1.0], atol=1e-8)
        assert opt.mu[0] == pytest.approx(4.0, abs=1e-7)

    def test_single_device_takes_everything(self):
        opt = solve_separable([WeightedSquare(3.0)], [5.0])
        assert opt.x_star[0, 0] == pytest.approx(5.0, abs=1e-7)

    def test_identical_devices_split_evenly(self):
        fns = [WeightedSquare(2.0)] * 4
        opt = solve_separable(fns, [8.0])
        np.testing.assert_allclose(opt.x_star[:, 0], [2.0] * 4, atol=1e-7)

    def test_family_fast_path_matches_generic(self):
        fns = sample_cost_functions(101, 6)
        caps = [3.0, 2.0, 2.5]
        fast = solve_separable(fns, caps, tol=1e-9)
        slow = solve_separable([Wrapped(f) for f in fns], caps, tol=1e-9)
        np.testing.assert_allclose(fast.x_star, slow.x_star, atol=1e-7)

    def test_non_separable_rejected(self):
        with pytest.raises(UnsupportedFunctionError):
            solve_separable([Coupled()], [1.0])

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_separable([WeightedSquare(1.0)], [0.0])

    def test_vanishing_derivatives_rejected(self):
        with pytest.raises(oracle.BracketError, match="all derivatives vanish up to capacity"):
            solve_separable([Constant(), Constant()], [1.0])

    def test_nan_derivative_cannot_bracket(self):
        # a NaN partial at capacity never over-supplies, however far the upper end is doubled
        with pytest.raises(oracle.BracketError, match="^resource 0: could not bracket capacity$"):
            solve_separable([BlowUp(1.0, [0.5], np.nan)], [1.0])

    def test_demand_jumping_over_capacity_cannot_converge(self):
        # past 0.25 each partial is inf: the total demand is at most 0.5 at a finite level and 2.0 at inf
        with pytest.raises(oracle.BracketError, match="^resource 0: dual bisection did not reach tolerance 1e-08$"):
            solve_separable([BlowUp(1.0, [0.25], np.inf)] * 2, [1.0])

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    @pytest.mark.parametrize("solver", [solve_separable, solve_projected_gradient])
    def test_capacity_must_be_positive_and_finite(self, solver, bad):
        with pytest.raises(ValueError, match="capacities must be positive and finite"):
            solver(sample_cost_functions(0, 4), [bad, 20.0, 25.0])

    @pytest.mark.parametrize("tol", [0.0, -1e-8, 1.0, 2.0, np.nan])
    def test_tol_must_lie_in_unit_interval(self, tol):
        with pytest.raises(ValueError, match=r"tol must be in \(0, 1\)"):
            solve_separable(sample_cost_functions(0, 4), [32.0, 20.0, 25.0], tol=tol)

    def test_feasibility_of_solution(self):
        fns = sample_cost_functions(7, 12)
        caps = np.array([32.0, 20.0, 25.0])
        opt = solve_separable(fns, caps, tol=1e-8)
        np.testing.assert_allclose(opt.x_star.sum(axis=0), caps, rtol=1e-7)
        assert opt.kkt_residual <= 1e-6


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that each call appends its arguments to the returned list."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def assert_same_bits(new, ref):
    assert new.x_star.tobytes() == ref.x_star.tobytes()
    assert new.mu.tobytes() == ref.mu.tobytes()
    assert new.iterations == ref.iterations
    assert np.float64(new.kkt_residual).tobytes() == np.float64(ref.kkt_residual).tobytes()


class TestReplayedBisection:
    """The replayed dual bisection returns plain bisection's bits with fewer demand evaluations."""

    @pytest.mark.parametrize("n", [1, 7, 60, 300])
    def test_family_populations(self, n):
        rng = np.random.default_rng(n)
        for seed in (3, 1729):
            fns = sample_cost_functions(seed, n)
            for caps, tol in (
                (0.05 + 0.2 * rng.random(3), 1e-8),
                (1.0 + 4.0 * rng.random(3), 1e-10),
                (n * (20.0 + 20.0 * rng.random(3)), 1e-8),
            ):
                assert_same_bits(
                    solve_separable(fns, caps, tol=tol), plain_bisection_solve(fns, caps, tol=tol)
                )

    def test_bundled_capacities(self, bundled_config):
        fns = resolve_functions(bundled_config)
        caps = [p.capacity for p in bundled_config.resources]
        tol = bundled_config.solver_tol
        assert_same_bits(solve_separable(fns, caps, tol=tol), plain_bisection_solve(fns, caps, tol=tol))

    def test_row_loop_population(self):
        fns = [Wrapped(f) for f in sample_cost_functions(41, 5)] + [
            WeightedSquare(w) for w in (0.5, 3.0)
        ]
        caps = [2.0, 15.0, 3.0]
        assert_same_bits(solve_separable(fns, caps), plain_bisection_solve(fns, caps))

    def test_partial_without_order(self):
        # the demand is nondecreasing in mu for any deterministic partial, so
        # a non-monotone one replays to the same bits as well
        fns = [Wiggly(w) for w in (0.5, 1.0, 2.0, 3.5)]
        for cap in (0.3, 2.5):
            assert_same_bits(solve_separable(fns, [cap]), plain_bisection_solve(fns, [cap]))

    def test_skips_most_demand_evaluations(self, bundled_config, monkeypatch):
        exact = count_calls(monkeypatch, oracle, "_demand")
        newton = count_calls(monkeypatch, Population, "newton_demand")
        fns = resolve_functions(bundled_config)
        opt = solve_separable(
            fns, [p.capacity for p in bundled_config.resources], tol=bundled_config.solver_tol
        )
        assert opt.iterations == 156
        # one exact demand at mu_hi, one per side and about one in the replay, per resource
        assert len(exact) == 12
        # the bracket searches the Newton iteration replaced took 40
        assert len(newton) <= 40

    @pytest.mark.parametrize("n", [60, 2000])
    def test_warm_started_newton_keeps_bits_and_counts(self, bundled_config, monkeypatch, n):
        # each Newton call after a side's first starts from the last call's t
        fns = sample_cost_functions(bundled_config.seed, n)
        caps = n / 60 * np.array([p.capacity for p in bundled_config.resources])
        exact = count_calls(monkeypatch, oracle, "_demand")
        warm = solve_separable(fns, caps)
        warm_count = len(exact)
        exact.clear()
        newton = Population.newton_demand
        monkeypatch.setattr(Population, "newton_demand", lambda self, mu, j, cap, t=None: newton(self, mu, j, cap))
        assert_same_bits(warm, solve_separable(fns, caps))
        assert warm_count <= len(exact)

    @pytest.mark.parametrize(
        "n, caps",
        [
            (1, [0.3, 5.0, 40.0]),
            # one device takes nearly all of resources 0 and 2
            (7, [1e-3, 1e-3, 1e-3]),
            (60, 60 * np.array([1e-4, 1e3, 0.5])),
        ],
        ids=["single-device", "one-device-takes-most", "mixed-scales"],
    )
    def test_edge_capacities(self, n, caps, monkeypatch):
        fns = sample_cost_functions(1729, n)
        want = plain_bisection_solve(fns, caps)
        exact = count_calls(monkeypatch, oracle, "_demand")
        assert_same_bits(solve_separable(fns, caps), want)
        assert len(exact) <= 15

    def test_single_device_demand_count(self, monkeypatch):
        # at n = 1 about half the Newton levels land at or above mu_hi, where no record is
        # made (a record there too gives the same bits with 512 exact demands)
        populations = [sample_cost_functions(seed, 1) for seed in range(40)]
        caps = [1.0, 0.7, 2.0]
        want = [plain_bisection_solve(fns, caps) for fns in populations]
        exact = count_calls(monkeypatch, oracle, "_demand")
        for fns, ref in zip(populations, want):
            assert_same_bits(solve_separable(fns, caps), ref)
        assert len(exact) == 395

    @pytest.mark.parametrize(
        "garbage", [0.0, "cap", np.nan, np.inf], ids=["zeros", "cap", "nan", "inf"]
    )
    def test_exact_fallback_under_a_wrong_newton_demand(self, bundled_config, monkeypatch, garbage):
        # the replay rests on exact records only: an approximate demand and
        # slope that are wrong everywhere cost evaluations, never bits
        def wrong(self, mu, j, cap, t=None):
            value = cap if garbage == "cap" else garbage
            return np.full(len(self), value), np.full(len(self), value)

        monkeypatch.setattr(Population, "newton_demand", wrong)
        fns = resolve_functions(bundled_config)
        caps = [p.capacity for p in bundled_config.resources]
        tol = bundled_config.solver_tol
        want = plain_bisection_solve(fns, caps, tol=tol)
        exact = count_calls(monkeypatch, oracle, "_demand")
        with np.errstate(invalid="ignore"):  # an inf demand steps by inf / inf
            assert_same_bits(solve_separable(fns, caps, tol=tol), want)
        assert len(exact) > 12

    def test_family_population_n2000(self):
        fns = sample_cost_functions(2000, 2000)
        caps = 2000 / 60 * np.array([32.0, 20.0, 25.0])
        assert_same_bits(solve_separable(fns, caps), plain_bisection_solve(fns, caps))


def inner_iters(n, tol=1e-8):
    """``solve_separable``'s inner bisection length for n devices."""
    return int(np.ceil(np.log2(max(n, 2) / tol))) + 5


class TestDemandSelect:
    """The branch-free bracket update keeps the ``np.where`` bisection's bits."""

    @pytest.mark.parametrize("n", [1, 7, 60, 10_000])
    def test_family_populations(self, n):
        ens = make_ensemble(sampled_functions(n), 3)
        for j, cap in enumerate((0.3, n / 10.0)):
            at_cap = ens.partial_column(np.full(n, cap), j)
            # none, about half and all of the devices saturate at cap
            for mu in (0.5 * at_cap.min(), float(np.median(at_cap)), at_cap.max()):
                want = reference_demand(ens, j, mu, cap, inner_iters(n))
                assert oracle._demand(ens, j, mu, cap, inner_iters(n)).tobytes() == want.tobytes()

    def test_row_loop_population(self):
        fns = [Wrapped(f) for f in sample_cost_functions(47, 4)] + [
            WeightedSquare(0.5),
            Wiggly(2.0),
            BlowUp(1.0, [0.4] * 3, np.nan),
            BlowUp(3.0, [0.2] * 3, np.inf),
        ]
        ens = LoopEnsemble(fns, 3)
        iters = inner_iters(len(fns))
        for mu in (0.1, 1.0, 4.0):
            got = oracle._demand(ens, 1, mu, 1.5, iters)
            assert got.tobytes() == reference_demand(ens, 1, mu, 1.5, iters).tobytes()


class TestProjection:
    def test_projects_to_capacity(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=20)
        out = project_capacity_simplex(v, 7.0)
        assert out.sum() == pytest.approx(7.0, abs=1e-9)
        assert np.all(out >= 0.0)

    def test_interior_point_only_shifts(self):
        v = np.array([1.0, 2.0, 3.0])
        out = project_capacity_simplex(v, 9.0)
        np.testing.assert_allclose(out, [2.0, 3.0, 4.0], atol=1e-12)


class TestProjectedGradient:
    def test_agrees_with_separable_on_hand_problem(self):
        fns = [WeightedSquare(1.0), WeightedSquare(2.0)]
        sep = solve_separable(fns, [3.0], tol=1e-10)
        pgd = solve_projected_gradient(fns, [3.0], tol=1e-8)
        np.testing.assert_allclose(pgd.x_star, sep.x_star, atol=1e-6)

    def test_optimal_start_returns_immediately(self):
        fns = [WeightedSquare(1.0), WeightedSquare(2.0)]
        sep = solve_separable(fns, [3.0], tol=1e-12)
        pgd = solve_projected_gradient(fns, [3.0], tol=1e-6, x0=sep.x_star)
        assert pgd.iterations == 0
        assert pgd.converged

    def test_matches_brute_force_grid(self):
        fns = sample_cost_functions(23, 3)
        caps = [1.5, 1.2, 2.0]
        grid = brute_force_separable(fns, caps, step=1e-2)
        pgd = solve_projected_gradient(fns, caps, tol=1e-7)
        assert np.abs(pgd.x_star - grid).max() <= 2e-2

    def test_mu_is_the_mean_over_active_devices(self):
        # device 1 holds nothing, so its zero derivative stays out of the mean
        fns = [WeightedSquare(1.0), WeightedSquare(1.0)]
        out = solve_projected_gradient(fns, [1.0], x0=np.array([[1.0], [0.0]]), max_iters=0)
        assert out.mu.tolist() == [2.0]

    def test_infeasible_start_is_projected(self):
        fns = [WeightedSquare(1.0), WeightedSquare(1.0)]
        out = solve_projected_gradient(fns, [1.0], x0=np.array([[3.0], [-1.0]]), max_iters=0)
        assert out.x_star.tolist() == [[1.0], [0.0]]

    def test_start_shape_mismatch(self):
        fns = [WeightedSquare(1.0), WeightedSquare(1.0)]
        with pytest.raises(ValueError, match=r"^x0 shape \(3, 1\) does not match \(2, 1\)$"):
            solve_projected_gradient(fns, [1.0], x0=np.zeros((3, 1)))

    def test_step_grows_after_an_accepted_step(self, bundled_config):
        # 170 steps here; a step that only ever shrinks takes 448
        caps = [p.capacity for p in bundled_config.resources]
        out = solve_projected_gradient(resolve_functions(bundled_config), caps, tol=1e-7)
        assert out.converged and out.iterations <= 250

    def test_line_search_ends_on_a_nan_cost(self):
        # no step satisfies the bound against a NaN cost: the search gives up at a tiny step
        class NanCost(WeightedSquare):
            def value(self, x):
                return np.nan

        done = []
        fns = [NanCost(1.0), WeightedSquare(2.0)]
        worker = threading.Thread(target=lambda: done.append(solve_projected_gradient(fns, [1.0], max_iters=2)),
                                  daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert done and done[0].iterations == 2 and not done[0].converged

    def test_non_convergence_flagged(self):
        fns = sample_cost_functions(29, 5)
        out = solve_projected_gradient(fns, [3.0, 2.0, 2.0], tol=1e-12, max_iters=2)
        assert not out.converged

    def test_multi_start_uniqueness(self):
        rng = np.random.default_rng(13)
        fns = sample_cost_functions(rng, 6)
        caps = [4.0, 3.0, 5.0]
        tol = 1e-7
        a = solve_projected_gradient(fns, caps, tol=tol)
        start = random_feasible(rng, 6, caps)
        b = solve_projected_gradient(fns, caps, tol=tol, x0=start)
        assert np.abs(a.x_star - b.x_star).max() <= 10 * tol * max(caps)


class TestKktResidual:
    def test_zero_at_optimum(self):
        fns = [WeightedSquare(1.0), WeightedSquare(2.0)]
        opt = solve_separable(fns, [3.0], tol=1e-10)
        assert kkt_residual(fns, opt.x_star, [3.0]) <= 1e-8

    def test_equal_split_spread(self):
        # derivatives 3 and 6 around mean 4.5: spread term 2/3 dominates
        fns = [WeightedSquare(1.0), WeightedSquare(2.0)]
        x = np.array([[1.5], [1.5]])
        assert kkt_residual(fns, x, [3.0]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_infeasible_sum(self):
        fns = [WeightedSquare(1.0), WeightedSquare(1.0)]
        x = np.array([[3.0], [3.0]])  # sums to 2C
        assert kkt_residual(fns, x, [3.0]) >= 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^allocation shape \(2, 1\) does not match \(1, 1\)$"):
            kkt_residual([WeightedSquare(1.0)], np.zeros((2, 1)), [1.0])

    @pytest.mark.parametrize("where", ["entry", "column"])
    def test_nan_allocation_rejected(self, where):
        # the exact optimum reads about 1e-8; a NaN in it must not pass for optimal
        fns = sample_cost_functions(0, 4)
        x = solve_separable(fns, [1.0] * 3).x_star.copy()
        if where == "entry":
            x[2, 0] = np.nan
        else:
            x[:, 1] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            kkt_residual(fns, x, [1.0] * 3)

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            kkt_residual([WeightedSquare(1.0)] * 2, np.array([[-0.5], [3.5]]), [3.0])

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf])
    def test_capacity_must_be_positive_and_finite(self, bad):
        # the solvers' own check: a bad capacity reads neither as a finite residual nor as inf
        fns = sample_cost_functions(0, 3)
        with pytest.raises(ValueError, match="capacities must be positive and finite"):
            kkt_residual(fns, np.ones((3, 3)), [2.0, 2.0, bad])

    @pytest.mark.parametrize("fns, x, want", [
        # no active device: the spread term is 0 and the feasibility gap is 1
        ([WeightedSquare(1.0)] * 2, [[0.0], [0.0]], 1.0),
        # derivatives -1.2 and -0.8: a nonzero spread around a negative mean
        ([WeightedSquare(-1.0)] * 2, [[0.6], [0.4]], np.inf),
        # the one active device's derivative is NaN
        ([BlowUp(1.0, [0.5], np.nan), WeightedSquare(1.0)], [[1.0], [0.0]], np.inf),
    ], ids=["no-active-device", "negative-mean", "nan-gradient"])
    def test_certificate_edge_cases(self, fns, x, want):
        assert kkt_residual(fns, np.array(x), [1.0]) == want

    def test_activity_boundary(self):
        # a device holding exactly ACTIVE_THRESHOLD of capacity is inactive; one a float above it is active
        cap, grads = 3.0, np.array([[5.0], [2.0]])
        edge = oracle.ACTIVE_THRESHOLD * cap
        for held, mean, spread in ((edge, 2.0, 0.0), (np.nextafter(edge, cap), 3.5, 3.0 / 3.5)):
            x = np.array([[held], [cap - held]])
            residual, mu = oracle._certificate(x, grads, [cap])
            assert mu.tolist() == [mean]
            assert residual == max(abs(float(x.sum()) - cap) / cap, spread)

    def test_nan_gradient_reads_inf(self):
        # a feasible split whose first device's derivative is NaN: the spread term is NaN
        fns = [BlowUp(1.0, [1.0], np.nan), WeightedSquare(1.0)]
        x = np.array([[1.5], [1.5]])
        assert kkt_residual(fns, x, [3.0]) == np.inf


class TestOptimalityProperties:
    def test_cross_solver_agreement_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n = int(rng.integers(2, 11))
            fns = sample_cost_functions(rng, n)
            caps = 1.0 + rng.random(3) * 4.0
            sep = solve_separable(fns, caps, tol=1e-9)
            pgd = solve_projected_gradient(fns, caps, tol=1e-7)
            assert pgd.converged
            assert np.abs(sep.x_star - pgd.x_star).max() <= 1e-5

    def test_optimum_dominates_random_feasible_points(self):
        rng = np.random.default_rng(77)
        fns = sample_cost_functions(rng, 8)
        caps = np.array([4.0, 3.0, 5.0])
        opt = solve_separable(fns, caps, tol=1e-9)
        best = sum(evaluate_cost(f, opt.x_star[i]) for i, f in enumerate(fns))
        for _ in range(100):
            y = random_feasible(rng, 8, caps)
            other = sum(evaluate_cost(f, y[i]) for i, f in enumerate(fns))
            assert best <= other + 1e-9

    def test_doubling_capacity_never_shrinks_allocations(self):
        rng = np.random.default_rng(55)
        for _ in range(5):
            fns = sample_cost_functions(rng, 6)
            caps = 1.0 + rng.random(3) * 3.0
            base = solve_separable(fns, caps, tol=1e-9)
            double = solve_separable(fns, 2.0 * caps, tol=1e-9)
            assert np.all(double.x_star >= base.x_star - 1e-6)
