import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimdalloc import (
    CostCoefficients,
    CostEnsemble,
    CostFunction,
    UnsupportedFamilyError,
    estimate_gamma,
    evaluate_cost,
    partial_derivative,
    sample_cost_functions,
    verify_assumption1,
)

from aimdalloc.costs import CASE_IDS, COEFF_RANGES, LoopEnsemble, make_ensemble

from _stand_ins import Constant, Negation, WeightedSquare


def central_difference(f, x, j, h=1e-5):
    """Independent derivative estimate: (f(x + h e_j) - f(x - h e_j)) / 2h."""
    up = np.array(x, dtype=float)
    down = np.array(x, dtype=float)
    up[j] += h
    down[j] -= h
    return (evaluate_cost(f, up) - evaluate_cost(f, down)) / (2.0 * h)


class TestSampling:
    def test_same_seed_same_function(self):
        assert sample_cost_functions(12345, 1) == sample_cost_functions(12345, 1)

    def test_case_frequencies_uniform(self):
        rng = np.random.default_rng(7)
        draws = [f.case_id for f in sample_cost_functions(rng, 10_000)]
        counts = np.bincount(draws, minlength=4)[1:]
        freqs = counts / len(draws)
        assert np.all(np.abs(freqs - 1.0 / 3.0) <= 0.02)

    def test_coefficient_ranges(self):
        rng = np.random.default_rng(11)
        for f in sample_cost_functions(rng, 2000):
            c = f.coeffs
            assert 1 <= c.a <= 25
            assert 1 <= c.b <= 20
            assert 1 <= c.c <= 15
            assert 1 <= c.d <= 10

    def test_every_coefficient_value_reachable(self):
        rng = np.random.default_rng(3)
        seen_a = {f.coeffs.a for f in sample_cost_functions(rng, 5000)}
        assert seen_a == set(range(1, 26))

    def test_resource_count_restriction(self):
        with pytest.raises(UnsupportedFamilyError):
            sample_cost_functions(0, 1, m=2)

    def test_batch_order_is_stream_order(self):
        fns = sample_cost_functions(99, 5)
        rng = np.random.default_rng(99)
        fns_again = tuple(sample_cost_functions(rng, 1)[0] for _ in range(5))
        assert fns == fns_again

    @pytest.mark.parametrize("seed", [0, 7, 1729])
    @pytest.mark.parametrize("n", [1, 5, 60])
    def test_batch_matches_scalar_draws(self, seed, n):
        # one (n, 5) draw equals per-device scalar draws of (case, a, b, c, d)
        # and leaves the generator in the same state
        batch_rng = np.random.default_rng(seed)
        scalar_rng = np.random.default_rng(seed)
        fns = sample_cost_functions(batch_rng, n)
        bounds = [(1, 3), (1, 25), (1, 20), (1, 15), (1, 10)]
        rows = [[int(scalar_rng.integers(lo, hi + 1)) for lo, hi in bounds] for _ in range(n)]
        assert [list(f.to_dict().values()) for f in fns] == rows
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state


class TestEvaluation:
    def test_case2_unit_coefficients(self):
        f = CostFunction(2, CostCoefficients(1, 1, 1, 1))
        assert evaluate_cost(f, (1.0, 1.0, 1.0)) == pytest.approx(4.0, abs=1e-12)

    def test_case1_hand_value(self):
        # a(1 + 1/2) + b(2 + 1/2) + c(1 + 1/4) + d/8 at the all-ones point
        f = CostFunction(1, CostCoefficients(a=2, b=1, c=1, d=8))
        assert evaluate_cost(f, (1.0, 1.0, 1.0)) == pytest.approx(7.75, abs=1e-12)

    def test_zero_allocation_costs_nothing(self):
        for case in (1, 2, 3):
            f = CostFunction(case, CostCoefficients(5, 5, 5, 5))
            assert evaluate_cost(f, np.zeros(3)) == 0.0

    def test_negative_component_rejected(self):
        f = CostFunction(2, CostCoefficients(1, 1, 1, 1))
        with pytest.raises(ValueError):
            evaluate_cost(f, (1.0, -0.1, 0.0))

    def test_nonnegative_everywhere_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = sample_cost_functions(rng, 1)[0]
            x = rng.random(3) * 3.0
            assert evaluate_cost(f, x) >= 0.0


class TestPartialDerivatives:
    def test_case2_quadratic_slope(self):
        f = CostFunction(2, CostCoefficients(1, 1, 1, 1))
        assert partial_derivative(f, (1.0, 0.3, 0.7), 0) == pytest.approx(2.0, abs=1e-12)

    def test_case3_hand_partial(self):
        # 2 b x1 + d x1^5 at x1 = 1 with b=1, d=6
        f = CostFunction(3, CostCoefficients(a=1, b=1, c=1, d=6))
        assert partial_derivative(f, (0.5, 1.0, 0.5), 1) == pytest.approx(8.0, abs=1e-12)

    def test_index_out_of_range(self):
        f = CostFunction(1, CostCoefficients(1, 1, 1, 1))
        with pytest.raises(IndexError):
            partial_derivative(f, (1.0, 1.0, 1.0), 3)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = sample_cost_functions(rng, 1)[0]
            x = 0.1 + rng.random(3) * 1.9
            for j in range(3):
                exact = partial_derivative(f, x, j)
                approx = central_difference(f, x, j)
                assert exact == pytest.approx(approx, rel=1e-6)

    def test_positive_for_positive_coordinates(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            f = sample_cost_functions(rng, 1)[0]
            x = 0.01 + rng.random(3) * 2.0
            grad = f.gradient(x)
            assert np.all(grad > 0.0)


class TestEnsembleConsistency:
    def test_values_and_gradients_match_scalar_api(self):
        rng = np.random.default_rng(21)
        fns = sample_cost_functions(rng, 40)
        ens = CostEnsemble(fns)
        x = rng.random((40, 3)) * 2.5
        vals = ens.values(x)
        grads = ens.gradients(x)
        for i, f in enumerate(fns):
            assert vals[i] == pytest.approx(f.value(x[i]), rel=1e-13)
            np.testing.assert_allclose(grads[i], f.gradient(x[i]), rtol=1e-13)

    def test_partial_column_matches_loop_adapter(self):
        rng = np.random.default_rng(22)
        fns = sample_cost_functions(rng, 40)
        t = rng.random(40) * 2.5
        loop = LoopEnsemble(fns, 3)
        for j in range(3):
            point = np.zeros((40, 3))
            point[:, j] = t
            expected = [f.partial(point[i], j) for i, f in enumerate(fns)]
            np.testing.assert_array_equal(loop.partial_column(t, j), expected)
            np.testing.assert_allclose(CostEnsemble(fns).partial_column(t, j), expected, rtol=1e-13)

    def test_make_ensemble_choice(self):
        fns = sample_cost_functions(5, 4)
        assert isinstance(make_ensemble(fns, 3), CostEnsemble)
        assert isinstance(make_ensemble(fns, 2), LoopEnsemble)
        assert isinstance(make_ensemble([*fns, WeightedSquare(1.0)], 3), LoopEnsemble)

    def test_rejects_foreign_functions(self):
        with pytest.raises(TypeError):
            CostEnsemble([WeightedSquare(1.0)])


def per_row(fns, x):
    """Each function's own value, gradient and partials on the three family resources."""
    values = np.array([float(f.value(xi)) for f, xi in zip(fns, x)])
    grads = np.stack([np.asarray(f.gradient(xi), dtype=float) for f, xi in zip(fns, x)])
    partials = []
    for j in range(3):
        point = np.zeros_like(x)
        point[:, j] = x[:, j]
        partials.append(np.array([float(f.partial(p, j)) for f, p in zip(fns, point)]))
    return values, grads, partials


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


family_member = st.builds(
    lambda case_id, *w: CostFunction(case_id, CostCoefficients(*w)),
    st.sampled_from(CASE_IDS),
    *(st.integers(lo, hi) for lo, hi in COEFF_RANGES.values()),
)
coordinate = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e4]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
)
family_rows = st.lists(
    st.tuples(family_member, st.tuples(coordinate, coordinate, coordinate)), min_size=1, max_size=24
)
extreme_rows = [
    (CostFunction(case_id, CostCoefficients(*w)), point)
    for case_id in CASE_IDS
    for w in ((1, 1, 1, 1), tuple(hi for _, hi in COEFF_RANGES.values()))
    for point in ((0.0, 1e-300, 1e4), (1e4, 0.0, 1e-300), (2.5, 0.3, 17.0))
]


class TestBatchedLoopEnsemble:
    """Family members evaluated per case in one expression keep the scalar methods' bits."""

    @settings(max_examples=150, deadline=None)
    @given(family_rows)
    @example(extreme_rows)
    def test_matches_scalar_methods_bit_for_bit(self, rows):
        fns = [f for f, _ in rows]
        x = np.array([p for _, p in rows], dtype=float)
        ens = LoopEnsemble(fns, 3)
        values, grads, partials = per_row(fns, x)
        assert same_bits(ens.values(x), values)
        assert same_bits(ens.gradients(x), grads)
        for j in range(3):
            assert same_bits(ens.partial_column(x[:, j], j), partials[j])

    @pytest.mark.parametrize("mixed, m", [(True, 3), (False, 4)])
    def test_other_populations_use_the_row_loop(self, monkeypatch, mixed, m):
        calls = []
        for name in ("value", "gradient", "partial"):
            method = getattr(CostFunction, name)
            monkeypatch.setattr(
                CostFunction, name,
                lambda self, *a, _method=method, _name=name: calls.append(_name) or _method(self, *a),
            )
        fns = list(sample_cost_functions(8, 5)) + ([WeightedSquare(2.0)] if mixed else [])
        x = np.random.default_rng(8).random((len(fns), m)) * 3.0
        ens = LoopEnsemble(fns, m)
        values, grads, partials = per_row(fns, x)
        calls.clear()
        got = (ens.values(x), ens.gradients(x), [ens.partial_column(x[:, j], j) for j in range(3)])
        assert calls.count("value") == 5
        assert calls.count("partial") == 5 * 3
        assert same_bits(got[0], values)
        assert same_bits(got[1], grads)
        assert all(same_bits(a, b) for a, b in zip(got[2], partials))

    def test_family_population_skips_the_scalar_methods(self, monkeypatch):
        calls = []
        monkeypatch.setattr(CostFunction, "value", lambda *a: calls.append(a))
        monkeypatch.setattr(CostFunction, "gradient", lambda *a: calls.append(a))
        ens = LoopEnsemble(sample_cost_functions(8, 5), 3)
        x = np.ones((5, 3))
        ens.values(x), ens.gradients(x), ens.partial_column(x[:, 0], 0)
        assert calls == []


class TestAssumptionCheck:
    def test_family_members_pass(self):
        rng = np.random.default_rng(17)
        box = [(0.01, 3.0)] * 3
        for _ in range(10):
            f = sample_cost_functions(rng, 1)[0]
            report = verify_assumption1(f, box, samples=1000, rng=rng)
            assert report.passed, report.first_violation

    def test_decreasing_function_fails_positivity(self):
        report = verify_assumption1(Negation(), [(0.01, 3.0)], samples=10)
        assert not report.passed
        assert report.first_violation.kind == "positivity"

    def test_constant_function_fails(self):
        report = verify_assumption1(Constant(), [(0.01, 3.0)], samples=10)
        assert not report.passed
        assert report.first_violation.kind == "positivity"


class TestGammaEstimate:
    def test_pure_square_gives_half(self):
        # ratio x / (2x) is identically 1/2 on any positive box
        got = estimate_gamma([WeightedSquare(1.0)], [(0.1, 2.0)], grid=16)
        np.testing.assert_allclose(got, [0.5], rtol=1e-12)

    def test_min_over_union(self):
        fns = [WeightedSquare(1.0), WeightedSquare(4.0)]
        lone = estimate_gamma([fns[1]], [(0.1, 2.0)], grid=8)
        both = estimate_gamma(fns, [(0.1, 2.0)], grid=8)
        np.testing.assert_allclose(both, np.minimum(lone, 0.5), rtol=1e-12)

    def test_sampled_population_is_below_configured_value(self, bundled_config):
        fns = sample_cost_functions(bundled_config.seed, 60)
        box = [(0.1, p.capacity) for p in bundled_config.resources]
        got = estimate_gamma(fns, box, grid=5)
        assert np.all(got <= 1.0 / 90.0 + 1e-12)

    def test_scaling_factor_bounded_by_safety(self):
        rng = np.random.default_rng(31)
        fns = sample_cost_functions(rng, 8)
        box = [(0.2, 2.0)] * 3
        grid = 4
        safety = 0.5
        gam = estimate_gamma(fns, box, grid=grid, safety=safety)
        axes = [np.linspace(lo, hi, grid) for lo, hi in box]
        pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
        for f in fns:
            for p in pts:
                for j in range(3):
                    lam = gam[j] * f.partial(p, j) / p[j]
                    assert lam <= safety + 1e-12

    def test_empty_function_list_rejected(self):
        with pytest.raises(ValueError):
            estimate_gamma([], [(0.1, 1.0)], grid=4)


class TestSerialization:
    def test_round_trip(self):
        f = CostFunction(3, CostCoefficients(7, 2, 15, 10))
        assert CostFunction.from_dict(f.to_dict()) == f

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            CostFunction.from_dict({"case_id": 1, "a": 1, "b": 1, "c": 1, "d": 1, "e": 9})

    @pytest.mark.parametrize("case_id", [True, 1.0, "1"])
    def test_case_id_must_be_integer(self, case_id):
        with pytest.raises(ValueError):
            CostFunction(case_id, CostCoefficients(1, 1, 1, 1))

    def test_out_of_range_coefficient_rejected(self):
        with pytest.raises(ValueError):
            CostFunction.from_dict({"case_id": 1, "a": 26, "b": 1, "c": 1, "d": 1})
