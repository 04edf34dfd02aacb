import dataclasses
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aimdalloc import (
    CostEnsemble,
    CostFunction,
    collect_metrics,
    estimate_gamma,
    evaluate_cost,
    export_trace,
    kkt_residual,
    partial_derivative,
    run,
    sample_cost_functions,
    solve_projected_gradient,
    verify_assumption1,
)

from aimdalloc import costs
from aimdalloc.config import serialize_config
from aimdalloc.report import certified_optimum, compare_modes
from aimdalloc.costs import (
    FIELD_RANGES, LoopEnsemble, Population, _gradient_coefficients, _value_coefficients, make_ensemble,
)

from _stand_ins import (
    BlowUp,
    Constant,
    Coupled,
    Negation,
    RootSum,
    WeightedSquare,
    Wiggly,
    Wrapped,
    closed_form_gradient,
    closed_form_value,
    per_row_cost_tables,
    reference_estimate_gamma,
    reference_gradients,
    reference_partial_column,
    reference_values,
    reference_verify_assumption1,
    sampled_functions,
)

WEIGHT_RANGES = [FIELD_RANGES[name] for name in "abcd"]
CASE_IDS = range(FIELD_RANGES["case_id"][0], FIELD_RANGES["case_id"][1] + 1)


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
            assert 1 <= f.a <= 25
            assert 1 <= f.b <= 20
            assert 1 <= f.c <= 15
            assert 1 <= f.d <= 10

    def test_every_coefficient_value_reachable(self):
        rng = np.random.default_rng(3)
        seen_a = {f.a for f in sample_cost_functions(rng, 5000)}
        assert seen_a == set(range(1, 26))

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


class TestPopulation:
    """A family population is one integer matrix; members are built only when indexed."""

    @pytest.mark.parametrize("seed", [0, 1729])
    @pytest.mark.parametrize("n", [0, 1, 60, 10_000])
    def test_members_are_the_draws_rows(self, seed, n):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pop = sample_cost_functions(rng, n)
        lows, highs = zip(*FIELD_RANGES.values())
        rows = ref.integers(lows, np.add(highs, 1), size=(n, len(FIELD_RANGES))).tolist()
        assert isinstance(pop, Population) and len(pop) == n
        assert list(pop) == [CostFunction(*row) for row in rows]
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_tables_are_the_members_rows(self):
        pop = sample_cost_functions(3, 500)
        g, v, columns = pop._tables
        for i, f in enumerate(pop):
            f_g = _gradient_coefficients(f.case_id, f.a, f.b, f.c, f.d)  # (4, 3), from the scalar fields
            assert np.array([gk[i] for gk in g]).tobytes() == f_g.tobytes()
            assert np.array([vk[i] for vk in v]).tobytes() == _value_coefficients(f_g).tobytes()
            assert columns[:, :, i].T.tobytes() == f_g.tobytes()

    def test_equality_hash_and_sequence_protocol(self):
        pop = sample_cost_functions(5, 6)
        members = tuple(CostFunction(*row) for row in pop.fields.tolist())
        assert pop == members and members == pop
        assert pop == sample_cost_functions(5, 6) and hash(pop) == hash(sample_cost_functions(5, 6))
        assert hash(pop) == hash(members)
        assert pop != sample_cost_functions(6, 6) and pop != members[:-1] and pop != list(members)
        assert pop[-1] == members[-1] and pop[2] == members[2]
        assert isinstance(pop[1:4], Population) and pop[1:4] == members[1:4] and pop[::-2] == members[::-2]
        assert list(iter(pop)) == list(members)
        first, *_, last = pop
        assert (first, last) == (members[0], members[-1])
        assert members[3] in pop and pop.index(members[3]) == members.index(members[3])
        with pytest.raises(IndexError):
            pop[6]
        with pytest.raises(ValueError):
            pop.fields[0, 0] = 1

    @pytest.mark.parametrize(
        "fields, message",
        [
            ([[1, 1, 1, 1, 1], [3, 25, 20, 15, 11]], r"^member 1: d=11 outside \[1, 10\]$"),
            ([[0, 1, 1, 1, 1]], r"^member 0: case_id=0 outside \[1, 3\]$"),
            ([[1, 26, 1, 1, 1]], r"^member 0: a=26 outside"),
            ([[1.0, 1, 1, 1, 1]], "integer matrix"),
            ([[True] * 5], "integer matrix"),
            ([1, 1, 1, 1, 1], "integer matrix"),
            ([[1, 1, 1, 1]], "integer matrix"),
        ],
    )
    def test_bad_matrix_raises(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Population(np.array(fields))

    def test_explicit_members_are_converted_once(self, bundled_config):
        members = [CostFunction(1, 2, 3, 4, 5), CostFunction(3, 25, 20, 15, 10)]
        cfg = dataclasses.replace(bundled_config, n=2, functions=members)
        assert isinstance(cfg.functions, Population) and cfg.functions == tuple(members)
        assert serialize_config(cfg)["cost_spec"]["functions"] == [f.to_dict() for f in members]
        assert cfg.functions.to_dicts() == [f.to_dict() for f in members]

    def test_mixed_list_gets_the_row_loop(self):
        pop = sample_cost_functions(4, 3)
        assert isinstance(make_ensemble([*pop, WeightedSquare(1.0)], 3), LoopEnsemble)
        assert isinstance(make_ensemble(pop, 3), CostEnsemble)

    def test_no_member_built_from_seed_to_export(self, bundled_config, tmp_path, monkeypatch):
        built = []
        check = CostFunction.__post_init__
        monkeypatch.setattr(CostFunction, "__post_init__", lambda self: built.append(1) or check(self))
        cfg = dataclasses.replace(bundled_config, steps=20)
        trace = run(cfg, mode="deterministic")
        export_trace(trace, collect_metrics(trace, certified_optimum(cfg, trace.functions).x_star), tmp_path)
        assert built == []

    def test_compare_builds_tables_once_per_run(self, bundled_config, monkeypatch):
        builds = []
        build = costs._gradient_coefficients
        monkeypatch.setattr(costs, "_gradient_coefficients", lambda *a: builds.append(1) or build(*a))
        compare_modes(dataclasses.replace(bundled_config, steps=50))
        assert len(builds) == 2


class TestEvaluation:
    def test_case2_unit_coefficients(self):
        f = CostFunction(2, 1, 1, 1, 1)
        assert evaluate_cost(f, (1.0, 1.0, 1.0)) == pytest.approx(4.0, abs=1e-12)

    def test_case1_hand_value(self):
        # a(1 + 1/2) + b(2 + 1/2) + c(1 + 1/4) + d/8 at the all-ones point
        f = CostFunction(1, a=2, b=1, c=1, d=8)
        assert evaluate_cost(f, (1.0, 1.0, 1.0)) == pytest.approx(7.75, abs=1e-12)

    def test_zero_allocation_costs_nothing(self):
        for case in (1, 2, 3):
            f = CostFunction(case, 5, 5, 5, 5)
            assert evaluate_cost(f, np.zeros(3)) == 0.0

    def test_negative_component_rejected(self):
        f = CostFunction(2, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            evaluate_cost(f, (1.0, -0.1, 0.0))

    def test_nan_component_rejected(self):
        f = CostFunction(2, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="NaN"):
            evaluate_cost(f, (1.0, np.nan, 0.0))

    def test_nonnegative_everywhere_sampled(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = sample_cost_functions(rng, 1)[0]
            x = rng.random(3) * 3.0
            assert evaluate_cost(f, x) >= 0.0


class TestPartialDerivatives:
    def test_case2_quadratic_slope(self):
        f = CostFunction(2, 1, 1, 1, 1)
        assert partial_derivative(f, (1.0, 0.3, 0.7), 0) == pytest.approx(2.0, abs=1e-12)

    def test_case3_hand_partial(self):
        # 2 b x1 + d x1^5 at x1 = 1 with b=1, d=6
        f = CostFunction(3, a=1, b=1, c=1, d=6)
        assert partial_derivative(f, (0.5, 1.0, 0.5), 1) == pytest.approx(8.0, abs=1e-12)

    def test_index_out_of_range(self):
        f = CostFunction(1, 1, 1, 1, 1)
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

    def test_tables_match_per_row_fill(self):
        # every case at both coefficient extremes, interleaved with a sampled population
        lows, highs = zip(*WEIGHT_RANGES)
        extremes = [
            CostFunction(case_id, *w)
            for case_id in CASE_IDS
            for w in (lows, highs)
        ]
        fns = [f for pair in zip(extremes, sample_cost_functions(23, 6)) for f in pair]
        fns += sample_cost_functions(24, 200)
        # each table entry depends on one weight, so one function per (case,
        # weight value) reaches every entry the family can produce
        fns += [
            CostFunction(case_id, *(min(k, hi) for hi in highs))
            for case_id in CASE_IDS
            for k in range(1, max(highs) + 1)
        ]
        ens = CostEnsemble(fns)
        values, gradients = per_row_cost_tables(fns)
        for got, want in zip([*ens._v, *ens._g], values + gradients, strict=True):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lead", [(), (5,)])
    @pytest.mark.parametrize("n", [60, 10_000])
    def test_gradients_match_reference_expression(self, n, lead):
        ens = CostEnsemble(sample_cost_functions(41, n))
        x = np.random.default_rng(42).random((*lead, n, 3)) * 3.0
        x[..., 0, :] = (0.0, 1e-300, 1e4)
        assert ens.gradients(x).tobytes() == reference_gradients(ens, x).tobytes()

    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("n", [1, 2, 60, 10_000])
    def test_values_match_reference_sum(self, n, lead):
        ens = CostEnsemble(sampled_functions(n))
        rng = np.random.default_rng(44)
        x = rng.random((*lead, n, 3)) * 3.0
        special = rng.random(x.shape) < 0.2
        x[special] = rng.choice([0.0, -0.0, np.inf, np.nan], special.sum())
        with np.errstate(invalid="ignore"):
            got, want = ens.values(x), reference_values(ens, x)
        # inf times a zero weight is the default NaN, whose sign bit differs
        # from a NaN input's; a device row holding both may give either sign,
        # as numpy's own add loops do, so NaNs are compared by position only
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("n", [1, 60, 10_000])
    def test_partial_column_matches_reference_expression(self, n):
        ens = CostEnsemble(sampled_functions(n))
        t = np.random.default_rng(46).random(n) * 3.0
        t[: min(n, 3)] = (1e4, 0.0, 1e-300)[: min(n, 3)]
        for j in range(3):
            want = reference_partial_column(ens, t, j)
            assert ens.partial_column(t, j).tobytes() == want.tobytes()

    def test_newton_demand_inverts_partial_column(self):
        ens = CostEnsemble(sampled_functions(60))
        cap = 2.0
        for j in range(3):
            at_cap = ens.partial_column(np.full(60, cap), j)
            # none, about half and all of the devices saturate at cap
            for mu in (0.5 * at_cap.min(), float(np.median(at_cap)), at_cap.max()):
                t, slope = ens.newton_demand(mu, j, cap)
                sat = at_cap <= mu
                assert np.all(t[sat] == cap) and np.all(slope[sat] == 0.0)
                np.testing.assert_allclose(ens.partial_column(t, j)[~sat], mu, rtol=1e-9)
                # d t / d mu is 1 / p'(t): a central difference of the inverse agrees
                h = 1e-6 * mu
                up, down = ens.newton_demand(mu + h, j, cap)[0], ens.newton_demand(mu - h, j, cap)[0]
                np.testing.assert_allclose(slope[~sat], ((up - down) / (2 * h))[~sat], rtol=1e-4)

    def test_newton_demand_from_a_lower_level(self):
        # a start below the root (the last call's t, at a lower mu) reaches it too
        ens = CostEnsemble(sampled_functions(60))
        cap = 2.0
        for j in range(3):
            at_cap = ens.partial_column(np.full(60, cap), j)
            for mu in (0.5 * at_cap.min(), float(np.median(at_cap)), at_cap.max()):
                t, slope = ens.newton_demand(mu, j, cap, ens.newton_demand(mu / 1.5, j, cap)[0])
                sat = at_cap <= mu
                assert np.all(t[sat] == cap) and np.all(slope[sat] == 0.0)
                np.testing.assert_allclose(ens.partial_column(t, j)[~sat], mu, rtol=1e-12)

    def test_make_ensemble_choice(self):
        fns = sample_cost_functions(5, 4)
        assert isinstance(make_ensemble(fns, 3), CostEnsemble)
        assert isinstance(make_ensemble(fns, 2), LoopEnsemble)
        assert isinstance(make_ensemble([*fns, WeightedSquare(1.0)], 3), LoopEnsemble)

    def test_rejects_foreign_functions(self):
        with pytest.raises(TypeError):
            CostEnsemble([WeightedSquare(1.0)])

    def test_run_builds_its_tables_once(self, bundled_config, monkeypatch):
        # the engine, the oracle, its certificate and the metrics all read the
        # trajectory's one tuple of functions
        builds = []
        build = costs._gradient_coefficients
        monkeypatch.setattr(costs, "_gradient_coefficients", lambda *a: builds.append(1) or build(*a))
        cfg = dataclasses.replace(bundled_config, steps=20)
        trace = run(cfg, mode="deterministic")
        collect_metrics(trace, certified_optimum(cfg, trace.functions).x_star)
        assert len(builds) == 1

    def test_table_cache_across_threads(self):
        # each thread evaluates its own population while the others replace
        # the cached tables; every result must still be its own population's
        pops = [sample_cost_functions(seed, 30) for seed in range(4)]
        x = np.random.default_rng(0).random((30, 3))
        want = [make_ensemble(p, 3).values(x).tobytes() for p in pops]
        wrong = []

        def work(k):
            for _ in range(300):
                if make_ensemble(pops[k], 3).values(x).tobytes() != want[k]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_table_cache_follows_a_changed_list(self):
        fns = list(sample_cost_functions(5, 6))
        x = np.ones((6, 3))
        before = make_ensemble(fns, 3).values(x)
        fns[0] = CostFunction(3, 25, 20, 15, 10)
        after = make_ensemble(fns, 3).values(x)
        assert after[0] == fns[0].value(x[0])
        assert after[1:].tobytes() == before[1:].tobytes()


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


family_member = st.builds(CostFunction, *(st.integers(lo, hi) for lo, hi in FIELD_RANGES.values()))
coordinate = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e4]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False),
)
family_rows = st.lists(
    st.tuples(family_member, st.tuples(coordinate, coordinate, coordinate)), min_size=1, max_size=24
)
extreme_rows = [
    (CostFunction(case_id, *w), point)
    for case_id in CASE_IDS
    for w in ((1, 1, 1, 1), tuple(hi for _, hi in WEIGHT_RANGES))
    for point in ((0.0, 1e-300, 1e4), (1e4, 0.0, 1e-300), (2.5, 0.3, 17.0))
]


class TestOneFormula:
    """The coefficient tables are the family's one formula; scalar calls are their rows."""

    @settings(max_examples=100, deadline=None)
    @given(family_rows)
    @example(extreme_rows)
    def test_tables_match_closed_forms(self, rows):
        fns = [f for f, _ in rows]
        x = np.array([p for _, p in rows], dtype=float)
        ens = CostEnsemble(fns)
        args = [(f.case_id, *xi, f.a, f.b, f.c, f.d) for f, xi in zip(fns, x)]
        # a result below the normal range keeps no relative precision
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(
            ens.values(x), [closed_form_value(*a) for a in args], rtol=1e-13, atol=tiny
        )
        np.testing.assert_allclose(
            ens.gradients(x), [closed_form_gradient(*a) for a in args], rtol=1e-13, atol=tiny
        )
        values, grads, _ = per_row(fns, x)
        assert same_bits(ens.values(x), values)
        assert same_bits(ens.gradients(x), grads)

    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
    def test_scalar_methods_are_ensemble_rows(self, lead):
        fns = [f for f, _ in extreme_rows] + list(sample_cost_functions(51, 40))
        rng = np.random.default_rng(52)
        x = rng.random((*lead, len(fns), 3)) * 3.0
        special = rng.random(x.shape) < 0.2
        x[special] = rng.choice([0.0, 1e-300, 1e4], special.sum())
        ens = CostEnsemble(fns)
        values, grads = ens.values(x), ens.gradients(x)
        for i, f in enumerate(fns):
            assert same_bits(f.value(x[..., i, :]), values[..., i])
            assert same_bits(f.gradient(x[..., i, :]), grads[..., i, :])
            for j in range(3):
                assert same_bits(f.partial(x[..., i, :], j), grads[..., i, j])

    @pytest.mark.parametrize("length", [2, 4])
    def test_other_lengths_raise(self, length):
        f = CostFunction(1, 2, 3, 4, 5)
        message = rf"length 3, got shape \({length},\)"
        for call in (f.value, f.gradient, lambda x: f.partial(x, 0), lambda x: evaluate_cost(f, x)):
            with pytest.raises(ValueError, match=message):
                call([1.0] * (length - 1) + [7.0])
        with pytest.raises(ValueError, match=rf"got shape \({length},\)"):
            make_ensemble([f, f], length).gradients(np.ones((2, length)))

    def test_other_populations_use_the_row_loop(self, monkeypatch):
        calls = []
        for name in ("value", "gradient", "partial"):
            method = getattr(CostFunction, name)
            monkeypatch.setattr(
                CostFunction, name,
                lambda self, *a, _method=method, _name=name: calls.append(_name) or _method(self, *a),
            )
        fns = [*sample_cost_functions(8, 5), WeightedSquare(2.0)]
        x = np.random.default_rng(8).random((len(fns), 3)) * 3.0
        ens = make_ensemble(fns, 3)
        values, grads, partials = per_row(fns, x)
        calls.clear()
        got = (ens.values(x), ens.gradients(x), [ens.partial_column(x[:, j], j) for j in range(3)])
        # one gradient row per device for ``gradients`` and for each column
        assert calls.count("value") == 5
        assert calls.count("gradient") == 5 + 5 * 3
        assert calls.count("partial") == 0
        assert same_bits(got[0], values)
        assert same_bits(got[1], grads)
        assert all(same_bits(a, b) for a, b in zip(got[2], partials))

    def test_family_population_skips_the_scalar_methods(self, bundled_config, monkeypatch):
        # every population evaluation of family members reads the tables
        calls = []
        for name in ("value", "gradient", "partial"):
            method = getattr(CostFunction, name)
            monkeypatch.setattr(
                CostFunction, name,
                lambda self, *a, _method=method, _name=name: calls.append(_name) or _method(self, *a),
            )
        cfg = dataclasses.replace(bundled_config, steps=20)
        trace = run(cfg, mode="deterministic")
        optimum = certified_optimum(cfg, trace.functions)
        collect_metrics(trace, optimum.x_star)
        caps = [p.capacity for p in cfg.resources]
        kkt_residual(trace.functions, optimum.x_star, caps)
        solve_projected_gradient(trace.functions, caps, max_iters=3)
        box = [(0.1, 2.0)] * 3
        verify_assumption1(trace.functions[0], box, samples=10)
        estimate_gamma(trace.functions[:5], box, grid=3)
        assert calls == []

    @pytest.mark.parametrize("lead", [(1,), (4,), (2, 3)])
    @pytest.mark.parametrize("kind", ["vectorized", "row loop"])
    def test_leading_block_axes_match_per_matrix_calls(self, kind, lead):
        fns = sample_cost_functions(31, 9)
        ens = {
            "vectorized": lambda: CostEnsemble(fns),
            "row loop": lambda: LoopEnsemble([Wrapped(f) for f in fns], 3),
        }[kind]()
        x = np.random.default_rng(32).random((*lead, 9, 3)) * 3.0
        x[..., 0, :] = 0.0
        x[..., 1, 1] = 1e4
        for method, shape in (("values", (*lead, 9)), ("gradients", (*lead, 9, 3))):
            got = getattr(ens, method)(x)
            per_matrix = [getattr(ens, method)(mat) for mat in x.reshape(-1, 9, 3)]
            assert got.shape == shape
            assert got.tobytes() == np.stack(per_matrix).tobytes()


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

    def test_concave_function_fails_monotonicity(self):
        # sum of square roots: positive partials 0.5 / sqrt(x_j) that fall as x_j grows
        box = [(0.01, 3.0)] * 3
        report = verify_assumption1(RootSum(), box, samples=10, rng=4)
        first_point = 0.01 + np.random.default_rng(4).random(3) * 2.99
        assert not report.passed
        assert report.first_violation.kind == "monotonicity"
        assert report.first_violation.axis == 0
        assert report.first_violation.point == tuple(first_point)


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

    def test_vanished_partials_rejected(self):
        with pytest.raises(ValueError, match="all partials vanished"):
            estimate_gamma([Constant()], [(0.1, 1.0)] * 2, grid=4)


BOX3 = [(0.01, 3.0), (0.05, 2.0), (0.1, 2.5)]
# on BOX3 with rng 9 the NaN blow-up first fails positivity at point 4, axis 2,
# and the -inf one first fails monotonicity at point 1, axis 2
THRESHOLDS = (2.9, 1.95, 2.45)
STAND_INS = {
    "negation": lambda: Negation(),
    "constant": lambda: Constant(),
    "coupled": lambda: Coupled(),
    "wiggly": lambda: Wiggly(3.0),
    "root-sum": lambda: RootSum(),
    "blow-up-nan": lambda: BlowUp(1.0, THRESHOLDS, np.nan),
    "blow-up-neg-inf": lambda: BlowUp(1.0, THRESHOLDS, -np.inf),
}


class TestBatchedChecksMatchReference:
    """The batched Assumption 1 check and gamma estimate keep the per-point loops' results."""

    @pytest.mark.parametrize("seed", range(12))
    def test_assumption_check_on_family_members(self, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        f = sample_cost_functions(rng, 1)[0]
        sample_cost_functions(ref_rng, 1)
        report = verify_assumption1(f, BOX3, samples=200, rng=rng)
        assert report == reference_verify_assumption1(f, BOX3, samples=200, rng=ref_rng)
        assert report.passed
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("name", STAND_INS)
    def test_assumption_check_on_stand_ins(self, name):
        f = STAND_INS[name]()
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        report = verify_assumption1(f, BOX3, samples=50, rng=rng)
        assert report == reference_verify_assumption1(f, BOX3, samples=50, rng=ref_rng)
        if report.passed:
            assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize(
        "population",
        [
            lambda: sample_cost_functions(1729, 60),
            lambda: [*sample_cost_functions(3, 4), Wiggly(2.0), Coupled(), Negation()],
            lambda: [Wiggly(0.5), BlowUp(2.0, THRESHOLDS, np.nan)],
            lambda: [BlowUp(1.0, THRESHOLDS, -np.inf), WeightedSquare(1.0)],
            # zeros of both signs tie at the minimum: the first function's sign wins
            lambda: [BlowUp(1.0, THRESHOLDS, np.inf), BlowUp(1.0, (1.0, 1.0, 1.0), -np.inf)],
            lambda: [BlowUp(1.0, (1.0, 1.0, 1.0), -np.inf), BlowUp(1.0, THRESHOLDS, np.inf)],
            *(lambda make=make: [make()] for make in STAND_INS.values()),
        ],
    )
    def test_gamma_estimate(self, population):
        fns = population()
        box = [(0.1, 32.0), (0.1, 20.0), (0.1, 25.0)]
        try:
            want = reference_estimate_gamma(fns, box, grid=5, safety=0.5)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                estimate_gamma(fns, box, grid=5, safety=0.5)
        else:
            assert estimate_gamma(fns, box, grid=5, safety=0.5).tobytes() == want.tobytes()


class TestSerialization:
    def test_round_trip(self):
        f = CostFunction(3, 7, 2, 15, 10)
        assert CostFunction.from_dict(f.to_dict()) == f

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            CostFunction.from_dict({"case_id": 1, "a": 1, "b": 1, "c": 1, "d": 1, "e": 9})

    @pytest.mark.parametrize("case_id", [True, 1.0, "1"])
    def test_case_id_must_be_integer(self, case_id):
        with pytest.raises(ValueError):
            CostFunction(case_id, 1, 1, 1, 1)

    def test_out_of_range_coefficient_rejected(self):
        with pytest.raises(ValueError):
            CostFunction.from_dict({"case_id": 1, "a": 26, "b": 1, "c": 1, "d": 1})

    @pytest.mark.parametrize("name", FIELD_RANGES)
    def test_errors_name_the_field(self, name):
        entry = {"case_id": 1, "a": 1, "b": 1, "c": 1, "d": 1}
        with pytest.raises(ValueError, match=f"^{name}=0 outside"):
            CostFunction.from_dict({**entry, name: 0})
        with pytest.raises(ValueError, match=f"missing key '{name}'"):
            CostFunction.from_dict({k: v for k, v in entry.items() if k != name})
