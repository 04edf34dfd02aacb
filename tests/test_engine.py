import dataclasses
import gc
import resource
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimdalloc import (
    ResourceParams,
    aimd,
    SimulationError,
    build_world,
    collect_metrics,
    engine,
    md_stochastic,
    run,
    scaling_factor,
    solve_separable,
    step_world,
)

from aimdalloc.costs import LoopEnsemble, Population, make_ensemble, sample_cost_functions
from aimdalloc.engine import resolve_functions, snapshot_steps

from _stand_ins import (
    BlowUp,
    WeightedSquare,
    Wrapped,
    hand_world,
    reference_device_sum,
    reference_run,
    reference_step_world,
    reference_values,
    sampled_functions,
    tiny_config,
)


def config_world(cfg, mode=None):
    return build_world(resolve_functions(cfg), cfg.resources, mode or cfg.mode, cfg.seed)


class TestInitWorld:
    def test_reference_population(self, bundled_config):
        w = config_world(bundled_config, mode="deterministic")
        assert w.n == 60
        assert w.x.shape == (60, 3)
        assert np.all(w.x == 0.0)
        assert np.all(w.x_bar == 0.0)
        assert np.all(w.totals == 0.0)
        assert np.all(w.events == 0)
        assert len(w.functions) == 60

    def test_minimal_single_device_single_resource(self):
        w = build_world(
            [WeightedSquare(1.0)],
            [ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1)],
            "deterministic",
            seed=0,
        )
        assert w.x.shape == (1, 1)

    def test_minimal_config_world(self):
        w = config_world(tiny_config(n=1))
        assert w.x.shape == (1, 3)

    def test_same_seed_same_world(self, bundled_config):
        a = config_world(bundled_config, mode="deterministic")
        b = config_world(bundled_config, mode="deterministic")
        assert a.functions == b.functions
        np.testing.assert_array_equal(a.x, b.x)

    def test_modes_share_cost_functions(self, bundled_config):
        det = config_world(bundled_config, mode="deterministic")
        sto = config_world(bundled_config, mode="stochastic")
        assert det.functions == sto.functions

    def test_both_mode_rejected_without_override(self, bundled_config):
        with pytest.raises(ValueError):
            config_world(bundled_config)

    @pytest.mark.parametrize("m", [2, 4])
    def test_family_on_other_resource_counts_rejected(self, m):
        # the family has three resources: the world fails before any step
        resource = ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1)
        with pytest.raises(ValueError, match=rf"got shape \({m},\)"):
            build_world(sample_cost_functions(3, 4), [resource] * m, "deterministic", seed=0)


class TestStepWorld:
    def test_additive_phase_from_init(self, bundled_config):
        w = config_world(bundled_config, mode="deterministic")
        assert step_world(w) is None
        alphas = [p.alpha for p in bundled_config.resources]
        np.testing.assert_allclose(w.x, np.tile(alphas, (60, 1)))
        np.testing.assert_array_equal(w.totals, w.x.sum(axis=0))
        assert w.k == 1

    def test_forced_event_scales_uniformly(self):
        # gamma_norm large enough that the raw factor clips at 1 - margin,
        # making every device back off by the same multiplier
        w = build_world(
            [WeightedSquare(1.0), WeightedSquare(2.0)],
            [ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=1e6)],
            "deterministic",
            seed=1,
        )
        w.x = np.array([[0.6], [0.6]])
        w.x_bar = np.array([[0.3], [0.3]])
        w.grads = w.ensemble.gradients(w.x_bar)
        w.events = np.array([1], dtype=np.uint8)
        step_world(w)
        lam = 1.0 - 1e-6
        expected = (lam * 0.5 + (1.0 - lam)) * 0.6
        np.testing.assert_allclose(w.x, [[expected], [expected]])

    def test_five_step_hand_replay(self):
        # worked by hand from the device and control-unit rules:
        # scaling factors are constant (0.2 and 0.4), so the multipliers are
        # 0.9 and 0.8 whenever the single resource raises an event
        expected = [
            # (x1, x2), (xbar1, xbar2), event bit after the step
            ((0.3, 0.3), (0.15, 0.15), 0),
            ((0.6, 0.6), (0.3, 0.3), 1),
            ((0.54, 0.48), (0.36, 0.345), 1),
            ((0.486, 0.384), (0.3852, 0.3528), 0),
            ((0.786, 0.684), (0.452, 0.408), 1),
        ]
        w = hand_world()
        for step, (xs, xbars, bit) in enumerate(expected, start=1):
            step_world(w)
            np.testing.assert_allclose(w.x[:, 0], xs, atol=1e-12)
            np.testing.assert_allclose(w.x_bar[:, 0], xbars, atol=1e-12)
            assert w.events[0] == bit
            assert w.k == step

    def test_stochastic_mode_same_until_first_event(self):
        det = hand_world("deterministic")
        sto = hand_world("stochastic")
        # steps 1 and 2 are event-free (the bit first rises after step 2)
        for _ in range(2):
            step_world(det)
            step_world(sto)
            np.testing.assert_array_equal(det.x, sto.x)

    def test_stochastic_columns_draw_in_column_order(self):
        # three resources, events on columns 0 and 2 in the same round: the
        # fused back-off must equal per-column md_stochastic calls made in
        # ascending column order on a fresh SeedSequence([seed, 1]) stream
        seed = 7
        resources = [
            ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1),
            ResourceParams(capacity=1.0, alpha=0.2, beta=0.6, gamma_norm=0.1),
            ResourceParams(capacity=1.0, alpha=0.1, beta=0.4, gamma_norm=0.2),
        ]
        w = build_world(
            [WeightedSquare(v) for v in (1.0, 2.0, 1.5, 0.5)], resources, "stochastic", seed
        )
        w.x = np.linspace(0.2, 1.3, 12).reshape(4, 3)
        w.x_bar = np.linspace(0.1, 0.9, 12).reshape(4, 3)
        w.grads = w.ensemble.gradients(w.x_bar)
        w.events = np.array([1, 0, 1], dtype=np.uint8)
        x0, x_bar0, grads0 = w.x.copy(), w.x_bar.copy(), w.grads.copy()
        step_world(w)

        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        expected = x0 + np.array([p.alpha for p in resources])
        for j in (0, 2):
            lam = scaling_factor(resources[j].gamma_norm, grads0[:, j], x_bar0[:, j])
            expected[:, j] = md_stochastic(x0[:, j], lam, resources[j].beta, rng)
        np.testing.assert_array_equal(w.x, expected)

    def test_degenerate_average_aborts(self):
        w = hand_world()
        w.events = np.array([1], dtype=np.uint8)
        with pytest.raises(SimulationError):
            step_world(w)
        # two resources under events, only resource 1 with a zero average
        resource = ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1)
        w = build_world(
            [WeightedSquare(1.0), WeightedSquare(2.0)], [resource, resource], "deterministic", 1
        )
        w.x = np.full((2, 2), 0.6)
        w.x_bar = np.array([[0.3, 0.0], [0.3, 0.0]])
        w.grads = w.ensemble.gradients(w.x_bar)
        w.events = np.array([1, 1], dtype=np.uint8)
        w.k = 4
        with pytest.raises(SimulationError, match=r"step 4, resource 1:"):
            step_world(w)


def small_world(data, mode):
    """A hypothesis-drawn world: 1 to 8 devices on 1 to 4 resources, family or hand-built costs.

    Normalizations span 1e-9 to 1e6, so both clamp counters fire; beta = 0
    is among the back-off fractions. Four resources reach event and idle
    columns that are not evenly spaced, which the round indexes by array.
    """
    m = data.draw(st.integers(1, 4), label="m")
    n = data.draw(st.integers(1, 8), label="n")
    resources = [
        ResourceParams(
            capacity=1.0,
            alpha=data.draw(st.sampled_from([0.02, 0.3, 1.0])),
            beta=data.draw(st.sampled_from([0.0, 0.5, 0.85])),
            gamma_norm=data.draw(st.sampled_from([1e-9, 1e-3, 0.1, 1e6])),
        )
        for _ in range(m)
    ]
    seed = data.draw(st.integers(0, 2**16), label="seed")
    if m == 3 and data.draw(st.booleans(), label="family"):
        functions = sample_cost_functions(seed, n)
    else:
        functions = [WeightedSquare(w) for w in data.draw(
            st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n), label="weights")]
    return [build_world(functions, resources, mode, seed) for _ in range(2)]


class TestRoundKernel:
    """The same-shape round kernel keeps the gathering round's bits, clip counts and draws."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["deterministic", "stochastic"]))
    def test_matches_reference_round(self, data, mode):
        got, want = small_world(data, mode)
        m = got.m
        patterns = data.draw(st.lists(st.integers(0, 2**m - 1), min_size=30, max_size=30),
                             label="event patterns")
        patterns[0] = 0  # the averages are still zero at step 0
        for k, pattern in enumerate(patterns):
            bits = [(pattern >> j) & 1 for j in range(m)]
            got.events = np.array(bits, dtype=np.uint8)
            want.events = np.array(bits, dtype=np.uint8)
            step_world(got)
            reference_step_world(want)
            for name in ("x", "x_bar", "grads", "totals", "events"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (k, name)
            assert (got.clamp.low, got.clamp.high) == (want.clamp.low, want.clamp.high)
            assert got.rng.bit_generator.state == want.rng.bit_generator.state
            assert got.k == want.k

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_plans_evicted_after_64_patterns(self, mode):
        # 65 distinct patterns on 7 resources: the 65th clears the 64 kept
        # plans, and patterns 1 and 2 are then planned again
        resources = [ResourceParams(capacity=1.0, alpha=0.1 + 0.05 * j, beta=0.5, gamma_norm=0.1)
                     for j in range(7)]
        got, want = (build_world([WeightedSquare(w) for w in (1.0, 2.0, 0.5)], resources, mode, 3)
                     for _ in range(2))
        for k, pattern in enumerate([*range(65), 1, 2]):
            bits = [(pattern >> j) & 1 for j in range(7)]
            got.events = np.array(bits, dtype=np.uint8)
            want.events = np.array(bits, dtype=np.uint8)
            step_world(got)
            reference_step_world(want)
            for name in ("x", "x_bar", "grads", "totals", "events"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (k, name)
            assert got.rng.bit_generator.state == want.rng.bit_generator.state
            assert len(got._patterns) == (k + 1 if k < 64 else k - 63)


class TestDeviceReplay:
    """A device's trajectory follows from its own cost, the resource constants and the event bits."""

    def test_replay_from_broadcast_bits(self, reference_comparison):
        start = time.perf_counter()
        trace = reference_comparison.traces[0]
        assert trace.mode == "deterministic"
        resources = trace.config.resources
        alpha = np.array([p.alpha for p in resources])
        beta = np.array([p.beta for p in resources])
        gamma = np.array([p.gamma_norm for p in resources])
        rows = {int(s): r for r, s in enumerate(trace.snap_steps) if s <= 3000}
        bits = trace.events.astype(bool)
        for i in (0, 7, 33, 59):
            own = make_ensemble([trace.functions[i]], trace.m)
            x = np.zeros((1, trace.m))
            x_bar = np.zeros((1, trace.m))
            grad = own.gradients(x_bar)
            for k in range(3000):
                x_next = aimd.additive_increase(x, alpha)
                ev = bits[k]
                if ev.any():
                    lam = aimd.scaling_factor(gamma[ev], grad[:, ev], x_bar[:, ev])
                    x_next[:, ev] = aimd.md_deterministic(x[:, ev], lam, beta[ev])
                x_bar = aimd.update_average(x_bar, x_next, k)
                x = x_next
                grad = own.gradients(x_bar)
                if k + 1 in rows:
                    assert x.tobytes() == trace.x_snap[rows[k + 1], i].tobytes(), (i, k + 1)
                    assert x_bar.tobytes() == trace.xbar_snap[rows[k + 1], i].tobytes(), (i, k + 1)
        assert time.perf_counter() - start < 1.0


def two_resource_config():
    resource = ResourceParams(capacity=1.0, alpha=0.1, beta=0.5, gamma_norm=0.1)
    return tiny_config(m=2, steps=40, resources=(resource, resource))


class TestNonFiniteGuard:
    """A gradient that turns NaN or inf aborts the run at the first step it shows."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_names_first_step_and_resource(self, bad):
        cfg = two_resource_config()
        clean = run(cfg, world=build_world(
            [WeightedSquare(1.0), WeightedSquare(2.0)], cfg.resources, "deterministic", 1
        ))
        threshold = 0.2
        first = int(np.argmax(clean.xbar_snap[:, :, 1].max(axis=1) > threshold))
        assert 0 < first < cfg.steps
        world = build_world(
            [BlowUp(1.0, [np.inf, threshold], bad), BlowUp(2.0, [np.inf, threshold], bad)],
            cfg.resources, "deterministic", 1,
        )
        with pytest.raises(SimulationError, match=rf"^step {first}, resource 1: "):
            run(cfg, world=world)

    def test_blown_up_block_stops_the_run(self, monkeypatch):
        # 50 blocks of 8 rounds; the gradient turns NaN in the first two blocks
        cfg = dataclasses.replace(two_resource_config(), steps=400)
        rounds = 8
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 8 * rounds * cfg.n * cfg.m)

        def world(threshold):
            return build_world(
                [BlowUp(1.0, [np.inf, threshold], np.nan),
                 BlowUp(2.0, [np.inf, threshold], np.nan)],
                cfg.resources, "deterministic", 1,
            )

        clean = run(cfg, world=world(np.inf))
        threshold = 0.2
        first = int(np.argmax(clean.xbar_snap[:, :, 1].max(axis=1) > threshold))
        assert 0 < first < 2 * rounds
        calls = []  # one event-bit evaluation per simulated round
        bits = engine.capacity_event_bits
        monkeypatch.setattr(engine, "capacity_event_bits", lambda *a, **k: calls.append(1) or bits(*a, **k))
        with pytest.raises(SimulationError, match=rf"^step {first}, resource 1: "):
            run(cfg, world=world(threshold))
        assert 0 < len(calls) <= 2 * rounds

    def test_names_a_population_cost_that_is_not_finite(self):
        cost = np.array([1.0, np.inf, 1.0])
        with pytest.raises(SimulationError, match=r"^step 6: population cost inf is not finite$"):
            engine._check_finite(np.ones((3, 2)), np.zeros((3, 2)), cost, first_step=5)

    def test_finite_run_passes(self):
        cfg = two_resource_config()
        world = build_world(
            [BlowUp(1.0, [np.inf, 10.0], np.nan), BlowUp(2.0, [np.inf, 10.0], np.nan)],
            cfg.resources, "deterministic", 1,
        )
        assert np.isfinite(run(cfg, world=world).spread).all()


def refuse_sampling(cfg):
    raise AssertionError("functions sampled before the trace budget check")


class TestTraceBudget:
    """A trace over TRACE_BUDGET_BYTES is refused before anything is sampled or allocated."""

    def test_oversized_trace_refused(self, bundled_config, monkeypatch):
        monkeypatch.setattr(engine, "resolve_functions", refuse_sampling)
        cfg = dataclasses.replace(bundled_config, n=60_000)
        assert (cfg.steps, cfg.trace_stride) == (30_000, None)
        # 2 snapshot stacks of 3 901 x 60 000 x 3 doubles: about 10.5 GiB
        with pytest.raises(ValueError, match=r"about 10\.5 GiB .* 4 GiB budget; .*--stride"):
            run(cfg)

    def test_estimate_counts_the_export_series(self, bundled_config, monkeypatch):
        monkeypatch.setattr(engine, "resolve_functions", refuse_sampling)
        # 3 901 snapshots of 60 x 3 and 30 001 steps of 3 resources, with the devices'
        # arrays: the budget that fitted without the export's (30 001, 3) int64 cumulative
        # bits and (30 001,) float cost ratio is 8 * 30 001 * 4 bytes short of fitting with them
        without = (8 * (3901 * (2 * 60 * 3 + 1) + 30_001 * 11) + 30_001 * 3
                   + 60 * engine.DEVICE_BYTES)
        monkeypatch.setattr(engine, "TRACE_BUDGET_BYTES", without)
        with pytest.raises(ValueError, match="would take about"):
            run(bundled_config)
        monkeypatch.setattr(engine, "TRACE_BUDGET_BYTES", without + 8 * 30_001 * 4)
        with pytest.raises(AssertionError, match="sampled before"):
            run(bundled_config)

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_estimate_covers_the_trace(self, bundled_config, monkeypatch, mode):
        """Every array of the returned trace, and the export's two series, are in the estimate."""
        cfg = dataclasses.replace(bundled_config, steps=1200)
        estimates = []
        check = engine.check_footprint
        monkeypatch.setattr(
            engine, "check_footprint", lambda n, need: estimates.append(need) or check(n, need)
        )
        trace = run(cfg, mode=mode)
        held = sum(a.nbytes for a in vars(trace).values() if isinstance(a, np.ndarray))
        optimum = solve_separable(trace.functions, [p.capacity for p in cfg.resources])
        report = collect_metrics(trace, optimum.x_star)
        (estimate,) = estimates
        assert estimate >= held + trace.cumulative_event_bits.nbytes + report.cost_ratio.nbytes

    def test_larger_stride_passes_the_check(self, bundled_config, monkeypatch):
        monkeypatch.setattr(engine, "resolve_functions", refuse_sampling)
        cfg = dataclasses.replace(bundled_config, n=60_000, trace_stride=30_000)
        with pytest.raises(AssertionError, match="sampled before"):
            run(cfg)

    def test_budget_reads_the_address_space_limit(self, bundled_config, monkeypatch):
        """A soft RLIMIT_AS 64 MiB above what the process maps leaves about 64 MiB (no real limit is set)."""
        with open("/proc/self/statm") as fh:
            mapped = int(fh.read().split()[0]) * resource.getpagesize()
        limit = mapped + 64 * 2**20
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, resource.RLIM_INFINITY))
        monkeypatch.setattr(engine, "resolve_functions", refuse_sampling)
        # 3 901 snapshots of 600 x 3: about 0.1 GiB, within the fixed budget but not the limit's
        with pytest.raises(ValueError, match=r"would take about 0\.1 GiB .* above the 0\.0[0-9]+ GiB budget"):
            run(dataclasses.replace(bundled_config, n=600))
        with pytest.raises(AssertionError, match="sampled before"):
            run(bundled_config)
        monkeypatch.setattr(resource, "getrlimit", lambda which: (resource.RLIM_INFINITY,) * 2)
        with pytest.raises(AssertionError, match="sampled before"):
            run(dataclasses.replace(bundled_config, n=600))


class TestRoundMemory:
    """Rounds after warm-up grow no memory, and nothing kept on a world forms a reference cycle."""

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_rounds_grow_no_memory(self, bundled_config, mode):
        """After warm-up, 50 rounds raise neither the traced peak nor the held memory by an (n, m) array."""
        # the bundled scenario at n = 600, capacities scaled with n
        resources = [dataclasses.replace(p, capacity=p.capacity * 10) for p in bundled_config.resources]
        w = build_world(sampled_functions(600), resources, mode, bundled_config.seed)
        tracemalloc.start()
        try:
            for _ in range(30):
                step_world(w)
            for pattern in range(2**w.m):  # every event pattern's plan, so none is built below
                w.events = np.array([(pattern >> j) & 1 for j in range(w.m)], dtype=np.uint8)
                step_world(w)
            held, peak = tracemalloc.get_traced_memory()
            events = 0
            for _ in range(50):
                step_world(w)
                events += int(w.events.any())
            now_held, now_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert events > 10
        assert now_peak - peak < 8 * w.n * w.m
        assert now_held - held < 8 * w.n * w.m

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_run_keeps_no_cycle_through_the_world(self, bundled_config, mode):
        cfg = dataclasses.replace(bundled_config, steps=200)
        gc.disable()
        try:
            w = build_world(resolve_functions(cfg), cfg.resources, mode, cfg.seed)
            alive = weakref.ref(w)
            trace = run(cfg, world=w)
            del w
            assert alive() is None
        finally:
            gc.enable()
        assert trace.events[1:].any()


class TestSnapshotSteps:
    def test_short_run_dense(self):
        np.testing.assert_array_equal(snapshot_steps(5, None), np.arange(6))

    def test_long_run_policy(self):
        ks = snapshot_steps(30_000, None)
        assert ks[0] == 0
        assert ks[-1] == 30_000
        assert np.all(np.diff(ks[:1000]) == 1)
        assert np.all(np.diff(ks[1000:]) == 10)

    def test_explicit_stride_includes_final(self):
        ks = snapshot_steps(103, 10)
        assert ks[-1] == 103
        assert 100 in ks

    def test_unaligned_policy_includes_final(self):
        ks = snapshot_steps(1005, None)
        assert ks[-1] == 1005


class TestRun:
    def test_single_step_trace(self):
        tr = run(tiny_config(steps=1))
        assert tr.steps.tolist() == [0, 1]
        assert tr.x_snap.shape == (2, 2, 3)
        assert np.all(tr.events[0] == 0)

    def test_deterministic_repeatability(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, steps=400)
        a = run(cfg, mode="deterministic")
        b = run(cfg, mode="deterministic")
        np.testing.assert_array_equal(a.x_snap, b.x_snap)
        np.testing.assert_array_equal(a.events, b.events)

    def test_stochastic_repeatability(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, steps=400)
        a = run(cfg, mode="stochastic")
        b = run(cfg, mode="stochastic")
        np.testing.assert_array_equal(a.x_snap, b.x_snap)
        np.testing.assert_array_equal(a.events, b.events)

    def test_modes_agree_before_first_event(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, steps=100)
        det = run(cfg, mode="deterministic")
        sto = run(cfg, mode="stochastic")
        first_event = int(np.argmax(det.events.any(axis=1)))
        assert first_event > 0
        np.testing.assert_array_equal(
            det.x_snap[:first_event], sto.x_snap[:first_event]
        )

    def test_totals_grow_by_n_alpha_between_events(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, steps=600)
        tr = run(cfg, mode="deterministic")
        n = cfg.n
        alphas = np.array([p.alpha for p in cfg.resources])
        quiet = tr.events[:-1] == 0  # no event bit at step k => AI into k+1
        deltas = tr.totals_inst[1:] - tr.totals_inst[:-1]
        np.testing.assert_allclose(
            deltas[quiet], np.tile(n * alphas, (len(deltas), 1))[quiet], atol=1e-9
        )

    def test_overshoot_bounded(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, steps=2000)
        tr = run(cfg, mode="deterministic")
        bound = np.array([p.gamma_cap * p.capacity + cfg.n * p.alpha for p in cfg.resources])
        assert np.all(tr.totals_inst <= bound + 1e-9)

    def test_event_counter_matches_log(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, steps=300)
        tr = run(cfg, mode="deterministic")
        assert tr.cumulative_event_bits[-1].tolist() == tr.events.sum(axis=0).tolist()

    def test_average_recursion_consistency(self):
        # x_bar in the trace must equal the mean of all instantaneous rows
        cfg = tiny_config(steps=50)
        tr = run(cfg)
        means = tr.x_snap.mean(axis=0)
        np.testing.assert_allclose(tr.xbar_snap[-1], means, rtol=1e-12, atol=1e-14)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            run(tiny_config(steps=0))

    def test_world_guards(self):
        cfg = tiny_config(n=2, steps=5)
        w = hand_world()  # 2 devices, 1 resource: shape mismatch vs m=3
        with pytest.raises(ValueError):
            run(cfg, world=w)
        w3 = config_world(cfg)
        with pytest.raises(ValueError):
            run(cfg, mode="stochastic", world=w3)
        step_world(w3)
        with pytest.raises(ValueError):
            run(cfg, world=w3)


def assert_same_trace(got, want):
    """Every array of two traces has the same dtype, shape and bytes; so do the clamp counts."""
    arrays = {k: v for k, v in vars(want).items() if isinstance(v, np.ndarray)}
    assert arrays.keys() == {k for k, v in vars(got).items() if isinstance(v, np.ndarray)}
    for name, want_arr in arrays.items():
        got_arr = getattr(got, name)
        assert (got_arr.dtype, got_arr.shape) == (want_arr.dtype, want_arr.shape), name
        assert got_arr.tobytes() == want_arr.tobytes(), name
    assert (got.clamp_low, got.clamp_high) == (want.clamp_low, want.clamp_high)


class TestBlockRecorder:
    """Series filled once per block of rounds keep the per-round recorder's bits."""

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_bundled_config_matches_reference(self, bundled_config, mode):
        cfg = dataclasses.replace(bundled_config, steps=1200)
        assert_same_trace(run(cfg, mode=mode), reference_run(cfg, mode=mode)[0])

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_seven_round_blocks_straddle_snapshots(self, bundled_config, monkeypatch, mode):
        cfg = dataclasses.replace(bundled_config, steps=1200)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", 7 * 8 * cfg.n * cfg.m)
        calls = []
        values = Population.values
        monkeypatch.setattr(
            Population, "values", lambda self, x: calls.append(x.shape) or values(self, x)
        )
        got = run(cfg, mode=mode)
        # 1201 rounds: 171 full blocks and a last block of 4
        assert calls == [(7, cfg.n, cfg.m)] * 171 + [(4, cfg.n, cfg.m)]
        monkeypatch.undo()
        assert_same_trace(got, reference_run(cfg, mode=mode)[0])

    def test_single_device_resource_and_step(self):
        resource = ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1)
        cfg = tiny_config(n=1, m=1, steps=1, resources=(resource,))

        def world():
            return build_world([WeightedSquare(1.5)], cfg.resources, cfg.mode, cfg.seed)

        assert_same_trace(run(cfg, world=world()), reference_run(cfg, world=world())[0])

    def test_row_loop_world(self, bundled_config):
        cfg = dataclasses.replace(bundled_config, steps=200)
        fns = [Wrapped(f) if i % 2 else f for i, f in enumerate(resolve_functions(cfg))]

        def world():
            return build_world(fns, cfg.resources, "stochastic", cfg.seed)

        w = world()
        assert isinstance(w.ensemble, LoopEnsemble)
        assert_same_trace(run(cfg, world=w), reference_run(cfg, world=world())[0])

    @pytest.mark.parametrize("population", ["family", "wrapped"])
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_recomputed_gradients_are_the_runs(self, bundled_config, mode, population):
        """The gradients the rounds computed at the snapshots are the ensemble's at x_bar, bit for bit."""
        cfg = dataclasses.replace(bundled_config, steps=1200 if population == "family" else 200)
        fns = resolve_functions(cfg)
        if population == "wrapped":
            fns = [Wrapped(f) if i % 2 else f for i, f in enumerate(fns)]
        trace, grads = reference_run(cfg, world=build_world(fns, cfg.resources, mode, cfg.seed))
        ensemble = make_ensemble(trace.functions, cfg.m)
        assert type(ensemble) is (Population if population == "family" else LoopEnsemble)
        assert ensemble.gradients(trace.xbar_snap).tobytes() == grads.tobytes()


def python_device_sums(a):
    """Each column of an (..., n, m) array added device after device from 0.0 in Python floats."""
    want = np.zeros((*a.shape[:-2], a.shape[-1]))
    for idx in np.ndindex(*a.shape[:-2]):
        totals = [0.0] * a.shape[-1]
        for row in a[idx].tolist():
            for j, v in enumerate(row):
                totals[j] += v
        want[idx] = totals
    return want


class TestDeviceSum:
    """One sequential pass over the devices keeps the reduce's bits for both device totals."""

    @pytest.mark.parametrize("lead", [(), (4,)])
    @pytest.mark.parametrize("n", [1, 2, 60, 10_000])
    def test_matches_reference_reduce(self, n, lead):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((*lead, n, 3)) * 10.0 ** rng.integers(-8, 8, (*lead, n, 3))
        special = rng.random(a.shape) < 0.2
        a[special] = rng.choice([0.0, -0.0, np.inf, np.nan], special.sum())
        a[..., 0] = -0.0
        with np.errstate(invalid="ignore"):
            got, want = engine._device_sum(a), reference_device_sum(a)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("layout, shape, branch", [
        pytest.param("C", (70_000, 3), "einsum", id="70000-C"),  # past 2**16 devices
        pytest.param("F", (20_000, 3), "accumulate", id="20000-F"),
        pytest.param("transposed", (3, 8_193, 3), "accumulate", id="8193-lead-transposed"),
        pytest.param("C", (20_000, 1), "accumulate", id="20000-m1"),
        pytest.param("C", (3, 8_193, 1), "accumulate", id="8193-lead-m1"),
    ])
    def test_layouts_are_sequential_python_sums(self, monkeypatch, layout, shape, branch):
        # einsum adds the devices in order only when they are not the innermost axis in
        # memory; an F-ordered or transposed input and m = 1 take the running sum instead
        rng = np.random.default_rng(shape)
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        u = rng.random(shape)
        a = np.select([u < 0.05, u < 0.1], [rng.choice([0.0, -0.0, np.inf, np.nan], shape), -0.0], a)
        if shape[-1] > 1:
            a[..., 0] = -0.0  # an all -0.0 column totals +0.0
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "transposed":
            a = np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2)
        calls = []
        einsum = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *args, **kw: calls.append(1) or einsum(*args, **kw))
        out = np.full(shape[:-2] + shape[-1:], np.nan)
        with np.errstate(invalid="ignore", over="ignore"):
            assert engine._device_sum(a, out) is out
        assert (branch == "einsum") == bool(calls)
        assert out.tobytes() == python_device_sums(a).tobytes()

    @pytest.mark.parametrize("shape", [(10_000, 3), (1, 10_000, 3)])
    def test_writes_into_out_without_a_temporary(self, shape):
        # a running sum would take an (n, m) temporary; the totals are read straight into ``out``
        a = np.random.default_rng(0).random(shape)
        out = np.empty(shape[:-2] + shape[-1:])
        engine._device_sum(a, out)
        out[...] = np.nan
        tracemalloc.start()
        try:
            got = engine._device_sum(a, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is out
        assert out.tobytes() == reference_device_sum(a).tobytes()
        assert peak < a.nbytes / 2

    @pytest.mark.parametrize("n, lead, m", [  # m = 3, the family's resource count, keeps plain n-lead ids
        pytest.param(n, lead, m, id=f"{n}-lead{i}" + ("" if m == 3 else f"-m{m}"))
        for m in (3, 1, 2, 4) for n in (1, 2, 3, 60, 8_191, 8_192, 8_193, 20_000)
        for i, lead in enumerate([(), (3,)])
    ])
    def test_is_a_sequential_python_sum(self, n, lead, m):
        # the contract a faster device sum must keep: each column added device
        # after device in Python floats, on signed zeros, infinities, NaN of both
        # signs and magnitudes that cancel, such as (1e16, 1, -1e16). The columns
        # cycle through three kinds: 30% specials, 90% -0.0, 80% cancelling; a
        # single column is finite and of moderate magnitude, so that its total
        # shows the order of the additions
        rng = np.random.default_rng([n, len(lead), m])
        shape, top = (*lead, n, m), 300 if m > 1 else 3
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-top, top, shape)
        special = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], shape)
        cancelling = rng.choice([1e16, 1.0, -1e16, 2.0**-1074, -(2.0**53)], shape)
        kinds = [(0.0, 0.0, 0.3), (0.9, 0.9, 0.93), (0.0, 0.8, 0.86)]  # -0.0, cancelling, special below
        zero, cancel, spec = np.array([kinds[j % 3] for j in range(m)] if m > 1 else [(0.1, 0.4, 0.4)]).T
        u = rng.random(shape)
        a = np.select([u < zero, u < cancel, u < spec], [-0.0, cancelling, special], a)
        # no column of only -0.0, where a running sum from the first device keeps -0.0
        k = rng.integers(n)
        a[..., k, :] = np.where(np.all((a == 0.0) & np.signbit(a), axis=-2), 0.0, a[..., k, :])
        want = np.zeros((*lead, m))
        for idx in np.ndindex(*lead):
            totals = [0.0] * m
            for row in a[idx].tolist():
                for j, v in enumerate(row):
                    totals[j] += v
            want[idx] = totals
        with np.errstate(invalid="ignore", over="ignore"):
            got = engine._device_sum(a)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_engine_state_never_negative_zero(self, bundled_config, mode):
        t = run(dataclasses.replace(bundled_config, steps=300), mode=mode)
        for series in (t.x_snap, t.xbar_snap, t.totals_inst, t.totals_avg):
            assert not np.any(np.signbit(series))

    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_wide_run_matches_reference(self, bundled_config, monkeypatch, mode):
        # the bundled scenario at n = 10 000 for 40 rounds, capacities scaled with n
        scale = 10_000 / bundled_config.n
        cfg = dataclasses.replace(
            bundled_config,
            n=10_000,
            steps=40,
            trace_stride=20,
            resources=tuple(
                dataclasses.replace(p, capacity=p.capacity * scale)
                for p in bundled_config.resources
            ),
        )

        def world():
            return build_world(sampled_functions(cfg.n), cfg.resources, mode, cfg.seed)

        got = run(cfg, world=world())
        snap_totals = reference_device_sum(got.x_snap)
        assert got.totals_inst[got.snap_steps].tobytes() == snap_totals.tobytes()
        # the reference steps and records with the reduces the running sums replaced
        monkeypatch.setattr(engine, "_device_sum", reference_device_sum)
        monkeypatch.setattr(Population, "values", reference_values)
        assert_same_trace(got, reference_run(cfg, world=world())[0])
