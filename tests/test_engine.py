import dataclasses

import numpy as np
import pytest

from aimdalloc import (
    ResourceParams,
    SimulationError,
    build_world,
    md_stochastic,
    resolve_functions,
    run,
    scaling_factor,
    snapshot_steps,
    step_world,
)

from _stand_ins import BlowUp, WeightedSquare, hand_world, tiny_config


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

    def test_finite_run_passes(self):
        cfg = two_resource_config()
        world = build_world(
            [BlowUp(1.0, [np.inf, 10.0], np.nan), BlowUp(2.0, [np.inf, 10.0], np.nan)],
            cfg.resources, "deterministic", 1,
        )
        assert np.isfinite(run(cfg, world=world).spread).all()


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
