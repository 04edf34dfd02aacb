import dataclasses

import numpy as np
import pytest

from aimdalloc import (
    Config,
    CostSpec,
    ResourceParams,
    SimulationError,
    build_world,
    init_world,
    run,
    snapshot_steps,
    step_world,
)

from _stand_ins import WeightedSquare


def tiny_config(**overrides):
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
        cost_spec=CostSpec(kind="sample"),
    )
    fields.update(overrides)
    return Config(**fields)


def hand_world(mode="deterministic"):
    # two single-resource quadratics with slopes 2w: scaling factors are the
    # constants 0.1 * 2w, i.e. 0.2 and 0.4
    return build_world(
        [WeightedSquare(1.0), WeightedSquare(2.0)],
        [ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1)],
        mode,
        seed=1,
    )


class TestInitWorld:
    def test_reference_population(self, bundled_config):
        w = init_world(bundled_config, mode="deterministic")
        assert w.ctx.n == 60
        assert w.x.shape == (60, 3)
        assert np.all(w.x == 0.0)
        assert np.all(w.x_bar == 0.0)
        assert np.all(w.events == 0)
        assert len(w.ctx.functions) == 60

    def test_minimal_single_device_single_resource(self):
        w = build_world(
            [WeightedSquare(1.0)],
            [ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1)],
            "deterministic",
            seed=0,
        )
        assert w.x.shape == (1, 1)

    def test_minimal_config_world(self):
        w = init_world(tiny_config(n=1))
        assert w.x.shape == (1, 3)

    def test_same_seed_same_world(self, bundled_config):
        a = init_world(bundled_config, mode="deterministic")
        b = init_world(bundled_config, mode="deterministic")
        assert a.ctx.functions == b.ctx.functions
        np.testing.assert_array_equal(a.x, b.x)

    def test_modes_share_cost_functions(self, bundled_config):
        det = init_world(bundled_config, mode="deterministic")
        sto = init_world(bundled_config, mode="stochastic")
        assert det.ctx.functions == sto.ctx.functions

    def test_both_mode_rejected_without_override(self, bundled_config):
        with pytest.raises(ValueError):
            init_world(bundled_config)


class TestStepWorld:
    def test_additive_phase_from_init(self, bundled_config):
        w = step_world(init_world(bundled_config, mode="deterministic"))
        alphas = [p.alpha for p in bundled_config.resources]
        np.testing.assert_allclose(w.x, np.tile(alphas, (60, 1)))
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
        w = dataclasses.replace(
            w,
            x=np.array([[0.6], [0.6]]),
            x_bar=np.array([[0.3], [0.3]]),
            grads=w.ctx.ensemble.gradients(np.array([[0.3], [0.3]])),
            events=np.array([1], dtype=np.uint8),
        )
        nxt = step_world(w)
        lam = 1.0 - 1e-6
        expected = (lam * 0.5 + (1.0 - lam)) * 0.6
        np.testing.assert_allclose(nxt.x, [[expected], [expected]])

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
            w = step_world(w)
            np.testing.assert_allclose(w.x[:, 0], xs, atol=1e-12)
            np.testing.assert_allclose(w.x_bar[:, 0], xbars, atol=1e-12)
            assert w.events[0] == bit
            assert w.k == step

    def test_stochastic_mode_same_until_first_event(self):
        det = hand_world("deterministic")
        sto = hand_world("stochastic")
        # steps 1 and 2 are event-free (the bit first rises after step 2)
        for _ in range(2):
            det = step_world(det)
            sto = step_world(sto)
            np.testing.assert_array_equal(det.x, sto.x)

    def test_degenerate_average_aborts(self):
        w = hand_world()
        w = dataclasses.replace(w, events=np.array([1], dtype=np.uint8))
        with pytest.raises(SimulationError):
            step_world(w)


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
        w3 = init_world(cfg)
        with pytest.raises(ValueError):
            run(cfg, mode="stochastic", world=w3)
        with pytest.raises(ValueError):
            run(cfg, world=step_world(w3))
