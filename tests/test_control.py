import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aimdalloc import Config, ResourceParams, build_world, run
from aimdalloc.control import capacity_event_bits

from _stand_ins import WeightedSquare


def bits(totals, caps, gamma=1.0):
    caps = np.asarray(caps, dtype=float)
    return capacity_event_bits(np.asarray(totals, dtype=float), caps, np.full(caps.shape, gamma))


class TestCapacityEvents:
    def test_reference_capacities(self):
        assert bits((32.01, 19.0, 24.0), (32.0, 20.0, 25.0)).tolist() == [1, 0, 0]

    def test_strict_inequality_at_boundary(self):
        assert bits((32.0, 20.0, 25.0), (32.0, 20.0, 25.0)).tolist() == [0, 0, 0]

    def test_derated_threshold(self):
        assert bits((18.5,), (20.0,), gamma=0.9).tolist() == [1]  # 18.5 > 0.9 * 20

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bits((1.0, 2.0), (32.0, 20.0, 25.0))

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6), st.data())
    def test_permutation_equivariance(self, totals, data):
        caps = [50.0 + 10 * i for i in range(len(totals))]
        perm = data.draw(st.permutations(range(len(totals))))
        base = bits(totals, caps)
        shuffled = bits([totals[p] for p in perm], [caps[p] for p in perm])
        assert shuffled.tolist() == [base[p] for p in perm]

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_monotone_in_totals(self, totals, idx, bump):
        caps = [30.0] * len(totals)
        before = bits(totals, caps)
        raised = list(totals)
        raised[idx % len(totals)] += bump
        assert np.all(bits(raised, caps) >= before)


class TestOverhead:
    """Communication overhead is read off the trace: ``Trace.cumulative_event_bits``."""

    def test_hand_world_running_count(self):
        # the hand-worked replay of test_engine raises the bit after steps 2, 3 and 5
        resource = ResourceParams(capacity=1.0, alpha=0.3, beta=0.5, gamma_norm=0.1)
        world = build_world([WeightedSquare(1.0), WeightedSquare(2.0)], [resource], "deterministic", seed=1)
        cfg = Config(n=2, m=1, steps=5, mode="deterministic", resources=(resource,), seed=1)
        tr = run(cfg, world=world)
        assert tr.events[:, 0].tolist() == [0, 0, 1, 1, 0, 1]
        assert tr.cumulative_event_bits[:, 0].tolist() == [0, 0, 1, 2, 2, 3]

    def test_all_zero_log(self):
        resources = tuple(
            ResourceParams(capacity=1e6, alpha=0.1, beta=0.5, gamma_norm=0.01) for _ in range(3)
        )
        cfg = Config(n=4, m=3, steps=24, mode="deterministic", resources=resources, seed=0)
        tr = run(cfg)
        assert not tr.events.any()
        assert not tr.cumulative_event_bits.any()

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=8),
        steps=st.integers(min_value=1, max_value=300),
        resources=st.tuples(*[st.builds(
            ResourceParams,
            capacity=st.floats(min_value=0.01, max_value=100.0),
            alpha=st.floats(min_value=1e-3, max_value=1.0),
            beta=st.floats(min_value=0.0, max_value=0.95),
            gamma_cap=st.floats(min_value=0.5, max_value=1.0),
            gamma_norm=st.floats(min_value=1e-6, max_value=1e3),
        )] * 3),
        mode=st.sampled_from(["deterministic", "stochastic"]),
    )
    def test_nondecreasing_and_bounded(self, seed, n, steps, resources, mode):
        # overshoot stays within gamma*C + n*alpha (criterion 10's slack) on any
        # family world: a round with an event only backs off, one without adds
        # n*alpha; bits start at zero, never decrease and never exceed m per step
        cfg = Config(
            n=n, m=3, steps=steps, mode=mode, resources=resources, seed=seed, trace_stride=steps
        )
        tr = run(cfg)
        bound = np.array([p.gamma_cap * p.capacity + n * p.alpha for p in resources])
        assert np.all(tr.totals_inst <= bound + 1e-9)
        assert np.all(tr.events[0] == 0)
        cum = tr.cumulative_event_bits
        assert np.all(np.diff(cum, axis=0) >= 0)
        assert np.all(cum.sum(axis=1) <= 3 * (np.arange(steps + 1) + 1))
