from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aimdalloc import (
    DegenerateAverageError,
    ResourceParams,
    additive_increase,
    md_deterministic,
    md_stochastic,
    scaling_factor,
    update_average,
)
from aimdalloc.aimd import AVERAGE_FLOOR, LAMBDA_MARGIN, ClampStats

from _stand_ins import reference_scaling_factor

finite_pos = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
unit_open = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)
beta_range = st.floats(min_value=0.0, max_value=1.0 - 1e-9, allow_nan=False)


class TestResourceParams:
    def test_valid(self):
        ResourceParams(capacity=32.0, alpha=0.025, beta=0.7, gamma_norm=1 / 90)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity": 0.0},
            {"alpha": 0.0},
            {"beta": 1.0},
            {"beta": -0.1},
            {"gamma_cap": 0.0},
            {"gamma_cap": 1.5},
            {"gamma_norm": 0.0},
            {"capacity": np.inf},
            {"capacity": np.nan},
            {"alpha": np.inf},
            {"gamma_norm": np.inf},
        ],
    )
    def test_invalid_field_rejected(self, kwargs):
        base = dict(capacity=1.0, alpha=0.1, beta=0.5, gamma_cap=1.0, gamma_norm=0.1)
        with pytest.raises(ValueError):
            ResourceParams(**{**base, **kwargs})


class TestAdditiveIncrease:
    def test_reference_step(self):
        assert additive_increase(1.0, 0.025) == pytest.approx(1.025, abs=1e-15)

    def test_from_zero(self):
        assert additive_increase(0.0, 0.02) == 0.02

    def test_forty_steps_reach_one(self):
        x = 0.0
        for _ in range(40):
            x = additive_increase(x, 0.025)
        assert x == pytest.approx(1.0, abs=1e-12)


class TestScalingFactor:
    def test_reference_value(self):
        assert scaling_factor(1 / 90, grad=18.0, x_bar_j=0.4) == pytest.approx(0.5)

    def test_just_above_lower_margin_not_clamped(self):
        # raw ratio 1.11e-6 sits above the 1e-6 margin
        stats = ClampStats()
        lam = scaling_factor(1 / 90, grad=0.001, x_bar_j=10.0, stats=stats)
        assert lam == pytest.approx((1 / 90) * 0.001 / 10.0)
        assert stats.low == 0 and stats.high == 0

    def test_below_lower_margin_clamped(self):
        stats = ClampStats()
        lam = scaling_factor(1 / 90, grad=1e-4, x_bar_j=10.0, stats=stats)
        assert lam == LAMBDA_MARGIN
        assert stats.low == 1

    def test_above_one_clamped(self):
        stats = ClampStats()
        lam = scaling_factor(2.0, grad=3.0, x_bar_j=1.0, stats=stats)
        assert lam == 1.0 - LAMBDA_MARGIN
        assert stats.high == 1

    def test_degenerate_average_raises(self):
        with pytest.raises(DegenerateAverageError):
            scaling_factor(1 / 90, grad=1.0, x_bar_j=AVERAGE_FLOOR)

    def test_vector_inputs(self):
        lam = scaling_factor(0.1, np.array([2.0, 4.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(lam, [0.2, 0.4])


def _around(v):
    return [float(np.nextafter(v, -np.inf)), v, float(np.nextafter(v, np.inf))]


#: with gamma_norm = x_bar = 1 the raw ratio is the gradient itself, so these
#: put it exactly at, and one ulp either side of, both clamp margins
margin_grads = _around(LAMBDA_MARGIN) + _around(1.0 - LAMBDA_MARGIN)
special = [np.nan, np.inf, -np.inf, 0.0, -0.0]
any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def scaling_inputs(draw):
    """(gamma_norm, grad, x_bar): scalars or (n, k) blocks with one gamma_norm per column."""
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5))
    cols = shape[-1:] if shape else ()
    gamma = draw(hnp.arrays(float, cols, elements=st.one_of(
        st.just(1.0), st.floats(min_value=1e-3, max_value=1e3)
    )))
    grad = draw(hnp.arrays(float, shape, elements=st.one_of(
        st.sampled_from(margin_grads + special), any_float
    )))
    x_bar = draw(hnp.arrays(float, shape, elements=st.one_of(
        st.just(1.0), st.sampled_from(_around(AVERAGE_FLOOR) + special), any_float
    )))
    return gamma, grad, x_bar


def outcome(fn, gamma, grad, x_bar):
    """(lam bytes and type, or the error type) and the clamp counts of one call."""
    stats = ClampStats(low=3, high=5)
    try:
        with np.errstate(all="ignore"):
            lam = fn(gamma, grad, x_bar, stats)
    except DegenerateAverageError:
        return "degenerate", None
    return (type(lam), np.asarray(lam).tobytes()), (stats.low, stats.high)


class TestScalingFactorMatchesReference:
    """The minimum guard, min/max clip and skipped counts keep the old formula's results."""

    @settings(max_examples=200, deadline=None)
    @given(scaling_inputs())
    @example((np.ones(6), np.array(margin_grads), np.ones(6)))
    @example((1.0, np.array(margin_grads), np.ones(6)))
    @example(
        (np.ones(2), np.array([[np.nan, 1.0], [0.5, np.inf]]), np.array([[1.0, np.nan], [2.0, 1e-9]]))
    )
    @example((np.ones(2), np.array([[-np.inf, 0.3]]), np.array([[np.nan, 0.5]])))
    @example((2.0, 0.3, AVERAGE_FLOOR))
    def test_same_lambda_counts_and_errors(self, args):
        assert outcome(scaling_factor, *args) == outcome(reference_scaling_factor, *args)


class TestDeterministicBackoff:
    def test_reference_value(self):
        assert md_deterministic(2.0, 0.5, 0.7) == pytest.approx(1.7, abs=1e-15)

    def test_identity_limit(self):
        assert md_deterministic(3.0, 0.0, 0.7) == 3.0

    def test_full_backoff_limit(self):
        assert md_deterministic(3.0, 1.0, 0.7) == pytest.approx(2.1, abs=1e-15)

    @given(x=finite_pos, lam=unit_open, beta=beta_range)
    @example(x=17171.0, lam=0.999999, beta=1e-8)  # x * (1 - lam * (1 - beta)) is 6e-11 off
    def test_multiplier_identity(self, x, lam, beta):
        exact = Fraction(x) * (1 - Fraction(lam) * (1 - Fraction(beta)))
        assert md_deterministic(x, lam, beta) == pytest.approx(float(exact), rel=1e-12)

    @given(x=finite_pos, lam=unit_open, beta=beta_range)
    def test_multiplier_strictly_inside_beta_one(self, x, lam, beta):
        out = md_deterministic(x, lam, beta)
        assert beta * x <= out <= x

    @given(x=finite_pos, beta=beta_range, lam1=unit_open, lam2=unit_open)
    def test_decreasing_in_lambda(self, x, beta, lam1, lam2):
        lo, hi = sorted((lam1, lam2))
        assert md_deterministic(x, hi, beta) <= md_deterministic(x, lo, beta)

    @given(x=finite_pos, lam=unit_open, b1=beta_range, b2=beta_range)
    def test_increasing_in_beta(self, x, lam, b1, b2):
        lo, hi = sorted((b1, b2))
        assert md_deterministic(x, lam, lo) <= md_deterministic(x, lam, hi)


class TestStochasticBackoff:
    def test_certain_backoff(self):
        rng = np.random.default_rng(0)
        assert md_stochastic(2.0, 1.0, 0.7, rng) == pytest.approx(1.4)

    def test_never_backoff(self):
        rng = np.random.default_rng(0)
        assert md_stochastic(2.0, 0.0, 0.7, rng) == 2.0

    def test_backoff_frequency(self):
        rng = np.random.default_rng(123)
        draws = md_stochastic(np.ones(100_000), 0.3, 0.5, rng)
        freq = np.mean(draws < 1.0)
        assert abs(freq - 0.3) <= 0.005  # > 3 sigma of a fair binomial

    def test_expected_value_matches_deterministic_rule(self):
        # derandomization bridge: the mean stochastic update is the
        # deterministic one; checked at 3 sigma of the Monte Carlo error
        rng = np.random.default_rng(7)
        x, lam, beta = 2.0, 0.35, 0.7
        samples = md_stochastic(np.full(200_000, x), lam, beta, rng)
        mc_sigma = x * (1 - beta) * np.sqrt(lam * (1 - lam) / samples.size)
        assert abs(samples.mean() - md_deterministic(x, lam, beta)) <= 3 * mc_sigma

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        out = md_stochastic(np.linspace(0, 10, 50), 0.5, 0.0, rng)
        assert np.all(out >= 0.0)


class TestRunningAverage:
    def test_first_step(self):
        assert update_average(0.0, 0.025, 0) == pytest.approx(0.0125, abs=1e-15)

    def test_constant_sequence_fixed_point(self):
        x_bar = 3.7
        for k in range(100):
            x_bar = update_average(x_bar, 3.7, k)
        assert x_bar == pytest.approx(3.7, rel=1e-14)

    def test_recursion_equals_direct_mean(self):
        rng = np.random.default_rng(99)
        xs = rng.random(10_001) * 5.0
        x_bar = xs[0]
        for k in range(10_000):
            x_bar = update_average(x_bar, xs[k + 1], k)
        direct = xs.mean()
        assert abs(x_bar - direct) / direct <= 1e-12

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2, max_size=200))
    @settings(max_examples=50)
    def test_recursion_tracks_mean_for_any_sequence(self, xs):
        x_bar = xs[0]
        for k in range(len(xs) - 1):
            x_bar = update_average(x_bar, xs[k + 1], k)
        assert x_bar == pytest.approx(float(np.mean(xs)), rel=1e-9, abs=1e-9)

    def test_nonnegativity_preserved(self):
        assert update_average(0.0, 0.0, 0) == 0.0
        assert update_average(1e-12, 0.0, 5) >= 0.0
