import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeswarm import LimitEstimator
from safeswarm import estimator
from safeswarm.estimator import SMOOTHING


class TestInit:
    def test_all_estimates_start_at_floor(self):
        est = LimitEstimator([2, 3, 4], accel_floor=0.5, gain=1.0)
        assert est.estimates == {2: 0.5, 3: 0.5, 4: 0.5}

    def test_empty_neighbor_set(self):
        assert LimitEstimator([], 0.5, 1.0).estimates == {}

    def test_duplicate_ids_collapse(self):
        est = LimitEstimator([7, 7, 7], 0.4, 1.0)
        assert est.estimates == {7: 0.4}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LimitEstimator([1], 0.0, 1.0)
        with pytest.raises(ValueError):
            LimitEstimator([1], 0.5, -1.0)

    @pytest.mark.parametrize("floor, gain, message", [
        (math.inf, 1.0, "accel_floor must be positive and finite, got inf"),
        (math.nan, 1.0, "accel_floor must be positive and finite, got nan"),
        (0.5, math.inf, "gain must be positive and finite, got inf"),
        (0.5, math.nan, "gain must be positive and finite, got nan"),
    ])
    def test_rejects_non_finite_floor_or_gain(self, floor, gain, message):
        """Either would make the first update's estimate NaN (inf * 0 or
        inf - inf)."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            LimitEstimator([1], floor, gain)


class TestObserve:
    def test_first_observation_only_stores_velocity(self):
        est = LimitEstimator([2], 0.5, 1.0)
        est.observe(np.array([[1.0, -1.0]]), 0.1)
        assert est.observed_accel(2) == 0.0

    def test_finite_difference_value(self):
        """A sample is the per-axis max of the velocity change over dt, and
        the first one enters the observation with weight SMOOTHING."""
        for dv, raw in (([0.1, 0.0], 1.0), ([0.0, 0.03], 0.3), ([-0.05, 0.02], 0.5)):
            est = LimitEstimator([2], 0.5, 1.0)
            est.observe(np.array([[0.0, 0.0]]), 0.1)
            est.observe(np.array([dv]), 0.1)
            assert est.observed_accel(2) == pytest.approx(SMOOTHING * raw)

    def test_smoothing_one_is_raw_finite_difference(self, monkeypatch):
        monkeypatch.setattr(estimator, "SMOOTHING", 1.0)
        est = LimitEstimator([2], 0.5, 1.0)
        est.observe(np.zeros((1, 2)), 0.02)
        est.observe(np.array([[0.0, 0.03]]), 0.02)
        assert est.observed_accel(2) == pytest.approx(1.5)

    def test_constant_velocity_decays_observation(self):
        est = LimitEstimator([2], 0.5, 1.0)
        est.observe(np.array([[0.0, 0.0]]), 0.1)
        est.observe(np.array([[0.2, 0.0]]), 0.1)
        high = est.observed_accel(2)
        for _ in range(10):
            est.observe(np.array([[0.2, 0.0]]), 0.1)
        assert est.observed_accel(2) == pytest.approx(high * (1.0 - SMOOTHING) ** 10)

    def test_rows_follow_the_order_of_ids(self):
        est = LimitEstimator([5, 3], 0.5, 1.0)
        est.observe(np.zeros((2, 2)), 0.1)
        est.observe(np.array([[0.1, 0.0], [0.0, -0.3]]), 0.1)
        assert est.observed_accel(5) == pytest.approx(SMOOTHING * 1.0)
        assert est.observed_accel(3) == pytest.approx(SMOOTHING * 3.0)

    def test_rejects_velocities_of_the_wrong_shape(self):
        est = LimitEstimator([2, 3], 0.5, 1.0)
        for bad in (np.zeros(2), np.zeros((1, 2)), np.zeros((3, 2)), np.zeros((2, 3))):
            with pytest.raises(ValueError, match="shape"):
                est.observe(bad, 0.1)
        with pytest.raises(ValueError, match="shape"):
            LimitEstimator([], 0.5, 1.0).observe(np.zeros((1, 2)), 0.1)


class TestUpdate:
    def test_small_observation_leaves_estimate_unchanged(self):
        est = LimitEstimator([2], 0.5, 1.0)
        est.observe(np.zeros((1, 2)), 0.1)
        est.observe(np.array([[0.1, 0.0]]), 0.1)  # 1 m/s^2, observed as 0.2 < floor
        est.update(0.1)
        assert est.estimates[2] == 0.5

    def test_single_euler_step(self):
        est = LimitEstimator([2], 0.5, gain=1.0)
        est.observe(np.zeros((1, 2)), 0.1)
        est.observe(np.array([[0.1 / SMOOTHING, 0.0]]), 0.1)  # observation of 1.0 m/s^2
        assert est.observed_accel(2) == pytest.approx(1.0)
        est.update(0.1)
        assert est.estimates[2] == pytest.approx(0.55)

    def test_step_of_gain_times_dt_one_lands_on_the_observation(self):
        est = LimitEstimator([2], 0.5, gain=4.0)
        est.observe(np.zeros((1, 2)), 0.25)
        est.observe(np.array([[0.25 / SMOOTHING, 0.0]]), 0.25)  # observation of 1.0 m/s^2
        est.update(0.25)
        assert est.estimates[2] == est.observed_accel(2) == pytest.approx(1.0)

    @pytest.mark.parametrize("gain, dt", [(60.0, 0.02), (500.0, 0.02), (1.0, 1.5)])
    def test_rejects_gain_times_dt_above_one(self, gain, dt):
        """Past gain * dt = 1 an Euler step overshoots the observation it
        moves toward, and so the true limit behind it."""
        est = LimitEstimator([2], 0.5, gain)
        est.observe(np.zeros((1, 2)), dt)
        with pytest.raises(ValueError, match="gain \\* dt must be at most 1"):
            est.update(dt)
        assert est.estimates[2] == 0.5

    def test_exponential_convergence_to_sustained_observation(self):
        gain, dt, target = 2.0, 0.01, 1.0
        est = LimitEstimator([2], 0.5, gain=gain)
        est.observe(np.zeros((1, 2)), dt)
        est.observe(np.array([[target * dt / SMOOTHING, 0.0]]), dt)  # held from here on
        assert est.observed_accel(2) == pytest.approx(target)
        t = 0.0
        while t < 3.0 / gain:
            est.update(dt)
            t += dt
        exact = target + (0.5 - target) * math.exp(-gain * t)
        assert est.estimates[2] == pytest.approx(exact, abs=0.01)


class TestConservativeLaws:
    def test_monotone_nondecreasing_under_arbitrary_observations(self):
        rng = np.random.default_rng(5)
        est = LimitEstimator([3], 0.4, 1.5)
        prev = est.estimates[3]
        v = np.zeros(2)
        for _ in range(500):
            v = v + rng.uniform(-1, 1, 2) * 0.02
            est.observe(v[None], 0.02)
            est.update(0.02)
            assert est.estimates[3] >= prev - 1e-15
            prev = est.estimates[3]

    def test_never_exceeds_true_limit_under_box_bounded_motion(self):
        rng = np.random.default_rng(6)
        true_limit = 0.9
        est = LimitEstimator([3], 0.45, gain=2.0)
        v = np.zeros(2)
        for _ in range(3000):
            u = true_limit * rng.uniform(-1, 1, 2)  # |u|_inf <= true limit
            est.observe(v[None], 0.02)
            est.update(0.02)
            v = v + u * 0.02
        assert est.estimates[3] <= true_limit + 1e-9

    @settings(max_examples=30)
    @given(st.floats(0.2, 2.0), st.floats(0.05, 0.95))
    def test_floor_is_a_lower_bound_forever(self, floor, shrink):
        est = LimitEstimator([1], floor, gain=1.0)
        v = np.zeros(2)
        for k in range(50):
            v = v + np.array([shrink * floor, 0.0]) * 0.02
            est.observe(v[None], 0.02)
            est.update(0.02)
        assert est.estimates[1] >= floor
