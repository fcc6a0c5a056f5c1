import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from safeswarm import (
    AgentParams,
    AgentState,
    AlreadyViolatedError,
    BarrierConfig,
    centralized_row,
    neighbor_radius,
    neighbors,
    pair_barrier,
    relative_state,
    strategy_a_rows,
    strategy_b_rows,
    strategy_c_row,
)
from safeswarm import barrier

from conftest import as_ensemble, random_safe_pair

CFG = BarrierConfig(ds_mode="fixed", ds=0.6)


def pair_states(dist, vbar, v_i=None):
    """Two agents on the x axis, separated by dist, closing at -vbar."""
    v_i = np.zeros(2) if v_i is None else np.asarray(v_i, float)
    return [
        AgentState(np.array([dist, 0.0]), v_i),
        AgentState(np.zeros(2), v_i - np.array([vbar, 0.0])),
    ]


class TestPairBarrier:
    def test_zero_on_boundary_at_rest(self):
        rel = relative_state(*pair_states(0.6, 0.0))
        h, inside = pair_barrier(rel, 2.4, 0.6)
        assert h == 0.0
        assert inside  # dist == safety_dist counts as inside

    def test_closing_pair_value(self):
        rel = relative_state(*pair_states(1.1, -0.8))
        h, inside = pair_barrier(rel, 2.4, 0.6)
        assert h == pytest.approx(math.sqrt(2 * 2.4 * 0.5) - 0.8, abs=1e-12)
        assert not inside

    def test_receding_on_boundary_is_safe(self):
        rel = relative_state(*pair_states(0.6, 0.5))
        h, _ = pair_barrier(rel, 2.4, 0.6)
        assert h == pytest.approx(0.5)
        assert h >= 0

    def test_inside_disk_reports_flag_and_drops_sqrt_term(self):
        rel = relative_state(*pair_states(0.4, -0.3))
        h, inside = pair_barrier(rel, 2.4, 0.6)
        assert inside
        assert h == pytest.approx(-0.3)

    def test_rejects_nonpositive_accel_sum(self):
        rel = relative_state(*pair_states(1.0, 0.0))
        with pytest.raises(ValueError):
            pair_barrier(rel, 0.0, 0.6)

    def test_symmetric_under_pair_swap(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            states, params = random_safe_pair(rng)
            accel_sum = params[0].accel_limit + params[1].accel_limit
            h_ij, _ = pair_barrier(relative_state(states[0], states[1]), accel_sum, 0.6)
            h_ji, _ = pair_barrier(relative_state(states[1], states[0]), accel_sum, 0.6)
            assert h_ij == pytest.approx(h_ji, abs=1e-12)

    @given(st.floats(0.1, 5.0), st.floats(0.1, 5.0))
    def test_monotone_in_accel_sum(self, lo, extra):
        rel = relative_state(*pair_states(1.3, -0.4))
        h_lo, _ = pair_barrier(rel, lo, 0.6)
        h_hi, _ = pair_barrier(rel, lo + extra, 0.6)
        assert h_hi >= h_lo


class TestCentralizedRow:
    def test_bound_matches_independent_term_recomputation(self):
        params = [AgentParams(1, 1.2, 1.0, 1.0, 0.3), AgentParams(2, 1.2, 1.0, 1.0, 0.3)]
        states = pair_states(1.1, -0.8)
        row = centralized_row(0, 1, states, params, CFG)
        h = math.sqrt(2 * 2.4 * 0.5) - 0.8
        dpdv = 1.1 * -0.8
        expected = (
            1.0 * h**3 * 1.1
            - dpdv**2 / 1.1**2
            + 0.8**2
            + 2.4 * dpdv / math.sqrt(2 * 2.4 * 0.5)
        )
        assert row.b == pytest.approx(expected, abs=1e-12)
        assert np.allclose(row.a, [-1.1, 0.0, 1.1, 0.0])

    def test_static_pair_is_feasible_at_zero_control(self):
        params = [AgentParams(1, 1.0, 1.0, 1.0, 0.3), AgentParams(2, 0.7, 1.0, 1.0, 0.3)]
        row = centralized_row(0, 1, pair_states(1.5, 0.0), params, CFG)
        assert row.b > 0
        assert row.a @ np.zeros(4) <= row.b

    def test_common_mode_control_cancels(self):
        rng = np.random.default_rng(11)
        states, params = random_safe_pair(rng)
        row = centralized_row(0, 1, states, params, CFG)
        u = np.tile(rng.uniform(-1, 1, 2), 2)
        assert row.a @ u == pytest.approx(0.0, abs=1e-12)

    def test_raises_inside_safety_distance(self):
        params = [AgentParams(1, 1.0, 1.0, 1.0, 0.3), AgentParams(2, 1.0, 1.0, 1.0, 0.3)]
        with pytest.raises(AlreadyViolatedError) as info:
            centralized_row(0, 1, pair_states(0.55, 0.0), params, CFG)
        assert info.value.pair == (0, 1)

    def test_coefficients_are_unnormalized_relative_position(self):
        rng = np.random.default_rng(13)
        states, params = random_safe_pair(rng)
        row = centralized_row(0, 1, states, params, CFG)
        dp = states[0].p - states[1].p
        assert np.allclose(row.a[:2], -dp)
        assert np.allclose(row.a[2:], dp)


def _sum_rows(row_i, row_j):
    return as_ensemble(row_i, 2) + as_ensemble(row_j, 2), row_i.b + row_j.b


class TestDecompositionIdentities:
    def test_strategy_a_equal_split_without_velocity_terms(self):
        params = [AgentParams(1, 1.2, 1.0, 1.0, 0.3), AgentParams(2, 1.2, 1.0, 1.0, 0.3)]
        states = pair_states(1.4, 0.0)  # both agents at rest
        row_i, row_j = strategy_a_rows(0, 1, states, params, CFG)
        h, _ = pair_barrier(relative_state(*states), 2.4, 0.6)
        assert row_i.b == pytest.approx(0.5 * h**3 * 1.4, abs=1e-12)
        assert row_j.b == pytest.approx(row_i.b, abs=1e-12)

    def test_strategy_a_share_ratio(self):
        params = [AgentParams(1, 1.2, 1.0, 1.0, 0.3), AgentParams(2, 0.6, 1.0, 1.0, 0.3)]
        states = pair_states(1.4, 0.0)
        row_i, row_j = strategy_a_rows(0, 1, states, params, CFG)
        assert row_i.b / (row_i.b + row_j.b) == pytest.approx(1.2 / 1.8, abs=1e-12)

    def test_strategy_b_shares_and_sum(self):
        params = [AgentParams(1, 1.2, 1.0, 1.0, 0.3), AgentParams(2, 0.6, 1.0, 1.0, 0.3)]
        states = pair_states(1.1, -0.8)
        full = centralized_row(0, 1, states, params, CFG)
        row_i, row_j = strategy_b_rows(0, 1, states, params, CFG)
        assert row_i.b == pytest.approx(full.b * 1.2 / 1.8, abs=1e-12)
        assert row_j.b == pytest.approx(full.b * 0.6 / 1.8, abs=1e-12)
        a_sum, b_sum = _sum_rows(row_i, row_j)
        assert np.allclose(a_sum, full.a, atol=1e-12)
        assert b_sum == pytest.approx(full.b, abs=1e-12)

    def test_strategy_b_limit_share_shifts_burden(self):
        params = [AgentParams(1, 1.2, 1.0, 1.0, 0.3), AgentParams(2, 1e-9, 1.0, 1.0, 0.3)]
        states = pair_states(1.1, -0.8)
        full = centralized_row(0, 1, states, params, CFG)
        row_i, _ = strategy_b_rows(0, 1, states, params, CFG)
        assert row_i.b == pytest.approx(full.b, rel=1e-6)

    def test_strategy_c_velocity_free_case(self):
        params_i = AgentParams(1, 1.2, 1.0, 1.3, 0.3)
        states = pair_states(1.4, 0.0)
        row = strategy_c_row(0, 1, states, params_i, 0.6, CFG)
        h, _ = pair_barrier(relative_state(*states), 1.8, 0.6)
        assert row.b == pytest.approx((1.2 / 1.8) * 1.3 * h**3 * 1.4, abs=1e-12)

    @pytest.mark.parametrize("strategy", ["A", "B", "C"])
    def test_row_pairs_sum_to_centralized(self, strategy):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(300):
            states, params = random_safe_pair(rng)
            full = centralized_row(0, 1, states, params, CFG)
            if strategy == "A":
                row_i, row_j = strategy_a_rows(0, 1, states, params, CFG)
            elif strategy == "B":
                row_i, row_j = strategy_b_rows(0, 1, states, params, CFG)
            else:
                row_i = strategy_c_row(0, 1, states, params[0], params[1].accel_limit, CFG)
                row_j = strategy_c_row(1, 0, states, params[1], params[0].accel_limit, CFG)
            a_sum, b_sum = _sum_rows(row_i, row_j)
            worst = max(worst, float(np.max(np.abs(a_sum - full.a))), abs(b_sum - full.b))
        assert worst <= 1e-9

    def test_weighted_gain_identity_for_distinct_gains(self):
        rng = np.random.default_rng(202)
        worst = 0.0
        for _ in range(300):
            states, params = random_safe_pair(rng, equal_gamma=False)
            ai, aj = params[0].accel_limit, params[1].accel_limit
            blended = (ai * params[0].barrier_gain + aj * params[1].barrier_gain) / (ai + aj)
            full = centralized_row(0, 1, states, params, CFG, gamma=blended)
            row_i = strategy_c_row(0, 1, states, params[0], aj, CFG)
            row_j = strategy_c_row(1, 0, states, params[1], ai, CFG)
            a_sum, b_sum = _sum_rows(row_i, row_j)
            worst = max(worst, float(np.max(np.abs(a_sum - full.a))), abs(b_sum - full.b))
        assert worst <= 1e-9

    def test_conservative_estimate_shrinks_barrier(self):
        rng = np.random.default_rng(303)
        for _ in range(100):
            states, params = random_safe_pair(rng)
            rel = relative_state(states[0], states[1])
            ai, aj = params[0].accel_limit, params[1].accel_limit
            est = rng.uniform(0.1, 1.0) * aj
            h_est, _ = pair_barrier(rel, ai + est, 0.6)
            h_true, _ = pair_barrier(rel, ai + aj, 0.6)
            assert h_est <= h_true + 1e-12


class TestNeighbors:
    def test_radius_value(self):
        params = AgentParams(1, 1.2, 0.6, 1.0, 0.3)
        expected = 0.6 + (3.6 ** (1 / 3) + 1.2) ** 2 / 3.6
        assert neighbor_radius(params, 0.6, 0.6, 0.6) == pytest.approx(expected, abs=1e-12)

    def test_high_gain_limit_is_braking_distance(self):
        params = AgentParams(1, 1.2, 0.6, 1e12, 0.3)
        limit = 0.6 + 1.2**2 / 3.6
        assert neighbor_radius(params, 0.6, 0.6, 0.6) == pytest.approx(limit, rel=1e-3)

    @given(st.floats(0.2, 5.0), st.floats(0.01, 5.0))
    def test_monotone_decreasing_in_gain(self, gain, bump):
        lo = AgentParams(1, 1.2, 0.6, gain, 0.3)
        hi = AgentParams(1, 1.2, 0.6, gain + bump, 0.3)
        assert neighbor_radius(hi, 0.6, 0.6, 0.6) <= neighbor_radius(lo, 0.6, 0.6, 0.6)

    @given(st.floats(0.1, 3.0), st.floats(0.01, 3.0))
    def test_monotone_increasing_in_own_speed(self, speed, bump):
        slow = AgentParams(1, 1.2, speed, 1.0, 0.3)
        fast = AgentParams(1, 1.2, speed + bump, 1.0, 0.3)
        assert neighbor_radius(fast, 0.6, 0.6, 0.6) >= neighbor_radius(slow, 0.6, 0.6, 0.6)

    def test_empty_when_all_far(self):
        states = [AgentState([0, 0], [0, 0]), AgentState([5, 0], [0, 0]),
                  AgentState([0, 9], [0, 0])]
        assert neighbors(0, states, 2.0) == set()

    def test_boundary_distance_is_included(self):
        states = [AgentState([0, 0], [0, 0]), AgentState([2.0, 0], [0, 0])]
        assert neighbors(0, states, 2.0) == {1}

    def test_asymmetric_disks(self):
        # A nimble, aggressive agent keeps a smaller neighbor disk than a
        # fast, cautious one; between the two radii the relation is one-way.
        a = AgentParams(1, 2.0, 0.3, 5.0, 0.2)
        b = AgentParams(2, 0.4, 1.0, 0.2, 0.2)
        r_a = neighbor_radius(a, 0.4, 1.0, 0.4)
        r_b = neighbor_radius(b, 2.0, 0.3, 0.4)
        assert r_a != r_b
        dist = (r_a + r_b) / 2
        assert min(r_a, r_b) < dist < max(r_a, r_b)
        states = [AgentState([0, 0], [0, 0]), AgentState([dist, 0], [0, 0])]
        sees = {0: 1 in neighbors(0, states, r_a), 1: 0 in neighbors(1, states, r_b)}
        assert sees[0] != sees[1]


class TestSumOfRadiiMode:
    def test_pairwise_distance_from_radii(self):
        cfg = BarrierConfig()
        pi = AgentParams(1, 1.0, 1.0, 1.0, 0.4)
        pj = AgentParams(2, 1.0, 1.0, 1.0, 0.2)
        assert cfg.safety_distances(np.array([pi.radius, pj.radius]))[0, 1] == pytest.approx(0.6)

    def test_strategy_c_requires_explicit_distance(self):
        params_i = AgentParams(1, 1.2, 1.0, 1.0, 0.3)
        with pytest.raises(ValueError, match="safety_dist"):
            strategy_c_row(0, 1, pair_states(1.4, 0.0), params_i, 0.6, BarrierConfig())

    def test_fixed_mode_requires_ds(self):
        with pytest.raises(ValueError):
            BarrierConfig(ds_mode="fixed")

    def test_ds_outside_fixed_mode_rejected(self):
        with pytest.raises(ValueError, match="ds 0.5 is only valid with ds_mode 'fixed'"):
            BarrierConfig("sum_of_radii", ds=0.5)


class TestDenominatorFloor:
    def test_bound_is_finite_and_restrictive_near_boundary(self):
        params = [AgentParams(1, 1.2, 1.0, 1.0, 0.3), AgentParams(2, 1.2, 1.0, 1.0, 0.3)]
        states = pair_states(0.6 + 1e-9, -0.5)
        row = centralized_row(0, 1, states, params, CFG)
        assert math.isfinite(row.b)
        # far below anything the acceleration box could deliver
        assert row.b < -np.sum(np.abs(row.a)) * 1.2

    def test_floor_only_engages_below_epsilon(self):
        """The closing-speed term divides by sqrt(2 a gap) with the gap
        dist - Ds as it is above ``barrier.EPSILON`` and at the floor below."""
        for gap, floored in ((0.5, 0.5), (10 * barrier.EPSILON, 10 * barrier.EPSILON),
                             (barrier.EPSILON / 10, barrier.EPSILON)):
            rel = relative_state(*pair_states(0.6 + gap, -0.8))
            b = barrier.centralized_bounds(rel.dp[None], np.array([rel.dist]), rel.dv[None],
                                           2.4, 1.0, 0.6)
            dpdv = float(rel.dp @ rel.dv)
            h = math.sqrt(2 * 2.4 * (rel.dist - 0.6)) + dpdv / rel.dist
            expected = (h**3 * rel.dist - dpdv**2 / rel.dist**2 + float(rel.dv @ rel.dv)
                        + 2.4 * dpdv / math.sqrt(2 * 2.4 * floored))
            assert b.shape == (1,) and b[0] == pytest.approx(expected, rel=1e-6)


class TestOverflow:
    """A pair near the top of the float range: starts at x = -+1e160 m, so
    2e160 m apart, whose squared distance is past it."""

    def test_centralized_bound_of_the_far_pair_is_inf(self):
        dp, dist = np.array([[-2e160, 0.0]]), np.array([2e160])
        with np.errstate(over="ignore"):  # gamma * h^3 * dist overflows in numpy's multiply
            b = barrier.centralized_bounds(dp, dist, np.zeros((1, 2)), 2.4, 1.0, 0.4)
        assert b.tolist() == [math.inf]
