import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeswarm import (
    AgentParams,
    AgentState,
    braking_fallback,
    goal_controller,
    pair_barrier,
    relative_state,
    step,
)
from safeswarm.sim import (
    DEADLOCK_WINDOW,
    AgentSetup,
    Scenario,
    ScenarioError,
    SimContext,
    StepRecord,
    TrajectoryLog,
    compute_metrics,
    detect_deadlock,
    log_minima,
    run,
    step_once,
)

from safeswarm.presets import circle6, ring_swap

from conftest import lanes_tiles, preset


def agent(aid, p0, goal, accel=1.2, speed=0.6, gain=1.0, radius=0.2, v0=(0.0, 0.0)):
    return AgentSetup(
        AgentParams(aid, accel, speed, gain, radius),
        AgentState(np.array(p0, dtype=float), np.array(v0, dtype=float)),
        np.array(goal, dtype=float),
    )


def two_agent_headon(mode="decentralized_C", t_end=20.0, offset=0.04):
    return Scenario(
        agents=[
            agent(1, (-1.5, offset), (1.5, offset)),
            agent(2, (1.5, -offset), (-1.5, -offset)),
        ],
        t_end=t_end,
        mode=mode,
    )


class TestGoalController:
    def test_at_goal_at_rest_is_zero(self):
        u = goal_controller(np.array([1.0, 2.0]), np.zeros(2), np.array([1.0, 2.0]), 1.0, 2.0, 1.2)
        assert np.allclose(u, 0.0)

    def test_pd_formula_before_saturation(self):
        u = goal_controller(np.array([1.0, 0.0]), np.array([0.5, 0.0]), np.zeros(2), 1.0, 2.0, 5.0)
        assert np.allclose(u, [-2.0, 0.0])

    def test_far_goal_saturates_to_box(self):
        u = goal_controller(np.zeros(2), np.zeros(2), np.array([100.0, -100.0]), 1.0, 2.0, 1.2)
        assert np.allclose(np.abs(u), 1.2)

    def test_broadcasts_over_agents_like_one_agent_at_a_time(self):
        rng = np.random.default_rng(5)
        P, V, G = (rng.uniform(-3.0, 3.0, (6, 2)) for _ in range(3))
        limit = rng.uniform(0.3, 2.0, (6, 1))
        U = goal_controller(P, V, G, 1.0, 2.0, limit)
        for k in range(6):
            u = goal_controller(P[k], V[k], G[k], 1.0, 2.0, float(limit[k, 0]))
            assert U[k].tobytes() == u.tobytes()


class TestBrakingFallback:
    def test_full_deceleration_along_velocity(self):
        u = braking_fallback(np.array([1.0, 0.0]), 1.2)
        assert np.allclose(u, [-1.2, 0.0])

    def test_zero_velocity_gives_zero(self):
        assert np.allclose(braking_fallback(np.zeros(2), 1.2), 0.0)

    def test_always_inside_box(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.uniform(-3, 3, 2)
            assert np.max(np.abs(braking_fallback(v, 0.9))) <= 0.9 + 1e-12

    @staticmethod
    def one_agent(v, limit):
        # The one-agent formula in Python floats: numpy's clip is
        # min(max(x, lo), hi), and -limit * v / peak rounds left to right.
        peak = max(abs(v[0]), abs(v[1]))
        if peak < 1e-12:
            return [0.0, 0.0]
        return [min(max(-limit * c / peak, -limit), limit) for c in v]

    # Speeds at rest, signed zeros, either side of the 1e-12 rest threshold,
    # and ordinary ones.
    SPEEDS = (st.sampled_from([0.0, -0.0, 1e-12, -1e-12, math.nextafter(1e-12, 0.0),
                               -math.nextafter(1e-12, 0.0), math.nextafter(1e-12, 1.0), 5e-13,
                               1e-300, -5e-324])
              | st.floats(-5.0, 5.0, allow_nan=False))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(SPEEDS, SPEEDS, st.floats(0.05, 3.0)), min_size=1, max_size=12))
    def test_rows_with_their_own_limits_match_one_agent_formula(self, rows):
        """Over (N, 2) velocities with one row of limits per agent, as the
        step's box, every row equals the one-agent formula bit for bit, and
        so does a one-agent call."""
        V = np.array([r[:2] for r in rows])
        limit = np.array([r[2] for r in rows])
        ref = np.array([self.one_agent(v, a) for v, a in zip(V.tolist(), limit.tolist())])
        U = braking_fallback(V, np.repeat(limit[:, None], 2, axis=1))
        assert U.shape == V.shape and U.tobytes() == ref.tobytes()
        for k in range(len(rows)):
            assert braking_fallback(V[k], float(limit[k])).tobytes() == ref[k].tobytes()


def synthetic_log(positions, velocities, goals, dt=0.1):
    agents = [
        agent(k + 1, positions[0][k], goals[k]) for k in range(len(goals))
    ]
    scn = Scenario(agents=agents, dt=dt, t_end=dt * (len(positions) - 1))
    n = len(goals)
    records = []
    for k in range(1, len(positions)):
        records.append(
            StepRecord(
                t=k * dt,
                p=np.array(positions[k], dtype=float),
                v=np.array(velocities[k], dtype=float),
                u_applied=np.zeros((n, 2)),
                u_nominal=np.zeros((n, 2)),
                brake=np.zeros(n, dtype=bool),
                row_pairs=np.empty((0, 2), dtype=int),
            )
        )
    return TrajectoryLog(scn, records)


class TestDeadlockDetector:
    def test_agents_at_goals_never_deadlock(self):
        steps = 80
        pos = [[(0.0, 0.0)]] * (steps + 1)
        vel = [[(0.0, 0.0)]] * (steps + 1)
        log = synthetic_log(pos, vel, goals=[(0.0, 0.0)])
        assert detect_deadlock(log) == (False, None)

    def test_parked_far_from_goal_is_deadlock(self):
        steps = 80
        pos = [[(0.0, 0.0)]] * (steps + 1)
        vel = [[(0.0, 0.0)]] * (steps + 1)
        log = synthetic_log(pos, vel, goals=[(3.0, 0.0)])
        flag, onset = detect_deadlock(log)
        assert flag
        assert onset == pytest.approx(0.1)

    def test_slow_but_moving_agent_is_not_deadlocked(self):
        steps = 80
        pos = [[(0.001 * k, 0.0)] for k in range(steps + 1)]
        vel = [[(0.02, 0.0)]] * (steps + 1)  # above the 0.01 m/s threshold
        log = synthetic_log(pos, vel, goals=[(3.0, 0.0)])
        assert detect_deadlock(log) == (False, None)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_window_sums_match_the_sliding_window_loop(self, data):
        """detect_deadlock finds the same onset as a loop that tests every
        window of ``span`` steps for an agent stuck throughout."""
        n = data.draw(st.integers(1, 4))
        steps = data.draw(st.integers(1, 40))
        stuck = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                                            min_size=steps, max_size=steps)))
        span = data.draw(st.integers(1, steps + 2))
        dt = DEADLOCK_WINDOW / span
        # A stuck agent sits still away from its goal; the others move.
        vel = [[(0.0, 0.0)] * n] + [[(0.0 if s else 1.0, 0.0) for s in row] for row in stuck]
        log = synthetic_log([[(0.0, 0.0)] * n] * (steps + 1), vel, goals=[(3.0, 0.0)] * n, dt=dt)
        onset = None
        for start in range(0, steps - span + 1):
            if np.any(np.all(stuck[start : start + span], axis=0)):
                onset = log.records[start].t
                break
        assert detect_deadlock(log) == (onset is not None, onset)


class TestScenarioValidation:
    def test_duplicate_ids_rejected(self):
        scn = Scenario(agents=[agent(1, (0, 0), (1, 0)), agent(1, (3, 0), (0, 0))])
        with pytest.raises(ScenarioError, match="duplicate"):
            scn.validate()

    @pytest.mark.parametrize("ids, reported", [([1, 2, 2, 1], 1), ([3, 1, 2, 2], 2),
                                               (list(range(999)) + [998], 998)])
    def test_duplicate_id_reported_is_the_first_repeated_in_list_order(self, ids, reported):
        scn = Scenario(agents=[agent(aid, (3.0 * k, 0), (3.0 * k, 1)) for k, aid in enumerate(ids)])
        with pytest.raises(ScenarioError, match=f"^duplicate agent id {reported}$"):
            scn.validate()

    def test_overlapping_starts_rejected(self):
        scn = Scenario(agents=[agent(1, (0, 0), (1, 0)), agent(2, (0.3, 0), (0, 0))])
        with pytest.raises(ScenarioError, match="safety distance"):
            scn.validate()

    def test_fast_closing_start_rejected(self):
        scn = Scenario(
            agents=[
                agent(1, (0, 0), (1, 0), v0=(0.6, 0.0), accel=0.1),
                agent(2, (0.5, 0), (0, 0), v0=(-0.6, 0.0), accel=0.1),
            ]
        )
        with pytest.raises(ScenarioError, match="barrier"):
            scn.validate()

    def test_first_failing_pair_is_named_and_coincident_starts_rejected(self):
        fast = [agent(2, (0, 0), (1, 0), v0=(0.6, 0.0), accel=0.1),
                agent(3, (0.5, 0), (0, 0), v0=(-0.6, 0.0), accel=0.1)]
        twins = [agent(1, (5, 5), (1, 0)), agent(4, (5, 5), (0, 0))]
        with pytest.raises(ScenarioError, match="agents 2 and 3 .*barrier"):
            Scenario(agents=fast + twins).validate()
        with pytest.raises(ScenarioError, match="agents 1 and 4 start 0 m apart"):
            Scenario(agents=twins[:1] + fast + twins[1:]).validate()

    @pytest.mark.parametrize("setting", [{"estimator_gain": math.inf}, {"alpha_floor": math.inf},
                                         {"alpha_floor": 0.9},
                                         {"estimator_gain": 60.0, "dt": 0.02}])
    def test_estimator_settings_that_overestimate_rejected(self, setting):
        """Estimates start at alpha_floor and only grow; they stay at or below
        each true limit only from a finite floor at most the smallest one,
        moved by a finite gain k whose Euler step, k * dt, is at most 1."""
        agents = [agent(1, (0, 0), (1, 0)), agent(2, (3, 0), (0, 0), accel=0.8)]
        with pytest.raises(ScenarioError, match="must be positive|k times dt must be at most 1"):
            Scenario(agents=agents, **setting).validate()
        Scenario(agents=agents, alpha_floor=0.8).validate()
        Scenario(agents=agents, estimator_gain=40.0, dt=0.02).validate()

    def test_estimates_stay_within_true_limits_at_the_largest_gain(self):
        """circle6 under decentralized_C_estimated with k * dt = 1: every
        estimate stays at or below the limit of the agent it estimates."""
        scn = preset("circle6", "decentralized_C_estimated")
        scn.estimator_gain = 1.0 / scn.dt
        ctx = SimContext(scn)
        for _ in range(600):
            step_once(ctx)
            assert (ctx.estimators[0].est <= ctx.accel).all()

    @pytest.mark.parametrize("gains, message", [
        ({"k1": -1.0}, "gain k1 must be nonnegative and finite, got -1.0"),
        ({"k2": -0.5}, "gain k2 must be nonnegative and finite, got -0.5"),
        ({"k1": math.inf}, "gain k1 must be nonnegative and finite, got inf"),
        ({"k2": math.nan}, "gain k2 must be nonnegative and finite, got nan"),
        ({"k1": 1e308, "k2": 1e308}, "agent 1 starts with a non-finite nominal control"),
    ])
    def test_bad_nominal_gains_rejected(self, gains, message):
        """A negative gain drives agents away from their goals, and one whose
        PD term overflows at the start makes numpy warn on every step."""
        agents = [agent(1, (-1.2, 0), (1.2, 0)), agent(2, (1.2, 0), (-1.2, 0))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ScenarioError, match="^" + re.escape(message)):
                Scenario(agents=agents, **gains).validate()

    def test_zero_gains_and_large_finite_nominal_control_accepted(self):
        agents = [agent(1, (-1.2, 0), (1.2, 0)), agent(2, (1.2, 0), (-1.2, 0))]
        Scenario(agents=agents, k1=0.0, k2=0.0).validate()
        Scenario(agents=agents, k1=1e307, k2=1e308).validate()

    def test_unknown_mode_rejected(self):
        scn = Scenario(agents=[agent(1, (0, 0), (1, 0))], mode="centralised")
        with pytest.raises(ScenarioError, match="mode"):
            scn.validate()


class TestStepOnce:
    def test_far_apart_agents_keep_nominal_control(self):
        scn = Scenario(
            agents=[agent(1, (0, 0), (1, 0)), agent(2, (40, 0), (41, 0))],
            mode="decentralized_C",
        )
        ctx = SimContext(scn)
        rec = step_once(ctx)
        assert np.allclose(rec.u_applied, rec.u_nominal)
        assert rec.row_pairs.shape == (0, 2)  # out of each other's interaction range

    def test_close_headon_filter_interferes_and_stays_safe(self):
        scn = Scenario(
            agents=[
                agent(1, (-0.6, 0.02), (1.5, 0.02), v0=(0.55, 0.0)),
                agent(2, (0.6, -0.02), (-1.5, -0.02), v0=(-0.55, 0.0)),
            ],
            mode="decentralized_C",
        )
        ctx = SimContext(scn)
        rec = step_once(ctx)
        assert not np.allclose(rec.u_applied, rec.u_nominal)
        assert log_minima(TrajectoryLog(scn, [rec]))[0][0] >= 0.0

    def test_nonfinite_state_aborts_with_diagnostic(self):
        scn = Scenario(agents=[agent(1, (0, 0), (1, 0))])
        ctx = SimContext(scn)
        ctx.P[0, 0] = np.nan
        with pytest.raises(RuntimeError, match="non-finite"):
            step_once(ctx)
        # The message names the first agent whose position or velocity is
        # not finite, also when that agent is not the first.
        three = Scenario(agents=[agent(7, (0, 0), (1, 0)), agent(8, (0, 2), (1, 2)),
                                 agent(9, (0, 4), (1, 4))])
        for edits, aid in (([("P", 2, np.nan)], 9), ([("V", 1, np.inf)], 8),
                           ([("P", 2, -np.inf), ("V", 1, np.nan)], 8)):
            ctx = SimContext(three)
            step_once(ctx)
            for field, k, value in edits:
                state = getattr(ctx, field).copy()
                state[k, 1] = value
                setattr(ctx, field, state)
            with pytest.raises(RuntimeError) as err:
                step_once(ctx)
            assert str(err.value) == f"non-finite state for agent {aid} at t=0.02"


    def test_nan_ensemble_bound_brakes(self):
        """Two agents at x = -+1e160 m under centralized: once they move, the
        pair's bound is inf/inf = NaN. That ensemble QP reads infeasible and
        both agents brake back to rest, where the bound is +inf and the QP
        optimal again."""
        scn = Scenario([agent(1, (-1e160, 0.0), (1e160, 0.0)),
                        agent(2, (1e160, 0.0), (-1e160, 0.0), accel=0.8)],
                       t_end=0.2, mode="centralized")
        ctx = SimContext(scn)
        brakes = []
        with np.errstate(over="ignore", invalid="ignore"):  # the bound's own overflow
            for _ in range(10):
                moving = bool(ctx.V.any())
                brakes.append(step_once(ctx).brake.tolist())
                assert brakes[-1] == [moving] * 2
        assert brakes[1::2] == [[True] * 2] * 5


class TestRun:
    def test_zero_duration_run(self):
        scn = Scenario(agents=[agent(1, (0, 0), (1, 0))], t_end=0.0)
        log, metrics = run(scn)
        assert log.records == []
        assert metrics.goal_errors[1] == pytest.approx(1.0)
        assert metrics.path_lengths[1] == 0.0

    def test_single_agent_matches_unfiltered_controller(self):
        # speed limit high enough that no velocity row can bind: with no
        # neighbors the filter must then be the identity, bit for bit
        scn = Scenario(agents=[agent(1, (0, 0), (2.0, 1.0), speed=5.0)], t_end=6.0)
        log, metrics = run(scn)
        p, v = scn.agents[0].state0.p, scn.agents[0].state0.v
        for rec in log.records:
            u = goal_controller(p, v, scn.agents[0].goal, scn.k1, scn.k2, 1.2)
            p, v = step(p, v, u, scn.dt)
            assert np.array_equal(rec.p[0], p)
            assert np.array_equal(rec.v[0], v)
        assert metrics.qp_infeasible_count == 0

    @pytest.mark.parametrize(
        "mode", ["centralized", "decentralized_A", "decentralized_B", "decentralized_C"]
    )
    def test_headon_modes_stay_safe_and_reach_goals(self, mode):
        log, metrics = run(two_agent_headon(mode=mode))
        assert metrics.min_h >= -1e-6
        assert metrics.min_pair_dist >= 0.4 - 1e-3
        assert max(metrics.goal_errors.values()) <= 0.05

    def test_estimated_mode_headon_safe(self):
        scn = two_agent_headon(mode="decentralized_C_estimated")
        log, metrics = run(scn)
        assert metrics.min_h >= -1e-6
        assert max(metrics.goal_errors.values()) <= 0.05

    def test_repeat_run_is_bit_identical(self):
        scn_a, scn_b = two_agent_headon(), two_agent_headon()
        log_a, _ = run(scn_a)
        log_b, _ = run(scn_b)
        assert len(log_a.records) == len(log_b.records)
        for ra, rb in zip(log_a.records, log_b.records):
            assert np.array_equal(ra.p, rb.p)
            assert np.array_equal(ra.v, rb.v)
            assert np.array_equal(ra.u_applied, rb.u_applied)

    def test_minimal_invasiveness_whenever_nominal_is_feasible(self):
        from safeswarm import strategy_c_row
        from safeswarm.qp import QpProblem, expanded_constraints

        scn = two_agent_headon()
        log, _ = run(scn)
        # replay each step from its pre-step snapshot: whenever the nominal
        # control satisfied every row, the filter must have passed it through
        P = np.array([a.state0.p for a in scn.agents])
        V = np.array([a.state0.v for a in scn.agents])
        params = [a.params for a in scn.agents]
        speed = np.array([p.speed_limit for p in params])[:, None]
        # Each agent's own speed rows, |v_c + u_c dt| <= speed_limit, and
        # its box, unfolded: an independent reference for the step's faces.
        speed_A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        quiet = 0
        for rec in log.records:
            states = [AgentState(P[k], V[k]) for k in range(2)]
            speed_b = np.stack([speed - V, speed + V], axis=2).reshape(-1, 4) / scn.dt
            for i in range(2):
                j = 1 - i
                row = strategy_c_row(
                    i, j, states, params[i], params[j].accel_limit,
                    scn.barrier_cfg, safety_dist=0.4,
                )
                problem = QpProblem(rec.u_nominal[i], np.vstack([row.a, speed_A]),
                                    np.concatenate([[row.b], speed_b[i]]), np.full(2, 1.2))
                A, b = expanded_constraints(problem)
                if np.all(A @ rec.u_nominal[i] <= b + 1e-12):
                    assert np.linalg.norm(rec.u_applied[i] - rec.u_nominal[i]) <= 1e-8
                    quiet += 1
            P, V = rec.p, rec.v
        assert quiet > len(log.records)  # most of the run is interference-free

    def test_estimated_mode_is_more_cautious_than_true_parameters(self):
        true_log, true_metrics = run(two_agent_headon(mode="decentralized_C"))
        est_scn = two_agent_headon(mode="decentralized_C_estimated")
        est_scn.alpha_floor = 0.3
        est_log, est_metrics = run(est_scn)
        # underestimated braking power shrinks the assumed safe set, so the
        # learned-limits run keeps at least as much clearance
        assert est_metrics.min_pair_dist >= true_metrics.min_pair_dist - 1e-9
        assert est_metrics.min_h >= -1e-6

    @staticmethod
    def _scatter(rng, n, min_gap):
        while True:
            pts = rng.uniform(-2.0, 2.0, (n, 2))
            if all(
                np.linalg.norm(pts[i] - pts[j]) > min_gap
                for i in range(n)
                for j in range(i + 1, n)
            ):
                return pts

    def test_randomized_scenarios_forward_invariant(self):
        rng = np.random.default_rng(909)
        for case in range(10):
            n = int(rng.integers(2, 5))
            starts = self._scatter(rng, n, 0.55)
            goals = self._scatter(rng, n, 0.55)
            agents = [
                agent(
                    k + 1,
                    starts[k],
                    goals[k],
                    accel=float(rng.uniform(0.6, 1.5)),
                    gain=float(rng.uniform(0.8, 1.5)),
                )
                for k in range(n)
            ]
            scn = Scenario(agents=agents, t_end=25.0, mode="decentralized_C")
            log, metrics = run(scn)
            assert metrics.min_h >= -1e-6, f"case {case} violated the barrier"
            assert metrics.min_pair_dist >= 0.4 - 1e-3, f"case {case} got too close"


class TestHeterogeneousBurden:
    def test_small_agents_absorb_more_interference(self, circle6_run):
        scenario, log, _, _ = circle6_run
        deviation = np.zeros(len(scenario.agents))
        for rec in log.records:
            deviation += np.linalg.norm(rec.u_applied - rec.u_nominal, axis=1)
        large = [i for i, a in enumerate(scenario.agents) if a.params.accel_limit == 0.6]
        small = [i for i, a in enumerate(scenario.agents) if a.params.accel_limit == 1.2]
        assert len(large) == 1 and len(small) == 5
        for s in small:
            assert deviation[s] > deviation[large[0]]


class TestMetrics:
    def test_speed_stays_within_per_axis_cap(self):
        scn = two_agent_headon()
        log, _ = run(scn)
        for rec in log.records:
            assert np.max(np.abs(rec.v)) <= 0.6 + 1e-9

    def test_metrics_cover_initial_state(self):
        scn = Scenario(
            agents=[agent(1, (0, 0), (0, 0)), agent(2, (0.7, 0), (0.7, 0))],
            t_end=0.5,
        )
        log, metrics = run(scn)
        # the closest approach is at t=0; later they drift nowhere
        assert metrics.min_pair_dist <= 0.7 + 1e-9

    def test_compute_metrics_matches_recorded_minimum(self):
        scn = two_agent_headon()
        log, metrics = run(scn)
        lo = float(log_minima(log)[1].min())
        d0 = float(
            np.linalg.norm(scn.agents[0].state0.p - scn.agents[1].state0.p)
        )
        assert metrics.min_pair_dist == pytest.approx(min(lo, d0))
        again = compute_metrics(log)
        assert again.min_pair_dist == metrics.min_pair_dist
        assert again.goal_errors == metrics.goal_errors

    def test_compute_metrics_passes_over_a_nan_step(self):
        """A step whose dp overflows has dist inf and h NaN (inf / inf in
        vbar); the run's min h is the smallest of the other steps' and the
        start's, as min() folds them, not NaN."""
        pos = [[(0.0, 0.0), (3.0, 0.0)], [(1.5e308, 0.0), (-1.5e308, 0.0)],
               [(0.0, 0.0), (2.0, 0.0)]]
        vel = [[(0.0, 0.0)] * 2, [(1.0, 0.0), (0.0, 0.0)], [(0.0, 0.0)] * 2]
        log = synthetic_log(pos, vel, goals=[(0.0, 0.0), (2.0, 0.0)])
        with np.errstate(over="ignore", invalid="ignore"):  # the overflowing step's dp and vbar
            min_h, min_dist = log_minima(log)
            metrics = compute_metrics(log)
        assert math.isnan(min_h[0]) and min_dist[0] == math.inf
        assert min_h[1] == math.sqrt(2.0 * 2.4 * (2.0 - 0.4)) and min_dist[1] == 2.0
        assert (metrics.min_h, metrics.min_pair_dist) == (min_h[1], 2.0)


def test_log_bytes_per_step_are_linear_in_n():
    """A record holds the post-step states, controls and brake flags (65 B
    per agent), 16 B per barrier row and about 1 kB of fixed overhead; no value
    per pair. On 27 agents in 3x3 crossing_lanes tiles, about 1.3 rows per
    agent, the log grows by about 3.8 kB per step. The bound, 1 kB + 192 B
    per agent (6.2 kB), doubles the per-agent part. A log with one h per pair (351
    pairs) holds about 32 kB per step here."""
    ctx = SimContext(lanes_tiles())
    steps = 100
    records = []
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(steps):
            records.append(step_once(ctx))
        per_step = (tracemalloc.get_traced_memory()[0] - before) / steps
    finally:
        tracemalloc.stop()
    assert sum(len(rec.row_pairs) for rec in records) > steps * ctx.n  # rows are logged
    assert per_step <= 1024 + 192 * ctx.n


def test_circle6_is_its_ring_swap():
    """circle6 is the 6-agent ring swap on 1.75 m with its fixed stagger,
    and both are this scenario written out: agent 1 large (0.6 m/s^2,
    0.4 m), agents 2-6 small (1.2 m/s^2, 0.2 m), all at 0.6 m/s, from
    rest to the antipode. Equal params and equal bytes of p0, v0 and goal."""
    stagger = (4.0, -7.0, 3.0, -5.0, 6.5, -3.5)
    written = []
    for k in range(6):
        angle = 2.0 * np.pi * k / 6.0 + np.deg2rad(stagger[k])
        p0 = 1.75 * np.array([np.cos(angle), np.sin(angle)])
        written.append(agent(k + 1, p0, -p0, accel=0.6 if k == 0 else 1.2,
                             radius=0.4 if k == 0 else 0.2))
    for scn in (circle6(), ring_swap(6, 1.75, stagger)):
        assert (scn.dt, scn.t_end, scn.mode) == (0.02, 60.0, "decentralized_C")
        for a, b in zip(scn.agents, written, strict=True):
            assert a.params == b.params
            for x, y in ((a.state0.p, b.state0.p), (a.state0.v, b.state0.v), (a.goal, b.goal)):
                assert x.tobytes() == y.tobytes()
