import numpy as np
import pytest

from safeswarm import (
    AgentParams,
    AgentState,
    braking_fallback,
    goal_controller,
    pair_barrier,
    relative_state,
    saturate_box,
    step,
)
from safeswarm.sim import (
    AgentSetup,
    Scenario,
    ScenarioError,
    SimContext,
    StepRecord,
    TrajectoryLog,
    compute_metrics,
    detect_deadlock,
    run,
    step_once,
)


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
                qp_status=["optimal"] * n,
                pair_h={},
                min_pair_dist=np.inf,
                row_pairs=(),
            )
        )
    return TrajectoryLog(scn, records)


class TestDeadlockDetector:
    def test_agents_at_goals_never_deadlock(self):
        steps = 80
        pos = [[(0.0, 0.0)]] * (steps + 1)
        vel = [[(0.0, 0.0)]] * (steps + 1)
        log = synthetic_log(pos, vel, goals=[(0.0, 0.0)])
        assert detect_deadlock(log, window=5.0) == (False, None)

    def test_parked_far_from_goal_is_deadlock(self):
        steps = 80
        pos = [[(0.0, 0.0)]] * (steps + 1)
        vel = [[(0.0, 0.0)]] * (steps + 1)
        log = synthetic_log(pos, vel, goals=[(3.0, 0.0)])
        flag, onset = detect_deadlock(log, window=5.0)
        assert flag
        assert onset == pytest.approx(0.1)

    def test_slow_but_moving_agent_is_not_deadlocked(self):
        steps = 80
        pos = [[(0.001 * k, 0.0)] for k in range(steps + 1)]
        vel = [[(0.02, 0.0)]] * (steps + 1)  # above the 0.01 m/s threshold
        log = synthetic_log(pos, vel, goals=[(3.0, 0.0)])
        assert detect_deadlock(log, window=5.0, speed_eps=0.01) == (False, None)


class TestScenarioValidation:
    def test_duplicate_ids_rejected(self):
        scn = Scenario(agents=[agent(1, (0, 0), (1, 0)), agent(1, (3, 0), (0, 0))])
        with pytest.raises(ScenarioError, match="duplicate"):
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
        assert rec.row_pairs == ()  # out of each other's interaction range

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
        assert min(rec.pair_h.values()) >= 0.0

    def test_nonfinite_state_aborts_with_diagnostic(self):
        scn = Scenario(agents=[agent(1, (0, 0), (1, 0))])
        ctx = SimContext(scn)
        ctx.P[0, 0] = np.nan
        with pytest.raises(RuntimeError, match="non-finite"):
            step_once(ctx)


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
        from safeswarm.sim import _SPEED_A, _speed_bounds

        scn = two_agent_headon()
        log, _ = run(scn)
        # replay each step from its pre-step snapshot: whenever the nominal
        # control satisfied every row, the filter must have passed it through
        P = np.array([a.state0.p for a in scn.agents])
        V = np.array([a.state0.v for a in scn.agents])
        params = [a.params for a in scn.agents]
        speed = np.array([p.speed_limit for p in params])
        quiet = 0
        for rec in log.records:
            states = [AgentState(P[k], V[k]) for k in range(2)]
            speed_b = _speed_bounds(speed, V, scn.dt)
            for i in range(2):
                j = 1 - i
                row = strategy_c_row(
                    i, j, states, params[i], params[j].accel_limit,
                    scn.barrier_cfg, safety_dist=0.4,
                )
                problem = QpProblem(rec.u_nominal[i], np.vstack([row.a, _SPEED_A]),
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
            scn = Scenario(agents=agents, t_end=25.0, mode="decentralized_C", seed=case)
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

    def test_saturate_box_applied_to_nominal(self):
        u = saturate_box(np.array([99.0, -99.0]), 1.2)
        assert np.allclose(u, [1.2, -1.2])

    def test_compute_metrics_matches_recorded_minimum(self):
        scn = two_agent_headon()
        log, metrics = run(scn)
        lo = min(rec.min_pair_dist for rec in log.records)
        d0 = float(
            np.linalg.norm(scn.agents[0].state0.p - scn.agents[1].state0.p)
        )
        assert metrics.min_pair_dist == pytest.approx(min(lo, d0))
        again = compute_metrics(log)
        assert again.min_pair_dist == metrics.min_pair_dist
        assert again.goal_errors == metrics.goal_errors
