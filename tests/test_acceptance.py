"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import dataclasses
import math

import numpy as np
import pytest

from safeswarm import (
    AgentParams,
    AgentState,
    LimitEstimator,
    brute_force_oracle,
    centralized_row,
    solve,
    strategy_a_rows,
    strategy_b_rows,
    strategy_c_row,
)
from safeswarm.artifacts import write_trajectory_csv
from safeswarm.barrier import BarrierConfig
from safeswarm.cli import run_command
from safeswarm.presets import headon2, rect4
from safeswarm.qp import OPTIMAL, expanded_constraints
from safeswarm.sim import AgentSetup, Scenario, run

from conftest import as_ensemble, random_safe_pair
from test_qp import batch_of, random_problem

CFG = BarrierConfig(ds_mode="fixed", ds=0.6)


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {number:2d} ({name}): "
          f"{'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}): {detail}"


def _pair_margin(scenario, log):
    """Worst dist - (r_i + r_j) over the initial state and every step."""
    radii = np.array([a.params.radius for a in scenario.agents])
    n = len(radii)
    frames = [np.array([a.state0.p for a in scenario.agents])]
    frames += [rec.p for rec in log.records]
    worst = math.inf
    for p in frames:
        for i in range(n):
            for j in range(i + 1, n):
                d = float(np.linalg.norm(p[i] - p[j]))
                worst = min(worst, d - (radii[i] + radii[j]))
    return worst


def test_criterion_1_circle_preset_reproduction(circle6_run):
    scenario, log, metrics, wall = circle6_run
    margin = _pair_margin(scenario, log)
    worst_goal = max(metrics.goal_errors.values())
    ok = margin >= -1e-3 and worst_goal <= 0.05 and wall < 30.0
    _report(
        1, "circle6 safety and goal reach", ok,
        f"margin={margin:.4g} m, worst goal error={worst_goal:.4g} m, wall={wall:.1f} s",
    )


def test_criterion_2_rectangle_preset_reproduction():
    scenario = rect4()
    log, metrics = run(scenario)
    margin = _pair_margin(scenario, log)
    worst_goal = max(metrics.goal_errors.values())
    ratios = {}
    for setup in scenario.agents:
        straight = float(np.linalg.norm(setup.goal - setup.state0.p))
        ratios[setup.params.id] = metrics.path_lengths[setup.params.id] / straight
    cumbersome = [a.params.id for a in scenario.agents if a.params.accel_limit == 0.5]
    agile = [a.params.id for a in scenario.agents if a.params.accel_limit == 2.0]
    ok = (
        margin >= -1e-3
        and worst_goal <= 0.05
        and len(cumbersome) == 1
        and ratios[cumbersome[0]] <= 1.05
        and all(ratios[a] > 1.0 for a in agile)
    )
    _report(
        2, "rect4 safety, goal reach, path shapes", ok,
        f"margin={margin:.4g} m, worst goal={worst_goal:.4g} m, "
        f"cumbersome ratio={ratios[cumbersome[0]]:.4f}, "
        f"agile ratios={[round(ratios[a], 4) for a in agile]}",
    )


def test_criterion_3_decomposition_identity():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(1000):
        states, params = random_safe_pair(rng)
        full = centralized_row(0, 1, states, params, CFG)
        splits = {
            "A": strategy_a_rows(0, 1, states, params, CFG),
            "B": strategy_b_rows(0, 1, states, params, CFG),
            "C": (
                strategy_c_row(0, 1, states, params[0], params[1].accel_limit, CFG),
                strategy_c_row(1, 0, states, params[1], params[0].accel_limit, CFG),
            ),
        }
        for row_i, row_j in splits.values():
            a_sum = as_ensemble(row_i, 2) + as_ensemble(row_j, 2)
            worst = max(
                worst,
                float(np.max(np.abs(a_sum - full.a))),
                abs(row_i.b + row_j.b - full.b),
            )
    _report(3, "strategy A/B/C rows sum to the coupled row", worst <= 1e-9,
            f"worst residual={worst:.3e}")


def test_criterion_4_weighted_gain_identity():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(1000):
        states, params = random_safe_pair(rng, equal_gamma=False)
        ai, aj = params[0].accel_limit, params[1].accel_limit
        blended = (ai * params[0].barrier_gain + aj * params[1].barrier_gain) / (ai + aj)
        full = centralized_row(0, 1, states, params, CFG, gamma=blended)
        row_i = strategy_c_row(0, 1, states, params[0], aj, CFG)
        row_j = strategy_c_row(1, 0, states, params[1], ai, CFG)
        a_sum = as_ensemble(row_i, 2) + as_ensemble(row_j, 2)
        worst = max(
            worst,
            float(np.max(np.abs(a_sum - full.a))),
            abs(row_i.b + row_j.b - full.b),
        )
    _report(4, "distinct gains blend into the weighted coupled row", worst <= 1e-9,
            f"worst residual={worst:.3e}")


def test_criterion_5_qp_against_oracle():
    rng = np.random.default_rng(1005)
    worst_obj = 0.0
    verdicts_agree = True
    nominal_kept = True
    infeasible_seen = 0
    problems = [random_problem(rng) for _ in range(200)]
    batch = batch_of(problems)  # the decentralized modes' lockstep solver
    for k, problem in enumerate(problems):
        ref = brute_force_oracle(problem, grid_step=float(problem.box[0]) / 20)
        sol = solve(problem)
        for status, u in ((sol.status, sol.u_star), (batch.status[k], batch.u_star[k])):
            verdicts_agree &= status == ref.status
            if status != OPTIMAL:
                continue
            worst_obj = max(worst_obj, abs(float((u - problem.u_hat) @ (u - problem.u_hat))
                                           - ref.objective))
            A, b = expanded_constraints(problem)
            if np.all(A @ problem.u_hat <= b + 1e-12):
                nominal_kept &= bool(np.linalg.norm(u - problem.u_hat) <= 1e-10)
        infeasible_seen += sol.status != OPTIMAL
    ok = verdicts_agree and worst_obj <= 1e-4 and nominal_kept
    _report(
        5, "QP matches brute-force oracle", ok,
        f"worst objective gap={worst_obj:.3e}, verdicts agree={verdicts_agree}, "
        f"infeasible cases={infeasible_seen}",
    )


def _random_estimated_headon(rng):
    a1 = float(rng.uniform(0.5, 2.0))
    a2 = float(rng.uniform(0.5, 2.0))
    gap = float(rng.uniform(2.2, 3.5))
    off = float(rng.uniform(0.01, 0.12))
    agents = [
        AgentSetup(
            AgentParams(1, a1, 0.6, float(rng.uniform(0.5, 2.0)), 0.2),
            AgentState(np.array([-gap / 2, off]), np.zeros(2)),
            np.array([gap / 2, off]),
        ),
        AgentSetup(
            AgentParams(2, a2, 0.6, float(rng.uniform(0.5, 2.0)), 0.2),
            AgentState(np.array([gap / 2, -off]), np.zeros(2)),
            np.array([-gap / 2, -off]),
        ),
    ]
    return Scenario(
        agents=agents, dt=0.02, t_end=25.0, mode="decentralized_C_estimated",
        alpha_floor=0.5 * min(a1, a2),
    )


def test_criterion_6_conservative_estimates_keep_true_barrier_safe():
    rng = np.random.default_rng(1006)
    worst_h = math.inf
    for _ in range(50):
        log, metrics = run(_random_estimated_headon(rng))
        worst_h = min(worst_h, metrics.min_h)
    _report(6, "estimated limits never break the true barrier", worst_h >= -1e-6,
            f"worst true-parameter barrier={worst_h:+.5f} m/s over 50 runs")


def test_criterion_7_estimator_laws():
    dt = 0.02
    # (a) monotone and capped by the true limit under box-bounded motion
    rng = np.random.default_rng(1007)
    true_limit = 0.9
    est = LimitEstimator(1, 0.45, gain=2.0)
    v = np.zeros(2)
    monotone = True
    prev = est.est[0]
    for _ in range(4000):
        u = true_limit * rng.choice([-1.0, 1.0], 2) * rng.uniform(0.0, 1.0, 2)
        est.observe(v[None], dt)
        est.update(dt)
        monotone &= est.est[0] >= prev - 1e-15
        prev = est.est[0]
        v = v + u * dt
    capped = est.est[0] <= true_limit + 1e-9

    # (b) within 2% of a sustained constant observation after 5/gain seconds
    gain, target = 1.0, 1.0
    est2 = LimitEstimator(1, 0.3, gain=gain)
    v = np.zeros(2)
    t = 0.0
    while t < 5.0 / gain - 1e-9:
        est2.observe(v[None], dt)
        est2.update(dt)
        v = v + np.array([target, 0.0]) * dt
        t += dt
    converged = abs(est2.est[0] - target) <= 0.02 * target

    ok = monotone and capped and converged
    _report(
        7, "estimator is monotone, conservative, convergent", ok,
        f"monotone={monotone}, final={est.est[0]:.6f}<=true {true_limit}, "
        f"5/k value={est2.est[0]:.4f}",
    )


def _max_lateral_deviation(log, scenario, idx):
    setup = scenario.agents[idx]
    direction = setup.goal - setup.state0.p
    direction = direction / np.linalg.norm(direction)
    normal = np.array([-direction[1], direction[0]])
    worst = 0.0
    for rec in log.records:
        worst = max(worst, abs(float((rec.p[idx] - setup.state0.p) @ normal)))
    return worst


def test_criterion_8_gain_asymmetry_shapes_yielding():
    scn_eq = headon2()
    log_eq, _ = run(scn_eq)
    dev_eq = [
        _max_lateral_deviation(log_eq, scn_eq, 0),
        _max_lateral_deviation(log_eq, scn_eq, 1),
    ]
    symmetric = abs(dev_eq[0] - dev_eq[1]) <= 0.1 * max(dev_eq)

    scn_asym = headon2()
    left = scn_asym.agents[0]
    left.params = dataclasses.replace(left.params, barrier_gain=10.0)
    log_asym, metrics = run(scn_asym)
    dev_l = _max_lateral_deviation(log_asym, scn_asym, 0)
    dev_r = _max_lateral_deviation(log_asym, scn_asym, 1)
    ok = symmetric and dev_l < dev_r and metrics.min_h >= -1e-6
    _report(
        8, "higher gain yields less, equal gains match", ok,
        f"equal={dev_eq[0]:.4f}/{dev_eq[1]:.4f} m, "
        f"10x gain: aggressive={dev_l:.4f} < yielding={dev_r:.4f} m",
    )


def test_criterion_9_neighbor_truncation(circle6_run):
    scenario, log, metrics, _ = circle6_run
    params = [a.params for a in scenario.agents]
    n = len(params)
    # interaction radius recomputed from first principles, per builder agent
    radius = {}
    for i in range(n):
        others = [p for k, p in enumerate(params) if k != i]
        a_min = min(p.accel_limit for p in others)
        b_max = max(p.speed_limit for p in others)
        ds_worst = max(params[i].radius + p.radius for p in others)
        a_sum = params[i].accel_limit + a_min
        reach = (2.0 * a_sum / params[i].barrier_gain) ** (1.0 / 3.0)
        radius[i] = ds_worst + (reach + params[i].speed_limit + b_max) ** 2 / (2 * a_sum)

    frames = [np.array([a.state0.p for a in scenario.agents])]
    frames += [rec.p for rec in log.records]
    all_inside = True
    rows_seen = 0
    for k, rec in enumerate(log.records):
        pre = frames[k]  # rows were built from the pre-step snapshot
        for owner, other in rec.row_pairs:
            rows_seen += 1
            dist = float(np.linalg.norm(pre[owner] - pre[other]))
            all_inside &= dist <= radius[owner] + 1e-12
    truncation_active = any(
        len(rec.row_pairs) < n * (n - 1) for rec in log.records
    )
    margin = _pair_margin(scenario, log)
    ok = all_inside and truncation_active and rows_seen > 0 and margin >= -1e-3
    _report(
        9, "rows only against in-radius agents, still safe", ok,
        f"rows checked={rows_seen}, truncation engaged={truncation_active}, "
        f"margin={margin:.4g} m",
    )


def test_criterion_10_deterministic_artifacts(tmp_path, circle6_run):
    # full CLI path on the cheap preset
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_command(["--preset", "headon2", "--out-dir", str(out_a), "--quiet"]) == 0
    assert run_command(["--preset", "headon2", "--out-dir", str(out_b), "--quiet"]) == 0
    headon_identical = (
        (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    )
    # in-memory rerun of the expensive preset
    from safeswarm.presets import circle6

    _, log, _, _ = circle6_run
    log2, _ = run(circle6())
    write_trajectory_csv(log, tmp_path / "c1.csv")
    write_trajectory_csv(log2, tmp_path / "c2.csv")
    circle_identical = (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
    ok = headon_identical and circle_identical
    _report(10, "same seed yields byte-identical trajectories", ok,
            f"headon2={headon_identical}, circle6={circle_identical}")
