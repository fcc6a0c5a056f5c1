"""Each output check must pass on good data and fail on a corrupted copy."""

import numpy as np
import pytest

import checks
from spans import Patches, Tracer, calibrate, self_times, totals_by_name

ALPHA = np.array([1.2, 0.6])
BETA = np.array([0.6, 0.6])
DS = np.array([[0.0, 0.6], [0.6, 0.0]])
DT = 0.02


def _two_agents(steps=20):
    """Two agents closing head-on from 3 m apart at a braking-safe pace."""
    U = np.zeros((steps, 2, 2))
    U[:, 0, 0], U[:, 1, 0] = 0.5, -0.5
    P = np.zeros((steps + 1, 2, 2))
    V = np.zeros((steps + 1, 2, 2))
    P[0] = [[-1.5, 0.0], [1.5, 0.0]]
    for t in range(steps):
        V[t + 1] = V[t] + U[t] * DT
        P[t + 1] = P[t] + V[t + 1] * DT
    return P, V, U


def test_clean_trajectory_passes():
    P, V, U = _two_agents()
    assert checks.pair_safety(P, V, ALPHA, DS) == []
    assert checks.limits(U, V[1:], ALPHA, BETA) == []
    assert checks.euler(P, V, U, DT) == []


def test_pair_inside_safety_distance_fails():
    P, V, _ = _two_agents()
    P[7, 1] = P[7, 0] + [0.5, 0.0]  # 0.5 m apart, Ds is 0.6 m
    failed = checks.pair_safety(P, V, ALPHA, DS)
    assert any(f.startswith("pair distance") for f in failed)
    assert any(f.startswith("barrier") for f in failed)


def test_closing_too_fast_fails_on_h_alone():
    P, V, _ = _two_agents()
    V[5, 0] = [5.0, 0.0]  # far outside Ds, but closing faster than braking allows
    failed = checks.pair_safety(P, V, ALPHA, DS)
    assert [f.split(":")[0] for f in failed] == ["barrier"]


def test_control_past_box_fails():
    _, V, U = _two_agents()
    U[3, 1, 1] = -0.6 - 1e-6
    assert [f.split(":")[0] for f in checks.limits(U, V[1:], ALPHA, BETA)] == ["control box"]


def test_speed_past_limit_fails():
    _, V, U = _two_agents()
    V[4, 0, 0] = 0.61
    assert [f.split(":")[0] for f in checks.limits(U, V, ALPHA, BETA)] == ["speed box"]


def test_broken_integration_fails():
    P, V, U = _two_agents()
    P[9, 0, 1] += 1e-6
    assert [f.split(":")[0] for f in checks.euler(P, V, U, DT)] == ["euler position"]


def test_goal_check_skips_only_deadlocked_runs():
    final = np.array([[0.0, 0.0], [1.0, 0.0]])
    goal = np.array([[0.0, 0.0], [1.1, 0.0]])
    assert checks.goals(final, goal, deadlocked=False) != []
    assert checks.goals(final, goal, deadlocked=True) == []
    assert checks.goals(final, final + 0.01, deadlocked=False) == []


def _estimates():
    E = np.full((4, 2, 2), np.nan)
    E[:, 0, 1] = [0.3, 0.35, 0.5, 0.6]  # agent 0's estimate of agent 1 (alpha 0.6)
    E[:, 1, 0] = [0.3, 0.3, 0.9, 1.1]  # agent 1's estimate of agent 0 (alpha 1.2)
    return E


def test_estimates_pass_inside_floor_and_truth():
    assert checks.estimates(_estimates(), 0.3, ALPHA) == []


def test_estimate_above_true_limit_fails():
    E = _estimates()
    E[3, 0, 1] = 0.61
    assert [f.split(":")[0] for f in checks.estimates(E, 0.3, ALPHA)] == ["estimate bound"]


def test_missing_estimate_fails():
    E = _estimates()
    E[1, 0, 1] = np.nan
    names = {f.split(":")[0] for f in checks.estimates(E, 0.3, ALPHA)}
    assert names == {"estimate floor", "estimate bound", "estimate monotone"}


def test_estimate_that_falls_or_starts_low_fails():
    E = _estimates()
    E[2, 1, 0] = 0.29
    names = {f.split(":")[0] for f in checks.estimates(E, 0.3, ALPHA)}
    assert names == {"estimate floor", "estimate monotone"}


# Projection of (1, 1) onto x + y <= 1 inside the box |u| <= 2: (0.5, 0.5).
A = np.array([[1.0, 1.0]])
B = np.array([1.0])
BOX = np.array([2.0, 2.0])
U_HAT = np.array([1.0, 1.0])


def test_qp_optimum_passes():
    assert checks.qp_answer(A, B, BOX, U_HAT, np.array([0.5, 0.5])) == []


def test_qp_answer_nudged_off_the_optimum_fails():
    nudged = np.array([0.5 + 1e-4, 0.5 - 1e-4])  # still on the row, but not closest
    assert [f.split(":")[0] for f in checks.qp_answer(A, B, BOX, U_HAT, nudged)] == ["qp optimum"]


def test_qp_answer_off_its_row_or_box_fails():
    names = {f.split(":")[0] for f in checks.qp_answer(A, B, BOX, U_HAT, np.array([0.6, 0.5]))}
    assert "qp rows" in names
    far = np.array([-2.5, 0.5])
    assert "qp box" in {f.split(":")[0] for f in checks.qp_answer(A, B, BOX, U_HAT, far)}


def test_feasible_nominal_must_come_back_unchanged():
    inside = np.array([0.2, 0.3])
    assert checks.qp_answer(A, B, BOX, inside, inside.copy()) == []
    moved = inside + [1e-12, 0.0]
    assert [f.split(":")[0] for f in checks.qp_answer(A, B, BOX, inside, moved)] == ["qp passthrough"]


def test_self_time_of_a_hand_built_tree():
    # root [0, 100] holds a [10, 40] and b [50, 60]; a holds c [15, 25].
    # Each child's wrapper adds 2 ns before and after its call, which its
    # parent loses; a makes three counted calls.
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 60])
    spans = {"name_id": np.array([0, 1, 2, 1]), "parent": parent,
             "outer_start_ns": start - 2, "start_ns": start, "end_ns": end,
             "outer_end_ns": end + 2, "counted": np.array([0, 3, 0, 0])}
    assert self_times(spans).tolist() == [52.0, 16.0, 10.0, 10.0]
    assert self_times(spans, 1.0, 2.0).tolist() == [50.0, 9.0, 10.0, 10.0]
    names = ["root", "ab", "c"]
    assert totals_by_name(spans, names) == {"root": (1, 52.0), "ab": (2, 26.0), "c": (1, 10.0)}
    assert totals_by_name(spans, names, 1, 3) == {"root": (0, 0.0), "ab": (1, 16.0), "c": (1, 10.0)}


def test_calibrated_tracer_cost_is_small_and_not_negative():
    per_child, per_count = calibrate(calls=200, repeats=3)
    assert 0.0 <= per_child < 1e5 and 0.0 <= per_count < 1e5


class _Box:
    @staticmethod
    def inner(x):
        return x + 1

    @staticmethod
    def outer(x):
        return _Box.inner(x) * 2


def test_tracer_records_nesting_and_patches_restore():
    tracer = Tracer()
    inner, outer = _Box.__dict__["inner"], _Box.__dict__["outer"]
    with Patches() as patches:
        patches.set(_Box, "inner", staticmethod(tracer.wrap("inner", _Box.inner)))
        patches.set(_Box, "outer", staticmethod(tracer.wrap("outer", _Box.outer)))
        assert _Box.outer(1) == 4
    assert _Box.__dict__["inner"] is inner and _Box.__dict__["outer"] is outer
    spans = tracer.arrays()
    assert [tracer.names[k] for k in spans["name_id"]] == ["outer", "inner"]
    assert spans["parent"].tolist() == [-1, 0]
    assert np.all(spans["outer_start_ns"] <= spans["start_ns"])
    assert np.all(spans["start_ns"] <= spans["end_ns"])
    assert np.all(spans["end_ns"] <= spans["outer_end_ns"])


def test_tracer_span_closes_when_the_call_raises():
    tracer = Tracer()
    failing = tracer.wrap("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        failing()
    ok = tracer.wrap("ok", lambda: 1)
    assert ok() == 1
    assert tracer.arrays()["parent"].tolist() == [-1, -1]
