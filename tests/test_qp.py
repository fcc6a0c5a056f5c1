import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from safeswarm import (
    INFEASIBLE,
    OPTIMAL,
    QpProblem,
    brute_force_oracle,
    solve,
    strategy_c_row,
)
from safeswarm.barrier import BarrierConfig
from safeswarm.qp import expanded_constraints

from conftest import random_safe_pair

CFG = BarrierConfig(ds_mode="fixed", ds=0.6)


def rows(*abc):
    """A and b of the rows a . u <= b given as (ax, ay, b) triples."""
    table = np.array(abc, dtype=float).reshape(-1, 3)
    return table[:, :2], table[:, 2]


def random_problem(rng):
    """A 2-variable projection problem with rows built from random safe
    two-agent states, plus a box of random size."""
    box = rng.uniform(0.05, 2.0)
    built = []
    for _ in range(int(rng.integers(0, 4))):
        states, params = random_safe_pair(rng)
        built.append(strategy_c_row(0, 1, states, params[0], params[1].accel_limit, CFG))
    u_hat = rng.uniform(-1.5 * box, 1.5 * box, 2)
    return QpProblem(u_hat, np.array([r.a for r in built]).reshape(-1, 2),
                     np.array([r.b for r in built]), np.full(2, box))


class TestSolveExamples:
    def test_unconstrained_returns_nominal(self):
        sol = solve(QpProblem(np.array([0.3, -0.4]), *rows(), np.ones(2)))
        assert sol.status == OPTIMAL
        assert np.allclose(sol.u_star, [0.3, -0.4])
        assert sol.objective == 0.0
        assert sol.active_set == ()

    def test_projection_onto_halfspace(self):
        sol = solve(QpProblem(np.array([1.0, 0.0]), *rows((1, 0, 0)), np.full(2, 2.0)))
        assert sol.status == OPTIMAL
        assert np.allclose(sol.u_star, [0.0, 0.0], atol=1e-12)
        assert sol.objective == pytest.approx(1.0, abs=1e-12)

    def test_contradictory_rows_infeasible(self):
        problem = QpProblem(
            np.zeros(2), *rows((1, 0, -1), (-1, 0, -1)), np.full(2, 100.0)
        )
        assert solve(problem).status == INFEASIBLE

    def test_box_only_clipping(self):
        sol = solve(QpProblem(np.array([5.0, -0.2]), *rows(), np.ones(2)))
        assert np.allclose(sol.u_star, [1.0, -0.2], atol=1e-12)

    def test_zero_row_with_negative_bound_infeasible(self):
        assert solve(QpProblem(np.zeros(2), *rows((0, 0, -1)), np.ones(2))).status == INFEASIBLE


class TestOracleExamples:
    def test_agrees_on_projection_example(self):
        problem = QpProblem(np.array([1.0, 0.0]), *rows((1, 0, 0)), np.full(2, 2.0))
        ref = brute_force_oracle(problem, grid_step=0.1)
        assert ref.status == OPTIMAL
        assert ref.objective == pytest.approx(1.0, abs=1e-9)

    def test_reports_empty_polytope(self):
        problem = QpProblem(
            np.zeros(2), *rows((1, 0, -1), (-1, 0, -1)), np.full(2, 100.0)
        )
        assert brute_force_oracle(problem, grid_step=1.0).status == INFEASIBLE

    def test_rejects_high_dimension(self):
        with pytest.raises(ValueError):
            brute_force_oracle(QpProblem(np.zeros(5), np.zeros((0, 5)), np.zeros(0), np.ones(5)), 0.1)


class TestSolveAgainstOracle:
    def test_randomized_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            problem = random_problem(rng)
            sol = solve(problem)
            ref = brute_force_oracle(problem, grid_step=float(problem.box[0]) / 20)
            assert sol.status == ref.status
            if sol.status == OPTIMAL:
                assert abs(sol.objective - ref.objective) <= 1e-4

    def test_nominal_kept_when_feasible(self):
        rng = np.random.default_rng(43)
        kept = 0
        for _ in range(200):
            problem = random_problem(rng)
            A, b = expanded_constraints(problem)
            if np.all(A @ problem.u_hat <= b + 1e-12):
                sol = solve(problem)
                assert np.linalg.norm(sol.u_star - problem.u_hat) <= 1e-10
                kept += 1
        assert kept > 10  # the sample must actually exercise this branch


class TestKktConditions:
    def test_stationarity_and_complementarity(self):
        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(200):
            problem = random_problem(rng)
            sol = solve(problem)
            if sol.status != OPTIMAL:
                continue
            A, b = expanded_constraints(problem)
            gradient_residual = sol.u_star - problem.u_hat
            for idx, lam in zip(sol.active_set, sol.multipliers):
                assert lam >= -1e-8
                assert abs(A[idx] @ sol.u_star - b[idx]) <= 1e-8  # tight rows
                gradient_residual = gradient_residual + 0.5 * lam * A[idx]
            assert np.max(np.abs(gradient_residual)) <= 1e-8
            assert np.all(A @ sol.u_star <= b + 1e-8)
            assert np.max(np.abs(sol.u_star)) <= np.max(problem.box) + 1e-10
            checked += 1
        assert checked > 100


class TestDeterminismAndScaling:
    def test_same_problem_same_solution_and_active_set(self):
        rng = np.random.default_rng(45)
        for _ in range(50):
            problem = random_problem(rng)
            a = solve(problem)
            b = solve(problem)
            assert a.status == b.status
            assert a.active_set == b.active_set
            if a.status == OPTIMAL:
                assert np.array_equal(a.u_star, b.u_star)

    def test_row_scaling_leaves_solution_unchanged(self):
        rng = np.random.default_rng(46)
        for _ in range(50):
            problem = random_problem(rng)
            if not problem.b.size:
                continue
            sol = solve(problem)
            A, b = problem.A.copy(), problem.b.copy()
            A[0], b[0] = A[0] * 7.5, b[0] * 7.5
            scaled = solve(QpProblem(problem.u_hat, A, b, problem.box))
            assert scaled.status == sol.status
            if sol.status == OPTIMAL:
                assert np.allclose(scaled.u_star, sol.u_star, atol=1e-9)

    def test_warm_start_same_optimum(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            problem = random_problem(rng)
            cold = solve(problem)
            warm = solve(problem, warm_start=(0, 1, 5))
            assert warm.status == cold.status
            if cold.status == OPTIMAL:
                assert np.allclose(warm.u_star, cold.u_star, atol=1e-9)


class TestProblemValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), *rows(), np.ones(3))

    def test_rows_of_the_wrong_shape(self):
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), np.ones((2, 3)), np.ones(2), np.ones(2))
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), np.ones((2, 2)), np.ones(3), np.ones(2))

    def test_nonpositive_box(self):
        with pytest.raises(ValueError):
            QpProblem(np.zeros(2), *rows(), np.array([1.0, 0.0]))

    def test_rows_view_reads_A_and_b(self):
        problem = QpProblem(np.zeros(2), *rows((3, 4, 5), (6, 7, 8)), np.ones(2))
        assert len(problem.rows) == 2
        assert [(r.a.tolist(), r.b) for r in problem.rows] == [([3.0, 4.0], 5.0), ([6.0, 7.0], 8.0)]

    def test_box_faces_follow_the_rows_with_positive_zeros(self):
        A, b = expanded_constraints(QpProblem(np.zeros(2), *rows((3, 4, 5)), np.array([1.0, 2.0])))
        faces = np.array([[3.0, 4.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert A.tobytes() == faces.tobytes()
        assert b.tobytes() == np.array([5.0, 1.0, 1.0, 2.0, 2.0]).tobytes()

    @given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
    def test_interior_nominal_with_no_rows_is_fixed_point(self, ux, uy):
        sol = solve(QpProblem(np.array([ux, uy]), *rows(), np.ones(2)))
        assert np.array_equal(sol.u_star, np.array([ux, uy]))
