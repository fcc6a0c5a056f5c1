import contextlib
import functools
import json
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safeswarm import (
    INFEASIBLE,
    OPTIMAL,
    QpProblem,
    brute_force_oracle,
    solve,
    strategy_c_row,
)
from safeswarm import qp, sim
from safeswarm.artifacts import write_trajectory_csv
from safeswarm.barrier import BarrierConfig
from safeswarm.cli import scenario_from_dict
from safeswarm.qp import expanded_constraints
from safeswarm.sim import run

from conftest import preset, random_safe_pair

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


def random_batch_problem(rng):
    """Like ``random_problem``, with 0-12 rows: barrier rows of random safe
    pairs, random rows, near-parallel copies of a row and contradictory
    pairs. About a fifth keep u_hat feasible."""
    box = rng.uniform(0.05, 2.0)
    u_hat = rng.uniform(-1.5 * box, 1.5 * box, 2)
    m = int(rng.integers(0, 13))
    A, b = rng.normal(size=(m, 2)), rng.normal(size=m) * box
    for k in range(m):
        kind = rng.random()
        if kind < 0.3:
            states, params = random_safe_pair(rng)
            row = strategy_c_row(0, 1, states, params[0], params[1].accel_limit, CFG)
            A[k], b[k] = row.a, row.b
        elif kind < 0.45 and k:
            A[k] = A[k - 1] + rng.normal(size=2) * 10.0 ** rng.uniform(-7, -3)
            b[k] = b[k - 1] + rng.normal() * 10.0 ** rng.uniform(-7, -1)
        elif kind < 0.5 and k:
            A[k], b[k] = -A[k - 1], -b[k - 1] - rng.uniform(0.0, 1.0)
    if rng.random() < 0.2:
        u_hat = rng.uniform(-box, box, 2)
        b = A @ u_hat + rng.uniform(0.0, 1.0, m)
    return QpProblem(u_hat, A, b, np.full(2, box))


def batch_of(problems, warm_starts=None, stray=None):
    """``pad_rows`` plus ``solve_padded``, the decentralized step's solver,
    over a list of 2-variable problems, with answers in ``solve``'s terms.

    warm_starts[k] is problem k's warm start as in ``solve``; its indices
    outside the problem's rows are dropped. ``stray`` (a random generator)
    also sets random warm bits on padding rows, which the kernel ignores.
    Also returns the layout: ``AA``, ``bb`` and ``m``."""
    counts = np.array([p.b.size for p in problems], dtype=int)
    AA, bb, m = qp.pad_rows(np.concatenate([p.A for p in problems]).reshape(-1, 2),
                            np.concatenate([p.b for p in problems]), counts,
                            np.array([p.box for p in problems]).reshape(-1, 2))
    warm = np.zeros(bb.shape, dtype=bool)
    if stray is not None:
        warm = (stray.random(bb.shape) < 0.3) & (np.arange(bb.shape[1]) >= m[:, None])
    for k, rows in enumerate(warm_starts or ()):
        warm[k, [j for j in rows if 0 <= j < m[k]]] = True
    u, optimal, in_work, iters = qp.solve_padded(
        np.array([p.u_hat for p in problems]).reshape(-1, 2), AA, bb, m, warm)
    return SimpleNamespace(
        u_star=u, status=[OPTIMAL if ok else INFEASIBLE for ok in optimal.tolist()],
        active_set=[tuple(np.flatnonzero(row).tolist()) for row in in_work],
        iterations=iters, AA=AA, bb=bb, m=m)


def assert_batch_equals_solve(problems, warm_starts, stray=None):
    batch = batch_of(problems, warm_starts, stray)
    assert batch.AA.shape == (len(problems), batch.m.max(), 2)
    for k, (problem, warm) in enumerate(zip(problems, warm_starts)):
        sol = solve(problem, warm_start=warm)
        A, b = expanded_constraints(problem)  # then padding, up to the widest problem
        m = batch.m[k]
        assert m == len(b) and batch.AA[k, :m].tobytes() == A.tobytes()
        assert batch.bb[k, :m].tobytes() == b.tobytes()
        assert not batch.AA[k, m:].any() and np.isinf(batch.bb[k, m:]).all()
        assert batch.u_star[k].tobytes() == sol.u_star.tobytes()
        assert batch.status[k] == sol.status
        assert batch.active_set[k] == sol.active_set
        assert batch.iterations[k] == sol.iterations
    return batch


@contextlib.contextmanager
def handoffs():
    """Spies on the kernel's hand-offs to ``solve``'s loop. Yields a list
    that gets, per hand-off, the working-set size ``rows`` and step count
    ``iters`` the problem brought, the ``widths`` of the working sets the
    loop then stepped from, and the ``solution`` it returned."""
    handed, loop, dual = [], qp._solve_from, qp._dual_coeffs
    widths = None

    def spy_loop(A, b, u_hat, warm, u, work, lam, p=None, iters=0):
        nonlocal widths
        if p is None:  # solve's own start, with no row being added
            return loop(A, b, u_hat, warm, u, work, lam, p, iters)
        widths = []
        record = SimpleNamespace(rows=len(work), iters=iters, widths=widths)
        record.solution = loop(A, b, u_hat, warm, u, work, lam, p, iters)
        handed.append(record)
        widths = None
        return record.solution

    def spy_dual(active, a_new):
        if widths is not None:
            widths.append(active.shape[0])
        return dual(active, a_new)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qp, "_solve_from", spy_loop)
        mp.setattr(qp, "_dual_coeffs", spy_dual)
        yield handed


# Three near-parallel rows among five: the dependency test's tolerance lets
# a third row into the working set. The first problem then cycles to the
# iteration limit; the second certifies an empty polytope.
NEAR_PARALLEL = [
    QpProblem(np.array([1.631457786829392, -1.4269444359211565]),
              np.array([[0.4385568613629694, 0.7450146863564727],
                        [0.43855656335527177, 0.7450142233666904],
                        [0.43855793639811297, 0.7450148368151224],
                        [1.0388416731468217, -0.3804893476214842],
                        [-0.781843938167805, 0.2863477620315308]]),
              np.array([0.15678627876376852, -0.04872716251374884, 0.0568768520768734,
                        0.044185369154383786, -0.12272814136324646]),
              np.full(2, 3.01171641586196)),
    QpProblem(np.array([-0.6982436901351937, 0.09394111560844291]),
              np.array([[-0.6939801481263196, 0.17943366654935747],
                        [-0.693979038084957, 0.17943493659818016],
                        [-0.6939797935378971, 0.1794334646328081],
                        [-0.6292217992466123, 0.16616061624080047],
                        [0.9970685679491758, -0.2577886502665384]]),
              np.array([-0.10205850475513396, 0.204503641945779, 0.02573936423560327,
                        -0.08941368416019913, -0.1513931887676518]),
              np.full(2, 1.6342203963626487)),
]


# Contradictory and near-parallel rows whose dual steps overflow the
# multipliers after about 130 iterations; from a hypothesis run of
# test_equals_solve_on_each_problem. Stepping on from there, solve reported
# OPTIMAL with a NaN answer and the batch ended on another active set.
OVERFLOWING = QpProblem(
    np.array([0.7165702615536316, 0.8091691487442596]),
    np.array([[-1.5271407361203257, 0.16365290753863082],
              [0.9096690464532401, -2.725984204670823],
              [0.9096500654667931, -2.7259488811666057],
              [-0.9096500654667931, 2.7259488811666057],
              [0.9184889289738676, 0.9536194892174403],
              [-0.3578183633391514, 0.5873077296548912],
              [0.3578183633391514, -0.5873077296548912],
              [1.937176011643798, -1.1188113320353765],
              [-0.771999855365656, 0.644753552489867],
              [0.4425736312208781, -1.1946144645395447],
              [-0.34504054625882774, -2.072543533983312]]),
    np.array([10.547411617591827, 83.551487879958, 83.55148803405395, -83.84563555144756,
              -0.4271047322006988, 0.28444830662199905, -0.7136852326325542,
              223.66125224422825, -2.1484132719121787, 105.5604055614673,
              21.084715556589636]),
    np.full(2, 0.6753492917389613))


# Near-parallel contradictory rows whose blocking ratio lam / r overflows
# after about 110 iterations; from a hypothesis run of
# test_pad_rows_and_kernel_equal_solve_batch, where solve let numpy's
# overflow RuntimeWarning out.
OVERFLOWING_RATIO = QpProblem(
    np.array([0.7338929760776973, -2.58040574703147]),
    np.array([[-0.2084802957244772, -0.8295847786511262],
              [0.3305540762741986, -0.944707930172289],
              [3.0000980480371515, 1.3316927473965312],
              [3.0000900245140834, 1.331727969611043],
              [-3.0000900245140834, -1.331727969611043],
              [-3.000100010207979, -1.3317259045728236],
              [-3.000464664686578, -1.3315504258204174],
              [-0.110892319650308, -0.18537724945990666],
              [-0.36036229302616424, -1.8850496387640097],
              [-1.687100256360385, -0.006942224876431563]]),
    np.array([1.462840283578671, 2.4555714766902366, -2.8265895874768203, -2.8266022808437516,
              1.8350041380422022, 1.8350038732506646, 1.8350084188587397,
              -0.6292497218797335, 2.1174786804179035, -0.16364063424375777]),
    np.full(2, 1.843091944184046))


class TestSolveBatch:
    """``pad_rows`` plus the lockstep kernel ``solve_padded`` against ``solve``."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    def test_equals_solve_on_each_problem(self, seed, k):
        """Each problem's rows, box faces and padding sit in its row of the
        layout, and the kernel returns ``solve``'s answers, statuses, active
        sets and iterations."""
        rng = np.random.default_rng(seed)
        problems = [random_batch_problem(rng) for _ in range(k)]
        warm = [tuple(int(j) for j in rng.integers(-3, 20, int(rng.integers(0, 4))))
                for _ in problems]
        assert_batch_equals_solve(problems, warm)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    def test_pad_rows_and_kernel_equal_solve_batch(self, seed, k):
        """``pad_rows`` gives each problem its rows plus four box faces, and
        the kernel, given the warm starts as a mask with stray bits on
        padding rows, returns the answers, statuses, active sets and
        iterations it returns without them, which are ``solve``'s."""
        rng = np.random.default_rng(seed)
        problems = [random_batch_problem(rng) for _ in range(k)]
        warm = [tuple(int(j) for j in rng.integers(-3, 20, int(rng.integers(0, 4))))
                for _ in problems]
        clean = batch_of(problems, warm)
        stray = assert_batch_equals_solve(problems, warm, stray=rng)
        counts = np.array([p.b.size for p in problems])
        assert stray.m.tolist() == (counts + 4).tolist()
        assert stray.u_star.tobytes() == clean.u_star.tobytes()
        assert stray.status == clean.status and stray.active_set == clean.active_set
        assert stray.iterations.tobytes() == clean.iterations.tobytes()

    def test_covers_every_kind_of_answer(self):
        rng = np.random.default_rng(48)
        problems = [random_batch_problem(rng) for _ in range(400)]
        batch = assert_batch_equals_solve(problems, [()] * len(problems))
        moved = [not np.array_equal(u, p.u_hat) for u, p in zip(batch.u_star, problems)]
        optimal = [s == OPTIMAL for s in batch.status]
        assert sum(o and not m for o, m in zip(optimal, moved)) > 20  # feasible nominal
        assert sum(o and m for o, m in zip(optimal, moved)) > 100
        assert optimal.count(False) > 20
        assert max(map(len, batch.active_set)) >= 2

    def test_two_row_working_set(self):
        # Both axis rows join; the diagonal row then lies in their span and
        # replaces them.
        problem = QpProblem(np.array([2.0, 2.0]), *rows((1, 0, 0), (0, 1, 0), (0.25, 0.25, -0.125)),
                            np.full(2, 3.0))
        with handoffs() as handed:
            batch = assert_batch_equals_solve([problem], [()])
        assert batch.status == [OPTIMAL] and batch.active_set == [(2,)]
        assert [(h.rows, h.iters) for h in handed] == [(2, 2)]

    def test_three_row_working_sets(self, caplog):
        with handoffs() as handed:
            batch = assert_batch_equals_solve(NEAR_PARALLEL, [(), ()])
        assert batch.status == [INFEASIBLE, INFEASIBLE]
        assert max(w for h in handed for w in h.widths) >= 3
        assert [r.getMessage() for r in caplog.records] == [
            "iteration limit (90) hit on a 9-row problem; reporting infeasible"] * 2

    def test_overflowing_iterate_stops_as_infeasible(self, caplog):
        with warnings.catch_warnings():  # the solvers' own log line is the only report
            warnings.simplefilter("error", RuntimeWarning)
            batch = assert_batch_equals_solve([OVERFLOWING], [(1,)])
        assert batch.status == [INFEASIBLE] and batch.iterations.tolist() == [129]
        assert [r.getMessage() for r in caplog.records] == [
            "non-finite iterate on a 15-row problem; reporting infeasible"] * 2

    def test_overflowing_blocking_ratio_stops_as_infeasible(self, caplog):
        with warnings.catch_warnings():  # the solvers' own log line is the only report
            warnings.simplefilter("error", RuntimeWarning)
            batch = assert_batch_equals_solve([OVERFLOWING_RATIO], [()])
        assert batch.status == [INFEASIBLE] and batch.iterations.tolist() == [111]
        assert [r.getMessage() for r in caplog.records] == [
            "non-finite iterate on a 14-row problem; reporting infeasible"] * 2

    def test_empty_polytope_certificate(self, caplog):
        problem = QpProblem(np.zeros(2), *rows((1, 0, -1), (-1, 0, -1)), np.full(2, 100.0))
        batch = assert_batch_equals_solve([problem, problem], [(), (1,)])
        assert batch.status == [INFEASIBLE, INFEASIBLE]
        assert not caplog.records  # a certificate, not the iteration limit

    def test_closed_form_and_general_steps_share_passes(self, caplog):
        """Problems the kernel finishes itself, after adding a row at 0 or 1
        rows with and without r > 0, share one call with problems it hands
        to ``solve``'s loop: at 0 rows an overflow; at 1 row a blocking row
        that drops, a certificate of an empty polytope and an overflow; at
        2 rows a certificate, and runs on to an overflow and an iteration
        limit."""
        problems = [
            QpProblem(np.array([0.5, -0.0]), *rows((1, 0, 0.25)), np.full(2, 3.0)),
            QpProblem(np.array([-0.0, 0.5]), *rows((-0.0, 1, 0.25)), np.full(2, 3.0)),
            QpProblem(np.array([-0.0, -0.0]), *rows((1, 1, 1)), np.full(2, 3.0)),
            QpProblem(np.array([1.0, 1.0]), *rows((1, 0, 0), (1, 2, 0)), np.full(2, 3.0)),
            QpProblem(np.array([1.0, 1.0]), *rows((1, 0, 0), (0, 1, 0)), np.full(2, 3.0)),
            QpProblem(np.zeros(2), *rows((1, 0, -1), (1, 1, -3)), np.full(2, 3.0)),
            QpProblem(np.zeros(2), *rows((1, 0, -1), (-1, 0, -1)), np.full(2, 3.0)),
            QpProblem(np.zeros(2), *rows((0.03, 0, -1e308)), np.full(2, 3.0)),
            QpProblem(np.zeros(2), *rows((1, 0, -1), (0, 0.03, -1e308)), np.full(2, 3.0)),
            QpProblem(np.zeros(2), *rows((1, 0, -1), (0, 1, -1), (-1, -1, -1)), np.full(2, 3.0)),
            NEAR_PARALLEL[0],
            OVERFLOWING,
        ]
        warm = [(), (), (), (), (), (0,), (), (), (0,), (0, 1), (), (1,)]
        assert_batch_equals_solve(problems, warm)  # logs each warning once from solve
        caplog.clear()
        with handoffs() as handed:
            batch = batch_of(problems, warm)
        assert batch.iterations.tolist() == [1, 1, 0, 2, 2, 3, 2, 1, 2, 3, 90, 129]
        assert batch.status == [OPTIMAL] * 6 + [INFEASIBLE] * 6
        assert batch.active_set[:6] == [(0,), (0,), (), (0, 1), (0, 1), (1,)]
        # (rows, steps) brought to solve's loop, and the iterations it ends
        # on: problem 7; then 5, 6 and 8; then 9, 10 and 11.
        assert [(h.rows, h.iters, h.solution.iterations) for h in handed] == [
            (0, 0, 1), (1, 1, 3), (1, 1, 2), (1, 1, 2), (2, 2, 3), (2, 2, 90), (2, 2, 129)]
        # Signed zeros come back as solve gives them: kept where the step
        # leaves a component alone, +0.0 where it subtracts -0.0.
        assert batch.u_star[:3].tolist() == [[0.25, -0.0], [0.0, 0.25], [-0.0, -0.0]]
        assert np.signbit(batch.u_star[:3]).tolist() == [[False, True], [False, False],
                                                          [True, True]]
        assert sorted(r.getMessage() for r in caplog.records) == [
            "iteration limit (90) hit on a 9-row problem; reporting infeasible",
            "non-finite iterate on a 15-row problem; reporting infeasible",
            "non-finite iterate on a 5-row problem; reporting infeasible",
            "non-finite iterate on a 6-row problem; reporting infeasible",
        ]

    def test_singular_gram_falls_back_like_solve(self, monkeypatch):
        """A singular Gram matrix sends ``_dual_coeffs`` to ``lstsq``, in
        ``solve`` and in the problems the kernel hands to its loop alike.
        Real 2-variable problems reach one too rarely to test, so after an
        exactly singular case every Gram matrix of 2 or more rows is
        treated as singular; the kernel still returns ``solve``'s answers."""
        # (1, 0), (0, 1) and (1, 1) give an exactly singular 3x3 Gram matrix.
        active, a_new = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([0.3, -0.7])
        gram, rhs = active @ active.T, active @ a_new
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram, rhs)
        r, z = qp._dual_coeffs(active, a_new)
        ref_r = np.linalg.lstsq(gram, rhs, rcond=None)[0]
        assert r.tobytes() == ref_r.tobytes() and z.tobytes() == (a_new - active.T @ ref_r).tobytes()

        inner = np.linalg.solve

        def singular(gram, rhs):
            if gram.shape[0] > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return inner(gram, rhs)

        monkeypatch.setattr(np.linalg, "solve", singular)
        rng = np.random.default_rng(50)
        problems = NEAR_PARALLEL + [random_batch_problem(rng) for _ in range(100)]
        with handoffs() as handed:
            assert_batch_equals_solve(problems, [()] * len(problems))
        assert max(w for h in handed for w in h.widths) >= 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30))
    def test_lockstep_makes_at_most_two_steps(self, seed, k):
        """A problem the kernel finishes itself reports at most 2 iterations,
        and every hand-off brings at most 2 working rows and 2 steps, one
        step per row."""
        rng = np.random.default_rng(seed)
        problems = [random_batch_problem(rng) for _ in range(k)]
        warm = [tuple(int(j) for j in rng.integers(-3, 20, int(rng.integers(0, 4))))
                for _ in problems]
        with handoffs() as handed:
            batch = batch_of(problems, warm)
        assert all(h.rows == h.iters <= 2 for h in handed)
        every, finished = Counter(batch.iterations.tolist()), Counter(
            h.solution.iterations for h in handed)
        assert finished <= every
        assert max(every - finished, default=0) <= 2

    def test_no_problems(self):
        AA, bb, m = qp.pad_rows(np.zeros((0, 2)), np.zeros(0), np.zeros(0, dtype=int),
                                np.zeros((0, 2)))
        u, optimal, in_work, iters = qp.solve_padded(np.zeros((0, 2)), AA, bb, m,
                                                     np.zeros(bb.shape, dtype=bool))
        assert u.shape == (0, 2) and optimal.shape == iters.shape == (0,)
        assert in_work.shape == (0, 0)


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


def solve_each(answers, u_hat, AA, bb, m, warm):
    """``solve_padded``'s outputs from ``solve`` on each problem of the
    layout, its warm mask turned into a tuple; each ``QpSolution`` is also
    appended to ``answers``."""
    u, in_work = np.empty_like(u_hat), np.zeros(bb.shape, dtype=bool)
    optimal, iters = np.zeros(m.size, dtype=bool), np.zeros(m.size, dtype=int)
    for k, n in enumerate((m - 4).tolist()):  # the problem's rows, then its 4 box faces
        sol = solve(QpProblem(u_hat[k], AA[k, :n], bb[k, :n], bb[k, n:n + 4:2]),
                    warm_start=tuple(np.flatnonzero(warm[k]).tolist()))
        u[k], optimal[k], iters[k] = sol.u_star, sol.status == OPTIMAL, sol.iterations
        in_work[k, list(sol.active_set)] = True
        answers.append(sol)
    return u, optimal, in_work, iters


def crossing_lanes(mode):
    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios"
                      / "crossing_lanes.json").read_text())
    return scenario_from_dict(dict(doc, mode=mode))


class TestKernelOnRealTraffic:
    """Whole runs with the kernel and with ``solve`` on each of its problems
    write the same trajectory CSV, on whatever platform the tests run."""

    @pytest.mark.parametrize("scenario, infeasible", [
        (lambda: preset("circle6", "decentralized_C"), 30),
        (lambda: preset("circle6", "decentralized_C_estimated"), 30),
        (lambda: crossing_lanes("decentralized_B"), 0),
    ], ids=["circle6-C", "circle6-C_estimated", "crossing_lanes-B"])
    def test_trajectory_csv_equals_per_problem_solve(self, monkeypatch, tmp_path, scenario,
                                                     infeasible):
        write_trajectory_csv(run(scenario())[0], tmp_path / "kernel.csv")
        answers = []
        monkeypatch.setattr(sim.qp, "solve_padded", functools.partial(solve_each, answers))
        write_trajectory_csv(run(scenario())[0], tmp_path / "solve.csv")
        assert (tmp_path / "solve.csv").read_bytes() == (tmp_path / "kernel.csv").read_bytes()
        # The runs cover dropped rows (an optimum after more steps than it
        # has active rows), and the circle6 runs infeasible problems.
        assert any(a.status == OPTIMAL and a.iterations > len(a.active_set) for a in answers)
        assert sum(a.status == INFEASIBLE for a in answers) >= infeasible

    def test_hand_offs_bypass_solve(self, monkeypatch):
        """The kernel hands problems to ``solve``'s loop and never calls
        ``qp.solve``, so counters wrapped around ``qp.solve`` (perfbench's
        traced ``qp.solve.*``) see only centralized QPs."""
        def refuse(*args, **kwargs):
            raise AssertionError("qp.solve called in a decentralized run")

        monkeypatch.setattr(qp, "solve", refuse)
        with handoffs() as handed:
            metrics = run(preset("circle6", "decentralized_C"))[1]
        assert handed and metrics.qp_infeasible_count >= 30
