"""Minimum-deviation control under halfspace rows and a per-component box.

Solves

    minimize    ||u - u_hat||^2
    subject to  A u <= b         (row k: a_k . u <= b_k)
                |u_c| <= box_c   for every component c

which is the Euclidean projection of the nominal control onto a polytope.
The solver is an active-set method run on the dual: it starts from the
unconstrained optimum u = u_hat and pulls in one violated row at a time,
keeping multipliers nonnegative, so every iterate solves a small
identity-Hessian least-squares subproblem and no feasibility phase is
needed. Infeasibility is certified exactly: when a violated row is a
nonnegative combination of the active rows, those multipliers exhibit an
empty polytope.

Tolerances: reported optima satisfy rows to 1e-8 and box bounds to 1e-10;
multiplier sign checks use 1e-8. Tie-breaking is by row index, so equal
problems produce identical solutions and active sets. The iteration limit
is max(10 m, 50) dual steps for the m expanded rows whose bound is not
+inf; hitting it is treated as infeasible and logged distinctly. So is an
iterate or working multiplier that overflows to a non-finite value, which
near-parallel contradictory rows can cause; the solve stops at that step
instead of pivoting on NaN. A NaN bound or residual counts as violated,
so it ends in such a stop rather than passing as no constraint. So does
an optimum whose working set, built by rounding from near-parallel rows,
is wider than the dimension: its rows cannot all be tight there.

``solve`` takes one problem of any dimension; the simulator's centralized
mode hands it the single ensemble QP, with its box faces as rows and an
unbounded box, whose +inf faces never enter the loop. ``solve_padded``,
the lockstep kernel, solves K independent 2-variable problems, one per
agent in the decentralized modes, laid out as (K, M, 2) rows and (K, M)
bounds: problem k's rows, then zero rows with an infinite bound up to the
widest problem's M. The kernel knows no box: a problem that has one brings
it as rows, as the simulator brings each agent's four faces. Warm starts
go in, and final working sets come out, as (K, M) bool masks. ``pad_rows``
builds the layout from rows given as one (R, 2) array with per-problem
counts; the simulator builds it once per neighbour and violated set and
fills in each step's rows itself.

Nearly every problem needs only dual steps that add a row to a working set
of 0 or 1 rows, so that is all the kernel does, in three straight passes.
Each picks a row for every problem still live, with ``solve``'s
tie-breaks (largest residual, then lowest index, warm rows first). Pass 1
adds it in closed form to an empty working set, ``z = a_p``; pass 2 to the
one-row working set {a1}, ``r = row_dot(a1, a_p) / row_dot(a1, a1)`` (the
1x1 ``np.linalg.solve``) and ``z = a_p - a1 * r``. A problem the closed
form does not fit (a row in the span of its working set, a working
multiplier that hits zero first, a non-finite sum, or a third row, which
pass 3 looks for) is marked and handed on: after the passes, ``solve``'s
own loop solves each such problem whole, from its nominal control, on its
whole padded row, and so re-takes the at most two steps the passes took
for it. Drops, certificates of an empty polytope, non-finite stops and the
iteration limit exist only there.

The kernel's answers, optimal flags, working-set masks and iteration
counts equal ``solve``'s bit for bit. Its residuals come from one
``row_dot`` per pass over the live problems' rows, which rounds like the
2-vector ``a @ b``, so the picked row's residual is also the step's
numerator. ``A @ u`` rounds differently and by row count, but only
chooses rows.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .dynamics import row_dot

logger = logging.getLogger(__name__)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

# Selection threshold for treating a row as violated. Kept well below the
# reported tolerances so terminating means all rows hold to 1e-8 and box
# bounds to 1e-10.
_SELECT_TOL = 1e-11
_DUAL_TOL = 1e-8
_DEP_TOL = 1e-12


@dataclass
class QpProblem:
    """Nominal control u_hat, rows A u <= b, and per-component box bounds.

    A is (m, n) and b is (m,) for the n = u_hat.size variables.
    """

    u_hat: np.ndarray
    A: np.ndarray
    b: np.ndarray
    box: np.ndarray

    def __post_init__(self):
        self.u_hat = np.asarray(self.u_hat, dtype=float).ravel()
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        self.box = np.asarray(self.box, dtype=float).ravel()
        n = self.u_hat.size
        if self.box.size != n:
            raise ValueError(f"box has {self.box.size} bounds for {n} variables")
        if self.b.ndim != 1 or self.A.shape != (self.b.size, n):
            raise ValueError(f"rows {self.A.shape}, bounds {self.b.shape}: not {n} variables")
        if not np.all(self.box > 0):
            raise ValueError("box bounds must be positive")

    @property
    def rows(self) -> "_RowView":
        """Read-only view of the rows as objects with ``.a`` and ``.b``. It
        exists only for the QP sampler of perfbench/layers.py; read A and b."""
        return _RowView(self.A, self.b)


class _RowView:
    def __init__(self, A: np.ndarray, b: np.ndarray):
        self._A, self._b = A, b

    def __len__(self) -> int:
        return len(self._b)

    def __getitem__(self, k: int) -> SimpleNamespace:
        return SimpleNamespace(a=self._A[k], b=self._b[k])


@dataclass
class QpSolution:
    """Solver output. u_star is meaningful only when status is OPTIMAL.

    active_set indexes the expanded constraint list (see
    ``expanded_constraints``), sorted ascending; multipliers align with it
    and satisfy u_star - u_hat = -1/2 * sum(lam_k * a_k).
    """

    u_star: np.ndarray
    status: str
    active_set: tuple[int, ...]
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0


def expanded_constraints(problem: QpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Stack user rows then box faces (+e_c, -e_c per component) as a.u <= b."""
    return (np.concatenate((problem.A, box_faces(problem.u_hat.size))),
            np.concatenate((problem.b, np.repeat(problem.box, 2))))


@functools.cache
def box_faces(n: int) -> np.ndarray:
    """The read-only (2n, n) normals +e_0, -e_0, +e_1, ... of a box's faces."""
    faces = np.zeros((2 * n, n))
    faces[np.arange(2 * n), np.repeat(np.arange(n), 2)] = np.tile([1.0, -1.0], n)
    faces.flags.writeable = False
    return faces


def _dual_coeffs(active: np.ndarray, a_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Express a_new against the active normals: a_new = active.T @ r + z."""
    if active.shape[0] == 0:
        return np.zeros(0), a_new.copy()
    gram = active @ active.T
    rhs = active @ a_new
    try:
        r = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        r = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    z = a_new - active.T @ r
    return r, z


def solve(problem: QpProblem, warm_start: tuple[int, ...] = ()) -> QpSolution:
    """Project u_hat onto the problem's polytope.

    warm_start biases which violated row is pulled in first (typically the
    previous step's active set); it never changes the optimum, which is
    unique because the objective is strictly convex.
    """
    A, b = expanded_constraints(problem)
    warm = frozenset(k for k in warm_start if 0 <= k < b.size)
    return _solve_from(A, b, warm, problem.u_hat.copy())


@np.errstate(over="ignore", invalid="ignore")  # the loop's finite check stops an overflow
def _solve_from(A: np.ndarray, b: np.ndarray, warm: frozenset[int],
                u_hat: np.ndarray) -> QpSolution:
    """``solve``'s loop on the rows A u <= b, from the nominal control u_hat
    and an empty working set. Rows bounded by +inf, such as the kernel's
    padding, are never violated and do not count towards the limit."""
    n = A.shape[1]
    m = int(np.count_nonzero(b != np.inf))
    max_iter = max(10 * m, 50)
    u, work, lam, iters = u_hat, [], [], 0

    while iters < max_iter:
        resid = A @ u - b
        if work:
            resid[work] = 0.0  # working rows are tight by construction
        violated = np.flatnonzero(~(resid <= _SELECT_TOL)).tolist()  # NaN counts as violated
        if not violated and len(work) > n:  # rounding took a row in their span as new
            logger.warning("%d working rows in %d dimensions; reporting infeasible", len(work), n)
            return QpSolution(u, INFEASIBLE, tuple(sorted(work)), np.zeros(0), iters)
        if not violated:
            order = sorted(range(len(work)), key=work.__getitem__)
            return QpSolution(u, OPTIMAL, tuple(work[k] for k in order),
                              np.array([lam[k] for k in order]), iters)
        res = resid.tolist()
        p = max([k for k in violated if k in warm] or violated, key=lambda k: (res[k], -k))
        a_p, lam_p = A[p], 0.0
        aa = float(a_p @ a_p)

        while iters < max_iter:
            iters += 1
            active = A[work] if work else np.zeros((0, n))
            r, z = _dual_coeffs(active, a_p)
            r = r.tolist()
            zz = float(z @ z)
            dep = zz <= _DEP_TOL * max(1.0, aa)  # a_p in the active span
            if dep and not any(r_k > _DUAL_TOL for r_k in r):
                # Nonnegative certificate of an empty polytope.
                return QpSolution(u, INFEASIBLE, tuple(sorted(work)), np.zeros(0), iters)
            t_full = np.inf if dep else 2.0 * float(a_p @ u - b[p]) / zz
            t_block, k_block = _blocking_step(lam, r)
            drop = dep or t_block < t_full  # the blocking row leaves the working set
            t = t_block if drop else t_full
            lam = [lam_k - t * r_k for lam_k, r_k in zip(lam, r)]
            u, lam_p = u - 0.5 * t * (np.zeros(n) if dep else z), lam_p + t
            if drop:
                del work[k_block], lam[k_block]
            else:
                work.append(p)
                lam.append(lam_p)
            if not (np.isfinite(u).all() and math.isfinite(lam_p) and all(map(math.isfinite, lam))):
                logger.warning("non-finite iterate on a %d-row problem; reporting infeasible", m)
                return QpSolution(u, INFEASIBLE, tuple(sorted(work)), np.zeros(0), iters)
            if not drop:
                break

    logger.warning(
        "iteration limit (%d) hit on a %d-row problem; reporting infeasible",
        max_iter, m,
    )
    return QpSolution(u, INFEASIBLE, tuple(sorted(work)), np.zeros(0), iters)


def _blocking_step(lam: list[float], r: list[float]) -> tuple[float, int]:
    """Largest multiplier step before some working multiplier hits zero."""
    t_block = np.inf
    k_block = -1
    for k, rk in enumerate(r):
        if rk > _DUAL_TOL:
            t = lam[k] / rk
            if t < t_block:
                t_block, k_block = t, k
    return t_block, k_block


def pad_rows(A: np.ndarray, b: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The padded layout of K 2-variable problems.

    Problem k has the k-th block of ``counts[k]`` rows of the (R, 2) array
    A, with bounds b. Returns the (K, M, 2) rows AA and the (K, M) bounds
    bb, M the largest count: row k holds problem k's rows, then zero rows
    with an infinite bound, which are never violated. A's rows land on the
    slots ``np.flatnonzero(np.arange(M) < counts[:, None])`` of
    ``AA.reshape(-1, 2)``, in order.
    """
    cols = np.arange(counts.max(initial=0))
    AA, bb = np.zeros((counts.size, cols.size, 2)), np.full((counts.size, cols.size), np.inf)
    rows = cols < counts[:, None]
    AA[rows], bb[rows] = A, b
    return AA, bb


def _pick(AA: np.ndarray, u: np.ndarray, bw: np.ndarray, warm_bit: np.ndarray):
    """The problems of a padded layout that have a violated row (a NaN
    residual counts), the row each adds (the largest residual, warm rows
    first, lowest index on ties) and its residual."""
    resid = row_dot(AA, u[:, None, :]) - bw
    viol = ~(resid <= _SELECT_TOL)
    live = viol.any(axis=1).nonzero()[0]
    if not live.size:  # the usual end, and argmax has no row of width 0
        return live, live, live
    # Positive doubles order as their bit patterns, so the top bit on the
    # warm rows ranks them first and leaves ties equal.
    p = ((resid.view(np.uint64) | warm_bit) * viol).argmax(axis=1).take(live)
    return live, p, resid[live, p]


@np.errstate(all="ignore")  # a non-finite sum hands its problem to solve's loop
def solve_padded(u_hat: np.ndarray, AA: np.ndarray, bb: np.ndarray,
                 warm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lockstep kernel: ``solve`` on the K problems of a ``pad_rows`` layout.

    ``warm`` is a (K, M) bool mask of each problem's warm rows; bits on
    padding rows are ignored, since those rows are never violated. Returns
    the (K, 2) answers, the (K,) mask of optimal answers, the (K, M) mask
    of each problem's final working set (its active set, as a mask) and the
    (K,) iteration counts. Row indices below are local to a problem. Each
    problem's answer is ``solve``'s on its whole padded row with an
    infinite box.

    ``solve``'s loop solves each problem the passes cannot finish whole,
    from its nominal control: its answer, active set, iterations and status.
    """
    K = bb.shape[0]
    u, iters, failed = u_hat.copy(), np.zeros(K, dtype=int), np.zeros(K, dtype=bool)
    # bb with +inf on each row a pass adds, so that no later pass picks it:
    # bw > bb marks the working rows, all of finite bound, of the problems
    # the passes finish; ``handed`` lists the problems they leave to the loop.
    bw, handed = bb.copy(), []
    warm_bit = warm.astype(np.uint64) << 63

    def done():
        in_work = bw > bb
        for ki in sorted(handed):
            sol = _solve_from(AA[ki], bb[ki], frozenset(np.flatnonzero(warm[ki]).tolist()),
                              u_hat[ki])
            u[ki], failed[ki], iters[ki] = sol.u_star, sol.status != OPTIMAL, sol.iterations
            in_work[ki] = False
            in_work[ki, list(sol.active_set)] = True
        return u, ~failed, in_work, iters

    # Pass 1 adds a row p1 to an empty working set: z = a1.
    k, p1, gap = _pick(AA, u, bw, warm_bit)
    if not k.size:
        return done()
    a1 = AA[k, p1]
    zz = row_dot(a1, a1)
    lam1 = 2.0 * gap / zz  # the step, and a1's multiplier, which starts at 0
    u_k = u.take(k, 0) - 0.5 * lam1[:, None] * a1
    # a1 = 0, or a non-finite sum (a sum is non-finite if a term is; an
    # overflowing sum is a false alarm and costs a hand-off).
    general = (zz <= _DEP_TOL * np.maximum(1.0, zz)) | ~np.isfinite(u_k[:, 0] + u_k[:, 1] + lam1)
    if np.count_nonzero(general):
        handed += k[general].tolist()
        k, p1, a1, lam1, u_k = (x[~general] for x in (k, p1, a1, lam1, u_k))
    u[k], bw[k, p1], iters[k] = u_k, np.inf, 1

    # Pass 2 adds a row p2 to the working set {p1}: r1 = row_dot(a1, a2) /
    # row_dot(a1, a1) (the 1x1 np.linalg.solve) and z = a2 - a1 * r1.
    live, p2, gap = _pick(AA.take(k, 0), u.take(k, 0), bw.take(k, 0), warm_bit.take(k, 0))
    if not live.size:
        return done()
    k, a1, lam1 = k.take(live), a1.take(live, 0), lam1.take(live)
    a2 = AA[k, p2]
    r1 = row_dot(a1, a2) / row_dot(a1, a1)
    z = a2 - a1 * r1[:, None]
    zz = row_dot(z, z)
    t = 2.0 * gap / zz  # also a2's multiplier
    u_k = u.take(k, 0) - 0.5 * t[:, None] * z
    # a2 in a1's span, a1's multiplier hitting 0 first, or a non-finite sum.
    general = ((zz <= _DEP_TOL * np.maximum(1.0, row_dot(a2, a2)))
               | ((r1 > _DUAL_TOL) & (lam1 / r1 < t))
               | ~np.isfinite(u_k[:, 0] + u_k[:, 1] + t + (lam1 - t * r1)))
    if np.count_nonzero(general):
        handed += k[general].tolist()
        k, p2, u_k = (x[~general] for x in (k, p2, u_k))
    u[k], bw[k, p2], iters[k] = u_k, np.inf, 2

    # Pass 3 hands each problem with a third violated row to solve's loop.
    live = _pick(AA.take(k, 0), u.take(k, 0), bw.take(k, 0), warm_bit.take(k, 0))[0]
    handed += k.take(live).tolist()
    return done()


def brute_force_oracle(problem: QpProblem, grid_step: float) -> QpSolution:
    """Exhaustive reference solution for problems of dimension <= 4.

    Scans a grid over the box and, on top of it, enumerates every candidate
    the optimum could be: the nominal control itself, its projection onto
    each constraint hyperplane (box faces included), and every intersection
    of n constraints. The best feasible candidate wins; if none is feasible
    the problem is declared infeasible. Independent of the solver's search.
    """
    n = problem.u_hat.size
    if n > 4:
        raise ValueError("oracle supports dimension <= 4")
    if not grid_step > 0:
        raise ValueError("grid_step must be positive")
    A, b = expanded_constraints(problem)
    m = A.shape[0]
    tol = 1e-9

    candidates = [problem.u_hat.copy()]
    for k in range(m):
        norm2 = float(A[k] @ A[k])
        if norm2 > 0:
            candidates.append(problem.u_hat - (A[k] @ problem.u_hat - b[k]) / norm2 * A[k])
    for combo in itertools.combinations(range(m), n):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        candidates.append(np.linalg.solve(sub, b[list(combo)]))

    axes = [np.arange(-bc, bc + grid_step / 2, grid_step) for bc in problem.box]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([g.ravel() for g in mesh], axis=1)
    points = np.vstack([np.array(candidates), grid])

    feasible = np.all(A @ points.T <= b[:, None] + tol, axis=0)
    if not np.any(feasible):
        return QpSolution(problem.u_hat.copy(), INFEASIBLE, ())
    kept = points[feasible]
    best = int(np.argmin(np.sum(np.square(kept - problem.u_hat), axis=1)))
    return QpSolution(kept[best], OPTIMAL, ())
