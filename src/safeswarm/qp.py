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
is 10x the (expanded) row count; hitting it is treated as infeasible and
logged distinctly. So is an iterate or working multiplier that overflows to
a non-finite value, which near-parallel contradictory rows can cause; the
solve stops at that step instead of pivoting on NaN.

``solve`` takes one problem of any dimension; the simulator's centralized
mode hands it the single ensemble QP. ``solve_padded``, the lockstep
kernel, runs the same method on K independent 2-variable problems, one per
agent in the decentralized modes, laid out as (K, M, 2) rows and (K, M)
bounds: problem k's rows, then its four box faces, then zero rows with an
infinite bound up to the widest problem's M. Warm starts go in, and final
working sets come out, as (K, M) bool masks. Each pass makes one selection
or one dual step for every unfinished problem, with the same pivots,
tie-breaks (largest residual, then lowest index, warm rows first),
iteration limits and warnings as ``solve``. ``pad_rows`` builds the layout
from rows given as one (R, 2) array with per-problem counts; the simulator
builds it once per neighbour and violated set and fills in each step's
rows itself. The kernel's answers, optimal flags and working-set masks
equal ``solve``'s answers, statuses and active sets bit for bit, which
fixes how each quantity is computed:

* Residuals only choose rows, so one ``row_dot`` pass over all rows
  serves every problem; ``A @ u`` rounds differently and by row count, but
  no step value is computed from them.
* Working sets of 0 or 1 rows use closed forms that round like
  ``_dual_coeffs``: ``r = row_dot(a1, a_p) / row_dot(a1, a1)`` (the 1x1
  ``np.linalg.solve``) and ``z = a_p - a1 * r``.
* Working sets of k >= 2 rows use stacked ``matmul`` and
  ``np.linalg.solve`` over (G, k, 2), grouped by k, which equal the
  per-problem calls; a closed-form 2x2 does not. The dependency test has a
  tolerance, so a working set can hold more than 2 rows. A singular Gram
  matrix in a group sends that group through ``_dual_coeffs`` one problem
  at a time, as in ``solve``.
"""

from __future__ import annotations

import functools
import itertools
import logging
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
    objective: float
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0


def expanded_constraints(problem: QpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Stack user rows then box faces (+e_c, -e_c per component) as a.u <= b."""
    return (np.concatenate((problem.A, _box_faces(problem.u_hat.size))),
            np.concatenate((problem.b, np.repeat(problem.box, 2))))


@functools.cache
def _box_faces(n: int) -> np.ndarray:
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
    m, n = A.shape
    u = problem.u_hat.copy()

    resid = A @ u - b
    if np.all(resid <= _SELECT_TOL):
        return QpSolution(u, OPTIMAL, (), 0.0, np.zeros(0), 0)

    work: list[int] = []
    lam: list[float] = []
    warm = frozenset(k for k in warm_start if 0 <= k < m)
    max_iter = max(10 * m, 50)
    iters = 0

    while iters < max_iter:
        resid = A @ u - b
        if work:
            resid[work] = 0.0  # working rows are tight by construction
        violated = np.flatnonzero(resid > _SELECT_TOL)
        if violated.size == 0:
            order = np.argsort(work)
            active = tuple(int(work[k]) for k in order)
            mult = np.array([lam[k] for k in order])
            obj = float((u - problem.u_hat) @ (u - problem.u_hat))
            return QpSolution(u, OPTIMAL, active, obj, mult, iters)
        preferred = [int(k) for k in violated if int(k) in warm]
        pool = preferred if preferred else [int(k) for k in violated]
        p = max(pool, key=lambda k: (resid[k], -k))
        a_p = A[p]
        lam_p = 0.0

        while iters < max_iter:
            iters += 1
            active = A[work] if work else np.zeros((0, n))
            r, z = _dual_coeffs(active, a_p)
            zz = float(z @ z)
            dep = zz <= _DEP_TOL * max(1.0, float(a_p @ a_p))  # a_p in the active span
            if dep and not np.any(r > _DUAL_TOL):
                # Nonnegative certificate of an empty polytope.
                return QpSolution(
                    u, INFEASIBLE, tuple(sorted(work)), float("nan"),
                    np.zeros(0), iters,
                )
            t_full = np.inf if dep else 2.0 * float(a_p @ u - b[p]) / zz
            t_block, k_block = _blocking_step(lam, r)
            drop = dep or t_block < t_full  # the blocking row leaves the working set
            u, lam_p = _dual_step(u, lam, r, np.zeros(n) if dep else z,
                                  t_block if drop else t_full, lam_p)
            if drop:
                del work[k_block], lam[k_block]
            else:
                work.append(p)
                lam.append(lam_p)
            if not (np.isfinite(u).all() and np.isfinite(lam_p) and np.isfinite(lam).all()):
                logger.warning("non-finite iterate on a %d-row problem; reporting infeasible", m)
                return QpSolution(u, INFEASIBLE, tuple(sorted(work)), float("nan"),
                                  np.zeros(0), iters)
            if not drop:
                break

    logger.warning(
        "iteration limit (%d) hit on a %d-row problem; reporting infeasible",
        max_iter, m,
    )
    return QpSolution(u, INFEASIBLE, tuple(sorted(work)), float("nan"), np.zeros(0), iters)


def _blocking_step(lam: list[float], r: np.ndarray) -> tuple[float, int]:
    """Largest multiplier step before some working multiplier hits zero."""
    t_block = np.inf
    k_block = -1
    for k, rk in enumerate(r):
        if rk > _DUAL_TOL:
            t = lam[k] / rk
            if t < t_block:
                t_block, k_block = t, k
    return t_block, k_block


def _dual_step(
    u: np.ndarray,
    lam: list[float],
    r: np.ndarray,
    z: np.ndarray,
    t: float,
    lam_p: float,
) -> tuple[np.ndarray, float]:
    # An overflow is left to the caller's finite check, which stops the solve.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(lam)):
            lam[k] -= t * r[k]
        return u - 0.5 * t * z, lam_p + t


def pad_rows(A: np.ndarray, b: np.ndarray, counts: np.ndarray,
             box: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The padded layout of K 2-variable problems.

    Problem k has the k-th block of ``counts[k]`` rows of the (R, 2) array
    A, with bounds b, and the per-axis bounds ``box[k]``. Returns the
    (K, M, 2) rows AA, the (K, M) bounds bb and the (K,) row counts
    m = counts + 4. Row k of AA holds problem k's expanded rows: its
    ``counts[k]`` rows, then its box faces (+e_0, -e_0, +e_1, -e_1, bounded
    by box[k]), then zero rows with an infinite bound, which are never
    violated. M is the largest m. A's rows land on the slots
    ``np.flatnonzero(np.arange(M) < counts[:, None])`` of ``AA.reshape(-1, 2)``,
    in order.
    """
    K = counts.size
    m = counts + 4
    cols = np.arange(m.max(initial=0))
    AA, bb = np.zeros((K, cols.size, 2)), np.full((K, cols.size), np.inf)
    user = cols < counts[:, None]
    AA[user], bb[user] = A, b
    faces = (np.arange(K)[:, None], counts[:, None] + np.arange(4))
    AA[faces], bb[faces] = _box_faces(2), box.repeat(2, axis=1)
    return AA, bb, m


def solve_padded(u_hat: np.ndarray, AA: np.ndarray, bb: np.ndarray, m: np.ndarray,
                 warm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The lockstep kernel: ``solve`` on the K problems of a ``pad_rows`` layout.

    ``warm`` is a (K, M) bool mask of each problem's warm rows; bits on
    padding rows are ignored, since those rows are never violated. Returns
    the (K, 2) answers, the (K,) mask of optimal answers, the (K, M) mask
    of each problem's final working set (its active set, as a mask) and the
    (K,) iteration counts. Row indices below are local to a problem.
    """
    K, cols = m.size, np.arange(bb.shape[1])
    # A row is in its problem's working set at most once, so M columns hold
    # any working set; work lists the rows in the order they were added.
    work, lam = np.zeros(bb.shape, dtype=int), np.zeros(bb.shape)
    nw = np.zeros(K, dtype=int)
    in_work = np.zeros(bb.shape, dtype=bool)
    u = u_hat.copy()
    p, lam_p = np.zeros(K, dtype=int), np.zeros(K)
    iters, max_iter = np.zeros(K, dtype=int), np.maximum(10 * m, 50)
    stepping, done, optimal = (np.zeros(K, dtype=bool) for _ in range(3))

    while True:
        pick = ~(done | stepping)
        if pick.any():
            # The largest violated residual, warm rows first, lowest index on ties.
            resid = row_dot(AA, u[:, None, :]) - bb
            viol = (resid > _SELECT_TOL) & ~in_work & pick[:, None]
            cand = viol & (warm | ~(viol & warm).any(axis=1)[:, None])
            first = np.where(cand, resid, -np.inf).argmax(axis=1)
            found = cand[np.arange(K), first]
            done |= pick & ~found
            optimal |= pick & ~found
            p[found], lam_p[found], stepping[found] = first[found], 0.0, True
        live = stepping.nonzero()[0]
        if not live.size:
            break

        iters[live] += 1
        a_p, b_p = AA[live, p[live]], bb[live, p[live]]
        nk = nw[live]
        z = a_p.copy()
        k_max = nk.max()
        t_block, k_block = np.full(live.size, np.inf), np.zeros(live.size, dtype=int)
        unblocked = np.ones(live.size, dtype=bool)  # no r > _DUAL_TOL
        if k_max:
            r = np.zeros((live.size, k_max))
            one = (nk == 1).nonzero()[0]
            if one.size:
                a1 = AA[live[one], work[live[one], 0]]
                r1 = row_dot(a1, a_p[one]) / row_dot(a1, a1)
                r[one, 0], z[one] = r1, a_p[one] - a1 * r1[:, None]
            for k in range(2, k_max + 1):
                g = (nk == k).nonzero()[0]
                if g.size:
                    r[g, :k], z[g] = _stacked_dual_coeffs(
                        AA[live[g, None], work[live[g], :k]], a_p[g])
            pos = r > _DUAL_TOL
            unblocked = ~pos.any(axis=1)
            # The largest multiplier step before a working multiplier hits zero.
            ratio = np.divide(lam[live, :k_max], r, out=np.full(r.shape, np.inf), where=pos)
            k_block = ratio.argmin(axis=1)
            t_block = ratio[np.arange(live.size), k_block]
        zz = row_dot(z, z)
        dep = zz <= _DEP_TOL * np.maximum(1.0, row_dot(a_p, a_p))  # a_p in the active span
        cert = dep & unblocked  # nonnegative certificate of an empty polytope
        t_full = 2.0 * (row_dot(a_p, u[live]) - b_p) / np.where(dep, 1.0, zz)
        drop = dep | (t_block < t_full)
        t = np.where(drop, t_block, t_full)[~cert]
        z[dep] = 0.0
        moved = live[~cert]
        with np.errstate(over="ignore", invalid="ignore"):  # the finite check below stops it
            u[moved] = u[moved] - 0.5 * t[:, None] * z[~cert]
            lam_p[moved] += t
            if k_max:
                lam[moved, :k_max] = lam[moved, :k_max] - t[:, None] * r[~cert]

        out = drop & ~cert
        if out.any():  # the blocking row leaves the working set
            gone, k_out = live[out], k_block[out]
            in_work[gone, work[gone, k_out]] = False
            src = np.minimum(cols + (cols >= k_out[:, None]), cols.size - 1)
            work[gone], lam[gone] = work[gone[:, None], src], lam[gone[:, None], src]
            nw[gone] -= 1
        added = live[~drop]  # a_p joins the working set
        work[added, nw[added]], lam[added, nw[added]] = p[added], lam_p[added]
        nw[added] += 1
        in_work[added, p[added]] = True
        stepping[added] = False
        done[live[cert]] = True
        stepping[live[cert]] = False

        # A multiplier or iterate that overflowed stops its problem, as in solve.
        finite = (np.isfinite(u[live]).all(axis=1) & np.isfinite(lam_p[live])
                  & (np.isfinite(lam[live]) | (cols >= nw[live, None])).all(axis=1))
        if not finite.all():
            for k in live[~finite].tolist():
                logger.warning("non-finite iterate on a %d-row problem; reporting infeasible",
                               m[k])
            done[live[~finite]] = True
            stepping[live[~finite]] = False
        spent = (iters >= max_iter) & ~done
        if spent.any():
            for k in spent.nonzero()[0].tolist():
                logger.warning(
                    "iteration limit (%d) hit on a %d-row problem; reporting infeasible",
                    max_iter[k], m[k],
                )
            done |= spent
            stepping &= ~spent

    return u, optimal, in_work, iters


def _stacked_dual_coeffs(active: np.ndarray, a_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_dual_coeffs`` for a (G, k, 2) stack of working sets and (G, 2) a_new."""
    active_t = active.transpose(0, 2, 1)
    try:
        r = np.linalg.solve(active @ active_t, active @ a_new[:, :, None])[..., 0]
    except np.linalg.LinAlgError:  # a singular Gram matrix in the stack
        r, z = zip(*map(_dual_coeffs, active, a_new))
        return np.array(r), np.array(z)
    return r, a_new - (active_t @ r[:, :, None])[..., 0]


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
        return QpSolution(problem.u_hat.copy(), INFEASIBLE, (), float("nan"))
    kept = points[feasible]
    objectives = np.sum((kept - problem.u_hat) ** 2, axis=1)
    best = int(np.argmin(objectives))
    return QpSolution(kept[best], OPTIMAL, (), float(objectives[best]))
