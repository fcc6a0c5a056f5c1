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
logged distinctly.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

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
            if zz <= _DEP_TOL * max(1.0, float(a_p @ a_p)):
                # a_p lies in the span of the active normals.
                if not np.any(r > _DUAL_TOL):
                    # Nonnegative certificate of an empty polytope.
                    return QpSolution(
                        u, INFEASIBLE, tuple(sorted(work)), float("nan"),
                        np.zeros(0), iters,
                    )
                t_block, k_block = _blocking_step(lam, r)
                u, lam_p = _dual_step(u, lam, r, np.zeros(n), t_block, lam_p)
                del work[k_block], lam[k_block]
                continue
            t_full = 2.0 * float(a_p @ u - b[p]) / zz
            t_block, k_block = _blocking_step(lam, r)
            if t_block < t_full:
                u, lam_p = _dual_step(u, lam, r, z, t_block, lam_p)
                del work[k_block], lam[k_block]
                continue
            u, lam_p = _dual_step(u, lam, r, z, t_full, lam_p)
            work.append(p)
            lam.append(lam_p)
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
    for k in range(len(lam)):
        lam[k] -= t * r[k]
    return u - 0.5 * t * z, lam_p + t


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
