"""Output checks that recompute their references with the benchmark's own numpy.

None of these calls the program's barrier, solver or integrator. Each
check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import numpy as np

H_TOL = 1e-6  # m/s, barrier undershoot tolerated
LIMIT_TOL = 1e-9  # per-axis slack on |u| <= alpha and |v| <= beta
EULER_TOL = 1e-11  # m, m/s
GOAL_TOL = 0.05  # m
QP_AGREE_TOL = 1e-6
QP_ROW_TOL = 1e-8
QP_BOX_TOL = 1e-10
CHUNK = 64  # steps per block in the pair check, to bound temporaries


def _fail(name: str, cond: bool, detail: str) -> list[str]:
    return [] if cond else [f"{name}: {detail}"]


def pair_safety(P: np.ndarray, V: np.ndarray, alpha: np.ndarray, ds: np.ndarray) -> list[str]:
    """Every pair stays outside its safety distance with barrier h >= -H_TOL.

    P, V: (T, N, 2) positions and velocities. alpha: (N,) acceleration
    limits. ds: (N, N) pairwise safety distances.
    h = sqrt(2 (alpha_i + alpha_j) (d - Ds)) + (dp . dv) / d.
    """
    n = P.shape[1]
    i, j = np.triu_indices(n, 1)
    if i.size == 0:
        return []
    accel_sum = alpha[i] + alpha[j]
    dsij = ds[i, j]
    worst_gap, worst_h = np.inf, np.inf
    for lo in range(0, P.shape[0], CHUNK):
        dp = P[lo:lo + CHUNK, i] - P[lo:lo + CHUNK, j]
        dv = V[lo:lo + CHUNK, i] - V[lo:lo + CHUNK, j]
        d = np.hypot(dp[..., 0], dp[..., 1])
        gap = d - dsij
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.sqrt(2.0 * accel_sum * np.maximum(gap, 0.0)) + np.einsum("tkc,tkc->tk", dp, dv) / d
        worst_gap = min(worst_gap, float(gap.min()))
        worst_h = min(worst_h, float(h.min()) if np.all(np.isfinite(h)) else -np.inf)
    return (
        _fail("pair distance", worst_gap > 0.0, f"a pair reached {worst_gap:.3g} m past Ds")
        + _fail("barrier", worst_h >= -H_TOL, f"min h {worst_h:.3g} m/s < -{H_TOL}")
    )


def limits(U: np.ndarray, V: np.ndarray, alpha: np.ndarray, beta: np.ndarray) -> list[str]:
    """|u| <= alpha and |v| <= beta on every axis of every agent."""
    u_over = float(np.max(np.abs(U) - alpha[None, :, None]))
    v_over = float(np.max(np.abs(V) - beta[None, :, None]))
    return (
        _fail("control box", u_over <= LIMIT_TOL, f"|u| exceeds alpha by {u_over:.3g}")
        + _fail("speed box", v_over <= LIMIT_TOL, f"|v| exceeds beta by {v_over:.3g}")
    )


def euler(P: np.ndarray, V: np.ndarray, U: np.ndarray, dt: float) -> list[str]:
    """Semi-implicit Euler: v' = v + u dt, then p' = p + v' dt.

    P, V: (T + 1, N, 2) including the initial state; U: (T, N, 2).
    """
    v_err = float(np.max(np.abs(V[1:] - (V[:-1] + U * dt)), initial=0.0))
    p_err = float(np.max(np.abs(P[1:] - (P[:-1] + V[1:] * dt)), initial=0.0))
    return (
        _fail("euler velocity", v_err <= EULER_TOL, f"off by {v_err:.3g}")
        + _fail("euler position", p_err <= EULER_TOL, f"off by {p_err:.3g}")
    )


def goals(p_final: np.ndarray, goal: np.ndarray, deadlocked: bool) -> list[str]:
    """A run not flagged as deadlocked ends with every agent at its goal."""
    if deadlocked:
        return []
    err = float(np.max(np.linalg.norm(p_final - goal, axis=1)))
    return _fail("goal", err <= GOAL_TOL, f"worst goal error {err:.3g} m")


class EstimateTrack:
    """Running check that limit estimates stay in [floor, true alpha] and
    never decrease, fed one snapshot per step so that only the previous
    snapshot is held.

    A snapshot is (N, N): E[i, j] is agent i's estimate of agent j's
    limit after the step; the diagonal is ignored and a missing estimate
    is NaN, which fails every bound.
    """

    def __init__(self, floor: float, alpha: np.ndarray):
        n = alpha.size
        self.off = ~np.eye(n, dtype=bool)
        self.floor = floor
        self.true = np.broadcast_to(alpha[None, :], (n, n))[self.off]
        self.prev = None
        self.low, self.high, self.drop = 0.0, -np.inf, 0.0

    def observe(self, E: np.ndarray) -> None:
        vals = E[self.off]
        # np.minimum and np.maximum keep a NaN, where min and max would drop it.
        self.low = float(np.minimum(self.low, np.min(vals - self.floor, initial=0.0)))
        self.high = float(np.maximum(self.high, np.max(vals - self.true, initial=-np.inf)))
        if self.prev is not None:
            self.drop = float(np.minimum(self.drop, np.min(vals - self.prev, initial=0.0)))
        self.prev = vals

    def failures(self) -> list[str]:
        low, high, drop = self.low, self.high, self.drop
        return (
            _fail("estimate floor", low >= 0.0, f"estimate {-low:.3g} below the floor")
            + _fail("estimate bound", high <= 0.0, f"estimate {high:.3g} above the true limit")
            + _fail("estimate monotone", drop >= 0.0, f"estimate fell by {-drop:.3g}")
        )


def estimates(E: np.ndarray, floor: float, alpha: np.ndarray) -> list[str]:
    """``EstimateTrack`` over a whole (T, N, N) stack of snapshots."""
    track = EstimateTrack(floor, alpha)
    for snapshot in E:
        track.observe(snapshot)
    return track.failures()


def qp_answer(A: np.ndarray, b: np.ndarray, box: np.ndarray, u_hat: np.ndarray,
              u_star: np.ndarray) -> list[str]:
    """Check one OPTIMAL projection of u_hat onto {A u <= b, |u| <= box}.

    The reference is scipy's SLSQP run on the same problem; the answer must
    match it, meet the rows and the box, and equal u_hat when u_hat is
    already feasible.
    """
    # Imported here so that only traced runs load scipy: untraced runs
    # report peak memory, which scipy would inflate.
    from scipy.optimize import minimize

    out = []
    row_viol = float(np.max(A @ u_star - b, initial=-np.inf))
    box_viol = float(np.max(np.abs(u_star) - box))
    out += _fail("qp rows", row_viol <= QP_ROW_TOL, f"row violated by {row_viol:.3g}")
    out += _fail("qp box", box_viol <= QP_BOX_TOL, f"box violated by {box_viol:.3g}")
    nominal_ok = float(np.max(A @ u_hat - b, initial=-np.inf)) <= 0.0 and np.all(np.abs(u_hat) <= box)
    if nominal_ok:
        return out + _fail("qp passthrough", bool(np.array_equal(u_star, u_hat)),
                           "a feasible nominal control was changed")
    res = minimize(
        lambda u: float((u - u_hat) @ (u - u_hat)),
        np.clip(u_hat, -box, box),
        jac=lambda u: 2.0 * (u - u_hat),
        bounds=list(zip(-box, box)),
        constraints=[{"type": "ineq", "fun": lambda u: b - A @ u, "jac": lambda u: -A}],
        method="SLSQP",
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    gap = float(np.max(np.abs(res.x - u_star)))
    return out + _fail("qp optimum", gap <= QP_AGREE_TOL,
                       f"answer is {gap:.3g} from scipy's (status {res.status})")
