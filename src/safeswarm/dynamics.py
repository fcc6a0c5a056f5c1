"""Planar double-integrator agents: state, limits, integration, relative geometry."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateGeometryError(ValueError):
    """Two agents occupy the same point; there is no separating direction.

    Callers must treat this as an already-collided pair.
    """


@dataclass(frozen=True)
class AgentParams:
    """Static per-agent limits and avoidance parameters.

    accel_limit bounds each control component (per-axis box), speed_limit
    bounds the speed, barrier_gain scales how aggressively the agent may
    approach the boundary of the safe set, radius is the physical safety
    radius used to derive pairwise safety distances. All four must be
    positive and finite.
    """

    id: int
    accel_limit: float  # m/s^2
    speed_limit: float  # m/s
    barrier_gain: float  # 1/(m^2 s)
    radius: float  # m

    def __post_init__(self):
        for name in ("accel_limit", "speed_limit", "barrier_gain", "radius"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"AgentParams.{name} must be positive and finite, got {value!r}")


@dataclass
class AgentState:
    """Position and velocity of one agent."""

    p: np.ndarray  # m
    v: np.ndarray  # m/s

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float).reshape(2)
        self.v = np.asarray(self.v, dtype=float).reshape(2)


@dataclass(frozen=True)
class RelativeState:
    """Relative geometry of an ordered agent pair (self minus other).

    vbar is the component of the relative velocity along the line of
    sight; negative vbar means the pair is closing.
    """

    dp: np.ndarray  # m
    dv: np.ndarray  # m/s
    dist: float  # m
    vbar: float  # m/s

    def flipped(self) -> "RelativeState":
        """The same pair seen from the other agent (dp, dv negated)."""
        return RelativeState(-self.dp, -self.dv, self.dist, self.vbar)


def relative_state(si: AgentState, sj: AgentState) -> RelativeState:
    """Relative position/velocity of si with respect to sj.

    Raises DegenerateGeometryError when the positions coincide (dist = 0),
    since the line-of-sight direction is then undefined.
    """
    dp = si.p - sj.p
    dv = si.v - sj.v
    dist = float(np.hypot(dp[0], dp[1]))  # scales correctly for tiny separations
    if dist == 0.0:
        raise DegenerateGeometryError("coincident agent positions")
    vbar = float(dp @ dv) / dist
    return RelativeState(dp, dv, dist, vbar)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row pair of two (..., 2) arrays, rounded like the
    2-vector ``a @ b``, ``np.linalg.norm`` and a (1, 2) by (2, 1) matmul:
    ``np.vecdot`` takes numpy's dot loop, as they do (an elementwise
    multiply-add or einsum rounds differently)."""
    return np.vecdot(a, b)


def step(p: np.ndarray, v: np.ndarray, u: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Semi-implicit Euler step: velocity first, then position with the new
    velocity. Broadcasts over (N, 2) arrays of agents; returns (p, v)."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    v_next = v + np.asarray(u, dtype=float) * dt
    return p + v_next * dt, v_next

