"""Built-in scenarios: a heterogeneous circle exchange, a two-class
rectangle exchange, and a two-agent head-on encounter. Each is fixed and
takes no arguments; set ``mode`` on the returned scenario to change it."""

from __future__ import annotations

import numpy as np

from .dynamics import AgentParams, AgentState
from .sim import AgentSetup, Scenario


# Fixed angular offsets (degrees) from the even hexagon. A perfectly even
# star sends all six agents through the center simultaneously with no
# tangential escape component, which wedges them into mutually infeasible
# constraint sets; this deterministic stagger lets a swirl form instead.
_CIRCLE6_STAGGER_DEG = (4.0, -7.0, 3.0, -5.0, 6.5, -3.5)


def circle6() -> Scenario:
    """Six agents on a 1.75 m circle swapping with their antipodes.

    One large, cumbersome agent (0.6 m/s^2, 0.4 m radius) and five small,
    agile ones (1.2 m/s^2, 0.2 m radius); every agent is limited to
    0.6 m/s. Goals are exactly antipodal, so every nominal path crosses
    the center.
    """
    ring_radius = 1.75
    agents = []
    for k in range(6):
        angle = 2.0 * np.pi * k / 6.0 + np.deg2rad(_CIRCLE6_STAGGER_DEG[k])
        p0 = ring_radius * np.array([np.cos(angle), np.sin(angle)])
        large = k == 0
        params = AgentParams(
            id=k + 1,
            accel_limit=0.6 if large else 1.2,
            speed_limit=0.6,
            barrier_gain=1.0,
            radius=0.4 if large else 0.2,
        )
        agents.append(AgentSetup(params, AgentState(p0, np.zeros(2)), -p0))
    return Scenario(agents=agents, dt=0.02, t_end=60.0)


def rect4() -> Scenario:
    """Three agile agents and one cumbersome agent exchanging across the
    diagonals of a 3 m x 2 m rectangle.

    The agile agents (2.0 m/s^2, 0.13 m diameter) can dodge; the
    cumbersome one (0.5 m/s^2, 0.41 m diameter) largely holds its line.
    """
    half_w, half_h = 1.5, 1.0
    corners = [
        (-half_w, -half_h),
        (half_w, half_h),
        (-half_w, half_h),
        (half_w, -half_h),
    ]
    goals = [corners[1], corners[0], corners[3], corners[2]]
    agents = []
    for k, (corner, goal) in enumerate(zip(corners, goals)):
        cumbersome = k == 0
        params = AgentParams(
            id=k + 1,
            accel_limit=0.5 if cumbersome else 2.0,
            speed_limit=0.3 if cumbersome else 0.5,
            barrier_gain=1.0,
            radius=0.205 if cumbersome else 0.065,
        )
        agents.append(
            AgentSetup(params, AgentState(np.array(corner), np.zeros(2)), np.array(goal))
        )
    return Scenario(agents=agents, dt=0.02, t_end=45.0)


def headon2() -> Scenario:
    """Two equal agents swapping ends of a 3 m corridor, nearly head-on.

    A small lateral offset keeps the encounter out of the unstable exactly
    collinear configuration; the geometry is point symmetric, so the two
    avoidance maneuvers mirror each other.
    """
    offset = 0.03  # m
    agents = [
        AgentSetup(
            AgentParams(id=k + 1, accel_limit=1.2, speed_limit=0.6, barrier_gain=1.0, radius=0.2),
            AgentState(np.array([-1.5 * side, offset * side]), np.zeros(2)),
            np.array([1.5 * side, offset * side]),
        )
        for k, side in enumerate((1.0, -1.0))
    ]
    return Scenario(agents=agents, dt=0.02, t_end=30.0)


PRESETS = {
    "circle6": circle6,
    "rect4": rect4,
    "headon2": headon2,
}
