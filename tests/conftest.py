import time

import numpy as np
import pytest

from safeswarm import AgentParams, AgentState, pair_barrier, relative_state
from safeswarm.presets import circle6
from safeswarm.sim import run


def random_safe_pair(rng, safety_dist=0.6, equal_gamma=True, margin=0.05):
    """Two agents at a random safe configuration: separated by more than the
    safety distance and not closing faster than their combined braking can
    absorb (barrier value nonnegative)."""
    gamma_i = rng.uniform(0.3, 3.0)
    gamma_j = gamma_i if equal_gamma else rng.uniform(0.3, 3.0)
    params = [
        AgentParams(1, rng.uniform(0.3, 2.5), 1.0, gamma_i, safety_dist / 2),
        AgentParams(2, rng.uniform(0.3, 2.5), 1.0, gamma_j, safety_dist / 2),
    ]
    accel_sum = params[0].accel_limit + params[1].accel_limit
    while True:
        p1 = rng.uniform(-2.0, 2.0, 2)
        dist = rng.uniform(safety_dist + margin, 4.0)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        p2 = p1 - dist * np.array([np.cos(theta), np.sin(theta)])
        states = [
            AgentState(p1, rng.uniform(-1.0, 1.0, 2)),
            AgentState(p2, rng.uniform(-1.0, 1.0, 2)),
        ]
        h, _ = pair_barrier(relative_state(states[0], states[1]), accel_sum, safety_dist)
        if h >= 0.0:
            return states, params


def as_ensemble(row, n_agents):
    """Embed a per-agent row's coefficients into the stacked control space."""
    a = np.zeros(2 * n_agents)
    a[2 * row.pair[0] : 2 * row.pair[0] + 2] = row.a
    return a


@pytest.fixture(scope="session")
def circle6_run():
    """The heterogeneous circle-exchange preset, run once per session."""
    scenario = circle6()
    start = time.perf_counter()
    log, metrics = run(scenario)
    wall = time.perf_counter() - start
    return scenario, log, metrics, wall
