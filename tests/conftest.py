import json
import time
from pathlib import Path

import numpy as np
import pytest

from safeswarm import AgentParams, AgentState, pair_barrier, relative_state
from safeswarm.cli import scenario_from_dict
from safeswarm.presets import PRESETS, circle6
from safeswarm.sim import AgentSetup, Scenario, run


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


def preset(name, mode):
    """The named preset under ``mode``, set as the CLI's --mode sets it."""
    scenario = PRESETS[name]()
    scenario.mode = mode
    return scenario


def lanes_tiles(tiles=3, spacing=8.0):
    """tiles x tiles copies of scenarios/crossing_lanes.json, spacing m apart,
    under decentralized_C_estimated."""
    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios"
                      / "crossing_lanes.json").read_text())
    base = doc.pop("agents")
    doc["mode"] = "decentralized_C_estimated"
    doc["agents"] = [
        dict(a, id=len(base) * k + a["id"],
             p0=[a["p0"][0] + spacing * (k % tiles), a["p0"][1] + spacing * (k // tiles)],
             goal=[a["goal"][0] + spacing * (k % tiles), a["goal"][1] + spacing * (k // tiles)])
        for k in range(tiles * tiles) for a in base
    ]
    return scenario_from_dict(doc)


def ring_swap(n, radius, stagger_deg, mode):
    """n agents on a ring of the given radius swapping with their antipodes,
    from rest, each turned off the even spacing by its stagger in degrees;
    circle6's mix: every sixth agent, from the first, is the large,
    cumbersome one."""
    agents = []
    for k in range(n):
        angle = 2.0 * np.pi * k / n + np.deg2rad(stagger_deg[k])
        p0 = radius * np.array([np.cos(angle), np.sin(angle)])
        large = k % 6 == 0
        params = AgentParams(k + 1, 0.6 if large else 1.2, 0.6, 1.0, 0.4 if large else 0.2)
        agents.append(AgentSetup(params, AgentState(p0, np.zeros(2)), -p0))
    return Scenario(agents, dt=0.02, t_end=60.0, mode=mode)
