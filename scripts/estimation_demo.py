#!/usr/bin/env python3
"""Watch two agents learn each other's acceleration limits while avoiding
a head-on collision, starting from a deliberately pessimistic guess.

Usage: python scripts/estimation_demo.py
"""

import numpy as np

from safeswarm import AgentParams, AgentState
from safeswarm.sim import AgentSetup, Scenario, SimContext, TrajectoryLog, log_minima, step_once

NIMBLE, SLUGGISH = 1.8, 0.6


def main():
    agents = [
        AgentSetup(
            AgentParams(1, NIMBLE, 0.6, 1.0, 0.2),
            AgentState(np.array([-1.6, 0.05]), np.zeros(2)),
            np.array([1.6, 0.05]),
        ),
        AgentSetup(
            AgentParams(2, SLUGGISH, 0.6, 1.0, 0.2),
            AgentState(np.array([1.6, -0.05]), np.zeros(2)),
            np.array([-1.6, -0.05]),
        ),
    ]
    scenario = Scenario(
        agents=agents, t_end=14.0, mode="decentralized_C_estimated",
        estimator_gain=1.5, alpha_floor=0.3,
    )
    ctx = SimContext(scenario)
    records, estimates = [], []
    for step in range(int(round(scenario.t_end / scenario.dt))):  # as sim.run
        records.append(step_once(ctx))
        if step % 50 == 0:
            estimates.append((ctx.estimators[0].estimates[1], ctx.estimators[1].estimates[0]))
    min_h, min_dist = log_minima(TrajectoryLog(scenario, records))
    print(f"true limits: agent1={NIMBLE}, agent2={SLUGGISH}; both start guessing 0.3")
    print(f"{'t':>6s} {'dist':>7s} {'h':>7s} {'est of agent2':>14s} {'est of agent1':>14s}")
    for k, (of2, of1) in zip(range(0, len(records), 50), estimates):
        print(f"{records[k].t:6.2f} {min_dist[k]:7.3f} {min_h[k]:+7.3f} {of2:14.4f} {of1:14.4f}")
    print("estimates only grow, and never past the true limit of the neighbor.")


if __name__ == "__main__":
    main()
