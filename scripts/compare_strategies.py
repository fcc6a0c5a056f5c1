#!/usr/bin/env python3
"""Run one preset under every filter mode and tabulate the outcomes.

Usage: python scripts/compare_strategies.py [--preset circle6|rect4|headon2]
"""

import argparse
import time

import numpy as np

from safeswarm.presets import PRESETS
from safeswarm.sim import MODES, run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="circle6", choices=sorted(PRESETS))
    args = parser.parse_args()

    header = (
        f"{'mode':28s} {'sim time':>9s} {'wall':>6s} {'min dist':>9s} "
        f"{'min h':>8s} {'worst goal':>11s} {'infeasible':>10s} {'deadlock':>8s}"
    )
    print(f"preset: {args.preset}")
    print(header)
    print("-" * len(header))
    default = PRESETS[args.preset]().mode
    for mode in MODES:
        scenario = PRESETS[args.preset]()
        scenario.mode = mode
        start = time.perf_counter()
        log, metrics = run(scenario)
        wall = time.perf_counter() - start
        if mode == default:
            kept = scenario, log, metrics
        sim_t = log.records[-1].t if log.records else 0.0
        print(
            f"{mode:28s} {sim_t:8.2f}s {wall:5.1f}s {metrics.min_pair_dist:9.4f} "
            f"{metrics.min_h:+8.4f} {max(metrics.goal_errors.values()):11.4f} "
            f"{metrics.qp_infeasible_count:10d} {str(metrics.deadlock_detected):>8s}"
        )

    scenario, log, metrics = kept
    print("\nper-agent interference (default mode), sum of |u - u_nominal|:")
    deviation = np.zeros(len(scenario.agents))
    for rec in log.records:
        deviation += np.linalg.norm(rec.u_applied - rec.u_nominal, axis=1)
    for i, setup in enumerate(scenario.agents):
        print(
            f"  agent {setup.params.id} (accel limit {setup.params.accel_limit:.2f}):"
            f" {deviation[i]:9.2f}  path {metrics.path_lengths[setup.params.id]:.3f} m"
        )


if __name__ == "__main__":
    main()
