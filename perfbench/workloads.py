"""Seeded inputs of the workloads, as scenario documents or CLI arguments.

Nothing here imports the program: each generator returns plain JSON-ready
data, which the runner hands to the program as scenario files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MODES = (
    "centralized",
    "decentralized_A",
    "decentralized_B",
    "decentralized_C",
    "decentralized_C_estimated",
)
LANES_FILE = Path("scenarios/crossing_lanes.json")

LANES_TILES = 3  # per side
LANES_SPACING = 8.0  # m between tile centres
LANES_JITTER = 0.05  # m, per-agent shift of start and goal together

# The eight symmetries of the square map the per-axis control box onto
# itself, so a transformed scenario is the same job seen in another frame.
_SQUARE_SYMMETRIES = [
    np.array(m, dtype=float)
    for m in (
        [[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
        [[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]], [[0, -1], [-1, 0]],
    )
]


def _agent(aid: int, alpha: float, beta: float, gamma: float, radius: float,
           p0: np.ndarray, goal: np.ndarray) -> dict:
    return {
        "id": aid, "alpha": alpha, "beta": beta, "gamma": gamma, "radius": radius,
        "p0": [float(x) for x in p0], "v0": [0.0, 0.0], "goal": [float(x) for x in goal],
    }


def lanes_local(seed: int) -> dict:
    """A LANES_TILES x LANES_TILES grid of copies of the crossing-lanes scenario.

    Each tile is turned by a seeded symmetry of the square, and every agent's
    start and goal move together by a seeded offset of at most LANES_JITTER
    per axis. Runs under decentralized_C_estimated.
    """
    base = json.loads(LANES_FILE.read_text())
    rng = np.random.default_rng(seed)
    agents = []
    half = (LANES_TILES - 1) / 2.0
    for ty in range(LANES_TILES):
        for tx in range(LANES_TILES):
            centre = LANES_SPACING * np.array([tx - half, ty - half])
            frame = _SQUARE_SYMMETRIES[int(rng.integers(len(_SQUARE_SYMMETRIES)))]
            for a in base["agents"]:
                shift = rng.uniform(-LANES_JITTER, LANES_JITTER, size=2)
                agents.append(_agent(
                    len(agents) + 1, a["alpha"], a["beta"], a["gamma"], a["radius"],
                    frame @ np.array(a["p0"], dtype=float) + centre + shift,
                    frame @ np.array(a["goal"], dtype=float) + centre + shift,
                ))
    doc = {k: v for k, v in base.items() if k != "agents"}
    doc["mode"] = "decentralized_C_estimated"
    doc["agents"] = agents
    return doc


def paper_suite(seed: int) -> list[tuple[str, str, str, str]]:
    """(name, source flag, source, mode) for every bundled scenario under
    every mode, in a seeded order. The inputs are the fixed reproduction set."""
    sources = [("--preset", "circle6"), ("--preset", "rect4"), ("--preset", "headon2"),
               ("--scenario", str(LANES_FILE))]
    jobs = [(f"{Path(source).stem}-{mode}", flag, source, mode)
            for flag, source in sources for mode in MODES]
    order = np.random.default_rng(seed).permutation(len(jobs))
    return [jobs[k] for k in order]
