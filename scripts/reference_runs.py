#!/usr/bin/env python3
"""Record the reference runs that pin trajectories in tier-1.

Usage: PYTHONPATH=src python scripts/reference_runs.py

Runs circle6, rect4, headon2 and scenarios/crossing_lanes.json, the 3x3
lanes tiles of ``tests/conftest.py::lanes_tiles``, three ring swaps of
``tests/conftest.py::ring_swap`` (ring8: 1.75 m, alternating +-3 degrees;
ring16: 3 m, ``default_rng(3).uniform(-0.3, 0.3, 16)`` degrees; ring24:
4.58 m, alternating +-3 degrees), and circle6 and ring8 at dt = 0.01 and
dt = 0.05, under every mode. The ring swaps drive pairs inside the safety
distance, so they pin the braking fallback; the known violations are
pinned as they are. It writes one row per run to
``tests/reference_runs.json``: the step
count, SHA-256 digests of the raw float64 bytes of ``p``, ``v``,
``u_applied`` and ``u_nominal`` over the records, of the row pairs, and of
the statuses, ``min_h`` and ``min_pair_dist`` (float hex) of each record,
plus the run's ``min_h`` and ``min_pair_dist``, its infeasible count and
its deadlock onset. ``tests/test_reference_runs.py`` reruns the same set
and compares. Float digests are exact only under the numpy version
recorded with them. Rewrite the file only with a change that alters
trajectories on purpose, and list every row that changed.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from conftest import lanes_tiles, ring_swap  # noqa: E402
from safeswarm.cli import parse_scenario  # noqa: E402
from safeswarm.presets import PRESETS  # noqa: E402
from safeswarm.sim import MODES, run  # noqa: E402

REFERENCE = ROOT / "tests" / "reference_runs.json"
SOURCES = ("circle6", "rect4", "headon2", "crossing_lanes", "lanes_tiles",
           "ring8", "ring16", "ring24",
           "circle6_dt0.01", "circle6_dt0.05", "ring8_dt0.01", "ring8_dt0.05")
# The ring swaps' agent count, radius (m) and per-agent stagger (degrees).
RINGS = {
    "ring8": (8, 1.75, [3.0, -3.0] * 4),
    "ring16": (16, 3.0, np.random.default_rng(3).uniform(-0.3, 0.3, 16)),
    "ring24": (24, 4.58, [3.0, -3.0] * 12),
}


def scenario(source: str, mode: str):
    source, _, dt = source.partition("_dt")
    if source in PRESETS:
        scn = PRESETS[source]()
    elif source == "lanes_tiles":
        scn = lanes_tiles()
    elif source in RINGS:
        scn = ring_swap(*RINGS[source], mode)
    else:
        scn = parse_scenario(ROOT / "scenarios" / f"{source}.json")
    scn.mode = mode  # as the CLI's --mode
    if dt:
        scn.dt = float(dt)
    return scn


def digest(log, metrics) -> dict:
    """One run's row: exact digests of everything a record holds, and the
    run's metrics that summarize safety."""
    arrays = {key: hashlib.sha256() for key in ("p", "v", "u_applied", "u_nominal")}
    pairs, scalars = hashlib.sha256(), hashlib.sha256()
    for rec in log.records:
        for key, h in arrays.items():
            h.update(np.ascontiguousarray(getattr(rec, key), dtype="<f8").tobytes())
        row_pairs = np.asarray(rec.row_pairs, dtype="<i8").reshape(-1, 2)
        pairs.update(f"{len(row_pairs)};".encode() + row_pairs.tobytes())
        scalars.update(f"{','.join(rec.qp_status)};{rec.min_h.hex()};"
                       f"{rec.min_pair_dist.hex()}\n".encode())
    onset = metrics.deadlock_onset
    return {
        "steps": len(log.records),
        **{key: h.hexdigest() for key, h in arrays.items()},
        "row_pairs": pairs.hexdigest(),
        "status_min_h_min_dist": scalars.hexdigest(),
        "min_h": metrics.min_h.hex(),
        "min_pair_dist": metrics.min_pair_dist.hex(),
        "infeasible": metrics.qp_infeasible_count,
        "deadlock_onset": None if onset is None else float(onset).hex(),
    }


def runs():
    """(name, source, mode) of every reference run."""
    return [(f"{source}-{mode}", source, mode) for source in SOURCES for mode in MODES]


def main() -> None:
    rows = {name: digest(*run(scenario(source, mode))) for name, source, mode in runs()}
    REFERENCE.write_text(json.dumps({"numpy": np.__version__, "runs": rows}, indent=1) + "\n")
    print(f"wrote {len(rows)} runs to {REFERENCE.relative_to(ROOT)} (numpy {np.__version__})")


if __name__ == "__main__":
    main()
