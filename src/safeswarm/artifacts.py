"""Run artifacts: trajectory CSV, metrics JSON, and an SVG trajectory plot.

All writers are deterministic functions of their inputs, so identical runs
produce byte-identical files. Floats are written with 12 significant
digits, enough to round-trip the logged doubles to within 1e-9 relative
error.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .qp import INFEASIBLE, OPTIMAL
from .sim import RunMetrics, TrajectoryLog

CSV_HEADER = "t,agent_id,px,py,vx,vy,ux,uy,ux_nom,uy_nom,qp_status"
_SVG_SIZE = 640  # px, the longer side of the drawing

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf",
)


# An agent row is t, its id, px .. uy_nom and its status, each number as
# "%.12g", which renders a float as format(x, ".12g") does.
_NUMBERS = ",".join(["%.12g"] * 8)
_STATUS = (OPTIMAL, INFEASIBLE)


def _csv_chunks(log: TrajectoryLog):
    """The CSV header line, then each record's rows as one string: one ``%``
    on its numbers, with a format string that spells the ids and statuses
    of its brake pattern, made once per pattern."""
    ids = [a.params.id for a in log.scenario.agents]
    formats = {}
    yield CSV_HEADER + "\n"
    for rec in log.records:
        brake = tuple(rec.brake.tolist())
        if brake not in formats:
            formats[brake] = "".join(f"%.12g,{i},{_NUMBERS},{_STATUS[b]}\n"
                                     for i, b in zip(ids, brake))
        t = np.full((len(ids), 1), float(rec.t))
        values = np.concatenate((t, rec.p, rec.v, rec.u_applied, rec.u_nominal), 1)
        yield formats[brake] % tuple(values.ravel().tolist())


def write_trajectory_csv(log: TrajectoryLog, path) -> None:
    """Write the log to path as CSV, one record at a time: one row per agent
    per step, post-step state plus the controls that produced it."""
    with Path(path).open("w") as f:
        f.writelines(_csv_chunks(log))


def metrics_to_dict(metrics: RunMetrics) -> dict:
    """JSON-ready view of the metrics, units spelled out in the key names."""
    return {
        "min_pair_dist_m": _finite_or_none(metrics.min_pair_dist),
        "min_h_mps": _finite_or_none(metrics.min_h),
        "goal_errors_m": {str(k): v for k, v in sorted(metrics.goal_errors.items())},
        "qp_infeasible_count": metrics.qp_infeasible_count,
        "deadlock_detected": metrics.deadlock_detected,
        "deadlock_onset_s": metrics.deadlock_onset,
        "path_length_m": {str(k): v for k, v in sorted(metrics.path_lengths.items())},
    }


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


def write_metrics_json(metrics: RunMetrics, path) -> None:
    Path(path).write_text(json.dumps(metrics_to_dict(metrics), indent=2) + "\n")


def render_svg(log: TrajectoryLog) -> str:
    """One polyline per agent plus start/goal markers and the final
    position's safety-radius circle (the start, for a run without steps).
    Deterministic for a given log."""
    scn = log.scenario
    trails = np.array([[a.state0.p for a in scn.agents]] + [rec.p for rec in log.records])
    goals = np.array([a.goal for a in scn.agents])
    margin = max(a.params.radius for a in scn.agents) + 0.2
    lo = np.minimum(trails.min(axis=(0, 1)), goals.min(axis=0)) - margin
    hi = np.maximum(trails.max(axis=(0, 1)), goals.max(axis=0)) + margin
    span = float(max(hi - lo))
    scale = _SVG_SIZE / span

    def sx(x: float) -> str:
        return format((x - lo[0]) * scale, ".2f")

    def sy(y: float) -> str:
        return format((hi[1] - y) * scale, ".2f")  # flip: svg y grows downward

    width = format((hi[0] - lo[0]) * scale, ".2f")
    height = format((hi[1] - lo[1]) * scale, ".2f")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for i, agent in enumerate(scn.agents):
        color = _PALETTE[i % len(_PALETTE)]
        # The trail, scaled as sx and sy scale one point.
        xs = ((trails[:, i, 0] - lo[0]) * scale).tolist()
        ys = ((hi[1] - trails[:, i, 1]) * scale).tolist()
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" stroke-dasharray="6 3"/>'
        )
        r = format(agent.params.radius * scale, ".2f")
        parts.append(
            f'<circle cx="{xs[-1]:.2f}" cy="{ys[-1]:.2f}" r="{r}" '
            f'fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for mark, fill in ((agent.state0.p, color), (agent.goal, "none")):
            half = 4.0
            x = format(float(sx(mark[0])) - half, ".2f")
            y = format(float(sy(mark[1])) - half, ".2f")
            parts.append(
                f'<rect x="{x}" y="{y}" width="8" height="8" fill="{fill}" '
                f'stroke="{color}" stroke-width="1.2"/>'
            )
    parts.append("</svg>\n")
    return "\n".join(parts)
