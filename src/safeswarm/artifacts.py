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

from .sim import RunMetrics, TrajectoryLog

CSV_HEADER = "t,agent_id,px,py,vx,vy,ux,uy,ux_nom,uy_nom,qp_status"
_SVG_SIZE = 640  # px, the longer side of the drawing

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
    "#e377c2", "#17becf",
)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _csv_chunks(log: TrajectoryLog):
    """The CSV header line, then each record's rows as one string."""
    ids = [a.params.id for a in log.scenario.agents]
    yield CSV_HEADER + "\n"
    for rec in log.records:
        t = _fmt(rec.t)
        yield "".join(
            ",".join([t, str(aid), _fmt(rec.p[i, 0]), _fmt(rec.p[i, 1]), _fmt(rec.v[i, 0]),
                      _fmt(rec.v[i, 1]), _fmt(rec.u_applied[i, 0]), _fmt(rec.u_applied[i, 1]),
                      _fmt(rec.u_nominal[i, 0]), _fmt(rec.u_nominal[i, 1]), rec.qp_status[i]])
            + "\n"
            for i, aid in enumerate(ids)
        )


def trajectory_csv_text(log: TrajectoryLog) -> str:
    """Render the log as CSV: one row per agent per step, post-step state
    plus the controls that produced it."""
    return "".join(_csv_chunks(log))


def write_trajectory_csv(log: TrajectoryLog, path) -> None:
    """Write ``trajectory_csv_text(log)`` to path, one record at a time."""
    with Path(path).open("w") as f:
        f.writelines(_csv_chunks(log))


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Parse a trajectory CSV back into column arrays."""
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header in {path}")
    cols = CSV_HEADER.split(",")
    data: dict[str, list] = {c: [] for c in cols}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(cols):
            raise ValueError(f"malformed CSV row: {line!r}")
        for c, part in zip(cols, parts):
            data[c].append(part)
    out: dict[str, np.ndarray] = {}
    for c in cols:
        if c == "qp_status":
            out[c] = np.array(data[c])
        elif c == "agent_id":
            out[c] = np.array([int(x) for x in data[c]])
        else:
            out[c] = np.array([float(x) for x in data[c]])
    return out


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
    pts = np.vstack(
        [np.array([a.state0.p for a in scn.agents])]
        + [rec.p for rec in log.records]
        + [np.array([a.goal for a in scn.agents])]
    )
    margin = max(a.params.radius for a in scn.agents) + 0.2
    lo = pts.min(axis=0) - margin
    hi = pts.max(axis=0) + margin
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
        trail = [agent.state0.p] + [rec.p[i] for rec in log.records]
        coords = " ".join(f"{sx(p[0])},{sy(p[1])}" for p in trail)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="1.5" stroke-dasharray="6 3"/>'
        )
        r = format(agent.params.radius * scale, ".2f")
        final = trail[-1]
        parts.append(
            f'<circle cx="{sx(final[0])}" cy="{sy(final[1])}" r="{r}" '
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
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
