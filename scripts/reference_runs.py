#!/usr/bin/env python3
"""Record the reference runs that pin trajectories in tier-1.

Usage: PYTHONPATH=src python scripts/reference_runs.py [--digests-only]

Runs circle6, rect4, headon2 and scenarios/crossing_lanes.json, the 3x3
lanes tiles of ``tests/conftest.py::lanes_tiles``, three ring swaps of
``safeswarm.presets.ring_swap`` (ring8: 1.75 m, alternating +-3 degrees;
ring16: 3 m, ``default_rng(3).uniform(-0.3, 0.3, 16)`` degrees; ring24:
4.58 m, alternating +-3 degrees), and circle6 and ring8 at dt = 0.01 and
dt = 0.05, under every mode. The ring swaps drive pairs inside the safety
distance, so they pin the braking fallback; the known violations are
pinned as they are. ``tests/test_reference_runs.py`` reruns the same set
and checks each run against two files.

``tests/reference_runs.json`` holds one row of exact digests per run: the
step count, SHA-256 digests of the raw float64 bytes of ``p``, ``v``,
``u_applied`` and ``u_nominal`` over the records, of the row pairs, and of
the statuses (each ``brake`` flag spelled as the CSV's ``qp_status``) and
each record's min h and min distance (float hex, from ``sim.log_minima``),
plus the run's ``min_h`` and ``min_pair_dist``, its infeasible count and
its deadlock onset. Float digests are exact only under the recorded numpy
version and platform ``fingerprint``: the BLAS kernel, numpy's SIMD
dispatch and the libm all round differently.

``tests/reference_runs.npz`` is the tolerance record, checked under any
numpy and platform: per run, the positions every ``SAMPLE`` steps, each step's
min h, min distance and infeasible count, the step count, the deadlock
onset (nan without one) and the horizon, the number of leading steps that
``departure`` compares. A run is compared whole unless a 1-ulp nudge of
agent 0's or agent 1's start x (both ways) departs from it; then its
horizon is half the earliest step at which a nudge departs (``nudged``),
and the step count and onset are not compared.

Rewrite the digests only with a change that alters trajectories on
purpose, and list every row that changed; the script prints each row whose
digest changed, with its min h before and after. A change that keeps every
run within the tolerance record rewrites the digests alone
(``--digests-only``): that first compares every run with ``departure``
against the tolerance record and, if any departs, names each such run and
its step, writes nothing and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import zipfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from conftest import lanes_tiles  # noqa: E402
from safeswarm.cli import parse_scenario  # noqa: E402
from safeswarm.dynamics import row_dot  # noqa: E402
from safeswarm.presets import PRESETS, ring_swap  # noqa: E402
from safeswarm.qp import INFEASIBLE, OPTIMAL  # noqa: E402
from safeswarm.sim import MODES, log_minima, run  # noqa: E402

REFERENCE = ROOT / "tests" / "reference_runs.json"
TOLERANCE_RECORD = ROOT / "tests" / "reference_runs.npz"
SAMPLE = 25  # steps between recorded positions
TOL = 1e-6  # m on positions and distances, m/s on min h
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
        scn = ring_swap(*RINGS[source])
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
    for rec, min_h, min_dist in zip(log.records, *(m.tolist() for m in log_minima(log))):
        for key, h in arrays.items():
            h.update(np.ascontiguousarray(getattr(rec, key), dtype="<f8").tobytes())
        row_pairs = np.asarray(rec.row_pairs, dtype="<i8").reshape(-1, 2)
        pairs.update(f"{len(row_pairs)};".encode() + row_pairs.tobytes())
        status = ",".join(INFEASIBLE if brake else OPTIMAL for brake in rec.brake.tolist())
        scalars.update(f"{status};{min_h.hex()};{min_dist.hex()}\n".encode())
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


def fingerprint() -> str:
    """SHA-256 of what the operations a step rounds through give on fixed
    seeded inputs: stacked ``row_dot``, 1-D and 2-D ``@``,
    ``np.linalg.solve``, ``np.hypot``, ``np.sqrt`` and a multiply chain.
    Where it differs from the recorded one, so may the digests."""
    rng = np.random.default_rng(0)
    x = np.ldexp(rng.normal(size=(4096, 2)), rng.integers(-10, 11, (4096, 1)))
    y = rng.normal(size=(4096, 2))
    out = [row_dot(x, y), np.hypot(x[:, 0], x[:, 1]), np.sqrt(np.abs(x)),
           x[:, 0] * x[:, 0] * x[:, 0] * y[:, 1]]
    for n in (1, 2, 3, 4, 5, 8, 9, 13, 16, 33, 100):
        A, u = rng.normal(size=(n, n + 2)), rng.normal(size=n + 2)
        gram = A @ A.T + np.eye(n)
        out += [A[0] @ A[-1], A @ u, A[:, :2] @ u[:2], gram, np.linalg.solve(gram, A @ u)]
    h = hashlib.sha256()
    for arr in out:
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()


def record(log, metrics) -> dict[str, np.ndarray]:
    """One run's tolerance record, without its horizon."""
    recs, n = log.records, len(log.scenario.agents)
    onset = metrics.deadlock_onset
    min_h, min_dist = log_minima(log)
    return {
        "p": np.array([rec.p for rec in recs[SAMPLE - 1::SAMPLE]]).reshape(-1, n, 2),
        "min_h": min_h,
        "min_dist": min_dist,
        "infeasible": np.array([np.count_nonzero(rec.brake) for rec in recs], dtype=np.int32),
        "steps": np.array(len(recs)),
        "deadlock_onset": np.array(np.nan if onset is None else onset),
    }


def departure(expected: dict, actual: dict):
    """(step, what) of the first step, counted from 1, among the first
    ``expected["horizon"]`` (default: all, with the step count and the
    deadlock onset) at which ``actual`` moves a position, min h or min
    distance by more than ``TOL`` or changes an infeasible count; None if
    it stays within."""
    steps = int(expected["steps"])
    horizon = int(expected.get("horizon", steps))
    n = min(horizon, int(actual["steps"]))
    found = []
    for key in ("min_h", "min_dist", "infeasible"):  # TOL < 1 keeps the counts exact
        off = ~np.isclose(actual[key][:n], expected[key][:n], rtol=0.0, atol=TOL)
        if off.any():
            k = int(off.argmax())
            found.append((k + 1, f"{key} {actual[key][k]}, recorded {expected[key][k]}"))
    moved = np.abs(actual["p"][:n // SAMPLE] - expected["p"][:n // SAMPLE]).max(axis=(1, 2),
                                                                              initial=0.0)
    off = ~(moved <= TOL)
    if off.any():
        k = int(off.argmax())
        found.append((SAMPLE * (k + 1), f"a position moved by {moved[k]:.3g} m"))
    if n < horizon:
        found.append((n + 1, f"the run ended after {n} steps"))
    elif horizon == steps and int(actual["steps"]) != steps:
        found.append((steps + 1, f"{int(actual['steps'])} steps, recorded {steps}"))
    elif horizon == steps and not np.array_equal(actual["deadlock_onset"],
                                                 expected["deadlock_onset"], equal_nan=True):
        found.append((steps, f"deadlock onset {actual['deadlock_onset']}, "
                             f"recorded {expected['deadlock_onset']}"))
    return min(found) if found else None


def nudged(source: str, mode: str, base: dict) -> int | None:
    """The earliest step at which a run with agent 0's or agent 1's start x
    moved 1 ulp either way departs from ``base``, or None."""
    first = []
    for agent in (0, 1):
        for direction in (-np.inf, np.inf):
            scn = scenario(source, mode)
            p = scn.agents[agent].state0.p
            p[0] = np.nextafter(p[0], direction)
            gone = departure(base, record(*run(scn)))
            if gone is not None:
                first.append(gone[0])
    return min(first, default=None)


def load_records() -> dict[str, dict[str, np.ndarray]]:
    """The tolerance record of every run, by name."""
    records: dict[str, dict[str, np.ndarray]] = {}
    with np.load(TOLERANCE_RECORD) as npz:
        for key in npz.files:
            name, _, field = key.rpartition(":")
            records.setdefault(name, {})[field] = npz[key]
    return records


def write_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez_compressed`` with a fixed timestamp on every member, so the
    same arrays give the same bytes."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        for key, value in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.asarray(value), allow_pickle=False)
            zf.writestr(zipfile.ZipInfo(f"{key}.npy"), buf.getvalue(), zipfile.ZIP_DEFLATED)


def runs():
    """(name, source, mode) of every reference run."""
    return [(f"{source}-{mode}", source, mode) for source in SOURCES for mode in MODES]


def changed_rows(before: dict, after: dict) -> list[str]:
    """One line per run whose digest row changed: its name and its min h
    before and after, with the change when there is one."""
    lines = []
    for name, row in after.items():
        old = before.get(name)
        if row == old:
            continue
        now = float.fromhex(row["min_h"])
        if old is None:
            lines.append(f"{name}: min h new -> {now:.6f}")
            continue
        was = float.fromhex(old["min_h"])
        moved = f" ({now - was:+.1e})" if now != was else ""
        lines.append(f"{name}: min h {was:.6f} -> {now:.6f}{moved}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--digests-only", action="store_true",
                        help=f"rewrite {REFERENCE.name} and keep {TOLERANCE_RECORD.name}, "
                             "unless a run departs from the latter")
    args = parser.parse_args(argv)
    before = json.loads(REFERENCE.read_text())["runs"] if REFERENCE.exists() else {}
    kept = load_records() if args.digests_only else {}
    rows, arrays, departed = {}, {}, []
    for name, source, mode in runs():
        log, metrics = run(scenario(source, mode))
        rows[name], rec = digest(log, metrics), record(log, metrics)
        if args.digests_only:
            gone = departure(kept[name], rec)
            if gone is not None:
                departed.append(f"{name} departs from the tolerance record at step "
                                f"{gone[0]}: {gone[1]}")
            continue
        del log
        first = nudged(source, mode, rec)
        rec["nudged"] = np.array(0 if first is None else first)
        rec["horizon"] = np.array(int(rec["steps"]) if first is None else first // 2)
        arrays.update({f"{name}:{key}": value for key, value in rec.items()})
        print(f"{name}: {int(rec['steps'])} steps, "
              + ("compared whole" if first is None
                 else f"a nudge departs at step {first}, horizon {int(rec['horizon'])}"))
    if departed:
        print("\n".join(departed) + "\nwrote nothing", file=sys.stderr)
        return 1
    changed = changed_rows(before, rows)
    print("\n".join(changed) if changed else "no digest row changed")
    REFERENCE.write_text(json.dumps({"numpy": np.__version__, "fingerprint": fingerprint(),
                                     "runs": rows}, indent=1) + "\n")
    print(f"wrote {len(rows)} runs to {REFERENCE} (numpy {np.__version__})")
    if not args.digests_only:
        write_npz(TOLERANCE_RECORD, arrays)
        print(f"wrote {TOLERANCE_RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
