"""Pinned trajectories: every reference run reproduces its recorded row.

``scripts/reference_runs.py`` wrote ``tests/reference_runs.json`` and
``tests/reference_runs.npz``; each run is run once and checked against
both. The tolerance record is checked under any numpy and platform:
positions, min h and min distance within 1e-6, infeasible counts exact,
over each run's horizon.
The digests hash float64 bytes, which only the recorded numpy version on
a platform with the recorded ``fingerprint`` is held to, so elsewhere the
exact test skips and names both.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from safeswarm import sim
from safeswarm.sim import run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import reference_runs  # noqa: E402
from reference_runs import departure  # noqa: E402

RECORDED = json.loads(reference_runs.REFERENCE.read_text())
TOLERANCE = reference_runs.load_records()
HERE = (np.__version__, reference_runs.fingerprint())
RUNS = pytest.mark.parametrize("name, source, mode", reference_runs.runs(),
                               ids=[name for name, _, _ in reference_runs.runs()])


@functools.cache
def observed(source, mode):
    """One run's digest row and tolerance record, shared by both tests."""
    log, metrics = run(reference_runs.scenario(source, mode))
    return reference_runs.digest(log, metrics), reference_runs.record(log, metrics)


@RUNS
def test_run_within_tolerance(name, source, mode):
    gone = departure(TOLERANCE[name], observed(source, mode)[1])
    assert gone is None, f"departs from the tolerance record at step {gone[0]}: {gone[1]}"


@RUNS
def test_run_matches_reference(name, source, mode):
    if HERE != (RECORDED["numpy"], RECORDED["fingerprint"]):
        pytest.skip(f"digests recorded under numpy {RECORDED['numpy']} with fingerprint "
                    f"{RECORDED['fingerprint']}, running numpy {HERE[0]} with fingerprint "
                    f"{HERE[1]}")
    assert observed(source, mode)[0] == RECORDED["runs"][name]


def test_one_minima_pass_per_reference_run(monkeypatch):
    """Observing a run as ``observed`` does, its digest row and then its
    tolerance record, computes the per-record minima once, in the run's
    ``compute_metrics``."""
    calls = []
    inner = sim._record_minima
    monkeypatch.setattr(sim, "_record_minima", lambda *a: calls.append(1) or inner(*a))
    log, metrics = run(reference_runs.scenario("headon2", "decentralized_C"))
    reference_runs.digest(log, metrics)
    reference_runs.record(log, metrics)
    assert len(calls) == 1


@pytest.mark.parametrize("field, index, change", [
    ("p", (3, 1, 0), 1e-5), ("min_h", 100, 1e-5), ("min_dist", 100, -1e-5), ("infeasible", 7, 1)])
def test_tolerance_comparison_catches_a_change(field, index, change):
    """One position moved by 1e-5 m, one min h by 1e-5 m/s, one min
    distance by 1e-5 m or one infeasible count by one departs; the record
    itself does not."""
    expected = TOLERANCE["ring8-decentralized_C"]
    assert departure(expected, expected) is None
    changed = dict(expected, **{field: expected[field].copy()})
    changed[field][index] += change
    step = departure(expected, changed)[0]
    assert step == (25 * (index[0] + 1) if field == "p" else index + 1)


def test_digests_only_checks_the_tolerance_record_first(monkeypatch, tmp_path, capsys):
    """``--digests-only`` on a run that departs from its tolerance record
    names the run and the step, writes nothing and exits 1; on one that
    stays within, it writes the digests and prints each changed row."""
    name = "headon2-decentralized_C"
    target = tmp_path / "reference_runs.json"
    target.write_text('{"runs": {}}')
    monkeypatch.setattr(reference_runs, "REFERENCE", target)
    monkeypatch.setattr(reference_runs, "runs", lambda: [(name, "headon2", "decentralized_C")])
    moved = dict(TOLERANCE[name], min_h=TOLERANCE[name]["min_h"] + 1e-5)
    monkeypatch.setattr(reference_runs, "load_records", lambda: {name: moved})
    assert reference_runs.main(["--digests-only"]) == 1
    assert f"{name} departs from the tolerance record at step 1: min_h" in capsys.readouterr().err
    assert target.read_text() == '{"runs": {}}'
    monkeypatch.setattr(reference_runs, "load_records", lambda: {name: TOLERANCE[name]})
    assert reference_runs.main(["--digests-only"]) == 0
    row = json.loads(target.read_text())["runs"][name]
    assert f"{name}: min h new -> {float.fromhex(row['min_h']):.6f}" in capsys.readouterr().out
