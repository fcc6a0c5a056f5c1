"""Pinned trajectories: every reference run reproduces its recorded row.

``scripts/reference_runs.py`` wrote ``tests/reference_runs.json``; a change
that keeps trajectories the same leaves every row equal, bit for bit. The
digests hash float64 bytes, which only the recorded numpy version is held
to, so under another version the test skips and names both.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from safeswarm.sim import run

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import reference_runs  # noqa: E402

RECORDED = json.loads(reference_runs.REFERENCE.read_text())


@pytest.mark.parametrize("name, source, mode", reference_runs.runs(),
                         ids=[name for name, _, _ in reference_runs.runs()])
def test_run_matches_reference(name, source, mode):
    if np.__version__ != RECORDED["numpy"]:
        pytest.skip(f"digests recorded under numpy {RECORDED['numpy']}, "
                    f"running numpy {np.__version__}")
    row = reference_runs.digest(*run(reference_runs.scenario(source, mode)))
    assert row == RECORDED["runs"][name]
