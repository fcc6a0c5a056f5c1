"""The program names the benchmark in ``perfbench/`` wraps and reads.

``perfbench/layers.py`` wraps functions and methods of the program by
name, and ``perfbench/run.py``'s ``Probe`` reads
``ctx.estimators[i].estimates`` after every step. These tests run both on
the modules this session has already imported (``run.Program`` would
re-import ``safeswarm`` under the other tests), so that a deleted wrapped
name or a changed estimate read fails tier-1 and not only the benchmark.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
import run as bench  # noqa: E402
from spans import Patches, Tracer  # noqa: E402

from conftest import preset  # noqa: E402


def _program():
    """The imported modules, by the short names ``run.Program`` gives them."""
    return SimpleNamespace(**{name.rpartition(".")[2]: importlib.import_module(name)
                              for name in bench.MODULES})


def _attributes(prog):
    owners = [*vars(prog).values(), prog.sim.SimContext, prog.qp.QpProblem,
              prog.estimator.LimitEstimator]
    return [(owner, dict(vars(owner))) for owner in owners]


def test_traced_wrappers_install_run_and_come_off(tmp_path):
    prog = _program()
    before, step_once = _attributes(prog), prog.sim.step_once
    tracer = Tracer()
    with Patches() as patches:
        layers.install(tracer, prog, patches, layers.QpSampler(0))
        assert prog.sim.step_once is not step_once
        for mode in ("centralized", "decentralized_C_estimated"):
            argv = ["--preset", "headon2", "--mode", mode, "--out-dir", str(tmp_path / mode),
                    "--quiet", "--svg"]
            assert prog.cli.run_command(argv) == 0
    called = {tracer.names[k] for k in tracer.arrays()["name_id"].tolist()}
    assert called >= {"sim.step_once", "sim.context", "qp.solve", "estimator", "dynamics.step",
                      "artifacts.csv", "artifacts.svg", "artifacts.metrics_json"}
    assert tracer.counters["artifacts.csv.bytes"] > 0
    for (owner, attrs), (_, now) in zip(before, _attributes(prog)):
        assert now.keys() == attrs.keys(), owner
        assert all(now[k] is attrs[k] for k in attrs), owner


def test_probe_tracks_the_estimates_of_an_estimated_run():
    prog = _program()
    scn = preset("circle6", "decentralized_C_estimated")
    scn.t_end = 2.0
    probe, step_once = bench.Probe(), prog.sim.step_once
    with Patches() as patches:
        probe.install(prog, patches)
        log, _ = prog.sim.run(scn)
    assert prog.sim.step_once is step_once
    assert len(probe.step_ns) == len(log.records) == 100 and probe.failed == 0
    assert probe.track is not None and probe.track.failures() == []
