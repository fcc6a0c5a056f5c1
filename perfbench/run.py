"""safeswarm benchmark: one workload per process, end to end or traced.

Run from the root of a safeswarm checkout:

    python3 perfbench/run.py --workload lanes-local --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation is one
simulation step. With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-module ones from a run whose layer
boundaries are wrapped in spans. Artifacts, scenario files, digests and
spans go to ``.perfbench_out/<workload>/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import layers
import workloads
from spans import Patches, Tracer, calibrate, totals_by_name

PROGRAM_DIR = Path("src")
OUT_ROOT = Path(".perfbench_out")
SETUP_REPEATS = 8  # per batch: one batch before the rounds and one after each
MIN_ROUNDS = 2  # two runs of the same job, so their trajectories can be compared
MODULES = ("safeswarm", "safeswarm.sim", "safeswarm.cli", "safeswarm.barrier",
           "safeswarm.qp", "safeswarm.dynamics", "safeswarm.estimator",
           "safeswarm.artifacts", "safeswarm.presets")


class Program:
    """A fresh import of every safeswarm module, as attributes by short name."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "safeswarm" or m.startswith("safeswarm.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name.rpartition(".")[2], importlib.import_module(name))


@dataclass
class Item:
    """One run of the program inside a round."""

    name: str
    wall_s: float
    log: object
    metrics: object
    csv: Path
    exit_code: int = 0


class Probe:
    """Always-on instruments: per-step timing, run capture and the running
    check of the limit estimates."""

    def __init__(self):
        self.step_ns: list[int] = []
        self.failed = 0
        self.last_run = None
        self.track: checks.EstimateTrack | None = None  # reset before each run
        self.own_ns = 0  # time spent reading estimates, left out of run_s

    def install(self, prog: Program, patches: Patches) -> None:
        inner_step = prog.sim.step_once
        inner_run = prog.cli.run
        clock = time.perf_counter_ns

        def timed_step(ctx):
            start = clock()
            try:
                rec = inner_step(ctx)
            except Exception:
                self.failed += 1
                raise
            end = clock()
            self.step_ns.append(end - start)
            ests = getattr(ctx, "estimators", None)
            if ests is not None:
                if self.track is None:
                    self.track = checks.EstimateTrack(*estimate_limits(ctx.scenario))
                n = len(ests)
                self.track.observe(np.array(
                    [[e.estimates.get(j, np.nan) for j in range(n)] for e in ests]))
                self.own_ns += clock() - end
            return rec

        def captured_run(scenario):
            self.last_run = inner_run(scenario)
            return self.last_run

        patches.set(prog.sim, "step_once", timed_step)
        patches.set(prog.cli, "run", captured_run)


class ScenarioWorkload:
    """Runs one generated scenario file with ``sim.run`` and writes its CSV."""

    def __init__(self, name: str, doc: dict, out: Path):
        self.name = name
        self.path = out / "scenario.json"
        self.path.write_text(json.dumps(doc, indent=1) + "\n")
        self.out = out

    def setup(self, prog: Program) -> list:
        scenario = prog.cli.parse_scenario(self.path)
        prog.sim.SimContext(scenario)
        return [(self.name, scenario)]

    def run_item(self, prog: Program, item, probe: Probe) -> Item:
        name, scenario = item
        csv = self.out / f"{name}.csv"
        start = time.perf_counter()
        log, metrics = prog.sim.run(scenario)
        prog.artifacts.write_trajectory_csv(log, csv)
        return Item(name, time.perf_counter() - start, log, metrics, csv)


class PaperSuite:
    """``cli.run_command`` with ``--svg`` over every bundled scenario and mode."""

    name = "paper-suite"

    def __init__(self, seed: int, out: Path):
        self.jobs = workloads.paper_suite(seed)
        self.out = out

    def setup(self, prog: Program) -> list:
        scenarios = []
        for _, flag, source, mode in self.jobs:
            if flag == "--preset":
                scenario = prog.presets.PRESETS[source]()
            else:
                scenario = prog.cli.parse_scenario(source)
            scenario.mode = mode
            scenario.validate()
            scenarios.append(scenario)
        prog.sim.SimContext(scenarios[0])
        return self.jobs

    def run_item(self, prog: Program, item, probe: Probe) -> Item:
        name, flag, source, mode = item
        out_dir = self.out / name
        probe.last_run = None
        start = time.perf_counter()
        code = prog.cli.run_command([flag, source, "--mode", mode, "--out-dir", str(out_dir),
                                     "--svg", "--quiet"])
        wall = time.perf_counter() - start
        log, metrics = probe.last_run if probe.last_run is not None else (None, None)
        return Item(name, wall, log, metrics, out_dir / "trajectory.csv", code)


def make_workload(name: str, seed: int, out: Path):
    if name == "lanes-local":
        return ScenarioWorkload(name, workloads.lanes_local(seed), out)
    return PaperSuite(seed, out)


WORKLOADS = ("lanes-local", "paper-suite")


def estimate_limits(scn) -> tuple[float, np.ndarray]:
    """The estimate floor and every agent's true limit, from the scenario's inputs."""
    alpha = np.array([a.params.accel_limit for a in scn.agents])
    floor = scn.alpha_floor if scn.alpha_floor is not None else 0.5 * float(alpha.min())
    return floor, alpha


@dataclass
class Trajectory:
    """What the checks need from one run's log, as compact arrays, so that
    the log can be dropped before they run."""

    P: np.ndarray  # (T + 1, N, 2), the initial state included
    V: np.ndarray
    U: np.ndarray  # (T, N, 2)
    alpha: np.ndarray
    beta: np.ndarray
    ds: np.ndarray  # (N, N)
    goal: np.ndarray
    dt: float
    deadlocked: bool
    pair_entries: int

    @classmethod
    def of(cls, log, metrics) -> "Trajectory":
        scn = log.scenario
        agents = scn.agents
        radius = np.array([a.params.radius for a in agents])
        if scn.barrier_cfg.ds_mode == "fixed":
            ds = np.full((len(agents), len(agents)), float(scn.barrier_cfg.ds))
        else:
            ds = radius[:, None] + radius[None, :]
        recs = log.records
        return cls(
            P=np.array([[a.state0.p for a in agents]] + [r.p for r in recs]),
            V=np.array([[a.state0.v for a in agents]] + [r.v for r in recs]),
            U=np.array([r.u_applied for r in recs]).reshape(len(recs), len(agents), 2),
            alpha=estimate_limits(scn)[1],
            beta=np.array([a.params.speed_limit for a in agents]),
            ds=ds,
            goal=np.array([a.goal for a in agents]),
            dt=scn.dt,
            deadlocked=bool(metrics.deadlock_detected),
            pair_entries=sum(len(getattr(r, "pair_h", ()) or ()) for r in recs),
        )

    def check(self) -> list[str]:
        """The independent output checks of one run."""
        return (checks.pair_safety(self.P, self.V, self.alpha, self.ds)
                + checks.limits(self.U, self.V, self.alpha, self.beta)
                + checks.euler(self.P, self.V, self.U, self.dt)
                + checks.goals(self.P[-1], self.goal, self.deadlocked))


def check_run(item: Item, probe: Probe) -> tuple[list[str], int]:
    """The output checks of one run, and the pair_h entries its log held.

    The log is reduced to a ``Trajectory`` and dropped before the checks
    run, so that peak memory is the program's own and does not depend on
    the order of the runs.
    """
    if item.exit_code != 0 or item.log is None:
        item.log = item.metrics = probe.last_run = None
        return [f"exit code {item.exit_code}" if item.exit_code else
                "no trajectory was captured"], 0
    traj = Trajectory.of(item.log, item.metrics)
    item.log = item.metrics = probe.last_run = None
    fails = traj.check()
    if probe.track is not None:
        fails += probe.track.failures()
    return fails, traj.pair_entries


@dataclass
class Round:
    wall_s: float = 0.0
    steps: int = 0
    pair_entries: int = 0
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def run_round(wl, prog: Program, items: list, probe: Probe) -> Round:
    rnd = Round()
    for job in items:
        probe.track = None
        first_step, own_ns = len(probe.step_ns), probe.own_ns
        try:
            item = wl.run_item(prog, job, probe)
        except Exception:
            traceback.print_exc()
            rnd.failures.append(f"{job[0]}: the run raised")
            continue
        finally:
            rnd.steps += len(probe.step_ns) - first_step
        rnd.wall_s += item.wall_s - (probe.own_ns - own_ns) / 1e9
        fails, pair_entries = check_run(item, probe)
        rnd.failures += [f"{item.name}: {f}" for f in fails]
        rnd.pair_entries += pair_entries
        if item.csv.is_file():
            rnd.digests[item.name] = hashlib.sha256(item.csv.read_bytes()).hexdigest()
    return rnd


def time_setups(wl, times: list[float]):
    """Set the workload up SETUP_REPEATS times from a fresh import, adding
    each wall time to ``times``; return the last program and its jobs.

    The untraced run sets up again after every round, so that the median
    samples the whole run and not only its first second. A fresh import
    leaves the modules of the running program, which the rounds hold, alone.
    """
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        prog = Program()
        items = wl.setup(prog)
        times.append(time.perf_counter() - start)
    return prog, items


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PROGRAM_DIR / "safeswarm" / "__init__.py").is_file() or not workloads.LANES_FILE.is_file():
        print("error: run this from the root of a safeswarm checkout "
              f"({PROGRAM_DIR}/safeswarm or {workloads.LANES_FILE} is missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PROGRAM_DIR.resolve()))
    out = OUT_ROOT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = make_workload(args.workload, args.seed, out)

    setup_s: list[float] = []
    prog, items = time_setups(wl, setup_s)

    probe = Probe()
    tracer = sampler = None
    setup_marks = (0, 0)
    counters0: dict = {}
    rounds: list[Round] = []
    begin = time.perf_counter()
    with Patches() as patches:
        probe.install(prog, patches)
        while True:
            if args.trace and rounds and tracer is None:
                # The first round ran untraced; the rest run under spans.
                patches.restore()
                costs = calibrate()
                tracer, sampler = Tracer(), layers.QpSampler(args.seed)
                layers.install(tracer, prog, patches, sampler)
                probe.install(prog, patches)
                lo = tracer.mark()
                items = wl.setup(prog)
                setup_marks = (lo, tracer.mark())
                counters0 = dict(tracer.counters)
            rounds.append(run_round(wl, prog, items, probe))
            if not args.trace:
                time_setups(wl, setup_s)
            elapsed = time.perf_counter() - begin
            if len(rounds) >= MIN_ROUNDS and elapsed * (1 + 1 / len(rounds)) > args.seconds:
                break

    failures = [f for r in rounds for f in r.failures]
    first = rounds[0].digests
    for k, rnd in enumerate(rounds[1:], start=2):
        if rnd.digests != first:
            failures.append(f"round {k} wrote trajectories that differ from round 1")
    (out / "digests.json").write_text(json.dumps(first, indent=1, sort_keys=True) + "\n")

    if args.trace:
        traced = rounds[1:]
        # The machine's speed drifts, so the tracer's cost is measured on
        # both sides of the traced rounds and averaged.
        costs = tuple(float(c) for c in np.mean([costs, calibrate()], axis=0))
        print(f"tracer cost per wrapped call {costs[0]:.0f} ns, per counted call "
              f"{costs[1]:.0f} ns", file=sys.stderr)
        for A, b, box, u_hat, u_star in sampler.problems():
            failures += checks.qp_answer(A, b, box, u_hat, u_star)
        counters = {k: v - counters0.get(k, 0.0) for k, v in tracer.counters.items()}
        spans = tracer.arrays()
        tracer.save(out / "spans.npz")
        traced_s = statistics.median(r.wall_s for r in traced)
        overhead = traced_s - rounds[0].wall_s
        round_span = (setup_marks[1], tracer.mark())
        own_s = sum(ns for _, ns in totals_by_name(spans, tracer.names, *round_span,
                                                   *costs).values()) / 1e9 / len(traced)
        print(f"untraced round {rounds[0].wall_s:.2f} s; traced round {traced_s:.2f} s, "
              f"of which {own_s:.2f} s in spans' self times", file=sys.stderr)
        values = layers.per_layer(spans, tracer.names, setup_marks, round_span, counters,
                                  len(traced), sum(r.pair_entries for r in traced), overhead,
                                  costs)
        units = layers.METRICS
    else:
        step_ms = np.array(probe.step_ns, dtype=float) / 1e6
        values = {
            "setup_s": statistics.median(setup_s),
            "run_s": statistics.median(r.wall_s for r in rounds),
            "steps_per_s": len(step_ms) / (step_ms.sum() / 1e3),
            "step_ms.p90": float(np.percentile(step_ms, 90)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "run_s": "s", "steps_per_s": "steps/s", "step_ms.p90": "ms",
                 "peak_rss_mb": "MB"}

    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r.steps for r in rounds) + probe.failed,
        "failed": probe.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    print(f"{args.workload}: {len(rounds)} rounds, {result['attempted']} steps", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
