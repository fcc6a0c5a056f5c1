"""Per-module spans and counters for the traced run.

``install`` wraps the program's public functions by patching the module
and class attributes that ``sim``, ``barrier`` and ``cli`` look up, so
every call the program makes goes through a span. ``per_layer`` turns the
spans and counters of one traced phase into the per-module metrics.
Every ``.ms`` figure is self time: a span's time minus the wrapped calls
inside it and the tracer's own cost, so no millisecond is counted twice
and the tracer's bookkeeping is charged to no layer.
"""

from __future__ import annotations

import os

import numpy as np

from spans import Tracer, totals_by_name

# Per-module metric names, in output order, with their units.
METRICS = {
    "sim.step_once.self_ms": "ms",
    "sim.log.pair_entries": "count",
    "sim.context.ms": "ms",
    "cli.parse.ms": "ms",
    "sim.compute_metrics.ms": "ms",
    "sim.detect_deadlock.ms": "ms",
    "dynamics.relative_state.calls": "count",
    "dynamics.relative_state.ms": "ms",
    "dynamics.step.ms": "ms",
    "barrier.rows.calls": "count",
    "barrier.rows.ms": "ms",
    "barrier.neighbors.calls": "count",
    "barrier.neighbors.ms": "ms",
    "barrier.neighbors.mean_size": "agents",
    "barrier.pair_barrier.calls": "count",
    "qp.problem.ms": "ms",
    "qp.solve.calls": "count",
    "qp.solve.ms": "ms",
    "qp.solve.iters_mean": "iters",
    "qp.solve.rows_mean": "rows",
    "qp.solve.passthrough_ratio": "ratio",
    "qp.solve.warm_hit_ratio": "ratio",
    "qp.solve.infeasible": "count",
    "estimator.calls": "count",
    "estimator.ms": "ms",
    "artifacts.csv.ms": "ms",
    "artifacts.csv.bytes": "bytes",
    "artifacts.svg.ms": "ms",
    "artifacts.metrics_json.ms": "ms",
    "trace.overhead_s": "s",
}


class QpSampler:
    """Seeded reservoir samples of the projection problems ``qp.solve`` saw.

    Problems whose answer moved the nominal control and problems whose
    answer left it alone are sampled apart, so both kinds get checked.
    """

    def __init__(self, seed: int, moved: int = 30, unchanged: int = 10):
        self.rng = np.random.default_rng(seed)
        self.size = {True: moved, False: unchanged}
        self.seen = {True: 0, False: 0}
        self.kept: dict[bool, list] = {True: [], False: []}

    def offer(self, problem, sol, optimal: str) -> None:
        if sol.status != optimal:
            return
        moved = not np.array_equal(sol.u_star, problem.u_hat)
        k = self.seen[moved]
        self.seen[moved] += 1
        slot = k if k < self.size[moved] else int(self.rng.integers(k + 1))
        if slot >= self.size[moved]:
            return
        n = problem.u_hat.size
        item = (
            np.array([r.a for r in problem.rows], dtype=float).reshape(-1, n),
            np.array([r.b for r in problem.rows], dtype=float),
            np.array(problem.box, dtype=float),
            np.array(problem.u_hat, dtype=float),
            np.array(sol.u_star, dtype=float),
        )
        if k < self.size[moved]:
            self.kept[moved].append(item)
        else:
            self.kept[moved][slot] = item

    def problems(self) -> list:
        return self.kept[True] + self.kept[False]


def install(tracer: Tracer, prog, patches, sampler: QpSampler) -> None:
    """Wrap every layer boundary of the freshly imported program ``prog``."""
    sim, barrier, dynamics, qp, cli, artifacts, estimator = (
        prog.sim, prog.barrier, prog.dynamics, prog.qp, prog.cli, prog.artifacts,
        prog.estimator)
    c = tracer.counters

    def wrap(owner, attr, name, after=None):
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr), after))

    wrap(sim, "step_once", "sim.step_once")
    wrap(sim.SimContext, "__init__", "sim.context")
    wrap(cli, "parse_scenario", "cli.parse")
    wrap(sim, "compute_metrics", "sim.compute_metrics")
    wrap(sim, "detect_deadlock", "sim.detect_deadlock")
    for module in (sim, barrier, dynamics):
        wrap(module, "relative_state", "dynamics.relative_state")
    wrap(sim, "step", "dynamics.step")
    for attr in ("centralized_row", "strategy_a_rows", "strategy_b_rows", "strategy_c_row"):
        wrap(barrier, attr, "barrier.rows")

    def after_neighbors(args, kwargs, out):
        c["barrier.neighbors.size"] += len(out)

    wrap(barrier, "neighbors", "barrier.neighbors", after_neighbors)
    patches.set(barrier, "pair_barrier", tracer.count("barrier.pair_barrier.calls",
                                                      barrier.pair_barrier))
    wrap(qp.QpProblem, "__init__", "qp.problem")

    def after_solve(args, kwargs, sol):
        problem = args[0]
        warm = kwargs.get("warm_start", args[1] if len(args) > 1 else ())
        c["qp.solve.iters"] += sol.iterations
        c["qp.solve.rows"] += len(problem.rows)
        c["qp.solve.passthrough"] += sol.status == qp.OPTIMAL and np.array_equal(
            sol.u_star, problem.u_hat)
        c["qp.solve.warm_hit"] += tuple(sol.active_set) == tuple(warm)
        c["qp.solve.infeasible"] += sol.status != qp.OPTIMAL
        sampler.offer(problem, sol, qp.OPTIMAL)

    wrap(qp, "solve", "qp.solve", after_solve)
    for attr in ("observe", "update"):
        wrap(estimator.LimitEstimator, attr, "estimator")

    def after_csv(args, kwargs, out):
        c["artifacts.csv.bytes"] += os.path.getsize(args[1])

    for module in (cli, artifacts):
        wrap(module, "write_trajectory_csv", "artifacts.csv", after_csv)
    wrap(cli, "render_svg", "artifacts.svg")
    wrap(cli, "write_metrics_json", "artifacts.metrics_json")


def per_layer(spans: dict, names: list[str], setup: tuple[int, int],
              rounds: tuple[int, int], counters: dict[str, float], n_rounds: int,
              pair_entries: float, overhead_s: float,
              costs: tuple[float, float] = (0.0, 0.0)) -> dict[str, float]:
    """Per-module metrics, each per round of the workload except the two
    set-up layers, which are per set-up.

    ``setup`` and ``rounds`` are span index ranges; ``counters`` holds the
    counter increments of the traced rounds only; ``costs`` is the
    tracer's own cost per wrapped and per counted call, from
    ``spans.calibrate``, which self times leave out.
    """
    st = totals_by_name(spans, names, *setup, *costs)
    rt = totals_by_name(spans, names, *rounds, *costs)

    def ms(name, table=rt, per=n_rounds):
        return table.get(name, (0, 0.0))[1] / 1e6 / per

    def calls(name):
        return rt.get(name, (0, 0.0))[0] / n_rounds

    def ratio(num, den):
        return num / den if den else 0.0

    solves = calls("qp.solve") * n_rounds
    return {
        "sim.step_once.self_ms": ms("sim.step_once"),
        "sim.log.pair_entries": pair_entries / n_rounds,
        "sim.context.ms": ms("sim.context", st, 1),
        "cli.parse.ms": ms("cli.parse", st, 1),
        "sim.compute_metrics.ms": ms("sim.compute_metrics"),
        "sim.detect_deadlock.ms": ms("sim.detect_deadlock"),
        "dynamics.relative_state.calls": calls("dynamics.relative_state"),
        "dynamics.relative_state.ms": ms("dynamics.relative_state"),
        "dynamics.step.ms": ms("dynamics.step"),
        "barrier.rows.calls": calls("barrier.rows"),
        "barrier.rows.ms": ms("barrier.rows"),
        "barrier.neighbors.calls": calls("barrier.neighbors"),
        "barrier.neighbors.ms": ms("barrier.neighbors"),
        "barrier.neighbors.mean_size": ratio(counters.get("barrier.neighbors.size", 0.0),
                                             calls("barrier.neighbors") * n_rounds),
        "barrier.pair_barrier.calls": counters.get("barrier.pair_barrier.calls", 0.0) / n_rounds,
        "qp.problem.ms": ms("qp.problem"),
        "qp.solve.calls": calls("qp.solve"),
        "qp.solve.ms": ms("qp.solve"),
        "qp.solve.iters_mean": ratio(counters.get("qp.solve.iters", 0.0), solves),
        "qp.solve.rows_mean": ratio(counters.get("qp.solve.rows", 0.0), solves),
        "qp.solve.passthrough_ratio": ratio(counters.get("qp.solve.passthrough", 0.0), solves),
        "qp.solve.warm_hit_ratio": ratio(counters.get("qp.solve.warm_hit", 0.0), solves),
        "qp.solve.infeasible": counters.get("qp.solve.infeasible", 0.0) / n_rounds,
        "estimator.calls": calls("estimator"),
        "estimator.ms": ms("estimator"),
        "artifacts.csv.ms": ms("artifacts.csv"),
        "artifacts.csv.bytes": counters.get("artifacts.csv.bytes", 0.0) / n_rounds,
        "artifacts.svg.ms": ms("artifacts.svg"),
        "artifacts.metrics_json.ms": ms("artifacts.metrics_json"),
        "trace.overhead_s": overhead_s,
    }
