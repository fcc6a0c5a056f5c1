"""Command-line front end: load a scenario, run it, emit artifacts.

Exit codes: 0 on a completed safe run, 1 on any input problem (bad flags,
malformed scenario) or an output directory that cannot be created or
written, 2 when the run aborted or finished with the safety margin violated.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .artifacts import render_svg, write_metrics_json, write_trajectory_csv
from .barrier import BarrierConfig
from .dynamics import AgentParams, AgentState, DegenerateGeometryError
from .presets import PRESETS
from .sim import MODES, AgentSetup, Scenario, ScenarioError, run

SAFETY_SLACK = 1e-6  # m/s of tolerated barrier undershoot before exit 2

_TOP_KEYS = {"dt", "t_end", "mode", "gains", "barrier", "estimator", "agents"}
_GAIN_KEYS = {"k1", "k2"}
_BARRIER_KEYS = {"ds_mode", "ds", "epsilon"}
_ESTIMATOR_KEYS = {"k", "alpha_floor"}
_AGENT_KEYS = {"id", "alpha", "beta", "gamma", "radius", "p0", "v0", "goal"}


def _reject_unknown(doc: dict, allowed: set[str], where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ScenarioError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def _is_finite(value) -> bool:
    try:  # an integer literal too large for a float is not finite
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(doc: dict, key: str, where: str, default=None):
    if key not in doc:
        if default is not None:
            return default
        raise ScenarioError(f"missing key {key!r} in {where}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"key {key!r} in {where} must be a number")
    if not _is_finite(value):
        raise ScenarioError(f"key {key!r} in {where} must be finite")
    return float(value)


def _vector(doc: dict, key: str, where: str) -> np.ndarray:
    if key not in doc:
        raise ScenarioError(f"missing key {key!r} in {where}")
    value = doc[key]
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError(f"key {key!r} in {where} must be a 2-element list")
    vec = []
    for x in value:
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not _is_finite(x):
            raise ScenarioError(f"key {key!r} in {where} must hold finite numbers")
        vec.append(float(x))
    return np.array(vec)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and validate a Scenario from a parsed scenario document."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "scenario")

    gains = doc.get("gains", {})
    if not isinstance(gains, dict):
        raise ScenarioError("key 'gains' must be an object")
    _reject_unknown(gains, _GAIN_KEYS, "gains")
    barrier_doc = doc.get("barrier", {})
    if not isinstance(barrier_doc, dict):
        raise ScenarioError("key 'barrier' must be an object")
    _reject_unknown(barrier_doc, _BARRIER_KEYS, "barrier")
    est_doc = doc.get("estimator", {})
    if not isinstance(est_doc, dict):
        raise ScenarioError("key 'estimator' must be an object")
    _reject_unknown(est_doc, _ESTIMATOR_KEYS, "estimator")

    ds_mode = barrier_doc.get("ds_mode", "sum_of_radii")
    if ds_mode not in ("sum_of_radii", "fixed"):
        raise ScenarioError("key 'ds_mode' must be 'sum_of_radii' or 'fixed'")
    ds = None
    if ds_mode == "fixed":
        ds = _number(barrier_doc, "ds", "barrier")
    elif "ds" in barrier_doc:
        raise ScenarioError("key 'ds' is only valid with ds_mode 'fixed'")
    try:
        cfg = BarrierConfig(
            ds_mode=ds_mode, ds=ds,
            epsilon=_number(barrier_doc, "epsilon", "barrier", default=1e-6),
        )
    except ValueError as exc:
        raise ScenarioError(f"barrier: {exc}") from exc

    mode = doc.get("mode", "decentralized_C")
    if mode not in MODES:
        raise ScenarioError(f"key 'mode' must be one of {MODES}, got {mode!r}")

    agents_doc = doc.get("agents")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ScenarioError("key 'agents' must be a non-empty list")
    agents = []
    for idx, entry in enumerate(agents_doc):
        where = f"agents[{idx}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{where} must be an object")
        _reject_unknown(entry, _AGENT_KEYS, where)
        if "id" not in entry or isinstance(entry["id"], bool) or not isinstance(entry["id"], int):
            raise ScenarioError(f"key 'id' in {where} must be an integer")
        limits = [_number(entry, key, where) for key in ("alpha", "beta", "gamma", "radius")]
        try:
            params = AgentParams(entry["id"], *limits)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        state0 = AgentState(_vector(entry, "p0", where), _vector(entry, "v0", where))
        agents.append(AgentSetup(params, state0, _vector(entry, "goal", where)))

    scenario = Scenario(
        agents=agents,
        dt=_number(doc, "dt", "scenario", default=0.02),
        t_end=_number(doc, "t_end", "scenario", default=20.0),
        mode=mode,
        k1=_number(gains, "k1", "gains", default=1.0),
        k2=_number(gains, "k2", "gains", default=2.0),
        barrier_cfg=cfg,
        estimator_gain=_number(est_doc, "k", "estimator", default=1.0),
        alpha_floor=(
            _number(est_doc, "alpha_floor", "estimator")
            if "alpha_floor" in est_doc else None
        ),
    )
    scenario.validate()
    return scenario


def parse_scenario(path) -> Scenario:
    """Load, schema-check, and validate a scenario JSON file (UTF-8)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # decode errors, deep nesting, huge integers
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors exit 1, not argparse's 2
        raise ScenarioError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="safeswarm", description=__doc__, add_help=True)
    parser.add_argument("--scenario", metavar="PATH", help="scenario JSON file")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")
    parser.add_argument("--out-dir", metavar="PATH", default="out",
                        help="artifact directory (default: out)")
    parser.add_argument("--mode", choices=MODES, help="override the scenario mode")
    parser.add_argument("--svg", action="store_true", help="also write trajectory.svg")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary")
    return parser


def run_command(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if (args.scenario is None) == (args.preset is None):
            raise ScenarioError("exactly one of --scenario or --preset is required")
        if args.preset is not None:
            scenario = PRESETS[args.preset]()
        else:
            scenario = parse_scenario(args.scenario)
        if args.mode is not None:
            scenario.mode = args.mode
        out_dir = Path(args.out_dir)
        try:
            made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # leaf first
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioError(f"cannot create output directory {out_dir}: {exc}") from exc
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 1

    try:
        log, metrics = run(scenario)
    except (RuntimeError, DegenerateGeometryError) as exc:
        for d in made:  # an aborted run leaves no output behind
            d.rmdir()
        print(f"run aborted: {exc}", file=sys.stderr)
        return 2

    try:
        write_trajectory_csv(log, out_dir / "trajectory.csv")
        write_metrics_json(metrics, out_dir / "metrics.json")
        if args.svg:
            (out_dir / "trajectory.svg").write_text(render_svg(log))
    except OSError as exc:
        print(f"error: cannot write artifacts to {out_dir}: {exc}", file=sys.stderr)
        return 1

    safe = metrics.min_h >= -SAFETY_SLACK
    if not args.quiet:
        worst_goal = max(metrics.goal_errors.values())
        print(
            f"steps={len(log.records)} min_pair_dist={metrics.min_pair_dist:.4g} m "
            f"min_h={metrics.min_h:.4g} m/s worst_goal_error={worst_goal:.4g} m "
            f"deadlock={metrics.deadlock_detected} -> {out_dir}"
        )
        if not safe:
            print("safety margin violated", file=sys.stderr)
    return 0 if safe else 2


def main() -> None:
    sys.exit(run_command())
