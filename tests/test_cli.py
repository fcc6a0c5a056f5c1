import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import safeswarm
from safeswarm import DegenerateGeometryError, cli, run
from safeswarm.artifacts import (
    CSV_HEADER,
    metrics_to_dict,
    render_svg,
    write_metrics_json,
    write_trajectory_csv,
)
from safeswarm.cli import parse_scenario, run_command, scenario_from_dict
from safeswarm.sim import Scenario, ScenarioError

MINIMAL = {
    "agents": [
        {"id": 1, "alpha": 1.2, "beta": 0.6, "gamma": 1.0, "radius": 0.2,
         "p0": [0.0, 0.0], "v0": [0.0, 0.0], "goal": [1.0, 0.0]},
    ]
}


def two_agent_doc(t_end=16.0):
    return {
        "dt": 0.02,
        "t_end": t_end,
        "mode": "decentralized_C",
        "gains": {"k1": 1.0, "k2": 2.0},
        "barrier": {"ds_mode": "sum_of_radii", "epsilon": 1e-6},
        "estimator": {"k": 1.0, "alpha_floor": 0.5},
        "agents": [
            {"id": 1, "alpha": 1.2, "beta": 0.6, "gamma": 1.0, "radius": 0.2,
             "p0": [-1.2, 0.05], "v0": [0.0, 0.0], "goal": [1.2, 0.05]},
            {"id": 2, "alpha": 0.8, "beta": 0.6, "gamma": 1.0, "radius": 0.2,
             "p0": [1.2, -0.05], "v0": [0.0, 0.0], "goal": [-1.2, -0.05]},
        ],
    }


class TestParseScenario:
    def test_minimal_file_gets_defaults(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(MINIMAL))
        scn = parse_scenario(path)
        assert scn.dt == 0.02
        assert scn.t_end == 20.0
        assert scn.mode == "decentralized_C"
        assert scn.k1 == 1.0 and scn.k2 == 2.0
        assert scn.barrier_cfg.ds_mode == "sum_of_radii"

    def test_full_document_round_trip(self):
        scn = scenario_from_dict(two_agent_doc())
        assert scn.t_end == 16.0
        assert scn.agents[1].params.accel_limit == 0.8
        assert scn.alpha_floor == 0.5

    def test_unknown_top_level_key_rejected(self):
        for key in ("extra", "seed"):  # seed was once a key that nothing read
            doc = dict(two_agent_doc())
            doc[key] = 1
            with pytest.raises(ScenarioError, match=key):
                scenario_from_dict(doc)

    def test_unknown_agent_key_rejected(self):
        doc = two_agent_doc()
        doc["agents"][0]["colour"] = "red"
        with pytest.raises(ScenarioError, match="colour"):
            scenario_from_dict(doc)

    def test_duplicate_agent_id_rejected(self):
        doc = two_agent_doc()
        doc["agents"][1]["id"] = 1
        with pytest.raises(ScenarioError, match="duplicate agent id 1"):
            scenario_from_dict(doc)

    def test_overlapping_agents_rejected(self):
        doc = two_agent_doc()
        doc["agents"][1]["p0"] = [-1.0, 0.05]
        with pytest.raises(ScenarioError, match="safety distance"):
            scenario_from_dict(doc)

    def test_nonfinite_number_rejected(self):
        doc = two_agent_doc()
        doc["agents"][0]["alpha"] = float("inf")
        with pytest.raises(ScenarioError, match="alpha"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("key", ["alpha", "beta", "gamma", "radius"])
    def test_infinite_agent_limit_exits_1(self, tmp_path, capsys, key):
        doc = two_agent_doc()
        doc["agents"][1][key] = float("inf")  # written as the JSON literal Infinity
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert run_command(["--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error: key {key!r} in agents[1] must be finite\n" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, value, message", [
        (("dt",), 10**400, "key 'dt' in scenario must be finite"),
        (("agents", 0, "p0", 1), -10**400, "key 'p0' in agents[0] must hold finite numbers"),
        (("agents", 1, "goal", 0), 10**400, "key 'goal' in agents[1] must hold finite numbers"),
    ], ids=["dt", "p0", "goal"])
    def test_huge_integer_literal_exits_1(self, tmp_path, capsys, where, value, message):
        doc = two_agent_doc()
        *path, last = where
        entry = doc
        for key in path:
            entry = entry[key]
        entry[last] = value  # a JSON integer of 400-odd digits, beyond any float
        scn = tmp_path / "scn.json"
        scn.write_text(json.dumps(doc))
        assert run_command(["--scenario", str(scn), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}\n" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_ds_key_requires_fixed_mode(self):
        doc = two_agent_doc()
        doc["barrier"] = {"ds_mode": "sum_of_radii", "ds": 0.5}
        with pytest.raises(ScenarioError, match="ds"):
            scenario_from_dict(doc)

    # Not UTF-8; nested past the recursion limit; an integer literal past
    # Python's 4300-digit limit on int parsing, which json.loads raises on.
    BAD_JSON = (b"{not json", b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000,
                b'{"dt": ' + b"1" * 5000 + b', "agents": []}')

    def test_bad_json_named(self, tmp_path):
        path = tmp_path / "broken.json"
        for text in self.BAD_JSON:
            path.write_bytes(text)
            with pytest.raises(ScenarioError, match="is not valid JSON"):
                parse_scenario(path)

    def test_bad_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        for text in self.BAD_JSON:
            path.write_bytes(text)
            assert run_command(["--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 1
            err = capsys.readouterr().err
            assert f"error: scenario file {path} is not valid JSON: " in err
            assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_infinite_step_count_rejected(self, tmp_path, capsys):
        doc = dict(two_agent_doc(), dt=1e-10, t_end=1e300)
        with pytest.raises(ScenarioError, match="t_end / dt"):
            scenario_from_dict(doc)
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        assert run_command(["--scenario", str(path), "--out-dir", str(tmp_path / "out")]) == 1
        assert "Traceback" not in capsys.readouterr().err


class TestRunCommand:
    def test_missing_inputs_exits_1(self, capsys):
        assert run_command([]) == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_scenario_and_preset_together_exits_1(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(MINIMAL))
        assert run_command(["--scenario", str(path), "--preset", "headon2"]) == 1

    def test_schema_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"agents": [], "bogus": 1}))
        assert run_command(["--scenario", str(path)]) == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("estimator", [{"k": -1}, {"k": 0}, {"alpha_floor": 0},
                                           {"alpha_floor": -0.5}, {"alpha_floor": 0.9}])
    @pytest.mark.parametrize("override", [False, True])
    def test_bad_estimator_settings_exit_1(self, tmp_path, capsys, estimator, override):
        doc = dict(two_agent_doc(), estimator=estimator)
        doc["mode"] = "decentralized_C" if override else "decentralized_C_estimated"
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        argv = ["--scenario", str(path), "--out-dir", str(tmp_path / "out")]
        code = run_command(argv + ["--mode", "decentralized_C_estimated"] * override)
        err = capsys.readouterr().err
        assert code == 1
        assert "error: " in err and "must be positive" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_estimator_gain_times_dt_above_one_exits_1(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(dict(two_agent_doc(), mode="decentralized_C_estimated",
                                         estimator={"k": 60.0})))
        code = run_command(["--scenario", str(path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert "error: estimator gain k times dt must be at most 1, got 60.0 * 0.02" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("gains, message", [
        ({"k1": -1}, "gain k1 must be nonnegative and finite"),
        ({"k2": -2.0}, "gain k2 must be nonnegative and finite"),
        ({"k1": 1e308, "k2": 1e308}, "agent 1 starts with a non-finite nominal control"),
    ])
    def test_bad_nominal_gains_exit_1(self, tmp_path, capsys, gains, message):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(dict(two_agent_doc(), gains=gains)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_command(["--scenario", str(path), "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {message}" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "out").exists()

    def test_file_scenario_writes_artifacts(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(two_agent_doc()))
        out = tmp_path / "out"
        code = run_command(
            ["--scenario", str(path), "--out-dir", str(out), "--svg"]
        )
        assert code == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "trajectory.svg").exists()
        summary = capsys.readouterr().out
        assert "min_pair_dist" in summary

    def test_zero_step_run_draws_each_agent_at_its_start(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(two_agent_doc(t_end=0)))
        out = tmp_path / "out"
        assert run_command(["--scenario", str(path), "--out-dir", str(out), "--svg",
                            "--quiet"]) == 0
        svg = (out / "trajectory.svg").read_text()
        assert svg.count("<circle") == 2 and svg.endswith("</svg>\n")

    def test_mode_override(self, tmp_path):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(two_agent_doc()))
        out = tmp_path / "out"
        code = run_command(
            ["--scenario", str(path), "--out-dir", str(out),
             "--mode", "centralized", "--quiet"]
        )
        assert code == 0

    def test_shipped_sample_scenario_runs_clean(self, tmp_path):
        sample = Path(__file__).resolve().parent.parent / "scenarios" / "crossing_lanes.json"
        out = tmp_path / "out"
        assert run_command(["--scenario", str(sample), "--out-dir", str(out), "--quiet"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["min_h_mps"] >= -1e-6
        assert max(metrics["goal_errors_m"].values()) <= 0.05

    def test_huge_speed_limit_runs_without_a_warning(self, tmp_path):
        """A finite speed limit of 1e160 m/s overflows the neighbour radius to
        inf, every agent a neighbour; every mode exits 0 with nothing on
        stderr, in development mode with RuntimeWarnings raised as errors."""
        doc = two_agent_doc()
        doc["agents"][1]["beta"] = 1e160
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc))
        src = str(Path(safeswarm.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        probe = ("import sys; from safeswarm.cli import run_command; from safeswarm.sim import MODES; "
                 "sys.exit(max(run_command([*sys.argv[1:], '--mode', m]) for m in MODES))")
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::RuntimeWarning", "-c", probe,
             "--scenario", str(path), "--out-dir", str(tmp_path / "out"), "--quiet"],
            env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    @pytest.mark.parametrize("preset", ["circle6", "rect4"])
    def test_presets_run_and_exit_0(self, tmp_path, preset):
        out = tmp_path / preset
        code = run_command(["--preset", preset, "--out-dir", str(out), "--quiet"])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["min_h_mps"] >= -1e-6

    def test_safety_violation_exits_2(self, tmp_path, capsys):
        # a perfectly even antipodal star with a raised gain funnels all six
        # agents through the center at once; the constraint sets go mutually
        # infeasible there and the braking fallback cannot hold the margin
        agents = []
        for k in range(6):
            angle = 2 * math.pi * k / 6
            p0 = [1.5 * math.cos(angle), 1.5 * math.sin(angle)]
            agents.append(
                {"id": k + 1, "alpha": 0.6 if k == 0 else 1.2, "beta": 0.6,
                 "gamma": 2.0, "radius": 0.4 if k == 0 else 0.2,
                 "p0": p0, "v0": [0.0, 0.0], "goal": [-p0[0], -p0[1]]}
            )
        doc = {"dt": 0.02, "t_end": 6.0, "mode": "decentralized_C", "agents": agents}
        path = tmp_path / "crunch.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = run_command(["--scenario", str(path), "--out-dir", str(out)])
        assert code == 2
        assert "safety margin violated" in capsys.readouterr().err
        # artifacts are still written for post-mortem analysis
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["min_h_mps"] < -1e-6

    def test_coincident_agents_abort_with_exit_2(self, tmp_path, capsys, monkeypatch):
        def collide(scenario):
            raise DegenerateGeometryError("coincident agent positions")

        monkeypatch.setattr(cli, "run", collide)
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(two_agent_doc()))
        (tmp_path / "kept").mkdir()
        for out in (tmp_path / "out", tmp_path / "kept" / "a" / "b"):
            code = run_command(["--scenario", str(path), "--out-dir", str(out)])
            err = capsys.readouterr().err
            assert code == 2
            assert "run aborted: coincident agent positions" in err
            assert "Traceback" not in err
            # The output directories made for the run are removed again.
            assert sorted(tmp_path.iterdir()) == [tmp_path / "kept", path]
            assert not any((tmp_path / "kept").iterdir())

    def test_out_dir_that_cannot_be_made_exits_1_before_the_run(self, tmp_path, capsys,
                                                               monkeypatch):
        def never(scenario):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run", never)
        (tmp_path / "file").write_text("")
        for out in (tmp_path / "file", tmp_path / "file" / "out"):
            assert run_command(["--preset", "headon2", "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err
            assert "error: cannot create output directory" in err and "Traceback" not in err

    def test_artifact_that_cannot_be_written_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "metrics.json").mkdir(parents=True)
        assert run_command(["--preset", "headon2", "--out-dir", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert "error: cannot write artifacts" in err and "Traceback" not in err


def read_csv(path):
    """A trajectory CSV's columns by header name, as a structured array."""
    return np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding="utf-8")


@pytest.fixture(scope="module")
def short_run():
    scn = scenario_from_dict(two_agent_doc())
    return (scn, *run(scn))


class TestCsvArtifacts:

    def test_round_trip_accuracy(self, tmp_path, short_run):
        scn, log, _ = short_run
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(log, path)
        cols = read_csv(path)
        assert cols.dtype.names == tuple(CSV_HEADER.split(","))
        n = len(scn.agents)
        assert cols["t"].size == n * len(log.records)
        for k, rec in enumerate(log.records):
            for i in range(n):
                r = k * n + i
                assert abs(cols["px"][r] - rec.p[i, 0]) <= 1e-9 * max(1, abs(rec.p[i, 0]))
                assert abs(cols["vx"][r] - rec.v[i, 0]) <= 1e-9 * max(1, abs(rec.v[i, 0]))
                assert abs(cols["uy"][r] - rec.u_applied[i, 1]) <= 1e-9

    def test_numbers_render_as_format_12g(self, tmp_path):
        # Signed zeros, subnormals, extremes and exact ties at the 12th digit
        # (2**-18 = 3.814697265625e-06 and 13-digit integers).
        values = [-0.0, 0.0, 5e-324, -2.5e-320, 1e300, -1e-300, 1e-300, -1.7976931348623157e308,
                  2.0 ** -18, 1234567890125.0, -1000000000005.0, 1234567890135.0, 0.1 + 0.2]
        n = len(values)
        cols = [np.roll(values, c) for c in range(8)]
        rec = SimpleNamespace(t=2.0 ** -18, p=np.stack(cols[0:2], 1), v=np.stack(cols[2:4], 1),
                              u_applied=np.stack(cols[4:6], 1), u_nominal=np.stack(cols[6:8], 1),
                              qp_status=["optimal", "infeasible"] * (n // 2) + ["optimal"])
        agents = [SimpleNamespace(params=SimpleNamespace(id=7 + i)) for i in range(n)]
        log = SimpleNamespace(scenario=SimpleNamespace(agents=agents), records=[rec])
        write_trajectory_csv(log, tmp_path / "trajectory.csv")
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert len(lines) == n + 1
        for i, line in enumerate(lines[1:]):
            expected = [format(rec.t, ".12g"), str(7 + i)]
            expected += [format(col[i], ".12g") for col in cols] + [rec.qp_status[i]]
            assert line.split(",") == expected
        assert lines[1].split(",")[:3] == ["3.81469726562e-06", "7", "-0"]

    def test_monotone_time_per_agent(self, tmp_path, short_run):
        _, log, _ = short_run
        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(log, path)
        cols = read_csv(path)
        for aid in np.unique(cols["agent_id"]):
            t = cols["t"][cols["agent_id"] == aid]
            assert np.all(np.diff(t) > 0)

    def test_metrics_json_matches_recompute_from_csv(self, tmp_path, short_run):
        scn, log, metrics = short_run
        csv_path = tmp_path / "trajectory.csv"
        json_path = tmp_path / "metrics.json"
        write_trajectory_csv(log, csv_path)
        write_metrics_json(metrics, json_path)
        doc = json.loads(json_path.read_text())
        cols = read_csv(csv_path)

        ids = [a.params.id for a in scn.agents]
        n = len(ids)
        # rebuild per-agent position series, prepending the initial state
        series = {}
        for i, aid in enumerate(ids):
            mask = cols["agent_id"] == aid
            p = np.stack([cols["px"][mask], cols["py"][mask]], axis=1)
            v = np.stack([cols["vx"][mask], cols["vy"][mask]], axis=1)
            series[aid] = (np.vstack([scn.agents[i].state0.p, p]),
                           np.vstack([scn.agents[i].state0.v, v]))

        min_dist = math.inf
        min_h = math.inf
        for ai in range(n):
            for aj in range(ai + 1, n):
                pa, va = series[ids[ai]]
                pb, vb = series[ids[aj]]
                dp = pa - pb
                dv = va - vb
                dist = np.linalg.norm(dp, axis=1)
                min_dist = min(min_dist, float(dist.min()))
                vbar = np.sum(dp * dv, axis=1) / dist
                ds = scn.agents[ai].params.radius + scn.agents[aj].params.radius
                asum = scn.agents[ai].params.accel_limit + scn.agents[aj].params.accel_limit
                gap = np.maximum(dist - ds, 0.0)
                h = np.sqrt(2 * asum * gap) + vbar
                min_h = min(min_h, float(h.min()))
        assert doc["min_pair_dist_m"] == pytest.approx(min_dist, abs=1e-9)
        assert doc["min_h_mps"] == pytest.approx(min_h, abs=1e-9)

        for i, aid in enumerate(ids):
            p, _ = series[aid]
            length = float(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))
            assert doc["path_length_m"][str(aid)] == pytest.approx(length, abs=1e-9)
            err = float(np.linalg.norm(p[-1] - scn.agents[i].goal))
            assert doc["goal_errors_m"][str(aid)] == pytest.approx(err, abs=1e-9)
        infeasible = int(np.sum(cols["qp_status"] == "infeasible"))
        assert doc["qp_infeasible_count"] == infeasible

    def test_empty_run_yields_header_only(self, tmp_path):
        scn = scenario_from_dict({**MINIMAL, "t_end": 0.0})
        log, _ = run(scn)
        write_trajectory_csv(log, tmp_path / "trajectory.csv")
        assert (tmp_path / "trajectory.csv").read_text() == (
            "t,agent_id,px,py,vx,vy,ux,uy,ux_nom,uy_nom,qp_status\n")


class TestSvg:
    def test_single_agent_straight_polyline(self):
        scn = scenario_from_dict({**MINIMAL, "t_end": 4.0})
        log, _ = run(scn)
        svg = render_svg(log)
        assert svg.count("<polyline") == 1
        assert svg.count("<circle") == 1

    def test_six_agent_preset_has_six_trails_and_circles(self, circle6_run):
        _, log, _, _ = circle6_run
        svg = render_svg(log)
        assert svg.count("<polyline") == 6
        assert svg.count("<circle") == 6

    def test_same_log_renders_identically(self):
        scn = scenario_from_dict(two_agent_doc(t_end=4.0))
        log, _ = run(scn)
        assert render_svg(log) == render_svg(log)

    def test_metrics_dict_serializable_for_single_agent(self):
        scn = scenario_from_dict({**MINIMAL, "t_end": 1.0})
        _, metrics = run(scn)
        doc = metrics_to_dict(metrics)
        json.dumps(doc)  # no pair exists, so the minima must serialize as null
        assert doc["min_pair_dist_m"] is None


def test_import_leaves_scipy_out():
    """The package imports no scipy; only the tests and the benchmark use it."""
    src = str(Path(safeswarm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, safeswarm; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
