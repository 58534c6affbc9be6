"""Tests for the command-line front end: exit codes, files, determinism."""

import argparse
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import curveflow
import curveflow.bonnesen
import curveflow.flow
import curveflow.shrinker
from curveflow import ClosedCurve, curve_from_support, read_curve_csv, write_curve_csv
from curveflow import shapes
from curveflow.cli import _build_parser, main


@pytest.fixture()
def circle_csv(tmp_path):
    path = tmp_path / "circle.csv"
    write_curve_csv(shapes.circle(1024), path)
    return str(path)


@pytest.fixture()
def ellipse_csv(tmp_path):
    path = tmp_path / "ellipse21.csv"
    write_curve_csv(shapes.ellipse(1024), path)
    return str(path)


@pytest.fixture()
def lshape_csv(tmp_path):
    path = tmp_path / "lshape.csv"
    write_curve_csv(shapes.l_hexagon(), path)
    return str(path)


@pytest.fixture()
def egg_csv(tmp_path):
    path = tmp_path / "egg.csv"
    write_curve_csv(curve_from_support(shapes.random_oval_support(1024, 5, offset=0.25)), path)
    return str(path)


@pytest.fixture(params=["pentagram", "doubled_circle"])
def winding_twice_csv(tmp_path, request):
    """A locally convex curve with turning number 2."""
    star = np.pi / 2 + 0.8 * np.pi * np.arange(5)
    curve = (ClosedCurve(np.column_stack([np.cos(star), np.sin(star)]))
             if request.param == "pentagram" else shapes.doubled_circle(512))
    path = tmp_path / f"{request.param}.csv"
    write_curve_csv(curve, path)
    return str(path)


@pytest.fixture()
def spike_csv(tmp_path):
    """A unit square with a spike that doubles back along its bottom edge."""
    path = tmp_path / "spike.csv"
    write_curve_csv(ClosedCurve([(0, 0), (1, 0), (0.5, 0.5), (1, 0), (1, 1), (0, 1)]), path)
    return str(path)


class TestShrinkVerify:
    def test_circle_exit_zero(self, circle_csv, capsys):
        assert main(["shrink-verify", "--input", circle_csv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["verdict"] is True
        assert payload["report"]["area"] == pytest.approx(np.pi, abs=1e-4)
        assert payload["config"]["tol"] == 1e-3

    def test_ellipse_exit_three(self, ellipse_csv, capsys):
        assert main(["shrink-verify", "--input", ellipse_csv]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["verdict"] is False

    def test_two_point_file_exit_one(self, tmp_path):
        bad = tmp_path / "two.csv"
        bad.write_text("0,0\n1,0\n")
        assert main(["shrink-verify", "--input", str(bad)]) == 1

    def test_missing_file_exit_one(self):
        assert main(["shrink-verify", "--input", "/no/such/file.csv"]) == 1

    def test_unparsable_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "letters.csv"
        bad.write_text("a,b\na,b\na,b\n")
        assert main(["shrink-verify", "--input", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot parse curve file")

    def test_lshape_exit_four(self, lshape_csv):
        assert main(["shrink-verify", "--input", lshape_csv]) == 4

    def test_flat_sided_convex_curve_exit_three(self, tmp_path, capsys):
        # convex with kappa = 0 along its straight sides: not a shrinker, and
        # not a convexity failure
        path = tmp_path / "rounded_square.csv"
        write_curve_csv(shapes.rounded_square(256), path)
        assert main(["shrink-verify", "--input", str(path)]) == 3
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["verdict"] is False
        assert report["gauge_max_rel_dev"] >= 1.0


class TestOdeShoot:
    def test_amplitude_sweep(self, capsys):
        assert main(["ode-shoot", "--amplitudes", "1.1,1.5,2"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "p0,period,ratio_to_2pi"
        assert lines[-1].startswith("# no period equals 2*pi")
        ratios = [float(line.split(",")[2]) for line in lines[1:-1]]
        assert all(0.5 < r < 1 / np.sqrt(2) for r in ratios)

    def test_small_amplitude_ratio(self, capsys):
        assert main(["ode-shoot", "--amplitudes", "1.000001"]) == 0
        out = capsys.readouterr().out
        ratio = float(out.strip().splitlines()[1].split(",")[2])
        assert ratio == pytest.approx(0.70711, abs=1e-3)

    def test_empty_list_exit_one(self):
        assert main(["ode-shoot", "--amplitudes", ""]) == 1

    def test_blowup_exit_two(self):
        assert main(["ode-shoot", "--amplitudes", "1e-9"]) == 2

    def test_too_near_one_exit_two(self, monkeypatch, capsys):
        # the shot ran 35 s to a period 3.4e-5 off; it is now refused unrun
        def refuse(*_args, **_kwargs):
            raise AssertionError("solve_ivp ran within 5e-7 of p0 = 1")

        monkeypatch.setattr(curveflow.shrinker, "solve_ivp", refuse)
        assert main(["ode-shoot", "--amplitudes", "1.000000001"]) == 2
        assert capsys.readouterr().err.startswith("error: |p0 - 1| = 1e-09")

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert main(["ode-shoot", "--amplitudes", "1.2", "--output", str(out)]) == 0
        assert (out / "classification.csv").exists()


class TestBonnesen:
    def test_ellipse_chain(self, ellipse_csv, capsys):
        assert main(["bonnesen", "--input", ellipse_csv]) == 0
        payload = json.loads(capsys.readouterr().out)
        rep = payload["report"]
        assert rep["chain_ok"] is True
        assert rep["t1"] <= rep["inradius"] <= rep["circumradius"] <= rep["t2"]

    def test_nonconvex_exit_four(self, lshape_csv):
        assert main(["bonnesen", "--input", lshape_csv]) == 4

    def test_winding_twice_exit_four(self, winding_twice_csv):
        assert main(["bonnesen", "--input", winding_twice_csv]) == 4

    def test_spike_exit_four(self, spike_csv):
        assert main(["bonnesen", "--input", spike_csv]) == 4

    def test_lp_failure_exit_two(self, ellipse_csv, monkeypatch):
        failed = SimpleNamespace(success=False, message="iteration limit reached")
        monkeypatch.setattr(curveflow.bonnesen, "linprog", lambda *a, **k: failed)
        assert main(["bonnesen", "--input", ellipse_csv]) == 2

    def test_seed_determinism(self, ellipse_csv, capsys):
        # every byte but the run's wall time repeats
        def printed():
            assert main(["bonnesen", "--input", ellipse_csv]) == 0
            return re.sub(r'"elapsed_s": [0-9.e+-]+', '"elapsed_s": _', capsys.readouterr().out)

        first = printed()
        assert '"elapsed_s": _' in first
        assert printed() == first


class TestSupport:
    def test_writes_support_csv(self, ellipse_csv, tmp_path):
        out = tmp_path / "sup"
        assert main(["support", "--input", ellipse_csv, "--grid", "256",
                     "--output", str(out)]) == 0
        values = np.loadtxt(out / "support.csv", delimiter=",")[:, 1]
        assert values.size == 256
        # ellipse support spans [b, a] after recentering
        assert values.min() == pytest.approx(1.0, abs=1e-2)
        assert values.max() == pytest.approx(2.0, abs=1e-2)

    def test_nonconvex_exit_four(self, lshape_csv):
        assert main(["support", "--input", lshape_csv]) == 4

    def test_winding_twice_exit_four(self, winding_twice_csv):
        assert main(["support", "--input", winding_twice_csv]) == 4

    def test_spike_exit_four(self, spike_csv):
        assert main(["support", "--input", spike_csv]) == 4

    def test_odd_grid_exit_one(self, ellipse_csv):
        assert main(["support", "--input", ellipse_csv, "--grid", "33"]) == 1


class TestSymmetrize:
    def test_writes_pair_and_sidecar(self, egg_csv, tmp_path, capsys):
        out = tmp_path / "sym"
        assert main(["symmetrize", "--input", egg_csv, "--grid", "512",
                     "--output", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        rep = payload["report"]
        c1 = read_curve_csv(out / "symmetrized_1.csv")
        c2 = read_curve_csv(out / "symmetrized_2.csv")
        # the chord search drives |sigma1 - sigma2| <= 2*tol*A with tol = 1e-8
        assert rep["areas"][0] == pytest.approx(rep["areas"][1], rel=1e-7)
        from curveflow import signed_area

        assert signed_area(c1) == pytest.approx(rep["areas"][0], rel=1e-12)
        assert signed_area(c2) == pytest.approx(rep["areas"][1], rel=1e-12)
        assert (out / "symmetrize_report.json").exists()

    def test_report_counts_gap_evaluations(self, egg_csv, ellipse_csv, tmp_path, capsys):
        # no grid node bisects the egg, so the chord search runs; on the
        # centred ellipse node 0 bisects and the search is skipped
        counts = []
        for path in (egg_csv, ellipse_csv):
            assert main(["symmetrize", "--input", path, "--grid", "512",
                         "--output", str(tmp_path / "sym")]) == 0
            counts.append(json.loads(capsys.readouterr().out)["report"]["evaluations"])
        assert counts[0] >= 3
        assert counts[1] == 0

    def test_nonconvex_exit_four(self, lshape_csv):
        assert main(["symmetrize", "--input", lshape_csv]) == 4

    def test_grid_below_the_sample_count(self, tmp_path, capsys):
        # at a grid as fine as the polygon, its corners read as p + p'' < 0
        path = tmp_path / "ellipse256.csv"
        write_curve_csv(shapes.ellipse(256), path)
        argv = ["symmetrize", "--input", str(path), "--output", str(tmp_path / "sym")]
        assert main(argv + ["--grid", "128"]) == 0
        capsys.readouterr()
        assert main(argv + ["--grid", "256"]) == 4
        assert "not a strictly convex oval" in capsys.readouterr().err

    def test_not_convex_after_gluing_exit_four(self, egg_csv, tmp_path, capsys, monkeypatch):
        # the package's ``symmetrize`` attribute is the function, not the module
        module = importlib.import_module("curveflow.symmetrize")
        monkeypatch.setattr(module, "is_convex", lambda curve: False)
        assert main(["symmetrize", "--input", egg_csv, "--grid", "512",
                     "--output", str(tmp_path / "sym")]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


class TestReportFiles:
    """Each report file holds exactly what its command printed."""

    @pytest.mark.parametrize("argv, name", [
        (["shrink-verify", "--input", "{circle}"], "shrinker_report.json"),
        (["bonnesen", "--input", "{ellipse}"], "bonnesen_report.json"),
        (["symmetrize", "--input", "{egg}", "--grid", "512"], "symmetrize_report.json"),
        (["ode-shoot", "--amplitudes", "1.1,1.5,2.5,1"], "classification.csv"),
    ])
    def test_file_equals_stdout(self, circle_csv, ellipse_csv, egg_csv, tmp_path, capsys,
                                argv, name):
        argv = [a.format(circle=circle_csv, ellipse=ellipse_csv, egg=egg_csv) for a in argv]
        out = tmp_path / "out"
        assert main(argv + ["--output", str(out)]) == 0
        printed = capsys.readouterr().out
        assert printed.endswith("\n")
        assert (out / name).read_text() == printed


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which RFC 8259 does not have."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    """Non-finite floats reach a JSON report as null, never as NaN or Infinity."""

    def test_constant_entry_period_is_null(self, capsys):
        assert main(["ode-shoot", "--amplitudes", "1,1.5", "--format", "json"]) == 0
        entries = strict_json(capsys.readouterr().out)["report"]["entries"]
        assert entries[0]["is_constant"] is True
        assert entries[0]["period"] is None
        assert entries[0]["ratio_to_2pi"] is None
        assert entries[1]["period"] == pytest.approx(4.3621244652, abs=1e-9)

    def test_infinite_horizon_is_null(self, tmp_path, capsys):
        small = tmp_path / "c.csv"
        write_curve_csv(shapes.circle(64), small)
        assert main(["flow", "--input", str(small), "--output", str(tmp_path / "out"),
                     "--t-max", "inf"]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["config"]["t_max"] is None
        assert payload["report"]["stop_reason"] == "collapsed"


class TestReportMetadata:
    """Every JSON report carries the package version and the run's elapsed
    seconds beside its config and report."""

    @pytest.mark.parametrize("argv", [
        ["flow", "--input", "{circle}", "--t-max", "1e-3", "--output", "{out}"],
        ["shrink-verify", "--input", "{circle}"],
        ["bonnesen", "--input", "{ellipse}"],
        ["symmetrize", "--input", "{egg}", "--grid", "512", "--output", "{out}"],
        ["ode-shoot", "--amplitudes", "1.5", "--format", "json"],
    ], ids=lambda argv: argv[0])
    def test_version_and_elapsed(self, circle_csv, ellipse_csv, egg_csv, tmp_path, capsys,
                                 argv):
        argv = [a.format(circle=circle_csv, ellipse=ellipse_csv, egg=egg_csv,
                         out=tmp_path / "out") for a in argv]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == curveflow.__version__
        assert payload["elapsed_s"] > 0.0


class TestFlowCommand:
    def test_short_run_outputs(self, tmp_path, capsys):
        small = tmp_path / "c.csv"
        write_curve_csv(shapes.circle(128), small)
        out = tmp_path / "flowout"
        code = main([
            "flow", "--input", str(small), "--output", str(out),
            "--t-max", "0.02", "--stride", "3", "--svg-every", "50",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["stop_reason"] == "t_max"
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,L,A,ratio"
        final = read_curve_csv(out / "final_curve.csv")
        assert final.n >= 32
        assert any(f.name.startswith("snapshot_") for f in out.iterdir())

    def test_report_counts_steps(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        write_curve_csv(shapes.ellipse(128), path)
        assert main(["flow", "--input", str(path), "--output", str(tmp_path / "out"),
                     "--t-max", "0.05"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        traj = curveflow.flow.run_flow(shapes.ellipse(128), t_max=0.05)
        assert report["steps"] == traj.final_state.step_count > 0
        assert "resample_passes" not in report

    def test_missing_input_exit_one(self, tmp_path):
        assert main(["flow", "--input", str(tmp_path / "none.csv")]) == 1

    def test_four_sample_square_exit_one(self, tmp_path, capsys):
        # one step would swallow the square and report t = 2.0 for 0.159
        path = tmp_path / "square.csv"
        write_curve_csv(shapes.square(1.0), path)
        assert main(["flow", "--input", str(path), "--output", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: flow needs >= 32 samples, got 4")
        assert not (tmp_path / "out").exists()

    def test_circle_runs_to_extinction(self, tmp_path, capsys):
        small = tmp_path / "c.csv"
        write_curve_csv(shapes.circle(96), small)
        out = tmp_path / "ext"
        assert main(["flow", "--input", str(small),
                     "--output", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["stop_reason"] == "collapsed"
        assert payload["report"]["final_time"] == pytest.approx(0.5, abs=2e-2)


class TestRangeChecks:
    @pytest.mark.parametrize("argv", [
        ["flow", "--stride", "0", "--t-max", "1e-3"],
        ["flow", "--svg-every", "-1"],
        ["flow", "--t-max", "-1"],
        ["symmetrize", "--tol", "-1"],
    ])
    def test_out_of_range_exit_one(self, tmp_path, capsys, argv):
        small = tmp_path / "c.csv"
        write_curve_csv(shapes.circle(64), small)
        assert main(argv + ["--input", str(small), "--output", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_zero_stride_rejected_before_the_flow_runs(self, tmp_path, capsys, monkeypatch):
        def no_flow(*_args, **_kwargs):
            raise AssertionError("run_flow called for a rejected stride")

        monkeypatch.setattr(curveflow.flow, "run_flow", no_flow)
        small = tmp_path / "c.csv"
        write_curve_csv(shapes.circle(64), small)
        out = tmp_path / "out"
        assert main(["flow", "--stride", "0", "--input", str(small), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not (out / "trajectory.csv").exists()

    def test_output_file_rejected_before_the_flow_runs(self, tmp_path, capsys, monkeypatch):
        def no_flow(*_args, **_kwargs):
            raise AssertionError("run_flow called for an output that is a file")

        monkeypatch.setattr(curveflow.flow, "run_flow", no_flow)
        small = tmp_path / "c.csv"
        write_curve_csv(shapes.circle(64), small)
        assert main(["flow", "--input", str(small), "--output", str(small)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --output")


class TestRejectedValues:
    """Each bad tolerance, flow flag or amplitude exits 1 and names itself."""

    @pytest.mark.parametrize("argv, name", [
        (["shrink-verify", "--tol", "-1"], "tol"),
        (["shrink-verify", "--tol", "nan"], "tol"),
        (["bonnesen", "--tol", "-1"], "tol"),
        (["bonnesen", "--tol", "nan"], "tol"),
        (["ode-shoot", "--amplitudes", "1.5", "--tol", "-1"], "tol"),
        (["ode-shoot", "--amplitudes", "1.5", "--tol", "nan"], "tol"),
        (["ode-shoot", "--amplitudes", "nan"], "amplitudes"),
        (["ode-shoot", "--amplitudes", "1.5,inf"], "amplitudes"),
        (["flow", "--area-floor-rel", "2", "--t-max", "1e-3"], "area_floor_rel"),
        (["flow", "--area-floor-rel", "1", "--t-max", "1e-3"], "area_floor_rel"),
        (["flow", "--area-floor-rel", "nan", "--t-max", "1e-3"], "area_floor_rel"),
    ])
    def test_exit_one(self, tmp_path, capsys, argv, name):
        curve = tmp_path / "c.csv"
        write_curve_csv(shapes.ellipse(256) if argv[0] == "bonnesen" else shapes.circle(64),
                        curve)
        if argv[0] != "ode-shoot":
            argv = argv + ["--input", str(curve), "--output", str(tmp_path / "out")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert name in captured.err


def _src_env() -> dict:
    """The environment with the imported curveflow's source on PYTHONPATH."""
    src = str(Path(curveflow.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestBrokenPipe:
    def test_reader_closing_early_exits_quietly(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve_csv(shapes.circle(256), path)
        # 16384 CSV lines (about 600 kB) overflow the pipe buffer, so the writer
        # is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "curveflow.cli", "support", "--input", str(path),
             "--grid", "16384"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
        assert proc.stdout.readline().startswith(b"0,")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        with proc.stderr:
            assert proc.stderr.read() == b""


class TestConfigPrecedence:
    def test_config_file_then_flag(self, ellipse_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": 0.5}))
        assert main(["shrink-verify", "--input", ellipse_csv, "--config", str(cfg)]) in (0, 3)
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["tol"] == 0.5
        assert main([
            "shrink-verify", "--input", ellipse_csv, "--config", str(cfg), "--tol", "0.25",
        ]) in (0, 3)
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["tol"] == 0.25

    def test_unknown_command_exit_one(self):
        assert main(["no-such-command"]) == 1

    @pytest.mark.parametrize("config", [
        {"gird": 5},           # not a flag of the subcommand
        {"grid": 64},          # a flag of another subcommand
        [1, 2],                # not an object
        {"tol": "abc"},        # does not parse as the flag's type
        {"tol": [0.5]},
        {"output": True},
    ])
    def test_bad_config_exit_one(self, ellipse_csv, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["shrink-verify", "--input", ellipse_csv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_config_format_checked_per_subcommand(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "svg"}))
        assert main(["ode-shoot", "--amplitudes", "1.1", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_values_take_flag_types(self, circle_csv, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": "0.5", "format": "json"}))
        assert main(["ode-shoot", "--amplitudes", "1.5", "--config", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["config"] == {
            "tol": 0.5, "output": None, "format": "json"}
        cfg.write_text(json.dumps({"stride": "2", "t_max": "1e-3"}))
        out = tmp_path / "flow"
        assert main(["flow", "--input", circle_csv, "--output", str(out),
                     "--config", str(cfg)]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config["stride"] == 2 and isinstance(config["stride"], int)
        assert config["t_max"] == 1e-3


class TestFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["shrink-verify", "--grid", "64"], "--grid"),
        (["bonnesen", "--jobs", "2"], "--jobs"),
        (["support", "--tol", "1e-3"], "--tol"),
        (["flow", "--format", "json", "--t-max", "1e-4"], "--format"),
        (["ode-shoot", "--amplitudes", "1.1", "--format", "svg"], "--format"),
        (["flow", "--until-extinct", "--t-max", "1e-4"], "--until-extinct"),
        (["flow", "--format", "svg", "--t-max", "1e-4"], "--format"),
        (["flow", "--dt-factor", "2", "--t-max", "1e-4"], "--dt-factor"),
        (["bonnesen", "--seed", "7"], "--seed"),
        (["ode-shoot", "--amplitudes", "1.1", "--jobs", "2"], "--jobs"),
    ])
    def test_unread_flag_exit_one(self, ellipse_csv, tmp_path, capsys, argv, flag):
        argv = argv + ["--output", str(tmp_path)]
        if argv[0] != "ode-shoot":
            argv += ["--input", ellipse_csv]
        assert main(argv) == 1
        assert flag in capsys.readouterr().err

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command-line interface", 1)[1].split("\n## ", 1)[0]
        lines = [line.split("#", 1)[0] for block in re.findall(r"```bash\n(.*?)```", section, re.S)
                 for line in block.splitlines() if line.startswith("curveflow ")]
        assert len(lines) >= 6
        parser = _build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])

    def test_readme_flag_table_matches_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| `([a-z-]+)` \| (`--.*) \|$", readme, re.M))
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        assert set(rows) == set(subparsers)
        # --config is documented once, below the table, for every subcommand
        assert "`--config FILE`" in readme
        for command, sub in subparsers.items():
            registered = {s for a in sub._actions for s in a.option_strings}
            listed = set(re.findall(r"`(--[a-z-]+)", rows[command]))
            assert listed == registered - {"-h", "--help", "--config"}, command


# Defines solvers(), the SciPy solver modules loaded so far, for _fresh_python.
_PRELUDE = """
import json, sys

def solvers():
    return sorted(m for m in sys.modules if m.startswith(("scipy.optimize", "scipy.integrate")))
"""


def _fresh_python(code: str, *args: str):
    """Run ``code`` after _PRELUDE in a new interpreter; the JSON on its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", _PRELUDE + code, *args], capture_output=True,
                          text=True, env=_src_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestDeferredScipy:
    """SciPy's solvers are imported on the first call that needs one."""

    def test_only_solving_runs_load_scipy(self, tmp_path):
        files = {"circle": shapes.circle(64), "circle1024": shapes.circle(1024),
                 "ellipse": shapes.ellipse(256), "lshape": shapes.l_hexagon(),
                 "egg": curve_from_support(shapes.random_oval_support(1024, 5, offset=0.25))}
        for name, curve in files.items():
            write_curve_csv(curve, tmp_path / f"{name}.csv")
        path = {name: str(tmp_path / f"{name}.csv") for name in files}
        runs = [
            (["support", "--input", path["ellipse"], "--grid", "64",
              "--output", str(tmp_path / "sup")], 0),
            (["flow", "--input", path["circle"], "--t-max", "1e-3",
              "--output", str(tmp_path / "flow")], 0),
            (["shrink-verify", "--input", path["circle1024"]], 0),
            (["bonnesen", "--input", path["lshape"]], 4),
            (["ode-shoot", "--amplitudes", "nan"], 1),
            (["symmetrize", "--input", path["egg"], "--grid", "512",
              "--output", str(tmp_path / "sym")], 0),
            (["bonnesen", "--input", path["ellipse"]], 0),
        ]
        steps = _fresh_python("""
import curveflow, curveflow.cli, curveflow.shapes

steps = [["import", 0, solvers()]]
for argv in json.loads(sys.argv[1]):
    steps.append([argv[0], curveflow.cli.main(argv), solvers()])
print(json.dumps(steps))
""", json.dumps([argv for argv, _code in runs]))
        assert [code for _name, code, _loaded in steps] == [0] + [code for _argv, code in runs]
        for name, _code, loaded in steps[:-1]:
            assert loaded == [], f"{name} loaded {loaded}"
        assert "scipy.optimize" in steps[-1][2]
        # no grid node bisects the egg, so its run searched for the chord
        report = json.loads((tmp_path / "sym" / "symmetrize_report.json").read_text())
        assert report["report"]["evaluations"] > 0

    def test_first_solver_call_from_two_threads(self):
        before, threaded, serial = _fresh_python("""
import curveflow

before = solvers()
grid = [1.3, 1.7, 2.2, 3.1]
threaded = [e.period for e in curveflow.classify_closed_solutions(grid, jobs=2).entries]
serial = [e.period for e in curveflow.classify_closed_solutions(grid).entries]
print(json.dumps([before, threaded, serial]))
""")
        assert before == [], f"import curveflow loaded {before}"
        assert threaded == serial


class TestEvidenceScripts:
    """The two scripts in scripts/ run to their closing line on small inputs."""

    @pytest.mark.parametrize("argv, closing", [
        (["shrinker_evidence.py", "--amplitudes", "1.5"],
         "embedded profile appears on either route."),
        (["bonnesen_battery.py", "--count", "3", "--samples", "512"],
         "gap -> 0 as the oval tends to the circle (the equality case)."),
    ], ids=["shrinker_evidence", "bonnesen_battery"])
    def test_runs(self, tmp_path, argv, closing):
        script = Path(__file__).resolve().parents[1] / "scripts" / argv[0]
        proc = subprocess.run([sys.executable, str(script), *argv[1:], "--output", str(tmp_path)],
                              capture_output=True, text=True, env=_src_env(), timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].strip() == closing
