import argparse
import json
import os

import numpy as np
import pytest

from psurf import cli


def run(args):
    return cli.main([str(a) for a in args])


def write_config(path, text):
    path.write_text(text)
    return str(path)


SOLITON_SMALL = """
[potential]
kind = normalized
alpha = builtin:soliton_alpha
beta = builtin:soliton_beta

[grid]
nx = 33
ny = 33
x_range = 0, 1
y_range = 0, 1

[run]
lambdas = 1.0
trunc = 24

[output]
directory = {out}
"""


def test_build_soliton_and_determinism(tmp_path):
    cfgp = write_config(tmp_path / "c.ini", SOLITON_SMALL.format(out=tmp_path / "o1"))
    assert run(["build", cfgp]) == cli.EXIT_OK
    cfgp2 = write_config(tmp_path / "c2.ini", SOLITON_SMALL.format(out=tmp_path / "o2"))
    assert run(["build", cfgp2]) == cli.EXIT_OK
    b1 = (tmp_path / "o1" / "surface_lambda_1.csv").read_bytes()
    b2 = (tmp_path / "o2" / "surface_lambda_1.csv").read_bytes()
    assert b1 == b2
    report = json.loads((tmp_path / "o1" / "report.json").read_text())
    assert report["pass"] is True
    assert report["max_split_residual"] < 1e-9


def test_missing_config_is_config_error(tmp_path):
    assert run(["build", tmp_path / "nope.ini"]) == cli.EXIT_CONFIG


def test_malformed_key_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.ini", """
[potential]
kind = normalized
alpha = builtin:does_not_exist
beta = builtin:zero
""")
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    assert "does_not_exist" in capsys.readouterr().err


def test_empty_lambdas_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "c.ini", """
[potential]
kind = normalized
alpha = builtin:zero
beta = builtin:zero

[run]
lambdas =
""")
    assert run(["build", cfg]) == cli.EXIT_CONFIG


def test_unknown_kind_and_suite(tmp_path):
    cfg = write_config(tmp_path / "c.ini", """
[potential]
kind = elliptic
""")
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    cfg2 = write_config(tmp_path / "c2.ini", """
[potential]
kind = normalized
alpha = builtin:zero
beta = builtin:zero

[verify]
suites = everything
""")
    assert run(["verify", cfg2]) == cli.EXIT_CONFIG


def test_flat_build_reports_degenerate(tmp_path):
    cfg = write_config(tmp_path / "flat.ini", """
[potential]
kind = normalized
alpha = builtin:zero
beta = builtin:zero

[grid]
nx = 17
ny = 17
x_range = -0.5, 0.5
y_range = -0.5, 0.5

[output]
directory = {out}
""".format(out=tmp_path / "o"))
    assert run(["build", cfg]) == cli.EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["lambda_1.all_degenerate"] is True


def test_verify_loops_and_birkhoff(tmp_path):
    cfg = write_config(tmp_path / "v.ini", """
[potential]
kind = normalized
alpha = builtin:zero
beta = builtin:zero

[verify]
suites = loops, birkhoff

[output]
directory = {out}
""".format(out=tmp_path / "o"))
    assert run(["verify", cfg]) == cli.EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["birkhoff.residual"] < 1e-9
    assert report["suite.loops"] == "pass"


def test_verify_requires_suites(tmp_path):
    cfg = write_config(tmp_path / "v.ini", """
[potential]
kind = normalized
alpha = builtin:zero
beta = builtin:zero
""")
    assert run(["verify", cfg]) == cli.EXIT_CONFIG


def test_sweep_writes_family_summary(tmp_path):
    cfg = write_config(tmp_path / "s.ini", """
[potential]
kind = normalized
alpha = builtin:soliton_alpha
beta = builtin:soliton_beta

[grid]
nx = 21
ny = 21
x_range = 0, 1
y_range = 0, 1

[run]
lambdas = 0.5, 1.0, 2.0

[tolerances]
speed = 2e-2
curvature = 2e-2

[output]
directory = {out}
formats = csv
""".format(out=tmp_path / "o"))
    assert run(["sweep", cfg]) == cli.EXIT_OK
    lines = (tmp_path / "o" / "family_summary.csv").read_text().splitlines()
    assert lines[0].startswith("lambda,")
    assert len(lines) == 4
    assert not (tmp_path / "o" / "surface_lambda_1.obj").exists()


def test_symmetry_suite_mismatch_fails(tmp_path):
    # soliton potential with the rotational-example gamma: equivariance must fail
    cfg = write_config(tmp_path / "m.ini", """
[potential]
kind = normalized
alpha = builtin:soliton_alpha
beta = builtin:soliton_beta

[grid]
nx = 9
ny = 9
x_range = 0, 1
y_range = 0, 1

[verify]
suites = symmetry

[output]
directory = {out}
""".format(out=tmp_path / "o"))
    code = run(["verify", cfg])
    assert code == cli.EXIT_VERIFY
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["pass"] is False


def test_numerical_failure_exit_code(tmp_path):
    # a hopelessly coarse integration step drifts off the unitary group
    cfg = write_config(tmp_path / "n.ini", """
[potential]
kind = normalized
alpha = builtin:soliton_alpha
beta = builtin:soliton_beta

[grid]
nx = 5
ny = 5
x_range = 0, 40
y_range = 0, 40

[run]
step_divisor = 3

[output]
directory = {out}
""".format(out=tmp_path / "o"))
    assert run(["build", cfg]) == cli.EXIT_NUMERIC


def test_symmetry_suite_amsler_passes(tmp_path):
    cfg = write_config(tmp_path / "a.ini", """
[potential]
kind = amsler3

[grid]
nx = 17
ny = 17
x_range = -2.6, -0.15
y_range = -2.6, -0.15
theta_uniform = true

[run]
trunc = 48
step_divisor = 4096
drift_lambdas = 1.0
symmetry_interp = 33

[verify]
suites = symmetry

[tolerances]
surface_symmetry = 0.05   ; interpolation-limited at this grid size

[output]
directory = {out}
""".format(out=tmp_path / "o"))
    assert run(["verify", cfg]) == cli.EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["equivariance_x"] < 1e-8
    assert report["monodromy_spread"] < 1e-4
    assert "rotation_angle_measured_rad" in report


def test_table_potential_roundtrip(tmp_path):
    ts = np.linspace(-0.2, 1.2, 41)
    alpha_csv = tmp_path / "alpha.csv"
    alpha_csv.write_text("t,value\n" + "\n".join(
        "%.17g,%.17g" % (t, 4 * np.arctan(np.exp(t)) - np.pi) for t in ts) + "\n")
    beta_csv = tmp_path / "beta.csv"
    beta_csv.write_text("t,value\n" + "\n".join(
        "%.17g,%.17g" % (t, 4 * np.arctan(np.exp(t))) for t in ts) + "\n")
    cfg = write_config(tmp_path / "t.ini", """
[potential]
kind = normalized
alpha = table:alpha.csv
beta = table:beta.csv

[grid]
nx = 33
ny = 33
x_range = 0, 1
y_range = 0, 1

[output]
directory = {out}
formats = csv
""".format(out=tmp_path / "o"))
    assert run(["build", cfg]) == cli.EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["lambda_1.curvature_max_abs_err"] < 5e-3


SOLITON_9 = """
[potential]
kind = normalized
alpha = builtin:soliton_alpha
beta = builtin:soliton_beta

[grid]
nx = 9
ny = 9
x_range = 0, 1
y_range = 0, 1

[run]
{run}

[verify]
suites = {suites}

[output]
directory = {out}
"""


@pytest.mark.parametrize("command, run_section, suites, extra, message", [
    ("build", "", "loops", ["--trunc", "0"], "trunc must be >= 1"),
    ("build", "trunc = -4", "loops", [], "trunc must be >= 1"),
    ("build", "step_divisor = 0", "loops", [], "step_divisor must be a positive number"),
    ("build", "step_divisor = -64", "loops", [], "step_divisor must be a positive number"),
    ("build", "", "geometry", [], "the geometry suite needs a grid of at least 16"),
    ("verify", "", "geometry", [], "the geometry suite needs a grid of at least 16"),
    ("sweep", "", "loops", [], "sweep needs a grid of at least 16"),
])
def test_out_of_range_settings_are_config_errors(tmp_path, capsys, command, run_section,
                                                 suites, extra, message):
    cfg = write_config(tmp_path / "r.ini", SOLITON_9.format(
        run=run_section, suites=suites, out=tmp_path / "o"))
    assert run([command, cfg] + extra) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("run_section, message", [
    ("trnc = 0", "unknown key 'trnc' in [run]"),
    ("threads = 4", "unknown key 'threads' in [run]"),
    ("trunc = 24\n\n[gird]\nnx = 65", "unknown config section [gird]"),
    ("trunc = 24\n\n[DEFAULT]\ndirectory = out", "unknown config section [DEFAULT]"),
    ("trunc = 24\ntrunc = 12", "option 'trunc' in section 'run' already exists"),
    ("trunc 24", "Source contains parsing errors"),
])
def test_unknown_or_malformed_config_keys_are_config_errors(tmp_path, capsys, run_section, message):
    cfg = write_config(tmp_path / "k.ini", SOLITON_9.format(
        run=run_section, suites="loops", out=tmp_path / "o"))
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _readme_example(tmp_path):
    text = open(os.path.join(REPO, "README.md"), encoding="utf-8").read()
    return write_config(tmp_path / "readme.ini", text.split("```ini\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("config", ["README.md", "perfbench/configs/soliton_build.ini",
                                    "perfbench/configs/amsler_certify.ini"])
def test_shipped_configs_use_known_keys(tmp_path, config):
    path = _readme_example(tmp_path) if config == "README.md" else os.path.join(REPO, config)
    args = argparse.Namespace(trunc=None, seed=None, output_dir=None)
    cfg = cli.RunConfig(cli._parse_config(path), os.path.dirname(path), args)
    assert cfg.trunc in (24, 48)


def test_build_reuses_its_geometry_reports(tmp_path, monkeypatch):
    calls = []
    real = cli.geometry_report

    def counting(sg, fgrid):
        calls.append(sg.lam)
        return real(sg, fgrid)

    monkeypatch.setattr(cli, "geometry_report", counting)
    cfg = write_config(tmp_path / "g.ini", """
[potential]
kind = normalized
alpha = builtin:soliton_alpha
beta = builtin:soliton_beta

[grid]
nx = 17
ny = 17
x_range = 0, 1
y_range = 0, 1

[run]
lambdas = 0.5, 1.0

[verify]
suites = geometry

[tolerances]
speed = 2e-2
curvature = 2e-2

[output]
directory = {out}
formats = csv
""".format(out=tmp_path / "o"))
    assert run(["build", cfg]) == cli.EXIT_OK
    assert calls == [0.5, 1.0]
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    for tag in ("lambda_0p5", "lambda_1"):
        assert report[f"geometry.{tag}.curvature"] == report[f"{tag}.curvature_max_abs_err"]
    assert report["suite.geometry"] == "pass"


THETA_UNIFORM_16 = """
[potential]
kind = normalized
alpha = builtin:soliton_alpha
beta = builtin:soliton_beta

[grid]
nx = 16
ny = 16
x_range = -3.3, -2.9
y_range = -3.3, -2.9
theta_uniform = true

[run]
lambdas = 1.0

[verify]
suites = {suites}

[output]
directory = {out}
"""


def test_theta_uniform_build_reports_counts_only(tmp_path):
    cfg = write_config(tmp_path / "t.ini", THETA_UNIFORM_16.format(
        suites="", out=tmp_path / "o"))
    assert run(["build", cfg]) == cli.EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert set(k for k in report if k.startswith("lambda_1.")) == {
        "lambda_1.all_degenerate", "lambda_1.degenerate_count"}
    assert report["pass"] is True


def test_theta_uniform_geometry_suite_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "t.ini", THETA_UNIFORM_16.format(
        suites="geometry", out=tmp_path / "o"))
    assert run(["verify", cfg]) == cli.EXIT_CONFIG
    assert "the geometry suite needs a uniformly spaced grid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("run_section", [
    "lambdas = inf", "lambdas = nan", "lambdas = 1, 0", "lambdas = -1",
    "drift_lambdas = 0", "drift_lambdas = nan", "drift_lambdas = 1, inf", "drift_lambdas =",
])
def test_non_finite_or_non_positive_lambdas_are_config_errors(tmp_path, capsys, run_section):
    cfg = write_config(tmp_path / "l.ini", SOLITON_9.format(
        run=run_section, suites="loops", out=tmp_path / "o"))
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    key = run_section.split()[0]
    assert f"{key} must be one or more positive finite reals" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("x_range", "0, inf"), ("x_range", "-inf, 1"), ("y_range", "nan, 1"), ("y_range", "0, nan"),
    ("x_range", "1, 0"),
])
def test_non_finite_or_decreasing_ranges_are_config_errors(tmp_path, capsys, key, value):
    text = SOLITON_9.format(run="", suites="loops", out=tmp_path / "o")
    cfg = write_config(tmp_path / "g.ini", text.replace(f"{key} = 0, 1", f"{key} = {value}"))
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    assert "x_range / y_range must be increasing pairs of finite reals" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key, value", [
    ("speed_a", "0"), ("speed_a", "builtin:zero"), ("speed_a", "nan"), ("speed_a", "-1"),
    ("speed_b", "inf"), ("speed_b", "-0.5"),
])
def test_non_finite_or_non_positive_speeds_are_config_errors(tmp_path, capsys, key, value):
    text = SOLITON_9.format(run="", suites="loops", out=tmp_path / "o")
    text = text.replace("kind = normalized", f"kind = generalized\n{key} = {value}")
    cfg = write_config(tmp_path / "s.ini", text)
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    assert f"{key} must be finite and > 0 at every grid node" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")  # the overflow is the case
def test_non_finite_surface_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "n.ini", SOLITON_9.format(
        run="lambdas = 1, 1e-300", suites="loops", out=tmp_path / "o"))
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Sym immersion at lambda = 1e-300 is not finite at 81 of 81 nodes" in err
    assert "at index (0, 0)" in err
    assert not (tmp_path / "o" / "report.json").exists()
    assert not list((tmp_path / "o").glob("surface_*"))
