import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import string
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from psurf import birkhoff, cli, surface
from psurf.potentials import extract_diagonal_potentials, generalized_amsler_example
from psurf.surface import reconstruct_frames
from psurf.symmetry import coverage_window


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

    # sweep is build plus family_summary.csv: the same gates, suites and files
    for command in ("build", "sweep"):
        text = SOLITON_SMALL.format(out=tmp_path / command).replace(
            "lambdas = 1.0", "lambdas = 0.5, 1") + """
[tolerances]
speed = 1e-4

[verify]
suites = oracle, loops
"""
        assert run([command, write_config(tmp_path / f"{command}.ini", text)]) == cli.EXIT_VERIFY
    built = sorted(p.name for p in (tmp_path / "build").iterdir())
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == \
        sorted(built + ["family_summary.csv"])
    for name in built:
        assert (tmp_path / "sweep" / name).read_bytes() == \
            (tmp_path / "build" / name).read_bytes(), name
    report = json.loads((tmp_path / "sweep" / "report.json").read_text())
    assert report["pass"] is False and report["lambda_0p5.speed_y_max_err"] > 1e-4
    assert "lambda_1.asymptotic_max" in report
    assert "suite.oracle" in report and report["suite.loops"] == "pass"


def test_asymptotic_tolerance_gates_the_build(tmp_path):
    # the same build passes at the default tolerance (test_build_soliton_and_determinism)
    cfg = write_config(tmp_path / "a.ini", SOLITON_SMALL.format(out=tmp_path / "o")
                       + "\n[tolerances]\nasymptotic = 1e-9\n")
    assert run(["build", cfg]) == cli.EXIT_VERIFY
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["pass"] is False and report["lambda_1.asymptotic_max"] > 1e-9


def test_symmetry_suite_mismatch_fails(tmp_path, capsys):
    # a soliton potential declares no symmetry, so there is nothing to certify
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
    assert run(["verify", cfg]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[verify] suites" in err and "kind = normalized" in err, err
    assert not (tmp_path / "o").exists()


def test_non_finite_node_loop_names_its_node(tmp_path, capfd, monkeypatch):
    # a NaN put into the x-axis frame at x index 2 after its drift check
    from psurf import surface
    real = surface.integrate_axis
    calls = []

    def poisoned(eta, t_values, **kwargs):
        path = real(eta, t_values, **kwargs)
        if not calls:                       # the x axis is integrated first
            path.coeffs[2, path.coeffs.shape[1] // 2, 0, 0] = np.nan
        calls.append(path)
        return path

    monkeypatch.setattr(surface, "integrate_axis", poisoned)
    cfg = write_config(tmp_path / "nan.ini", """
[potential]
kind = normalized
alpha = builtin:soliton_alpha
beta = builtin:soliton_beta

[grid]
nx = 5
ny = 5
x_range = 0, 1
y_range = 0, 1

[output]
directory = {out}
""".format(out=tmp_path / "o"))
    assert run(["build", cfg]) == cli.EXIT_NUMERIC
    err = capfd.readouterr().err
    assert re.fullmatch(r"numerical failure: splitting failed at node \(2,0\), \(x,y\)=\(0\.5,0\): "
                        r"input loop has a non-finite coefficient at degree -?\d+\n", err), err


def test_numerical_failure_exit_code(tmp_path, capfd):
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
    # the drift names its frame and axis: the x axis is integrated first
    err = capfd.readouterr().err
    assert re.fullmatch(r"numerical failure: unitarity drift \S+ over span 40 at t = [\d.]+, "
                        r"lambda = [\d.]+; reduce the step on the x axis\n", err), err


AMSLER_17 = """
[potential]
kind = amsler3

[grid]
nx = 17
ny = 17
x_range = -2.6, -0.15
y_range = {y_range}
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
"""


def record_frame_builds(monkeypatch):
    """(keyword arguments, grid) of every reconstruct_frames call, through
    each psurf namespace that binds the name."""
    grids, real = [], surface.reconstruct_frames

    def recording(*args, **kwargs):
        grids.append((kwargs, real(*args, **kwargs)))
        return grids[-1][1]
    for name, module in sorted(sys.modules.items()):
        if name.startswith("psurf") and getattr(module, "reconstruct_frames", None) is real:
            monkeypatch.setattr(module, "reconstruct_frames", recording)
    return grids


# the second y_range moves only the y axis's covered window
@pytest.mark.parametrize("y_range", ["-2.6, -0.15", "-2.6, -0.12"], ids=["same_ranges", "longer_y"])
def test_symmetry_suite_amsler_passes(tmp_path, monkeypatch, y_range):
    grids = record_frame_builds(monkeypatch)
    cfg = write_config(tmp_path / "a.ini", AMSLER_17.format(out=tmp_path / "o", y_range=y_range))
    assert run(["verify", cfg]) == cli.EXIT_OK
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["equivariance_x"] < 1e-8
    assert report["monodromy_spread"] < 1e-4
    assert report["symmetry.surface_coverage"] == 1.0
    assert "rotation_angle_measured_rad" in report
    rot = np.array(report["rigid_rotation"])
    assert report["symmetry.rigid_rotation"] == report["rigid_rotation"]
    assert np.max(np.abs(rot.T @ rot - np.eye(3))) < 1e-9 and len(report["rigid_translation"]) == 3
    # the main grid, then the monodromy image grid and the fine target's
    # bracketing nodes, both frames_at the main grid: each carries the main
    # grid's recipe and passes the splitter's standard tail test
    (main_kw, main), *images = grids
    assert len(images) == 2 and "basepoint" not in main_kw and main.trunc == 48
    for kwargs, fgrid in images:
        assert kwargs["basepoint"] == (main.base_x, main.base_y)
        assert (fgrid.trunc, fgrid.step, fgrid.drift_samples) == \
            (main.trunc, main.step, main.drift_samples)
    assert all(fgrid.max_tail <= birkhoff.TAIL_TOL for _, fgrid in grids)


def test_build_with_the_symmetry_suite_builds_its_main_grid_once(tmp_path, monkeypatch):
    grids = record_frame_builds(monkeypatch)
    cfg = write_config(tmp_path / "a.ini", AMSLER_17.format(out=tmp_path / "o",
                                                            y_range="-2.6, -0.15"))
    assert run(["build", cfg]) == cli.EXIT_OK
    shapes = [(fgrid.x.size, fgrid.y.size) for _, fgrid in grids]
    assert shapes.count((17, 17)) == 1 and len(shapes) == 3, shapes
    # of the 33 x 33 lattice, the target holds only the corners of the cells
    # that the covered window's images fall in: at most 2 w per axis
    (_, main), _, (_, target) = grids
    window = coverage_window(main.x, main.y, generalized_amsler_example()[1])
    assert all(n <= 2 * w.size for n, w in zip(shapes[2], window)), (shapes, window)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["symmetry.surface_target_nodes"] == target.x.size * target.y.size


# the kink on [0.5, 1]^2 has 4 arctan(e) < phi < 4 arctan(e^2): no multiple of pi
SOLITON_OFF_THE_CURVE_17 = """
[potential]
kind = normalized
alpha = builtin:soliton_alpha
beta = builtin:soliton_beta
domain_x = 0, 1
domain_y = 0, 1

[grid]
nx = 17
ny = 17
x_range = 0.5, 1
y_range = 0.5, 1

[verify]
suites = cone

[output]
directory = {out}
"""


@pytest.mark.parametrize("case", ["amsler", "soliton_off_the_curve"])
def test_cone_suite_reports_plain_numbers(tmp_path, case):
    if case == "amsler":
        text = AMSLER_17.format(out=tmp_path / "o", y_range="-2.6, -0.15").replace(
            "suites = symmetry", "suites = cone")
    else:
        text = SOLITON_OFF_THE_CURVE_17.format(out=tmp_path / "o")
    found = case == "amsler"
    code = run(["verify", write_config(tmp_path / "c.ini", text)])
    assert code == (cli.EXIT_OK if found else cli.EXIT_VERIFY)
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["cone.found"] is found
    txt = (tmp_path / "o" / "report.txt").read_text()
    assert "np." not in txt
    if found:
        assert round(report["cone.line_coverage"], 2) == 0.94
        point = re.search(r"^cone\.point: \[(.*)\]$", txt, re.M).group(1)
        assert [float(v) for v in point.split(", ")] == report["cone.point"]


# imports psurf and lists the scipy modules that brought in; then, with scipy
# blocked, runs the psurf commands (argv lists) given as JSON in argv[1] and
# samples the diagonal extraction of a 5 x 5 soliton grid
BLOCKED_SCIPY_RUN = """
import json, sys
import numpy as np
import psurf, psurf.cli
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
sys.modules["scipy"] = None  # any later scipy import raises ImportError
codes = [psurf.cli.main(argv) for argv in json.loads(sys.argv[1])]
pair = psurf.normalized_from_boundary(psurf.BoundaryAngles(psurf.potentials.soliton_alpha,
                                                           psurf.potentials.soliton_beta))
xs = np.linspace(0.0, 1.0, 5)
eta = psurf.extract_diagonal_potentials(psurf.reconstruct_frames(pair, xs, xs, trunc=12)).eta_x
print(json.dumps({"loaded": loaded, "codes": codes, "diagonal": repr(eta(0.3).coeffs)}))
"""


def test_the_runtime_runs_without_scipy(tmp_path, soliton_pair):
    """Importing psurf loads no scipy module.  With scipy blocked, commands
    that reach every former scipy call site (table splines, the oracle's
    direct solve, a generalized pair's axis data, the symmetry chain) and the
    diagonal extraction give what they give with it."""
    ts = np.linspace(0.0, 1.0, 9)
    for name, values in (("alpha", 4 * np.arctan(np.exp(ts)) - np.pi),
                         ("beta", 4 * np.arctan(np.exp(ts)))):
        (tmp_path / f"{name}.csv").write_text("t,value\n" + "".join(
            "%.17g,%.17g\n" % row for row in zip(ts, values)))
    tables = SOLITON_9.format(run="trunc = 12", suites="oracle", out="o")
    tables = tables.replace("builtin:soliton_alpha", "table:alpha.csv").replace(
        "builtin:soliton_beta", "table:beta.csv")
    configs = [("build", write_config(tmp_path / "t.ini", tables)),
               # the symmetry chain interpolates on the main grid: a fine target
               # would reach no other call site
               ("verify", write_config(tmp_path / "a.ini", AMSLER_17.format(
                   out="o", y_range="-2.6, -0.15").replace("interp = 33", "interp = 0")))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
    commands = [[command, cfg, "--output-dir", str(tmp_path / f"blocked{i}")]
                for i, (command, cfg) in enumerate(configs)]
    proc = subprocess.run([sys.executable, "-c", BLOCKED_SCIPY_RUN, json.dumps(commands)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout.splitlines()[-1])
    assert blocked["loaded"] == []
    for i, (command, cfg) in enumerate(configs):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run([command, cfg, "--output-dir", tmp_path / f"free{i}"]) == blocked["codes"][i]
        assert (tmp_path / f"free{i}" / "report.json").read_bytes() == \
            (tmp_path / f"blocked{i}" / "report.json").read_bytes()
    xs = np.linspace(0.0, 1.0, 5)
    eta = extract_diagonal_potentials(reconstruct_frames(soliton_pair, xs, xs, trunc=12)).eta_x
    assert repr(eta(0.3).coeffs) == blocked["diagonal"]


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


@pytest.mark.parametrize("rows, message", [
    ("0,0 0.25,nan 0.5,0 0.75,0", "data row 2 (t=0.25, value=nan) has a non-finite entry"),
    ("0,0 0.25,0 nan,0 0.75,0", "data row 3 (t=nan, value=0) has a non-finite entry"),
    ("0,0 0.5,0 0.25,0 0.75,0", "data row 3 (t=0.25, value=0) has t not above the previous"),
    ("0,0 0.25,0 0.5,0 0.5,1", "data row 4 (t=0.5, value=1) has t not above the previous"),
    ("0,0 0.25,abc 0.5,0 0.75,0", "data row 2 ('0.25,abc') must be two numbers t,value"),
    ("0,0 0.25,0 0.5 0.75,0", "data row 3 ('0.5') must be two numbers t,value"),
    ("<missing>", "No such file or directory"),
    ("<directory>", "Is a directory"),
])
def test_non_finite_or_non_increasing_tables_are_config_errors(tmp_path, capsys, rows, message):
    table = tmp_path / "alpha.csv"
    if rows == "<directory>":
        table.mkdir()
    elif rows != "<missing>":
        table.write_text("t,value\n" + "\n".join(rows.split()) + "\n")
    text = SOLITON_9.format(run="", suites="loops", out=tmp_path / "o")
    cfg = write_config(tmp_path / "t.ini", text.replace("builtin:soliton_alpha", "table:alpha.csv"))
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    assert f"{table}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    text = pathlib.Path(REPO, "README.md").read_text(encoding="utf-8")
    return write_config(tmp_path / "readme.ini", text.split("```ini\n", 1)[1].split("```", 1)[0])


@pytest.mark.parametrize("config", ["README.md", "perfbench/configs/soliton_build.ini",
                                    "perfbench/configs/amsler_certify.ini"])
def test_shipped_configs_use_known_keys(tmp_path, config):
    path = _readme_example(tmp_path) if config == "README.md" else os.path.join(REPO, config)
    args = argparse.Namespace(trunc=None, seed=None, output_dir=None)
    cfg = cli.RunConfig(cli._parse_config(path), os.path.dirname(path), args)
    assert cfg.trunc in (24, 48)


def test_symmetry_suite_names_a_monodromy_that_is_not_a_rotation(tmp_path):
    # grid corners off the diagonal: K at the sampled nodes is far from SO(3)
    cfg = write_config(tmp_path / "a.ini", AMSLER_17.format(out=tmp_path / "o",
                                                            y_range="-2.75, -0.15"))
    assert run(["verify", cfg]) == cli.EXIT_VERIFY
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert re.fullmatch(r"monodromy: K is not a rotation at node \(\d+, \d+\) "
                        r"\(orthogonality defect [\d.e+-]+, det [\d.e+-]+\)",
                        report["symmetry.error"]), report["symmetry.error"]


def test_benchmark_soliton_config_is_the_readme_example(tmp_path):
    # the benchmark's config declares itself the README example, unchanged
    readme, bench = ({s: dict(cp[s]) for s in cp.sections()} for cp in (
        cli._parse_config(_readme_example(tmp_path)),
        cli._parse_config(os.path.join(REPO, "perfbench", "configs", "soliton_build.ini"))))
    assert bench == readme


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
    # verify has no build's reports: its geometry suite computes the same ones
    calls.clear()
    assert run(["verify", cfg, "--output-dir", tmp_path / "v"]) == cli.EXIT_OK
    assert calls == [0.5, 1.0]
    verified = json.loads((tmp_path / "v" / "report.json").read_text())
    geometry = {k: v for k, v in report.items() if k.startswith("geometry.")}
    assert len(geometry) == 4
    assert {k: v for k, v in verified.items() if k.startswith("geometry.")} == geometry


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
    assert f"[grid] {key} must be an increasing pair of finite reals" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, value", [
    ("normalized", "-1"), ("normalized", "1, -1"), ("normalized", "-1, 0, 1"),
    ("generalized", "nan, 1"), ("generalized", "0, inf"), ("amsler3", "1, -1"),
])
def test_bad_potential_domains_are_config_errors(tmp_path, capsys, kind, value):
    text = SOLITON_9.format(run="", suites="loops", out=tmp_path / "o")
    text = text.replace("kind = normalized", f"kind = {kind}\ndomain_x = {value}")
    cfg = write_config(tmp_path / "d.ini", text)
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    assert "[potential] domain_x must be an increasing pair of finite reals" in \
        capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, key, value, message", [
    ("generalized", "domain_x", "0, 0.5", "(0.0, 0.5) must contain the x grid nodes, "
     "which span t = [0.0, 1.0]"),
    ("generalized", "domain_y", "0.25, 2", "(0.25, 2.0) must contain the y grid nodes, "
     "which span t = [0.0, 1.0]"),
    # theta_uniform: the nodes are t = tan((theta + pi) / 2), up to 13.3
    ("amsler3", "domain_x", "-4, 4", "(-4.0, 4.0) must contain the x and y grid nodes, "
     "which span t = [0.27"),
])
def test_grid_outside_the_potential_domain_is_config_error(tmp_path, capsys, kind, key, value,
                                                           message):
    # the axis data are splined over the domain: a node outside it would read
    # an extrapolated angle
    if kind == "amsler3":
        text = AMSLER_17.format(y_range="-2.6, -0.15", out=tmp_path / "o")
    else:
        text = SOLITON_9.format(run="", suites="loops", out=tmp_path / "o")
    text = re.sub(r"kind = \w+", f"kind = {kind}\n{key} = {value}", text)
    assert run(["build", write_config(tmp_path / "d.ini", text)]) == cli.EXIT_CONFIG
    assert f"[potential] {key} {message}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("ranges", [
    ("-1, 0", "-2.6, -0.15"), ("-7, -6", "-2.6, -0.15"), ("-2.6, -0.15", "-6.3, -6"),
    ("-0.5, 0.5", "-2.6, -0.15"),
])
def test_theta_uniform_ranges_outside_the_circle_chart_are_config_errors(tmp_path, capsys,
                                                                        ranges):
    text = THETA_UNIFORM_16.format(suites="", out=tmp_path / "o")
    text = text.replace("kind = normalized\nalpha = builtin:soliton_alpha\n"
                        "beta = builtin:soliton_beta", "kind = amsler3")
    text = text.replace("x_range = -3.3, -2.9", f"x_range = {ranges[0]}")
    text = text.replace("y_range = -3.3, -2.9", f"y_range = {ranges[1]}")
    cfg = write_config(tmp_path / "t.ini", text)
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    assert "with theta_uniform, x_range / y_range must lie inside (-2 pi, 0)" in \
        capsys.readouterr().err
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


# a valid 5 x 5 soliton build that takes well under a second
SOLITON_5 = {
    "potential": {"kind": "normalized", "alpha": "builtin:soliton_alpha",
                  "beta": "builtin:soliton_beta"},
    "grid": {"nx": "5", "ny": "5", "x_range": "0, 1", "y_range": "0, 1"},
    "run": {"trunc": "12", "step_divisor": "256"},
    "verify": {"suites": "loops"},
    "output": {"directory": "out"},
}


def write_half_tables(directory):
    """half_angle.csv (the soliton alpha) and half_speed.csv (1 + t), 17 rows
    each on t in [0, 0.5]: valid tables that cover half of a [0, 1] grid."""
    ts = np.linspace(0.0, 0.5, 17)
    for name, values in (("half_angle", 4 * np.arctan(np.exp(ts)) - np.pi), ("half_speed", 1 + ts)):
        (directory / f"{name}.csv").write_text("t,value\n" + "".join(
            "%.17g,%.17g\n" % row for row in zip(ts, values)))


def config_text(section, key, value, directory="out"):
    """SOLITON_5 written out with [section] key set to value."""
    entries = {sec: dict(keys) for sec, keys in SOLITON_5.items()}
    entries["output"]["directory"] = directory
    entries.setdefault(section, {})[key] = value
    return "".join(f"[{sec}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for sec, keys in entries.items())


@pytest.mark.parametrize("section, key, value, flag", [
    ("output", "formats", "png", False), ("output", "formats", "ojb", False),
    ("grid", "theta_uniform", "maybe", False), ("output", "drop_degenerate_faces", "ture", False),
    ("grid", "nx", "2.5", False), ("run", "seed", "-5", False), ("run", "seed", "-1", True),
    ("tolerances", "curvature", "nan", False), ("tolerances", "curvature", "-1", False),
    ("run", "symmetry_interp", "-3", False), ("run", "symmetry_interp", "3", False),
    ("potential", "alpha", "table:nope.csv", False),
    ("potential", "speed_a", "table:nope.csv", False), ("potential", "alpha", "table:.", False),
    # tables that end inside the interval their axis reads, the grid's [0, 1]
    ("potential", "alpha", "table:half_angle.csv", False),
    ("potential", "beta", "table:half_angle.csv", False),
    ("potential", "speed_a", "table:half_speed.csv", False),
    ("potential", "speed_b", "table:half_speed.csv", False),
    ("tolerances", "boundary", "1e-7", False),
    ("run", "lambdas", "1, 1.0000001", False), ("run", "lambdas", "1, 1", False),
])
def test_rejected_values_name_the_key_and_write_nothing(tmp_path, capsys, section, key, value,
                                                       flag):
    write_half_tables(tmp_path)
    # a flag overrides the valid config value 0
    text = config_text(section, key, "0" if flag else value, directory=tmp_path / "o")
    if key.startswith("speed_"):  # only the generalized kind reads speeds
        text = text.replace("kind = normalized", "kind = generalized")
    cfg = write_config(tmp_path / "p.ini", text)
    assert run(["build", cfg] + ([f"--{key}", value] if flag else [])) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"[{section}] {key} " in err and repr(value) in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, key, grid, reads", [
    # a normalized axis reads its nodes and t = 0
    ("normalized", "alpha", "0, 1", "x axis reads t = [0.0, 1.0]"),
    ("normalized", "alpha", "0.25, 0.75", "x axis reads t = [0.0, 0.75]"),
    # nodes inside the table, but a generalized axis samples its whole domain
    ("generalized", "speed_a", "0, 0.5", "x axis reads t = [0.0, 1.0]"),
])
def test_a_table_read_outside_its_rows_names_both_intervals(tmp_path, capsys, kind, key, grid,
                                                            reads):
    write_half_tables(tmp_path)
    value = "table:half_speed.csv" if key.startswith("speed_") else "table:half_angle.csv"
    text = config_text("potential", key, value, directory=tmp_path / "o")
    text = text.replace("kind = normalized", f"kind = {kind}\ndomain_x = 0, 1")
    cfg = write_config(tmp_path / "t.ini", text.replace("x_range = 0, 1", f"x_range = {grid}"))
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    assert f"[potential] {key} = '{value}': the table {tmp_path / value[6:]} covers " \
           f"t = [0.0, 0.5], but the {reads}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind, key", [
    ("normalized", "speed_a"), ("normalized", "speed_b"), ("amsler3", "alpha"),
    ("amsler3", "beta"), ("amsler3", "speed_a"), ("amsler3", "speed_b"), ("amsler3", "domain_y"),
])
def test_potential_keys_the_kind_does_not_read_are_config_errors(tmp_path, capsys, kind, key):
    value = "-3, 0" if key == "domain_y" else "0.5"
    text = config_text("potential", key, value, directory=tmp_path / "o")
    if kind == "amsler3":
        text = re.sub(r"(alpha|beta) = builtin:\w+\n", "", text)
    cfg = write_config(tmp_path / "k.ini", text.replace("kind = normalized", f"kind = {kind}"))
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    assert f"[potential] {key} is not read by kind = {kind}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_output_directory_that_is_a_file_is_config_error(tmp_path, capsys):
    blocker = tmp_path / "o"
    blocker.write_text("")
    cfg = write_config(tmp_path / "f.ini", config_text("output", "directory", blocker))
    assert run(["build", cfg]) == cli.EXIT_CONFIG
    assert f"[output] directory '{blocker}' cannot be written" in capsys.readouterr().err
    assert blocker.read_text() == ""


SCHEMA_KEYS = [(section, key) for section, keys in cli.CONFIG_SCHEMA.items() for key in keys]
# no digits, so no draw can ask for a larger grid, truncation or step count
GARBAGE = st.text(string.ascii_letters + string.punctuation + " ", min_size=1, max_size=10)
BAD_VALUES = st.one_of(GARBAGE, st.sampled_from(
    ["", "nan", "inf", "-inf", "0", "-3", "-0.5", "2.5", "ojb", "maybe", "elliptic"]))


@settings(max_examples=100, deadline=None)
@given(entry=st.sampled_from(SCHEMA_KEYS), value=BAD_VALUES)
def test_one_bad_value_ends_in_a_documented_exit_code(entry, value):
    section, key = entry
    # the output directory must stay inside the scratch directory
    assume(key != "directory" or ("/" not in value and value.strip() != ".."))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            path = write_config(pathlib.Path(tmp) / "c.ini",
                                config_text(section, key, value))
            try:  # the value as the file holds it, through the schema alone
                cli._config_value(cli._parse_config(path), tmp, section, key)
                rejected = False
            except cli.ConfigError:
                rejected = True
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["build", path])
        finally:
            os.chdir(cwd)
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFY, cli.EXIT_CONFIG, cli.EXIT_NUMERIC)
    if rejected:
        assert code == cli.EXIT_CONFIG
        assert f"[{section}] {key} " in err.getvalue()


def test_readme_key_table_lists_the_schema():
    cli_docs = pathlib.Path(REPO, "README.md").read_text(encoding="utf-8") \
        .split("## CLI", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", cli_docs, re.M)
    assert sorted(rows) == sorted(SCHEMA_KEYS)
