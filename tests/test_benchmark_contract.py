"""The benchmark's tracing harness wraps psurf functions by name.

perfbench/tracing.py is loaded read-only; every target it would wrap must
still resolve, so a rename fails here instead of in a traced benchmark run.
"""

import importlib.util
import os

import numpy as np
import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()
TARGETS = sorted({t for targets, _ in tracing.SPANS.values() for t in targets}
                 | {f"psurf.birkhoff:{name}" for name in tracing.SPLITTERS})


@pytest.mark.parametrize("target", TARGETS)
def test_traced_target_resolves(target):
    owner, attr = tracing._resolve(target)
    # classes are patched through their own __dict__, modules by attribute
    found = attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr)
    assert found, f"{target} no longer resolves"
    assert callable(getattr(owner, attr))


def test_expected_spans_are_defined():
    for workload, names in tracing.EXPECTED.items():
        missing = [n for n in names if n not in tracing.SPANS]
        assert not missing, f"{workload}: {missing}"


def test_split_clock_times_every_node_of_a_frame_grid(soliton_pair):
    from psurf.surface import reconstruct_frames
    clock = tracing.SplitClock()
    clock.install()
    try:
        xs = np.linspace(0.0, 1.0, 5)
        reconstruct_frames(soliton_pair, xs, xs, trunc=24)
    finally:
        clock.remove()
    assert len(clock.latencies) == 25


def test_tracer_records_the_frame_pipeline(soliton_pair):
    from psurf import surface            # looked up after install, so the wrappers apply
    tracer = tracing.Tracer()
    tracer.install()
    try:
        xs = np.linspace(0.0, 1.0, 5)
        surface.sym_immersion(surface.reconstruct_frames(soliton_pair, xs, xs, trunc=24), 1.0)
    finally:
        tracer.remove()
    attrs = {}
    for span in tracer.spans:
        attrs.setdefault(span[1], []).append(span[6])
    for name in ("frames.axis", "surface.reconstruct", "birkhoff.split", "loops.mul"):
        assert attrs.get(name), f"span {name} did not fire"
        assert all(a is not None for a in attrs[name]), f"span {name} recorded no attributes"
    assert attrs["surface.reconstruct"] == [(25, False)]
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["frames.axis_calls"] == 2 and metrics["birkhoff.split_calls"] == 25
    assert 0.0 <= metrics["frames.drift_max"] < 1e-6


SOLITON_16 = """
[potential]
kind = normalized
alpha = builtin:soliton_alpha
beta = builtin:soliton_beta

[grid]
nx = 16
ny = 16

[run]
lambdas = 0.5, 1

[verify]
suites = geometry, oracle

[output]
formats = obj, csv
"""


def test_traced_build_covers_the_soliton_build_workload(tmp_path):
    """Every span the soliton_build workload requires fires in one in-process
    build, so a renamed or bypassed traced function (direct_frame_solve,
    goursat_solve, ...) fails here rather than in a traced benchmark run."""
    from psurf import cli                # looked up after install, so the wrappers apply
    config = tmp_path / "soliton_16.ini"
    config.write_text(SOLITON_16)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["build", str(config), "--output-dir", str(tmp_path / "out")])
    finally:
        tracer.remove()
    assert code in (0, 1)
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert tracing.coverage_problems("soliton_build", tracer.spans, 1, metrics) == []


def test_traced_verify_covers_the_amsler_certify_workload(tmp_path):
    """The amsler_certify counterpart: one in-process verify of the benchmark's
    config fires every required span, including the monodromy, the image grid
    and the interpolation-target reconstruction.  A 9-node target keeps the run
    short; trunc and step_divisor stay as configured, since lower values trip
    the drift monitor."""
    import configparser
    from psurf import cli                # looked up after install, so the wrappers apply
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cp.read(os.path.join(os.path.dirname(TRACING), "configs", "amsler_certify.ini"))
    cp["run"]["symmetry_interp"] = "9"
    config = tmp_path / "amsler_certify_9.ini"
    with open(config, "w", encoding="utf-8") as fh:
        cp.write(fh)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", str(config), "--output-dir", str(tmp_path / "out")])
    finally:
        tracer.remove()
    assert code in (0, 1)
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert tracing.coverage_problems("amsler_certify", tracer.spans, 1, metrics) == []
