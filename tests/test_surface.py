import os
from types import SimpleNamespace

import numpy as np
import pytest

from psurf.birkhoff import split_plus_star_minus
from psurf.loops import SU2_K, LaurentLoop, su2_defect, su2_to_r3
from psurf.potentials import (BoundaryAngles, generalized_amsler_example,
                              normalized_from_boundary, soliton_beta)
from psurf.surface import (SurfaceGrid, cone_line_check, find_cone_point, frames_at,
                           geometry_report, reconstruct_frames, sym_immersion, write_csv,
                           write_obj, _unwrap_grid)
from tests.conftest import kink_phi


def test_soliton_phi_and_boundary(soliton_frames_small):
    f = soliton_frames_small
    exact = kink_phi(f.x[:, None], f.y[None, :])
    assert np.max(np.abs(f.phi - exact)) < 1e-9
    from psurf.potentials import soliton_alpha
    assert np.max(np.abs(f.phi[:, 0] - (soliton_alpha(f.x) + soliton_beta(0.0)))) < 1e-9
    assert np.max(np.abs(f.phi[0, :] - soliton_beta(f.y))) < 1e-9


def test_frames_at_replays_the_build_bit_for_bit():
    pair, _ = generalized_amsler_example(domain=(-3.0, 0.2))
    init = LaurentLoop.constant(np.diag([np.exp(0.3j), np.exp(-0.3j)]))
    recipe = dict(trunc=20, step=0.4 / 512, init_x=init, drift_samples=(1.0, 1j))
    xs, ys = np.linspace(-1.0, -0.6, 5), np.linspace(-0.9, -0.5, 4)
    f = reconstruct_frames(pair, xs, ys, basepoint=(-1.2, -1.1), **recipe)
    # the recipe is stored as passed
    assert (f.trunc, f.step, f.init_x, f.drift_samples) == tuple(recipe.values())
    assert (f.base_x, f.base_y, f.pair) == (-1.2, -1.1, pair)
    gx, gy = xs[1:] + 0.05, ys[:3] - 0.1
    got = frames_at(f, gx, gy)
    want = reconstruct_frames(pair, gx, gy, basepoint=(-1.2, -1.1), **recipe)
    assert np.array_equal(got.coeffs, want.coeffs) and np.array_equal(got.phi, want.phi)
    assert got.d_min == want.d_min
    # step=None resolves once, to the largest axis span from the anchor (x: 0.6,
    # y: 0.5) over 256, and is replayed as that number although gx reaches
    # farther from the anchor (0.65)
    auto = reconstruct_frames(pair, xs, ys, basepoint=(-1.2, -1.0),
                              **dict(recipe, step=None))
    assert auto.step == (xs[-1] + 1.2) / 256.0
    got = frames_at(auto, gx, gy)
    want = reconstruct_frames(pair, gx, gy, basepoint=(-1.2, -1.0),
                              **dict(recipe, step=auto.step))
    assert np.array_equal(got.coeffs, want.coeffs) and np.array_equal(got.phi, want.phi)


def test_flat_case_phi_zero_and_degenerate():
    zero = lambda t: 0.0 * np.asarray(t)
    pair = normalized_from_boundary(BoundaryAngles(alpha=zero, beta=zero), (0, 1), (0, 1))
    xs = np.linspace(0, 1, 9)
    f = reconstruct_frames(pair, xs, xs, trunc=16)
    assert np.max(np.abs(f.phi)) < 1e-10
    s = sym_immersion(f, 1.0)
    assert bool(np.all(s.degenerate))


def test_two_splitting_consistency(soliton_frames_small):
    # U^X_+ V_- and U^Y_- V_+ both reproduce U at sampled nodes
    f = soliton_frames_small
    pair = f.pair
    samples = np.exp(2j * np.pi * np.arange(8) / 8)
    for i in (2, 8, 14):
        for j in (3, 9, 15):
            u = f.loop(i, j)
            r = split_plus_star_minus(u, trunc=24)   # u = plus * minus = U^X-style pieces
            back = r.plus.evaluate(samples) @ r.minus.evaluate(samples)
            assert np.max(np.abs(back - u.evaluate(samples))) < 1e-8


def test_plus_factor_independent_of_y(soliton_frames_small):
    # the star-normalized plus factor of U(x, y) does not depend on y
    f = soliton_frames_small
    i = 10
    p1 = split_plus_star_minus(f.loop(i, 3), trunc=24).plus
    p2 = split_plus_star_minus(f.loop(i, 12), trunc=24).plus
    band = (0, 12)
    assert (p1.truncated(*band) - p2.truncated(*band)).max_coeff_norm() < 1e-7


def test_frames_unitary_and_twisted(soliton_frames_small):
    f = soliton_frames_small
    for (i, j) in [(0, 0), (5, 11), (16, 16)]:
        u = f.loop(i, j)
        assert u.check_twist() < 1e-10
        u_def, det_def = su2_defect(u.evaluate(np.array([0.5, 1.0, 2.0])))
        assert u_def < 1e-8 and det_def < 1e-8


def test_sym_trivial_cases():
    ident_grid = np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 1, 2, 2))
    from psurf.surface import FrameGrid
    fg = FrameGrid(x=np.array([0.0, 1.0]), y=np.array([0.0, 1.0]), coeffs=ident_grid,
                   d_min=0, phi=np.zeros((2, 2)),
                   a_vals=np.ones(2), b_vals=np.ones(2))
    s = sym_immersion(fg, 1.0)
    assert np.max(np.abs(s.points)) == 0.0
    for bad in (-1.0, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive finite"):
            sym_immersion(fg, bad)


def test_geometry_report_soliton(soliton_frames_small):
    s = sym_immersion(soliton_frames_small, 1.0)
    rep = geometry_report(s, soliton_frames_small)
    h = float(soliton_frames_small.x[1] - soliton_frames_small.x[0])
    assert rep["curvature_max_abs_err"] < 3.0 * h ** 2
    assert rep["speed_x_max_err"] < 2.0 * h ** 2
    assert rep["speed_y_max_err"] < 2.0 * h ** 2
    assert rep["asymptotic_max"] < 2.0 * h ** 2
    assert rep["sine_gordon_max"] < 3.0 * h ** 2
    assert rep["tangent_cross_max"] < 2.0 * h ** 2
    assert not rep["all_degenerate"]


def test_associated_family_speeds(soliton_frames_65):
    # each member is one sym_immersion of the same frames; its tangent f_x
    # has speed lambda a, so the difference error scales with lambda
    f = soliton_frames_65
    h = float(f.x[1] - f.x[0])
    for lam in (0.5, 1.0, 2.0):
        rep = geometry_report(sym_immersion(f, lam), f)
        assert rep["curvature_max_abs_err"] < 5e-3
        assert rep["speed_x_max_err"] < 1e-3
        assert rep["speed_y_max_err"] < 1e-3
        assert rep["tangent_cross_max"] < 2.0 * lam * h ** 2


def test_degeneracy_rank_criterion(soliton_frames_small):
    s = sym_immersion(soliton_frames_small, 1.0)
    f = s.points
    hx = float(s.x[1] - s.x[0])
    fx = (f[2:, 1:-1] - f[:-2, 1:-1]) / (2 * hx)
    fy = (f[1:-1, 2:] - f[1:-1, :-2]) / (2 * hx)
    cross = np.linalg.norm(np.cross(fx, fy), axis=-1)
    flagged = s.degenerate[1:-1, 1:-1]
    assert not np.any(flagged)           # no interior degeneracies на the kink
    assert float(np.min(cross)) > 1e-2   # full rank everywhere inside


def test_unwrap_grid_continuity():
    nx, ny = 12, 12
    truth = np.fromfunction(lambda i, j: 0.8 * i + 1.3 * j, (nx, ny)) * 0.9
    raw = np.angle(np.exp(1j * truth))
    un = _unwrap_grid(raw, 0, 0)
    assert np.max(np.abs(un - truth)) < 1e-12


def test_exports(tmp_path, soliton_frames_small):
    s = sym_immersion(soliton_frames_small, 1.0)
    obj_path = tmp_path / "s.obj"
    csv_path = tmp_path / "s.csv"
    write_obj(s, str(obj_path))
    write_csv(s, str(csv_path))
    obj = obj_path.read_text().splitlines()
    n_nodes = s.x.size * s.y.size
    assert sum(1 for l in obj if l.startswith("v ")) == n_nodes
    assert sum(1 for l in obj if l.startswith("vn ")) == n_nodes
    n_faces = sum(1 for l in obj if l.startswith("f "))
    # corner (0,0) is degenerate on the kink: exactly one face dropped
    assert n_faces == (s.x.size - 1) * (s.y.size - 1) - 1
    write_obj(s, str(obj_path), drop_degenerate_faces=False)
    n_all = sum(1 for l in obj_path.read_text().splitlines() if l.startswith("f "))
    assert n_all == (s.x.size - 1) * (s.y.size - 1)
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "x,y,fx,fy,fz,phi,degenerate"
    assert len(rows) == 1 + n_nodes


def reference_write_obj(sgrid, path, drop_degenerate_faces=True):
    """write_obj as the per-vertex and per-face loops it replaced."""
    nx, ny = sgrid.points.shape[:2]
    idx = lambda i, j: i * ny + j + 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# psurf surface lambda=%.17g\n" % sgrid.lam)
        for i in range(nx):
            for j in range(ny):
                p = sgrid.points[i, j]
                fh.write("v %.17g %.17g %.17g\n" % (p[0], p[1], p[2]))
        for i in range(nx):
            for j in range(ny):
                n = sgrid.normals[i, j]
                fh.write("vn %.17g %.17g %.17g\n" % (n[0], n[1], n[2]))
        for i in range(nx - 1):
            for j in range(ny - 1):
                corners = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
                if drop_degenerate_faces and any(sgrid.degenerate[a, b] for a, b in corners):
                    continue
                fh.write("f " + " ".join("%d//%d" % (idx(a, b), idx(a, b))
                                         for a, b in corners) + "\n")


def reference_write_csv(sgrid, path):
    """write_csv as the csv.writer loop it replaced."""
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "fx", "fy", "fz", "phi", "degenerate"])
        for i in range(sgrid.x.size):
            for j in range(sgrid.y.size):
                p = sgrid.points[i, j]
                w.writerow(["%.17g" % sgrid.x[i], "%.17g" % sgrid.y[j],
                            "%.17g" % p[0], "%.17g" % p[1], "%.17g" % p[2],
                            "%.17g" % sgrid.phi[i, j],
                            int(sgrid.degenerate[i, j])])


@pytest.mark.parametrize("degenerate_frac", [0.05, 1.0])
def test_exports_equal_the_loop_writers_byte_for_byte(tmp_path, degenerate_frac):
    rng = np.random.default_rng(17)
    nx, ny = 23, 19
    points = rng.standard_normal((nx, ny, 3)) * 10.0 ** rng.integers(-20, 20, (nx, ny, 3))
    points[0, 0] = [-0.0, 0.0, 1e-300]
    s = SurfaceGrid(x=np.linspace(-1, 2, nx), y=np.sort(rng.uniform(0, 1, ny)), points=points,
                    normals=rng.standard_normal((nx, ny, 3)), phi=rng.uniform(-7, 7, (nx, ny)),
                    degenerate=rng.uniform(size=(nx, ny)) < degenerate_frac, lam=0.7)
    for drop in (True, False):
        write_obj(s, tmp_path / "new.obj", drop_degenerate_faces=drop)
        reference_write_obj(s, tmp_path / "ref.obj", drop_degenerate_faces=drop)
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()
    write_csv(s, tmp_path / "new.csv")
    reference_write_csv(s, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_cone_point_requires_crossings(soliton_frames_small):
    s = sym_immersion(soliton_frames_small, 1.0)
    cone = find_cone_point(s)
    # the kink has a single boundary-corner crossing region, never a full cone
    if cone is not None:
        assert cone["line_coverage"] < 0.5


def test_geometry_report_needs_enough_nodes(soliton_pair):
    xs = np.linspace(0, 1, 8)
    f = reconstruct_frames(soliton_pair, xs, xs, trunc=16)
    with pytest.raises(ValueError, match="16 nodes"):
        geometry_report(sym_immersion(f, 1.0), f)
    xs = np.linspace(0, 1, 16) ** 2
    f = reconstruct_frames(soliton_pair, xs, xs, trunc=16)
    with pytest.raises(ValueError, match="uniformly spaced"):
        geometry_report(sym_immersion(f, 1.0), f)


def test_frame_tensor_matches_node_loops(soliton_frames_small):
    f = soliton_frames_small
    nx, ny = f.x.size, f.y.size
    assert f.coeffs.shape[:2] == (nx, ny) and f.coeffs.shape[3:] == (2, 2)
    # the degree axis is the union of the node bands: both ends are reached
    assert np.any(f.coeffs[:, :, 0]) and np.any(f.coeffs[:, :, -1])
    for lam in (0.5, 1.0, 2.0):
        vals = f.evaluate(lam)
        assert vals.shape == (nx, ny, 2, 2)
        for i, j in [(0, 0), (3, 11), (16, 16), (16, 0)]:
            u = f.loop(i, j)
            assert f.d_min <= u.d_min and u.d_max < f.d_min + f.coeffs.shape[2]
            assert np.max(np.abs(vals[i, j] - u.evaluate(lam))) < 1e-14
    with pytest.raises(ValueError, match="lambda = 0"):
        f.evaluate(0.0)


def test_batched_sym_matches_node_formulas(soliton_frames_small):
    f = soliton_frames_small
    lam = 2.0
    s = sym_immersion(f, lam)
    for i, j in [(1, 1), (5, 11), (16, 16)]:
        u = f.loop(i, j)
        ev = u.evaluate(lam)
        ev_inv = np.linalg.inv(ev)
        m = u.log_lambda_derivative().evaluate(lam) @ ev_inv
        m = 0.5 * (m - np.conj(m.T))
        m -= 0.5 * np.trace(m) * np.eye(2)
        assert np.max(np.abs(s.points[i, j] - su2_to_r3(m))) < 1e-13
        assert np.max(np.abs(s.normals[i, j] - su2_to_r3(ev @ SU2_K @ ev_inv, tol=1e-5))) < 1e-13


# -- the mask and array forms against the per-edge and per-row loops they replaced ------

def reference_unwrap_grid(raw, ic, jc):
    two_pi = 2.0 * np.pi
    col = np.unwrap(raw[ic, :])
    col -= two_pi * np.round((col[jc] - raw[ic, jc]) / two_pi)
    out = np.empty_like(raw)
    for j in range(raw.shape[1]):
        row = np.unwrap(raw[:, j])
        row += two_pi * np.round((col[j] - row[ic]) / two_pi)
        out[:, j] = row
    return out


def reference_cone_point(sgrid):
    phi, points = sgrid.phi, sgrid.points
    s = np.sin(phi)
    nx, ny = phi.shape
    groups = {}
    for (di, dj), line in (((1, 0), "row"), ((0, 1), "col")):
        for i in range(nx - di):
            for j in range(ny - dj):
                a, b = (i, j), (i + di, j + dj)
                if s[a] * s[b] < 0:
                    w = s[a] / (s[a] - s[b])
                    level = int(np.round(((1 - w) * phi[a] + w * phi[b]) / np.pi))
                    pt = (1 - w) * points[a] + w * points[b]
                    groups.setdefault(level, []).append((pt, (line, j if di else i)))
    best = None
    for level, items in groups.items():
        pts = np.array([it[0] for it in items])
        center = pts.mean(axis=0)
        spread = float(np.max(np.linalg.norm(pts - center, axis=1))) if len(pts) > 1 else 0.0
        cover = len({it[1] for it in items}) / (nx + ny)
        if best is None or (cover, -spread) > (best["line_coverage"], -best["spread"]):
            best = {"point": center, "spread": spread, "level": level,
                    "line_coverage": cover, "crossings": len(items)}
    return best


def assert_same_cone(got, ref):
    if ref is None:
        assert got is None
        return
    assert got.keys() == ref.keys()
    for key in ref:
        assert np.array_equal(got[key], ref[key]) and type(got[key]) is type(ref[key]), key


def random_angle_grid(rng, nx, ny):
    """A smooth random angle whose sin(phi) = 0 curves cross the grid at several levels."""
    x, y = np.linspace(0, 1, nx)[:, None], np.linspace(0, 1, ny)[None, :]
    c = rng.uniform(-6, 6, 4)
    return c[0] + c[1] * x + c[2] * y + c[3] * np.sin(3 * x * y)


def test_unwrap_grid_equals_the_row_loop_on_random_grids():
    rng = np.random.default_rng(17)
    for _ in range(40):
        nx, ny = rng.integers(2, 15, 2)
        raw = np.angle(np.exp(1j * rng.uniform(-3, 3) * random_angle_grid(rng, nx, ny)))
        raw[rng.uniform(size=raw.shape) < 0.1] += rng.choice([-2, 2]) * np.pi   # aliased jumps
        ic, jc = rng.integers(0, nx), rng.integers(0, ny)
        assert np.array_equal(_unwrap_grid(raw, ic, jc), reference_unwrap_grid(raw, ic, jc))


def test_unwrap_grid_equals_the_row_loop_on_the_amsler_window(amsler_window):
    f = amsler_window[0]
    raw = np.angle(np.exp(-0.5j * f.phi))
    for ic, jc in ((0, 0), (2, 5), (5, 1)):
        assert np.array_equal(_unwrap_grid(raw, ic, jc), reference_unwrap_grid(raw, ic, jc))


def test_cone_point_equals_the_edge_loop_on_random_grids():
    rng = np.random.default_rng(23)
    found = 0
    for _ in range(60):
        nx, ny = rng.integers(2, 13, 2)
        grid = SimpleNamespace(phi=random_angle_grid(rng, nx, ny),
                               points=rng.standard_normal((nx, ny, 3)))
        ref = reference_cone_point(grid)
        assert_same_cone(find_cone_point(grid), ref)
        found += ref is not None
    assert found > 30


def test_cone_point_equals_the_edge_loop_on_the_amsler_window(amsler_window):
    s = sym_immersion(amsler_window[0], 1.0)
    ref = reference_cone_point(s)
    assert ref is not None and ref["line_coverage"] > 0.5
    assert_same_cone(find_cone_point(s), ref)
