"""Full-grid frame reconstruction, the Sym immersion, and geometry checks.

The extended frame at a node comes from one Birkhoff splitting of
(G_y)^-1 G_x T_x; the angle is read off the lambda^0 block of the plus
factor and the immersion from the exact log-lambda derivative.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from psurf import potentials as pots
from psurf.birkhoff import TAIL_TOL, FactorizationFailure, split_plus_minusfree
from psurf.frames import integrate_axis
from psurf.loops import SU2_I, SU2_J, SU2_K, LaurentLoop, adjoint_rotation, su2_to_r3

EPS_DEGENERATE = 1e-6
# central differences of the geometry report need this many nodes per axis
GEOMETRY_MIN_NODES = 16


@dataclass(frozen=True)
class FrameGrid:
    """Extended frames U(x_i, y_j) with the extracted angle data."""

    x: np.ndarray
    y: np.ndarray
    U: list                       # U[i][j] LaurentLoop
    phi: np.ndarray
    psi: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    basepoint: tuple
    base_x: float = 0.0
    base_y: float = 0.0
    pair: object = None
    trunc: int = 24
    max_split_residual: float = 0.0
    max_tail: float = 0.0
    alpha_fn: object = None
    beta_fn: object = None
    a_fn: object = None
    b_fn: object = None


@dataclass(frozen=True)
class SurfaceGrid:
    """Immersion data of one member of the associated family."""

    x: np.ndarray
    y: np.ndarray
    points: np.ndarray            # (nx, ny, 3)
    normals: np.ndarray
    phi: np.ndarray
    degenerate: np.ndarray        # bool mask, |sin phi| < EPS_DEGENERATE
    lam: float
    a_vals: np.ndarray
    b_vals: np.ndarray


def _tx_matrix(alpha):
    return np.diag([np.exp(-0.5j * alpha), np.exp(0.5j * alpha)])


def _unwrap_grid(raw, ic, jc):
    """2-d unwrap anchored at column ic: continuous along the anchor column,
    then along every row, with 2 pi jumps only."""
    two_pi = 2.0 * np.pi
    col = np.unwrap(raw[ic, :])
    col -= two_pi * np.round((col[jc] - raw[ic, jc]) / two_pi)
    out = np.empty_like(raw)
    for j in range(raw.shape[1]):
        row = np.unwrap(raw[:, j])
        row += two_pi * np.round((col[j] - row[ic]) / two_pi)
        out[:, j] = row
    return out


def reconstruct_frames(pair, x, y, trunc=24, step=None, init_x=None, init_y=None,
                       basepoint=None, threads=1, drift_samples=(0.5, 1.0, 2.0),
                       split_tail_tol=TAIL_TOL):
    """Extended frame grid for a potential pair.

    For normalized pairs the frames are anchored at the origin and the
    boundary angles are used exactly; for generalized pairs the speeds and
    phases are extracted from the top lambda coefficients and the anchor
    defaults to the lower-left node (pass basepoint to evaluate the same
    global frame on another sample window).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or y.size < 2:
        raise ValueError("need at least a 2 x 2 grid")

    a_fn, alpha_fn = pots.x_axis_data(pair)
    b_fn, beta_fn = pots.y_axis_data(pair)

    if pair.kind == "normalized":
        # the boundary-angle normalization anchors the frames at the origin;
        # the sample ranges may sit anywhere the potential is defined
        bx, by = 0.0, 0.0
    elif basepoint is not None:
        bx, by = basepoint
    else:
        bx, by = float(x[0]), float(y[0])

    probe_x = pair.eta_x(bx)
    probe_y = pair.eta_y(by)
    band_x = (min(0, trunc * probe_x.d_min), max(0, trunc * probe_x.d_max))
    band_y = (min(0, trunc * probe_y.d_min), max(0, trunc * probe_y.d_max))

    path_x = integrate_axis(pair.eta_x, x, init=init_x, step=step, band=band_x,
                            axis="x", t0=bx, drift_samples=drift_samples)
    path_y = integrate_axis(pair.eta_y, y, init=init_y, step=step, band=band_y,
                            axis="y", t0=by, drift_samples=drift_samples)

    alpha_vals = np.array([float(alpha_fn(v)) for v in x])
    w_loops = [path_x.frames[i] * _tx_matrix(alpha_vals[i]) for i in range(x.size)]
    d_loops = [path_y.frames[j].dagger() for j in range(y.size)]

    nx, ny = x.size, y.size
    U = [[None] * ny for _ in range(nx)]
    raw_psi = np.empty((nx, ny))
    max_resid = 0.0
    max_tail = max(path_x.tail_norm, path_y.tail_norm)

    def node(i, j):
        g = (d_loops[j] * w_loops[i]).trim(rel=1e-15)
        try:
            sp = split_plus_minusfree(g, trunc=trunc, tail_tol=split_tail_tol)
        except FactorizationFailure as exc:
            raise FactorizationFailure(
                f"splitting failed at node ({i},{j}), (x,y)=({x[i]:.6g},{y[j]:.6g}): {exc}",
                residual=exc.residual, tail_norm=exc.tail_norm) from exc
        u = (w_loops[i] * sp.minus).trim(rel=1e-15)
        v0 = sp.plus.coeff(0)
        return u, float(np.angle(v0[0, 0])), sp.residual, sp.tail_norm

    def run_row(i):
        return [node(i, j) for j in range(ny)]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run_row, range(nx)))
    else:
        rows = [run_row(i) for i in range(nx)]

    for i in range(nx):
        for j in range(ny):
            u, psi_raw, resid, tail = rows[i][j]
            U[i][j] = u
            raw_psi[i, j] = psi_raw
            max_resid = max(max_resid, resid)
            max_tail = max(max_tail, tail)

    ic = int(np.argmin(np.abs(x - bx)))
    jc = int(np.argmin(np.abs(y - by)))
    psi = _unwrap_grid(raw_psi, ic, jc)
    beta_vals = np.array([float(beta_fn(v)) for v in y])
    phi = beta_vals[None, :] - 2.0 * psi
    a_vals = np.asarray(a_fn(x), dtype=float)
    b_vals = np.asarray(b_fn(y), dtype=float)
    return FrameGrid(x=x, y=y, U=U, phi=phi, psi=psi, a_vals=a_vals, b_vals=b_vals,
                     basepoint=(ic, jc), base_x=float(bx), base_y=float(by),
                     pair=pair, trunc=trunc,
                     max_split_residual=max_resid, max_tail=max_tail,
                     alpha_fn=alpha_fn, beta_fn=beta_fn, a_fn=a_fn, b_fn=b_fn)


def sym_immersion(fgrid, lam0):
    """Immersion and unit normals at one associated-family parameter.

    f = (dU/dlog lambda) U^-1 with the exact coefficient-weighted
    derivative; normals are the rotated vertical axis vector.
    """
    if not lam0 > 0:
        raise ValueError("lambda must be a positive real")
    nx, ny = fgrid.x.size, fgrid.y.size
    pts = np.empty((nx, ny, 3))
    nrm = np.empty((nx, ny, 3))
    for i in range(nx):
        for j in range(ny):
            u = fgrid.U[i][j]
            ev = u.evaluate(lam0)
            dev = u.log_lambda_derivative().evaluate(lam0)
            ev_inv = np.linalg.inv(ev)
            f = dev @ ev_inv
            f = 0.5 * (f - np.conj(f.T))
            f -= 0.5 * np.trace(f) * np.eye(2)
            pts[i, j] = su2_to_r3(f)
            nrm[i, j] = su2_to_r3(ev @ SU2_K @ ev_inv, tol=1e-5)
    degenerate = np.abs(np.sin(fgrid.phi)) < EPS_DEGENERATE
    return SurfaceGrid(x=fgrid.x, y=fgrid.y, points=pts, normals=nrm,
                       phi=fgrid.phi.copy(), degenerate=degenerate, lam=float(lam0),
                       a_vals=fgrid.a_vals, b_vals=fgrid.b_vals)


def associated_family(fgrid, lambdas):
    """One SurfaceGrid per positive lambda."""
    lams = list(lambdas)
    if not lams:
        raise ValueError("need at least one lambda")
    return [sym_immersion(fgrid, l) for l in lams]


def _uniform_spacing(t):
    h = np.diff(t)
    if np.max(np.abs(h - h[0])) > 1e-9 * abs(h[0]):
        raise ValueError("geometry report requires a uniform grid")
    return float(h[0])


def geometry_report(sgrid, fgrid=None):
    """Discrete-geometry residuals on interior non-degenerate nodes.

    Keys: curvature_max_abs_err (|K+1|), speed_x/y_max_err (Chebyshev
    speeds against lambda a(x), b(y)/lambda), asymptotic_max (second-form
    diagonal), sine_gordon_max (phi_xy - a b sin phi), tangent_cross_max
    (finite-difference f_x against the frame formula), all_degenerate.
    """
    f = sgrid.points
    nx, ny = f.shape[:2]
    if nx < GEOMETRY_MIN_NODES or ny < GEOMETRY_MIN_NODES:
        raise ValueError(f"geometry report needs >= {GEOMETRY_MIN_NODES} nodes per axis")
    hx = _uniform_spacing(sgrid.x)
    hy = _uniform_spacing(sgrid.y)
    lam = sgrid.lam

    fx = (f[2:, 1:-1] - f[:-2, 1:-1]) / (2 * hx)
    fy = (f[1:-1, 2:] - f[1:-1, :-2]) / (2 * hy)
    fxx = (f[2:, 1:-1] - 2 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / hx ** 2
    fyy = (f[1:-1, 2:] - 2 * f[1:-1, 1:-1] + f[1:-1, :-2]) / hy ** 2
    fxy = (f[2:, 2:] - f[2:, :-2] - f[:-2, 2:] + f[:-2, :-2]) / (4 * hx * hy)
    n = sgrid.normals[1:-1, 1:-1]

    e = np.sum(fx * fx, axis=-1)
    ff = np.sum(fx * fy, axis=-1)
    g = np.sum(fy * fy, axis=-1)
    ll = np.sum(fxx * n, axis=-1)
    mm = np.sum(fxy * n, axis=-1)
    nn = np.sum(fyy * n, axis=-1)

    interior_ok = ~sgrid.degenerate[1:-1, 1:-1]
    denom = e * g - ff ** 2
    report = {}
    report["all_degenerate"] = bool(np.all(sgrid.degenerate))
    report["degenerate_count"] = int(np.sum(sgrid.degenerate))
    if np.any(interior_ok):
        k = np.where(interior_ok, (ll * nn - mm ** 2) / np.where(interior_ok, denom, 1.0), np.nan)
        report["curvature_max_abs_err"] = float(np.nanmax(np.abs(k + 1.0)))
        a_i = sgrid.a_vals[1:-1][:, None]
        b_j = sgrid.b_vals[None, 1:-1]
        report["speed_x_max_err"] = float(np.nanmax(np.where(
            interior_ok, np.abs(np.sqrt(e) - lam * a_i), np.nan)))
        report["speed_y_max_err"] = float(np.nanmax(np.where(
            interior_ok, np.abs(np.sqrt(g) - b_j / lam), np.nan)))
        report["asymptotic_max"] = float(np.nanmax(np.where(
            interior_ok, np.maximum(np.abs(ll), np.abs(nn)), np.nan)))
    else:
        report["curvature_max_abs_err"] = float("nan")
        report["speed_x_max_err"] = float("nan")
        report["speed_y_max_err"] = float("nan")
        report["asymptotic_max"] = float("nan")

    phi = sgrid.phi
    phi_xy = (phi[2:, 2:] - phi[2:, :-2] - phi[:-2, 2:] + phi[:-2, :-2]) / (4 * hx * hy)
    sg = phi_xy - sgrid.a_vals[1:-1][:, None] * sgrid.b_vals[None, 1:-1] \
        * np.sin(phi[1:-1, 1:-1])
    report["sine_gordon_max"] = float(np.max(np.abs(sg)))

    if fgrid is not None:
        err = 0.0
        for i in range(1, nx - 1):
            for j in range(1, ny - 1):
                if sgrid.degenerate[i, j]:
                    continue
                ev = fgrid.U[i][j].evaluate(lam)
                e1 = su2_to_r3(ev @ SU2_I @ np.conj(ev.T), tol=1e-5)
                err = max(err, float(np.max(np.abs(
                    fx[i - 1, j - 1] - lam * sgrid.a_vals[i] * e1))))
        report["tangent_cross_max"] = err
    return report


def darboux_frame(fgrid, lam0=1.0):
    """Principal-direction frames (columns e1, e2, n), NaN at degenerate nodes."""
    nx, ny = fgrid.x.size, fgrid.y.size
    out = np.full((nx, ny, 3, 3), np.nan)
    for i in range(nx):
        for j in range(ny):
            if abs(np.sin(fgrid.phi[i, j])) < EPS_DEGENERATE:
                continue
            f3 = adjoint_rotation(fgrid.U[i][j].evaluate(lam0), tol=1e-5)
            th = 0.5 * fgrid.phi[i, j]
            c, s = np.cos(th), np.sin(th)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            out[i, j] = f3 @ rot
    return out


def find_cone_point(sgrid):
    """Locate the image point of a sin(phi) = 0 curve crossed by the grid lines.

    Crossings of sin(phi) along grid edges are collected, grouped by the
    multiple of pi the angle passes through, and the group covering the most
    coordinate lines with the smallest image spread wins.  Returns a dict
    with the measured point, its spread, the phi level, and the fraction of
    coordinate lines that cross the curve.
    """
    s = np.sin(sgrid.phi)
    f = sgrid.points
    nx, ny = s.shape
    groups = {}
    for i in range(nx - 1):
        for j in range(ny):
            if s[i, j] * s[i + 1, j] < 0:
                w = s[i, j] / (s[i, j] - s[i + 1, j])
                phi_c = (1 - w) * sgrid.phi[i, j] + w * sgrid.phi[i + 1, j]
                pt = (1 - w) * f[i, j] + w * f[i + 1, j]
                groups.setdefault(int(np.round(phi_c / np.pi)), []).append(
                    (pt, ("row", j), ("colspan", i)))
    for i in range(nx):
        for j in range(ny - 1):
            if s[i, j] * s[i, j + 1] < 0:
                w = s[i, j] / (s[i, j] - s[i, j + 1])
                phi_c = (1 - w) * sgrid.phi[i, j] + w * sgrid.phi[i, j + 1]
                pt = (1 - w) * f[i, j] + w * f[i, j + 1]
                groups.setdefault(int(np.round(phi_c / np.pi)), []).append(
                    (pt, ("col", i), ("rowspan", j)))
    if not groups:
        return None
    best = None
    n_lines = nx + ny
    for level, items in groups.items():
        pts = np.array([it[0] for it in items])
        lines = {it[1] for it in items}
        center = pts.mean(axis=0)
        spread = float(np.max(np.linalg.norm(pts - center, axis=1))) if len(pts) > 1 else 0.0
        cover = len(lines) / n_lines
        cand = {"point": center, "spread": spread, "level": level,
                "line_coverage": cover, "crossings": len(items)}
        if best is None or (cover, -spread) > (best["line_coverage"], -best["spread"]):
            best = cand
    return best


def cone_line_check(sgrid, cone_point, factor=10.0):
    """Max over coordinate lines of the min node distance to the cone point.

    The mesh tolerance is factor * (median 3-d edge length); returns
    (max_min_distance, tolerance, passed).
    """
    f = sgrid.points
    ex = np.linalg.norm(np.diff(f, axis=0), axis=-1)
    ey = np.linalg.norm(np.diff(f, axis=1), axis=-1)
    h_mesh = float(np.median(np.concatenate([ex.ravel(), ey.ravel()])))
    d = np.linalg.norm(f - np.asarray(cone_point)[None, None, :], axis=-1)
    worst = max(float(np.max(np.min(d, axis=0))), float(np.max(np.min(d, axis=1))))
    tol = factor * h_mesh
    return worst, tol, bool(worst < tol)


# -- exports ------------------------------------------------------------------

def write_obj(sgrid, path, drop_degenerate_faces=True):
    """ASCII OBJ with vertices, normals and quad faces over the lattice."""
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


def write_csv(sgrid, path):
    """RFC-4180 CSV: x,y,fx,fy,fz,phi,degenerate."""
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
