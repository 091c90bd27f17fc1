"""Full-grid frame reconstruction, the Sym immersion, and geometry checks.

The extended frame at a node comes from one Birkhoff splitting of
(G_y)^-1 G_x T_x; the angle is read off the lambda^0 block of the plus
factor and the immersion from the exact log-lambda derivative.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np

from psurf import potentials as pots
from psurf.birkhoff import DEFAULT_TRUNC, MAX_TRUNC, FactorizationFailure, split_plus_minusfree
from psurf.frames import IntegrationDrift, integrate_axis
from psurf.loops import (PROBE_LAMBDAS, SU2_I, SU2_K, LaurentLoop, _dagger, _raise_at_worst,
                         _rows, band_mask, band_slice, degree_sum, evaluate, su2_to_r3,
                         toeplitz_products)

EPS_DEGENERATE = 1e-6
# relative trim of the axis frames and the per-node loops of reconstruct_frames;
# FrameGrid.loop recovers a node's band from the zero-padded tensor only with
# the same trim
FRAME_TRIM_REL = 1e-15
# SU(2) tolerance of frame values read off a FrameGrid (normals and tangents)
FRAME_SU2_TOL = 1e-5
# central differences of the geometry report need this many nodes per axis
GEOMETRY_MIN_NODES = 16


@dataclass(frozen=True)
class FrameGrid:
    """Extended frames U(x_i, y_j) with the extracted angle data.

    coeffs[i, j, k - d_min] is the lambda^k coefficient of U(x_i, y_j); the
    degree axis covers the union of the per-node bands, zero-padded.  pair,
    the anchor (base_x, base_y) and trunc, step, init_x, drift_samples (as
    passed to reconstruct_frames, with step=None resolved to the step used)
    are the recipe frames_at reuses, and checkpoints the (x, y) march states
    (frames.AxisFramePath each) it continues the axis frames from.
    """

    x: np.ndarray
    y: np.ndarray
    coeffs: np.ndarray            # (nx, ny, K, 2, 2) complex
    d_min: int
    phi: np.ndarray
    a_vals: np.ndarray
    b_vals: np.ndarray
    base_x: float = 0.0
    base_y: float = 0.0
    pair: object = None
    max_split_residual: float = 0.0
    max_tail: float = 0.0
    a_fn: object = None
    b_fn: object = None
    trunc: int = DEFAULT_TRUNC
    step: object = None
    init_x: object = None
    drift_samples: tuple = PROBE_LAMBDAS
    checkpoints: tuple = None

    def evaluate(self, lam):
        """U(x_i, y_j)(lam) at every node, shape (nx, ny, 2, 2)."""
        return evaluate(self.coeffs, self.d_min, lam)

    def loop(self, i, j):
        """The frame at node (i, j) as a LaurentLoop on its own band."""
        return LaurentLoop(self.coeffs[i, j], self.d_min).trim(rel=FRAME_TRIM_REL)


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


def _tx_matrices(alpha):
    """(n, 2, 2) stack of diag(e^{-i alpha/2}, e^{i alpha/2}) at the angles alpha."""
    alpha = np.asarray(alpha, dtype=float)
    tx = np.zeros(alpha.shape + (2, 2), dtype=complex)
    tx[:, 0, 0], tx[:, 1, 1] = np.exp(-0.5j * alpha), np.exp(0.5j * alpha)
    return tx


def _unwrap_grid(raw, ic, jc):
    """2-d unwrap anchored at column ic: continuous along the anchor column,
    then along every row, with 2 pi jumps only."""
    two_pi = 2.0 * np.pi
    col = np.unwrap(raw[ic, :])
    col -= two_pi * np.round((col[jc] - raw[ic, jc]) / two_pi)
    rows = np.unwrap(raw, axis=0)
    return rows + two_pi * np.round((col - rows[ic]) / two_pi)


def _trimmed(path):
    """An axis path's recorded frames on the degrees where some frame exceeds
    FRAME_TRIM_REL times its own largest coefficient, as (coeffs, d_min)."""
    keep = np.flatnonzero(band_mask(path.coeffs, FRAME_TRIM_REL).any(axis=0))
    # no degree kept means non-finite frames, which the splitter names
    first, last = (int(keep[0]), int(keep[-1])) if keep.size else (0, path.coeffs.shape[1] - 1)
    return path.coeffs[:, first:last + 1], path.d_min + first


def reconstruct_frames(pair, x, y, trunc=DEFAULT_TRUNC, step=None, init_x=None, basepoint=None,
                       drift_samples=PROBE_LAMBDAS, checkpoints=None):
    """Extended frame grid for a potential pair.

    For normalized pairs the frames are anchored at the origin and the
    boundary angles are used exactly; for generalized pairs the speeds and
    phases are extracted from the top lambda coefficients and the anchor
    defaults to the lower-left node (frames_at evaluates the same global
    frame on another sample window).  step=None resolves to the largest axis
    span, the distance to the anchor included, over 256, and the grid records
    that number.  checkpoints, the (x, y) checkpoints of a grid built from
    the same pair and recipe, continue each axis frame from the nearest
    recorded march state instead of marching from the anchor.  Every node is
    split from trunc with split_plus_minusfree's own residual and tail tests,
    so all grids of one pipeline share one accuracy rule.
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

    if step is None:             # one step for both axes, recorded for frames_at
        step = max(max(v[-1] - v[0], abs(v[0] - b), abs(v[-1] - b), 1e-12)
                   for v, b in ((x, bx), (y, by))) / 256.0

    paths = []
    marks_x, marks_y = checkpoints or (None, None)
    for axis, coeffs, ts, init, t0, marks in (("x", pair.coeffs_x, x, init_x, bx, marks_x),
                                              ("y", pair.coeffs_y, y, None, by, marks_y)):
        if marks is None:
            probe, d_eta = coeffs(np.r_[t0, ts])    # eta's band over the anchor and the samples
            band = (min(0, trunc * d_eta), max(0, trunc * (d_eta + probe.shape[1] - 1)))
        else:                                       # the band the checkpoints were marched on
            band = (marks.d_min, marks.d_min + marks.coeffs.shape[1] - 1)
        try:
            paths.append(integrate_axis(coeffs, ts, init=init, step=step, band=band, t0=t0,
                                        drift_samples=drift_samples, checkpoints=marks))
        except IntegrationDrift as exc:
            raise IntegrationDrift(f"{exc} on the {axis} axis", drift=exc.drift,
                                   t=exc.t) from exc
    path_x, path_y = paths
    (gx, x_min), (gy, y_min) = _trimmed(path_x), _trimmed(path_y)

    tx = _tx_matrices(alpha_fn(x))
    w = (_rows(gx) @ tx).reshape(gx.shape)
    d = _dagger(gy)

    # U = w_i * minus has degrees >= x_min - MAX_TRUNC, but the nodes reach far
    # fewer.  A degree-major buffer on an anonymous mapping never backs the degrees
    # no node writes with memory; the grid keeps a view on the ones written.
    lo = x_min - MAX_TRUNC
    shape = (gx.shape[1] + MAX_TRUNC, x.size, y.size, 2, 2)
    buf = np.frombuffer(mmap.mmap(-1, 16 * int(np.prod(shape))), dtype=complex).reshape(shape)
    used_lo, used_hi = shape[0] - 1, 0
    raw_psi = np.empty((x.size, y.size))
    max_resid = 0.0
    max_tail = max(path_x.tail_norm, path_y.tail_norm)
    for i in range(x.size):
        g_row = toeplitz_products(d, w[i])              # G_y(y_j)^-1 w_i for every j
        g_keep = band_mask(g_row, FRAME_TRIM_REL)
        minus = []
        for j in range(y.size):
            keep = np.flatnonzero(g_keep[j])
            # an empty mask means a non-finite g, which the splitter names
            first, last = (int(keep[0]), int(keep[-1])) if keep.size else (0, g_row.shape[1] - 1)
            g = LaurentLoop(g_row[j, first:last + 1], y_min + x_min + first)
            try:
                sp = split_plus_minusfree(g, trunc=trunc)
            except FactorizationFailure as exc:
                raise FactorizationFailure(
                    f"splitting failed at node ({i},{j}), (x,y)=({x[i]:.6g},{y[j]:.6g}): {exc}",
                    residual=exc.residual, tail_norm=exc.tail_norm) from exc
            minus.append(sp.minus)
            raw_psi[i, j] = np.angle(sp.plus.coeff(0)[0, 0])
            max_resid = max(max_resid, sp.residual)
            max_tail = max(max_tail, sp.tail_norm)
        # U = w_i minus_j for every j, with the minus factors on the union of their bands
        m_lo, m_hi = min(m.d_min for m in minus), max(m.d_max for m in minus)
        u = toeplitz_products(np.stack([band_slice(m.coeffs, m.d_min, m_lo, m_hi)
                                        for m in minus]), w[i], left=True)
        u_keep = band_mask(u, FRAME_TRIM_REL)
        u[~u_keep] = 0.0
        first, last = np.flatnonzero(u_keep.any(axis=0))[[0, -1]].tolist()
        row = x_min + m_lo - lo                         # buffer row of u's lowest degree
        buf[row + first: row + last + 1, i] = np.swapaxes(u[:, first:last + 1], 0, 1)
        used_lo, used_hi = min(used_lo, row + first), max(used_hi, row + last)
    coeffs = buf[used_lo: used_hi + 1].transpose(1, 2, 0, 3, 4)

    ic = int(np.argmin(np.abs(x - bx)))
    jc = int(np.argmin(np.abs(y - by)))
    psi = _unwrap_grid(raw_psi, ic, jc)
    phi = np.asarray(beta_fn(y), dtype=float)[None, :] - 2.0 * psi
    a_vals = np.asarray(a_fn(x), dtype=float)
    b_vals = np.asarray(b_fn(y), dtype=float)
    return FrameGrid(x=x, y=y, coeffs=coeffs, d_min=lo + used_lo, phi=phi,
                     a_vals=a_vals, b_vals=b_vals,
                     base_x=float(bx), base_y=float(by), pair=pair,
                     max_split_residual=max_resid, max_tail=max_tail,
                     a_fn=a_fn, b_fn=b_fn, trunc=trunc, step=step, init_x=init_x,
                     drift_samples=drift_samples,
                     checkpoints=(path_x.checkpoints, path_y.checkpoints))


def frames_at(fgrid, x, y):
    """The global frame of fgrid on the samples x by y: reconstruct_frames
    with the recipe fgrid was built with, its anchor, and its checkpoints, so
    each axis frame is continued from the nearest march state fgrid recorded
    (at most frames.MAP_CHUNK / 2 steps inside the marched span)."""
    return reconstruct_frames(fgrid.pair, x, y, trunc=fgrid.trunc, step=fgrid.step,
                              init_x=fgrid.init_x, basepoint=(fgrid.base_x, fgrid.base_y),
                              drift_samples=fgrid.drift_samples, checkpoints=fgrid.checkpoints)


def sym_immersion(fgrid, lam0):
    """Immersion and unit normals at one associated-family parameter.

    f = (dU/dlog lambda) U^-1 with the exact coefficient-weighted
    derivative; normals are the rotated vertical axis vector.  Raises
    ValueError at the first node whose point or normal is not finite.
    """
    if not (np.isfinite(lam0) and lam0 > 0):
        raise ValueError(f"lambda must be a positive finite real, got {lam0}")
    ev = fgrid.evaluate(lam0)
    ev_inv = np.linalg.inv(ev)
    ks = np.arange(fgrid.d_min, fgrid.d_min + fgrid.coeffs.shape[2])
    f = degree_sum(fgrid.coeffs, ks * complex(lam0) ** ks) @ ev_inv
    f = 0.5 * (f - _dagger(f))
    f -= 0.5 * np.trace(f, axis1=-2, axis2=-1)[..., None, None] * np.eye(2)
    pts = su2_to_r3(f)
    nrm = su2_to_r3(ev @ SU2_K @ ev_inv, tol=FRAME_SU2_TOL)
    bad = ~(np.isfinite(pts).all(axis=-1) & np.isfinite(nrm).all(axis=-1))
    _raise_at_worst(bad, lambda w: f"Sym immersion at lambda = {lam0:g} is not finite at "
                                   f"{int(bad.sum())} of {bad.size} nodes, the first")
    degenerate = np.abs(np.sin(fgrid.phi)) < EPS_DEGENERATE
    return SurfaceGrid(x=fgrid.x, y=fgrid.y, points=pts, normals=nrm,
                       phi=fgrid.phi.copy(), degenerate=degenerate, lam=float(lam0))


def geometry_grid_problem(x, y):
    """Why the geometry report cannot run on the grid x by y, or None."""
    if min(x.size, y.size) < GEOMETRY_MIN_NODES:
        return (f"needs a grid of at least {GEOMETRY_MIN_NODES} nodes per axis, "
                f"got {x.size} x {y.size}")
    if not (pots.is_uniform(x) and pots.is_uniform(y)):
        return "needs a uniformly spaced grid"
    return None


def geometry_report(sgrid, fgrid):
    """Discrete-geometry residuals of sgrid, the immersion of fgrid at one
    lambda, on interior non-degenerate nodes.

    Keys: curvature_max_abs_err (|K+1|), speed_x/y_max_err (Chebyshev
    speeds against lambda a(x), b(y)/lambda), asymptotic_max (second-form
    diagonal), sine_gordon_max (phi_xy - a b sin phi), tangent_cross_max
    (finite-difference f_x against the frame formula), all_degenerate.
    """
    problem = geometry_grid_problem(sgrid.x, sgrid.y)
    if problem is not None:
        raise ValueError(f"geometry report {problem}")
    hx = float(sgrid.x[1] - sgrid.x[0])
    hy = float(sgrid.y[1] - sgrid.y[0])
    lam = sgrid.lam
    f = sgrid.points
    a_i, b_j = fgrid.a_vals[1:-1][:, None], fgrid.b_vals[None, 1:-1]

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
    sg = phi_xy - a_i * b_j * np.sin(phi[1:-1, 1:-1])
    report["sine_gordon_max"] = float(np.max(np.abs(sg)))

    ev = fgrid.evaluate(lam)[1:-1, 1:-1][interior_ok]
    e1 = su2_to_r3(ev @ SU2_I @ _dagger(ev), tol=FRAME_SU2_TOL)
    speed = lam * np.broadcast_to(a_i, interior_ok.shape)[interior_ok]
    report["tangent_cross_max"] = float(np.max(np.abs(
        fx[interior_ok] - speed[:, None] * e1), initial=0.0))
    return report


def _edge_crossings(phi, points, di, dj):
    """Sign changes of sin(phi) on the grid edges from node (i, j) to node
    (i + di, j + dj), in row-major order of (i, j): the multiples of pi
    crossed, the linearly interpolated image points, and i, j."""
    s = np.sin(phi)
    nx, ny = s.shape
    i, j = np.nonzero(s[:nx - di, :ny - dj] * s[di:, dj:] < 0)
    a, b = (i, j), (i + di, j + dj)
    w = s[a] / (s[a] - s[b])
    phi_c = (1 - w) * phi[a] + w * phi[b]
    pts = (1 - w)[:, None] * points[a] + w[:, None] * points[b]
    return np.round(phi_c / np.pi).astype(int), pts, i, j


def find_cone_point(sgrid):
    """Locate the image point of a sin(phi) = 0 curve crossed by the grid lines.

    Crossings of sin(phi) along grid edges are collected, grouped by the
    multiple of pi the angle passes through, and the group covering the most
    coordinate lines with the smallest image spread wins (the first group
    to appear on a tie).  Returns a dict with the measured point, its
    spread, the phi level, and the fraction of coordinate lines that cross
    the curve.
    """
    nx, ny = sgrid.phi.shape
    along_x = _edge_crossings(sgrid.phi, sgrid.points, 1, 0)
    along_y = _edge_crossings(sgrid.phi, sgrid.points, 0, 1)
    levels = np.concatenate([along_x[0], along_y[0]])
    if not levels.size:
        return None
    pts = np.concatenate([along_x[1], along_y[1]])
    # an edge along x lies on the line y_j (ids 0..ny-1), one along y on x_i (ids ny..)
    lines = np.concatenate([along_x[3], ny + along_y[2]])
    _, first = np.unique(levels, return_index=True)
    best = None
    for level in levels[np.sort(first)]:
        sel = levels == level
        group = pts[sel]
        center = group.mean(axis=0)
        spread = float(np.max(np.linalg.norm(group - center, axis=1))) if len(group) > 1 else 0.0
        cover = np.unique(lines[sel]).size / (nx + ny)
        if best is None or (cover, -spread) > (best["line_coverage"], -best["spread"]):
            best = {"point": center, "spread": spread, "level": int(level),
                    "line_coverage": cover, "crossings": int(np.count_nonzero(sel))}
    return best


def cone_line_check(sgrid, cone_point):
    """Max over coordinate lines of the min node distance to the cone point.

    The mesh tolerance is 10 * (median 3-d edge length); returns
    (max_min_distance, tolerance, passed).
    """
    f = sgrid.points
    ex = np.linalg.norm(np.diff(f, axis=0), axis=-1)
    ey = np.linalg.norm(np.diff(f, axis=1), axis=-1)
    h_mesh = float(np.median(np.concatenate([ex.ravel(), ey.ravel()])))
    d = np.linalg.norm(f - np.asarray(cone_point)[None, None, :], axis=-1)
    worst = max(float(np.max(np.min(d, axis=0))), float(np.max(np.min(d, axis=1))))
    tol = 10.0 * h_mesh
    return worst, tol, bool(worst < tol)


# -- exports ------------------------------------------------------------------

def _quad_corners(a):
    """Entries of the (nx, ny) array a at the corners (i, j), (i+1, j), (i+1, j+1),
    (i, j+1) of every lattice quad, in row-major quad order: ((nx-1)(ny-1), 4)."""
    return np.stack([a[:-1, :-1], a[1:, :-1], a[1:, 1:], a[:-1, 1:]], axis=2).reshape(-1, 4)


def _write_rows(fh, line, rows):
    """Each row of the 2-d array rows as one line (a format with its line end),
    formatted with a single % on the whole block."""
    fh.write((line * rows.shape[0]) % tuple(rows.ravel().tolist()))


def write_obj(sgrid, path, drop_degenerate_faces=True):
    """ASCII OBJ with vertices, normals and quad faces over the lattice."""
    nx, ny = sgrid.points.shape[:2]
    faces = _quad_corners(np.arange(1, nx * ny + 1).reshape(nx, ny))
    if drop_degenerate_faces:
        faces = faces[~_quad_corners(sgrid.degenerate).any(axis=1)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# psurf surface lambda=%.17g\n" % sgrid.lam)
        _write_rows(fh, "v %.17g %.17g %.17g\n", sgrid.points.reshape(-1, 3))
        _write_rows(fh, "vn %.17g %.17g %.17g\n", sgrid.normals.reshape(-1, 3))
        _write_rows(fh, "f" + " %d//%d" * 4 + "\n", np.repeat(faces, 2, axis=1))


def write_csv(sgrid, path):
    """RFC-4180 CSV: x,y,fx,fy,fz,phi,degenerate, with CRLF line ends."""
    xs, ys = np.meshgrid(sgrid.x, sgrid.y, indexing="ij")
    cols = np.column_stack([xs.ravel(), ys.ravel(), sgrid.points.reshape(-1, 3),
                            sgrid.phi.ravel(), sgrid.degenerate.ravel()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("x,y,fx,fy,fz,phi,degenerate\r\n")
        _write_rows(fh, "%.17g," * 6 + "%d\r\n", cols)
