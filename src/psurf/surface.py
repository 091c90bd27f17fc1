"""Full-grid frame reconstruction, the Sym immersion, and geometry checks.

The extended frame at a node comes from one Birkhoff splitting of
(G_y)^-1 G_x T_x; the angle is read off the lambda^0 block of the plus
factor and the immersion from the exact log-lambda derivative.
"""

from __future__ import annotations

import csv
import mmap
from dataclasses import dataclass

import numpy as np

from psurf import potentials as pots
from psurf.birkhoff import MAX_TRUNC, TAIL_TOL, FactorizationFailure, split_plus_minusfree
from psurf.frames import DRIFT_LAMBDAS, integrate_axis
from psurf.loops import (SU2_I, SU2_K, LaurentLoop, _dagger, _raise_at_worst, adjoint_rotation,
                         su2_to_r3)

EPS_DEGENERATE = 1e-6
# central differences of the geometry report need this many nodes per axis
GEOMETRY_MIN_NODES = 16


@dataclass(frozen=True)
class FrameGrid:
    """Extended frames U(x_i, y_j) with the extracted angle data.

    coeffs[i, j, k - d_min] is the lambda^k coefficient of U(x_i, y_j); the
    degree axis covers the union of the per-node bands, zero-padded.
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

    def _degrees(self):
        return np.arange(self.d_min, self.d_min + self.coeffs.shape[2])

    def _weighted_sum(self, weights):
        """sum_k weights[k - d_min] c_k at every node, shape (nx, ny, 2, 2)."""
        return np.einsum("k,ijkab->ijab", weights, self.coeffs)

    def evaluate(self, lam):
        """U(x_i, y_j)(lam) at every node, shape (nx, ny, 2, 2)."""
        if lam == 0 and self.d_min < 0:
            raise ValueError("lambda = 0 not in the domain of a loop with negative degrees")
        return self._weighted_sum(complex(lam) ** self._degrees())

    def loop(self, i, j):
        """The frame at node (i, j) as a LaurentLoop on its own band."""
        return LaurentLoop(self.coeffs[i, j], self.d_min).trim(rel=1e-15)


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
                       basepoint=None, drift_samples=DRIFT_LAMBDAS, split_tail_tol=TAIL_TOL):
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
                            t0=bx, drift_samples=drift_samples)
    path_y = integrate_axis(pair.eta_y, y, init=init_y, step=step, band=band_y,
                            t0=by, drift_samples=drift_samples)

    w_loops = [LaurentLoop(c, path_x.d_min) * _tx_matrix(float(alpha_fn(v)))
               for c, v in zip(path_x.coeffs, x)]
    d_loops = [LaurentLoop(c, path_y.d_min) for c in _dagger(path_y.coeffs)]

    # U = w_i * minus has degrees >= band_x[0] - MAX_TRUNC, but the nodes reach far
    # fewer.  A degree-major buffer on an anonymous mapping never backs the degrees
    # no node writes with memory; the grid keeps a view on the ones written.
    lo = band_x[0] - MAX_TRUNC
    shape = (band_x[1] - lo + 1, x.size, y.size, 2, 2)
    buf = np.frombuffer(mmap.mmap(-1, 16 * int(np.prod(shape))), dtype=complex).reshape(shape)
    used_lo, used_hi = band_x[1], lo
    raw_psi = np.empty((x.size, y.size))
    max_resid = 0.0
    max_tail = max(path_x.tail_norm, path_y.tail_norm)
    for i in range(x.size):
        for j in range(y.size):
            g = (d_loops[j] * w_loops[i]).trim(rel=1e-15)
            try:
                sp = split_plus_minusfree(g, trunc=trunc, tail_tol=split_tail_tol)
            except FactorizationFailure as exc:
                raise FactorizationFailure(
                    f"splitting failed at node ({i},{j}), (x,y)=({x[i]:.6g},{y[j]:.6g}): {exc}",
                    residual=exc.residual, tail_norm=exc.tail_norm) from exc
            u = (w_loops[i] * sp.minus).trim(rel=1e-15)
            buf[u.d_min - lo: u.d_max - lo + 1, i, j] = u.coeffs
            used_lo, used_hi = min(used_lo, u.d_min), max(used_hi, u.d_max)
            raw_psi[i, j] = np.angle(sp.plus.coeff(0)[0, 0])
            max_resid = max(max_resid, sp.residual)
            max_tail = max(max_tail, sp.tail_norm)
    coeffs = buf[used_lo - lo: used_hi - lo + 1].transpose(1, 2, 0, 3, 4)

    ic = int(np.argmin(np.abs(x - bx)))
    jc = int(np.argmin(np.abs(y - by)))
    psi = _unwrap_grid(raw_psi, ic, jc)
    beta_vals = np.array([float(beta_fn(v)) for v in y])
    phi = beta_vals[None, :] - 2.0 * psi
    a_vals = np.asarray(a_fn(x), dtype=float)
    b_vals = np.asarray(b_fn(y), dtype=float)
    return FrameGrid(x=x, y=y, coeffs=coeffs, d_min=used_lo, phi=phi,
                     a_vals=a_vals, b_vals=b_vals,
                     base_x=float(bx), base_y=float(by), pair=pair,
                     max_split_residual=max_resid, max_tail=max_tail,
                     a_fn=a_fn, b_fn=b_fn)


def sym_immersion(fgrid, lam0):
    """Immersion and unit normals at one associated-family parameter.

    f = (dU/dlog lambda) U^-1 with the exact coefficient-weighted
    derivative; normals are the rotated vertical axis vector.  Raises
    ValueError at the first node whose point or normal is not finite.
    """
    if not (np.isfinite(lam0) and lam0 > 0):
        raise ValueError(f"lambda must be a positive finite real, got {lam0}")
    ks = fgrid._degrees()
    powers = complex(lam0) ** ks
    ev = fgrid._weighted_sum(powers)
    ev_inv = np.linalg.inv(ev)
    f = fgrid._weighted_sum(ks * powers) @ ev_inv
    f = 0.5 * (f - _dagger(f))
    f -= 0.5 * np.trace(f, axis1=-2, axis2=-1)[..., None, None] * np.eye(2)
    pts = su2_to_r3(f)
    nrm = su2_to_r3(ev @ SU2_K @ ev_inv, tol=1e-5)
    bad = ~(np.isfinite(pts).all(axis=-1) & np.isfinite(nrm).all(axis=-1))
    _raise_at_worst(bad, lambda w: f"Sym immersion at lambda = {lam0:g} is not finite at "
                                   f"{int(bad.sum())} of {bad.size} nodes, the first")
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


def geometry_grid_problem(x, y):
    """Why the geometry report cannot run on the grid x by y, or None."""
    if min(x.size, y.size) < GEOMETRY_MIN_NODES:
        return (f"needs a grid of at least {GEOMETRY_MIN_NODES} nodes per axis, "
                f"got {x.size} x {y.size}")
    for t in (x, y):
        h = np.diff(t)
        if np.max(np.abs(h - h[0])) > 1e-9 * abs(h[0]):
            return "needs a uniformly spaced grid"
    return None


def geometry_report(sgrid, fgrid=None):
    """Discrete-geometry residuals on interior non-degenerate nodes.

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
        ev = fgrid.evaluate(lam)[1:-1, 1:-1][interior_ok]
        e1 = su2_to_r3(ev @ SU2_I @ _dagger(ev), tol=1e-5)
        speed = lam * np.broadcast_to(sgrid.a_vals[1:-1, None], interior_ok.shape)[interior_ok]
        report["tangent_cross_max"] = float(np.max(np.abs(
            fx[interior_ok] - speed[:, None] * e1), initial=0.0))
    return report


def darboux_frame(fgrid, lam0=1.0):
    """Principal-direction frames (columns e1, e2, n), NaN at degenerate nodes."""
    ok = ~(np.abs(np.sin(fgrid.phi)) < EPS_DEGENERATE)
    f3 = adjoint_rotation(fgrid.evaluate(lam0)[ok], tol=1e-5)
    th = 0.5 * fgrid.phi[ok]
    rot = np.zeros((th.size, 3, 3))
    rot[:, 0, 0] = rot[:, 1, 1] = np.cos(th)
    rot[:, 1, 0] = np.sin(th)
    rot[:, 0, 1] = -rot[:, 1, 0]
    rot[:, 2, 2] = 1.0
    out = np.full(fgrid.phi.shape + (3, 3), np.nan)
    out[ok] = f3 @ rot
    return out


def _edge_crossings(phi, points, di, dj):
    """Sign changes of sin(phi) on the grid edges from node (i, j) to node
    (i + di, j + dj), in row-major order of (i, j): (multiple of pi crossed,
    linearly interpolated image point, i, j)."""
    s = np.sin(phi)
    nx, ny = s.shape
    for i in range(nx - di):
        for j in range(ny - dj):
            a, b = (i, j), (i + di, j + dj)
            if s[a] * s[b] < 0:
                w = s[a] / (s[a] - s[b])
                phi_c = (1 - w) * phi[a] + w * phi[b]
                pt = (1 - w) * points[a] + w * points[b]
                yield int(np.round(phi_c / np.pi)), pt, i, j


def find_cone_point(sgrid):
    """Locate the image point of a sin(phi) = 0 curve crossed by the grid lines.

    Crossings of sin(phi) along grid edges are collected, grouped by the
    multiple of pi the angle passes through, and the group covering the most
    coordinate lines with the smallest image spread wins.  Returns a dict
    with the measured point, its spread, the phi level, and the fraction of
    coordinate lines that cross the curve.
    """
    nx, ny = sgrid.phi.shape
    groups = {}
    for (di, dj), line, span in (((1, 0), "row", "colspan"), ((0, 1), "col", "rowspan")):
        for level, pt, i, j in _edge_crossings(sgrid.phi, sgrid.points, di, dj):
            fixed, moving = (j, i) if di else (i, j)
            groups.setdefault(level, []).append((pt, (line, fixed), (span, moving)))
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
