"""Surface symmetries: the domain map / rigid motion relation, the frame
correction K(x,y), the monodromy loop, and end-to-end certification.

The guiding relation is U(gamma) = chi(lambda) U K_lift, with U read at 1/lambda
when gamma exchanges the asymptotic families; K comes pointwise from tangent
data and chi is the node-averaged conjugation defect.  U o gamma is always the
frame pipeline run at the exact images (surface.frames_at, which continues the
axis frames from the grid's march checkpoints), never interpolated.
"""

from __future__ import annotations

import numpy as np

from psurf.loops import (CIRCLE_LAMBDAS, SU2_I, SU2_J, SU2_K, LaurentLoop, _dagger, _frob, _rows,
                         adjoint_rotation, band_mask, cauchy_product, evaluate, su2_to_r3)
from psurf.potentials import SymmetryDescriptor, check_equivariance  # noqa: F401 (re-export)
from psurf.surface import EPS_DEGENERATE, frames_at, sym_immersion

CERT_EQUIVARIANCE_TOL = 1e-6
CERT_MONODROMY_TOL = 1e-4
CERT_SURFACE_TOL = 1e-3
# covered-window nodes per axis at which the monodromy re-runs the pipeline
MONODROMY_NODES = 10


def su2_lift(rot3, nodes=None):
    """One SU(2) preimage of a proper rotation, or of each rotation in a
    (..., 3, 3) stack, under the adjoint double cover.

    A matrix whose orthogonality defect ||R^T R - I|| or det error |det R - 1|
    exceeds CERT_MONODROMY_TOL raises ValueError at the worst one, named by
    its row of `nodes` (the grid node of each matrix of a flat stack) when
    given, else by its stack index.
    """
    rot3 = np.asarray(rot3, dtype=float)
    defect = np.linalg.norm(np.swapaxes(rot3, -1, -2) @ rot3 - np.eye(3), axis=(-2, -1))
    det = np.linalg.det(rot3)
    excess = np.maximum(defect, np.abs(det - 1.0))
    if np.any(excess > CERT_MONODROMY_TOL):
        w = np.unravel_index(np.argmax(excess), excess.shape)
        at = tuple(int(v) for v in (w if nodes is None else nodes[w]))
        raise ValueError(f"monodromy: K is not a rotation at node {at} "
                         f"(orthogonality defect {defect[w]:.3g}, det {det[w]:.3g})")
    # Shepperd: 4 q q^T, q = (x, y, z, w) the unit quaternion, is the symmetric
    # matrix qq; its row of largest diagonal, normalised, is q up to sign
    tr = np.trace(rot3, axis1=-2, axis2=-1)[..., None, None]
    qq = np.empty(rot3.shape[:-2] + (4, 4))
    qq[..., :3, :3] = rot3 + np.swapaxes(rot3, -1, -2) + (1.0 - tr) * np.eye(3)
    qq[..., :3, 3] = qq[..., 3, :3] = (rot3 - np.swapaxes(rot3, -1, -2))[..., [2, 0, 1], [1, 2, 0]]
    qq[..., 3, 3] = 1.0 + tr[..., 0, 0]
    largest = np.argmax(np.diagonal(qq, axis1=-2, axis2=-1), axis=-1)[..., None, None]
    q = np.take_along_axis(qq, largest, axis=-2)[..., 0, :]
    x, y, z, w = np.moveaxis(q / np.linalg.norm(q, axis=-1, keepdims=True), -1, 0)[..., None, None]
    return w * np.eye(2, dtype=complex) + 2.0 * (x * SU2_I + y * SU2_J + z * SU2_K)


def _lerp_weights(nodes, at):
    """(at.size, nodes.size) weights of linear interpolation on the increasing
    nodes at the points `at`, with NaN rows for points outside the nodes."""
    return np.array([np.interp(at, nodes, e, left=np.nan, right=np.nan)
                     for e in np.eye(nodes.size)]).T


def _bracketing_nodes(nodes, at):
    """Indices of the increasing nodes that bracket the points `at`: both
    corners of each cell that holds a point, and none for a point outside
    the nodes.  The corners of a cell stay consecutive among the kept nodes,
    so _lerp_weights on nodes[kept] weighs each inside point exactly as on
    all of the nodes."""
    inside = at[(nodes[0] <= at) & (at <= nodes[-1])]
    # a point on the last node belongs to the last cell
    upper = np.minimum(np.searchsorted(nodes, inside, side="right"), nodes.size - 1)
    return np.unique(np.concatenate([upper - 1, upper]))


def check_surface_symmetry(sgrid, d, r, t, sample_mask=None, target=None):
    """Max of ||f(gamma(x,y)) - (r f(x,y) + t)|| over covered sample nodes,
    for the rigid motion x -> r x + t.

    f o gamma is bilinearly interpolated on `target` (a finer surface grid
    of the same immersion when supplied, else sgrid itself), one axis at a
    time since the images form a tensor grid; so the residual is
    interpolation-limited.  The target may be a sub-lattice of a finer grid
    when each cell that a sampled image falls in keeps its two corners, which
    are then consecutive in both (see _bracketing_nodes): the weights are
    those of the finer grid.  Nodes whose image leaves the interpolation
    domain are reported through the coverage fraction.
    """
    tgt = target if target is not None else sgrid
    if sample_mask is None:
        sample_mask = np.ones((sgrid.x.size, sgrid.y.size), dtype=bool)
    wx, wy = (_lerp_weights(n, g) for n, g in zip((tgt.x, tgt.y), _image_axes(d, sgrid.x, sgrid.y)))
    images = np.einsum("pi,ijc,qj->pqc", wx, tgt.points, wy, optimize=True)
    vals = _image_nodes(images, d.switches_axes)[sample_mask]
    moved = (r @ sgrid.points[sample_mask][..., None])[..., 0] + t
    covered = ~np.any(np.isnan(vals), axis=-1)
    residual = float(np.max(np.abs(vals[covered] - moved[covered]), initial=0.0))
    return residual, (float(np.mean(covered)) if covered.size else 0.0)


def _z_matrix(a, b, phi):
    """Tangent coordinates Z at each node, at lambda = 1: [[a, b cos(phi)], [0, b sin(phi)]]."""
    z = np.zeros(np.shape(phi) + (2, 2))
    z[..., 0, 0] = a
    z[..., 0, 1] = b * np.cos(phi)
    z[..., 1, 1] = b * np.sin(phi)
    return z


def compute_K(fgrid, d, image_fgrid, idx_x, idx_y):
    """K(x,y) = blockdiag(B, epsilon), B = Z J^-1 (Z o gamma)^-1, on the sample nodes.

    Z holds the tangent coordinates [f_x, f_y] = F [Z; 0], J is the Jacobian
    of gamma, and epsilon = sign(det B) (-1)^switches_axes, since a motion is
    improper iff it exchanges the asymptotic families (Beltrami-Enneper).
    image_fgrid supplies the exact angle at the gamma-images; idx_x/idx_y
    select the sampled original nodes (image node (p, q) is the image of
    (idx_x[p], idx_y[q]), with p, q swapped when gamma switches the axes).
    Nodes where sin(phi) or its image is below EPS_DEGENERATE are masked out.
    """
    sw = int(d.switches_axes)
    xs, ys = fgrid.x[idx_x], fgrid.y[idx_y]
    # J on the image grid, from gamma1' and gamma2' at the samples gamma1 and gamma2 read
    d1, d2 = _image_axes(d, xs, ys, derivative=True)
    jac = np.zeros((d1.size, d2.size, 2, 2))
    jac[..., 0, sw] = d1[:, None]
    jac[..., 1, 1 - sw] = d2[None, :]
    z_im = _z_matrix(image_fgrid.a_vals[:, None], image_fgrid.b_vals[None, :],
                     image_fgrid.phi)
    jac, z_im, phi_im = (_image_nodes(v, sw) for v in (jac, z_im, image_fgrid.phi))
    phi = fgrid.phi[np.ix_(idx_x, idx_y)]
    z = _z_matrix(fgrid.a_vals[idx_x][:, None], fgrid.b_vals[idx_y][None, :], phi)
    ok = ~(np.abs(np.sin(phi)) < EPS_DEGENERATE) & ~(np.abs(np.sin(phi_im)) < EPS_DEGENERATE)
    ks = np.full(phi.shape + (3, 3), np.nan)
    ks[ok] = 0.0
    ks[ok, :2, :2] = z[ok] @ np.linalg.inv(jac[ok]) @ np.linalg.inv(z_im[ok])
    ks[ok, 2, 2] = np.sign(np.linalg.det(ks[ok, :2, :2])) * (-1.0) ** sw
    return ks, ok


def _image_nodes(values, switches):
    """Per-node image data indexed like the sampled originals: node (p, q)
    belongs to original (idx_x[p], idx_y[q])."""
    return values.swapaxes(0, 1) if switches else values


def _image_axes(d, xs, ys, derivative=False):
    """The image grid's axes over the samples xs by ys: gamma1 and gamma2, or
    with `derivative` their derivatives, at the samples they read, which are
    (ys, xs) when gamma switches the axes."""
    src1, src2 = (ys, xs) if d.switches_axes else (xs, ys)
    f1, f2 = (d.dgamma1, d.dgamma2) if derivative else (d.gamma1, d.gamma2)
    return np.array([f1(t) for t in src1]), np.array([f2(t) for t in src2])


def _image_grid(fgrid, d, idx_x, idx_y):
    """The frames of fgrid at the exact gamma-images of the selected
    parameters: the same global extended frame, evaluated elsewhere."""
    gx, gy = _image_axes(d, fgrid.x[idx_x], fgrid.y[idx_y])
    if np.any(np.diff(gx) <= 0) or np.any(np.diff(gy) <= 0):
        raise ValueError("gamma must be increasing on the sampled window")
    return frames_at(fgrid, gx, gy)


def measure_monodromy(fgrid, d, image_fgrid, idx_x, idx_y, lambdas=CIRCLE_LAMBDAS):
    """Monodromy loop and its node spread at `lambdas`, as (chi_mean, spread).

    chi(node) = (U o gamma) K_lift^-1 U^-1, K_lift a lift of the proper
    (-1)^switches_axes K; a switching gamma reads U at 1/lambda (degrees
    reversed): chi(lambda) = U^lambda(gamma) K_lift^-1 U^(1/lambda)^-1.  Each
    chi takes the sign of the first node's at lambda = 1.
    """
    ks, ok = compute_K(fgrid, d, image_fgrid, idx_x, idx_y)
    if not np.any(ok):
        raise ValueError("no usable (non-degenerate) nodes for the monodromy")
    lifts = su2_lift(-ks[ok] if d.switches_axes else ks[ok],
                     nodes=np.stack(np.meshgrid(idx_x, idx_y, indexing="ij"), -1)[ok])
    u_im = _image_nodes(image_fgrid.coeffs, d.switches_axes)[ok]
    u, u_min = fgrid.coeffs[np.ix_(idx_x, idx_y)][ok], fgrid.d_min
    if d.switches_axes:          # U^(1/lambda): degree k becomes -k
        u, u_min = u[:, ::-1], -(u_min + u.shape[1] - 1)
    # chi = (U o gamma) K_lift^-1 U^-1 at every node, with U^-1 the coefficientwise dagger
    chis = cauchy_product((_rows(u_im) @ _dagger(lifts)).reshape(u_im.shape), _dagger(u))
    d_min = image_fgrid.d_min + u_min
    at_one = evaluate(chis, d_min, 1.0)
    chis[_frob(at_one - at_one[0]) > _frob(at_one + at_one[0])] *= -1.0
    # trim each node's chi like LaurentLoop.trim(rel=1e-13): |lambda| != 1 amplifies its end noise
    chis[~band_mask(chis, 1e-13)] = 0.0
    chi_mean = LaurentLoop(np.mean(chis, axis=0), d_min).trim(rel=1e-12)
    node_vals = evaluate(chis[:, None], d_min, lambdas)
    spread = float(np.max(np.abs(node_vals - chi_mean.evaluate(lambdas))))
    return chi_mean, spread


def _chi_motion(chi, switches_axes):
    """The motion x -> r x + t of the surface at lambda = 1 that chi gives,
    f o gamma = (-1)^switches_axes Ad chi(1) f + Sym(chi)(1): a switch reads
    the original at 1/lambda, which reverses the sign of its Sym derivative."""
    u, _, vh = np.linalg.svd(chi.evaluate(1.0))
    at_one = u @ vh         # the unitary polar factor of chi(1), so that r is orthogonal
    r = (-1.0) ** switches_axes * adjoint_rotation(at_one, tol=1e-4)
    return r, su2_to_r3(chi.log_lambda_derivative().evaluate(1.0) @ _dagger(at_one), tol=1e-4)


def coverage_window(x, y, d):
    """Indices (into x, into y) of the parameters of the grid x by y whose
    gamma-images stay inside it, each axis tested against its own range."""
    gx, gy = _image_axes(d, x, y)
    in_x = np.flatnonzero((x[0] <= gx) & (gx <= x[-1]))
    in_y = np.flatnonzero((y[0] <= gy) & (gy <= y[-1]))
    return (in_y, in_x) if d.switches_axes else (in_x, in_y)


def _surface_target(fgrid, d, idx_x, idx_y, lattice_x, lattice_y):
    """The surface at lambda = 1 on the nodes of the lattice lattice_x by
    lattice_y that bracket the gamma-images of the window idx_x by idx_y,
    or None when no image lies on the lattice."""
    lx, ly = np.asarray(lattice_x, dtype=float), np.asarray(lattice_y, dtype=float)
    gx, gy = _image_axes(d, fgrid.x[idx_x], fgrid.y[idx_y])
    kx, ky = _bracketing_nodes(lx, gx), _bracketing_nodes(ly, gy)
    if not (kx.size and ky.size):
        return None
    return sym_immersion(frames_at(fgrid, lx[kx], ly[ky]), 1.0)


def certify_from_potentials(fgrid, d, interp_x=None, interp_y=None,
                            equivariance_tol=CERT_EQUIVARIANCE_TOL,
                            monodromy_tol=CERT_MONODROMY_TOL,
                            surface_tol=CERT_SURFACE_TOL):
    """Chain equivariance -> monodromy -> surface symmetry on the frame grid
    fgrid of fgrid.pair, with thresholds.

    Returns (report, chi): a flat report dict (stable keys: equivariance_x,
    equivariance_y, monodromy_spread, surface_residual, stage pass flags, and
    the motion chi gives: rigid_rotation and rigid_translation as lists,
    improper for a swap of the asymptotic families, the angle of its rotation
    part rotation_angle_measured_rad, and chi_vs_R, its largest miss on the
    monodromy's exact node pairs) and the measured monodromy loop (None when
    the chain stops at equivariance).  Later stages are skipped when an
    earlier one fails.  The monodromy samples at most MONODROMY_NODES of the
    covered window per axis.  The surface stage interpolates f o gamma on the
    lattice interp_x by interp_y when given, else on fgrid, and passes only
    when every covered-window node's image is inside the interpolation
    domain.  Of the lattice, frames_at builds only the nodes that bracket the
    window's images (the cells the interpolation reads, with consecutive
    corners); their count is surface_target_nodes, 0 without a lattice, and
    with no image on the lattice nothing is built and the coverage is 0.
    """
    report = {}
    idx_x, idx_y = coverage_window(fgrid.x, fgrid.y, d)
    if idx_x.size < 3 or idx_y.size < 3:
        raise ValueError("gamma-covered window is too small on this grid")
    win_x = (fgrid.x[idx_x[0]], fgrid.x[idx_x[-1]])
    win_y = (fgrid.y[idx_y[0]], fgrid.y[idx_y[-1]])

    rx, ry = check_equivariance(fgrid.pair, d, sample_x=win_x, sample_y=win_y)
    report["equivariance_x"], report["equivariance_y"] = rx, ry
    report["equivariance_pass"] = bool(max(rx, ry) < equivariance_tol)
    if not report["equivariance_pass"]:
        report["skipped_after"] = "equivariance"
        return report, None

    # thin the covered window for the per-node pipeline re-run
    sel_x = idx_x[np.unique(np.linspace(0, idx_x.size - 1, min(MONODROMY_NODES, idx_x.size)).astype(int))]
    sel_y = idx_y[np.unique(np.linspace(0, idx_y.size - 1, min(MONODROMY_NODES, idx_y.size)).astype(int))]
    image_f = _image_grid(fgrid, d, sel_x, sel_y)
    sgrid = sym_immersion(fgrid, 1.0)
    image_s = sym_immersion(image_f, 1.0)

    chi, spread = measure_monodromy(fgrid, d, image_f, sel_x, sel_y)
    report["monodromy_spread"], report["monodromy_pass"] = spread, bool(spread < monodromy_tol)
    r, t = _chi_motion(chi, d.switches_axes)
    report["rigid_rotation"], report["rigid_translation"] = r.tolist(), t.tolist()
    cos = (np.linalg.det(r) * np.trace(r) - 1.0) / 2.0     # of the rotation part det(r) r
    report["rotation_angle_measured_rad"] = float(np.arccos(np.clip(cos, -1.0, 1.0)))
    # chi's motion on the exact node pairs chi was measured on
    moved = sgrid.points[np.ix_(sel_x, sel_y)] @ r.T + t
    report["chi_vs_R"] = float(np.max(np.abs(_image_nodes(image_s.points, d.switches_axes) - moved)))
    if not report["monodromy_pass"]:
        report["skipped_after"] = "monodromy"
        return report, chi

    mask = np.zeros((fgrid.x.size, fgrid.y.size), dtype=bool)
    mask[np.ix_(idx_x, idx_y)] = True
    target = None if interp_x is None else _surface_target(fgrid, d, idx_x, idx_y,
                                                           interp_x, interp_y)
    report["surface_target_nodes"] = 0 if target is None else target.x.size * target.y.size
    if interp_x is not None and target is None:
        # no image on the lattice: nothing is covered, and sgrid is not the target
        resid, coverage = 0.0, 0.0
    else:
        resid, coverage = check_surface_symmetry(sgrid, d, r, t, sample_mask=mask,
                                                 target=target)
    report["surface_residual"] = resid
    report["surface_coverage"] = coverage
    report["surface_pass"] = bool(resid < surface_tol and coverage == 1.0)
    report["all_pass"] = bool(report["equivariance_pass"] and report["monodromy_pass"]
                              and report["surface_pass"])
    return report, chi
