"""Surface symmetries: the domain map / rigid motion relation, the frame
correction K(x,y), the monodromy loop, and end-to-end certification.

The guiding relation is U(gamma(x,y)) = chi(lambda) U(x,y) K_lift(x,y):
K is computed pointwise from tangent data, its SU(2) lift is chosen
branch-continuously, and chi is measured as the node-averaged conjugation
defect.  U o gamma is always produced by re-running the frame pipeline at
the exact image parameters, never by interpolating loops.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.spatial.transform import Rotation

from psurf.frames import DRIFT_LAMBDAS
from psurf.loops import LaurentLoop, SU2_I, SU2_J, SU2_K, adjoint_rotation
from psurf.oracle import register_rigid
from psurf.potentials import SYMMETRY_LAMBDAS, check_equivariance
from psurf.surface import reconstruct_frames, sym_immersion

CERT_EQUIVARIANCE_TOL = 1e-6
CERT_MONODROMY_TOL = 1e-4
CERT_SURFACE_TOL = 1e-3


@dataclass(frozen=True)
class SymmetryDescriptor:
    """Candidate symmetry: domain map (gamma1, gamma2), gauges, rigid motion.

    R_linear / R_translation / chi start unset and are filled by
    measurement; switches_axes marks maps that exchange the two asymptotic
    families, in which case gamma(x, y) = (gamma1(y), gamma2(x)).
    """

    gamma1: object
    gamma2: object
    dgamma1: object = None
    dgamma2: object = None
    wx: object = None
    wy: object = None
    switches_axes: bool = False
    R_linear: np.ndarray = None
    R_translation: np.ndarray = None
    chi: LaurentLoop = None

    def gamma(self, x, y):
        if self.switches_axes:
            return self.gamma1(y), self.gamma2(x)
        return self.gamma1(x), self.gamma2(y)

    def d1(self, t, h=1e-6):
        if self.dgamma1 is not None:
            return self.dgamma1(t)
        return (self.gamma1(t + h) - self.gamma1(t - h)) / (2 * h)

    def d2(self, t, h=1e-6):
        if self.dgamma2 is not None:
            return self.dgamma2(t)
        return (self.gamma2(t + h) - self.gamma2(t - h)) / (2 * h)

    def with_motion(self, r, t):
        return replace(self, R_linear=np.asarray(r, dtype=float),
                       R_translation=np.asarray(t, dtype=float))

    def with_chi(self, chi):
        return replace(self, chi=chi)


def su2_lift(rot3):
    """One SU(2) preimage of a proper rotation under the adjoint double cover."""
    q = Rotation.from_matrix(np.asarray(rot3, dtype=float)).as_quat()  # x, y, z, w
    return q[3] * np.eye(2, dtype=complex) + 2.0 * (
        q[0] * SU2_I + q[1] * SU2_J + q[2] * SU2_K)


def check_surface_symmetry(sgrid, d, sample_mask=None, target=None):
    """Max of ||f(gamma(x,y)) - (R f(x,y) + t)|| over covered sample nodes.

    f o gamma is bilinearly interpolated on `target` (a finer surface grid
    of the same immersion when supplied, else sgrid itself), so the
    residual is interpolation-limited; nodes whose image leaves the
    interpolation domain are reported through the coverage fraction.
    """
    if d.R_linear is None:
        raise ValueError("descriptor carries no fitted rigid motion yet")
    tgt = target if target is not None else sgrid
    interp = RegularGridInterpolator((tgt.x, tgt.y), tgt.points,
                                     bounds_error=False, fill_value=np.nan)
    nx, ny = sgrid.x.size, sgrid.y.size
    if sample_mask is None:
        sample_mask = np.ones((nx, ny), dtype=bool)
    residual = 0.0
    covered = 0
    total = 0
    for i in range(nx):
        for j in range(ny):
            if not sample_mask[i, j]:
                continue
            total += 1
            gx, gy = d.gamma(sgrid.x[i], sgrid.y[j])
            val = interp((gx, gy))
            if np.any(np.isnan(val)):
                continue
            covered += 1
            target = d.R_linear @ sgrid.points[i, j] + d.R_translation
            residual = max(residual, float(np.max(np.abs(val - target))))
    coverage = covered / total if total else 0.0
    return residual, coverage


def _z_matrix(a, b, phi, lam):
    return np.array([[lam * a, (b / lam) * np.cos(phi)],
                     [0.0, (b / lam) * np.sin(phi)]])


def compute_K(fgrid, d, image_fgrid, idx_x, idx_y, epsilon, lam=1.0):
    """K(x,y) = blockdiag(Z J^-1 (Z o gamma)^-1, epsilon) on the sample nodes.

    Z holds the tangent coordinates [f_x, f_y] = F [Z; 0].  image_fgrid
    supplies the exact angle at the gamma-images; idx_x/idx_y select the
    sampled original nodes (image node (p, q) is the image of
    (idx_x[p], idx_y[q]), with the roles of p, q swapped when gamma switches
    the axes).  Degenerate or singular nodes are masked out.
    """
    npx, npy = len(idx_x), len(idx_y)
    ks = np.full((npx, npy, 3, 3), np.nan)
    ok = np.zeros((npx, npy), dtype=bool)
    for p, i in enumerate(idx_x):
        for q, j in enumerate(idx_y):
            xi, yj = fgrid.x[i], fgrid.y[j]
            phi = fgrid.phi[i, j]
            if abs(np.sin(phi)) < 1e-9:
                continue
            z = _z_matrix(fgrid.a_vals[i], fgrid.b_vals[j], phi, lam)
            if d.switches_axes:
                jac = np.array([[0.0, d.d1(yj)], [d.d2(xi), 0.0]])
                phi_im = image_fgrid.phi[q, p]
                a_im = image_fgrid.a_vals[q]
                b_im = image_fgrid.b_vals[p]
            else:
                jac = np.diag([d.d1(xi), d.d2(yj)])
                phi_im = image_fgrid.phi[p, q]
                a_im = image_fgrid.a_vals[p]
                b_im = image_fgrid.b_vals[q]
            if abs(np.sin(phi_im)) < 1e-9:
                continue
            z_im = _z_matrix(a_im, b_im, phi_im, lam)
            block = z @ np.linalg.inv(jac) @ np.linalg.inv(z_im)
            k = np.zeros((3, 3))
            k[:2, :2] = block
            k[2, 2] = epsilon
            ks[p, q] = k
            ok[p, q] = True
    return ks, ok


def _image_nodes(values, switches):
    """Per-node image data indexed like the sampled originals: node (p, q)
    belongs to original (idx_x[p], idx_y[q])."""
    return values.swapaxes(0, 1) if switches else values


def _fit_epsilon(sgrid, image_sgrid, idx_x, idx_y, r_linear, switches):
    rotated = sgrid.normals[np.ix_(idx_x, idx_y)] @ r_linear.T
    votes = np.sum(rotated * _image_nodes(image_sgrid.normals, switches), axis=-1)
    return 1.0 if np.mean(votes) >= 0 else -1.0


def _image_grid(fgrid, d, idx_x, idx_y, trunc, step=None, drift_samples=DRIFT_LAMBDAS):
    """Pipeline re-run at the exact gamma-images of the selected parameters.

    The integration stays anchored at the original basepoint so the image
    frames are the same global extended frame evaluated elsewhere.
    """
    if d.switches_axes:
        gx = np.array([d.gamma1(fgrid.y[j]) for j in idx_y])
        gy = np.array([d.gamma2(fgrid.x[i]) for i in idx_x])
    else:
        gx = np.array([d.gamma1(fgrid.x[i]) for i in idx_x])
        gy = np.array([d.gamma2(fgrid.y[j]) for j in idx_y])
    if np.any(np.diff(gx) <= 0) or np.any(np.diff(gy) <= 0):
        raise ValueError("gamma must be increasing on the sampled window")
    return reconstruct_frames(fgrid.pair, gx, gy, trunc=trunc, step=step,
                              basepoint=(fgrid.base_x, fgrid.base_y),
                              drift_samples=drift_samples)


def measure_monodromy(fgrid, d, image_fgrid, idx_x, idx_y, epsilon=1.0,
                      lambdas=SYMMETRY_LAMBDAS):
    """Monodromy loop chi with its node spread.

    chi(node) = (U o gamma) K_lift^-1 U^-1; a symmetry is certified when the
    nodes agree.  Returns (chi_mean, spread, descriptor-ready diagnostics).
    """
    ks, ok = compute_K(fgrid, d, image_fgrid, idx_x, idx_y, epsilon)
    chis = []
    prev_lift = None
    for p, i in enumerate(idx_x):
        for q, j in enumerate(idx_y):
            if not ok[p, q]:
                continue
            lift = su2_lift(ks[p, q])
            if prev_lift is not None and np.linalg.norm(lift - prev_lift) > \
                    np.linalg.norm(lift + prev_lift):
                lift = -lift
            prev_lift = lift
            u_im = image_fgrid.loop(q, p) if d.switches_axes else image_fgrid.loop(p, q)
            chi = (u_im * np.conj(lift.T)) * fgrid.loop(i, j).dagger()
            chis.append(chi.trim(rel=1e-13))
    if not chis:
        raise ValueError("no usable (non-degenerate) nodes for the monodromy")
    total = sum(chis[1:], chis[0])
    chi_mean = LaurentLoop(total.coeffs / len(chis), total.d_min).trim(rel=1e-12)
    vals = chi_mean.evaluate(lambdas)
    spread = max(float(np.max(np.abs(c.evaluate(lambdas) - vals))) for c in chis)
    return chi_mean, spread


def check_axis_switch(fgrid, d, image_fgrid, idx_x, idx_y, epsilon=None,
                      lambdas=(0.5, 1.0, 2.0), frame_tol=1e-4):
    """Residual of the coordinate-switching frame relation.

    Checks F^lambda(gamma(x,y)) = chi(lambda) F^(1/lambda)(x,y) K(x,y) at the
    given lambda values, with chi fitted at the first usable node.  In the
    switching case the surface motion is orientation-reversing, so chi and
    K land in O(3) and the normal sign epsilon is fitted by residual when
    not supplied.
    """
    if not d.switches_axes:
        raise ValueError("descriptor does not switch the axes")

    def run(eps):
        ks, ok = compute_K(fgrid, d, image_fgrid, idx_x, idx_y, eps)
        residual = 0.0
        for lam in lambdas:
            f_im = adjoint_rotation(
                _image_nodes(image_fgrid.evaluate(lam), d.switches_axes)[ok], tol=frame_tol)
            f_rev = adjoint_rotation(fgrid.evaluate(1.0 / lam)[np.ix_(idx_x, idx_y)][ok],
                                     tol=frame_tol)
            rhs = f_rev @ ks[ok]
            if rhs.shape[0]:
                chi_fit = f_im[0] @ rhs[0].T
                residual = max(residual, float(np.max(np.abs(f_im - chi_fit @ rhs))))
        return residual

    if epsilon is not None:
        return run(epsilon)
    return min(run(1.0), run(-1.0))


def coverage_window(fgrid, d, margin=0.0):
    """Indices of grid parameters whose gamma-images stay inside the grid."""
    x, y = fgrid.x, fgrid.y
    if d.switches_axes:
        idx_x = [i for i in range(x.size)
                 if y[0] + margin <= d.gamma2(x[i]) <= y[-1] - margin]
        idx_y = [j for j in range(y.size)
                 if x[0] + margin <= d.gamma1(y[j]) <= x[-1] - margin]
    else:
        idx_x = [i for i in range(x.size)
                 if x[0] + margin <= d.gamma1(x[i]) <= x[-1] - margin]
        idx_y = [j for j in range(y.size)
                 if y[0] + margin <= d.gamma2(y[j]) <= y[-1] - margin]
    return np.asarray(idx_x, dtype=int), np.asarray(idx_y, dtype=int)


def certify_from_potentials(pair, d, x, y, trunc=24, lam=1.0,
                            monodromy_nodes=10, step=None,
                            interp_x=None, interp_y=None, interp_trunc=None,
                            drift_samples=DRIFT_LAMBDAS,
                            monodromy_lambdas=SYMMETRY_LAMBDAS,
                            equivariance_tol=CERT_EQUIVARIANCE_TOL,
                            monodromy_tol=CERT_MONODROMY_TOL,
                            surface_tol=CERT_SURFACE_TOL):
    """Chain equivariance -> monodromy -> surface symmetry, with thresholds.

    Returns a flat report dict (stable keys: equivariance_x, equivariance_y,
    monodromy_spread, surface_residual, rotation_angle_measured_rad, stage
    pass flags) plus the measured descriptor.  Later stages are skipped when
    an earlier one fails.
    """
    report = {}
    fgrid = reconstruct_frames(pair, x, y, trunc=trunc, step=step,
                               drift_samples=drift_samples)
    idx_x, idx_y = coverage_window(fgrid, d)
    if idx_x.size < 3 or idx_y.size < 3:
        raise ValueError("gamma-covered window is too small on this grid")
    win_x = (fgrid.x[idx_x[0]], fgrid.x[idx_x[-1]])
    win_y = (fgrid.y[idx_y[0]], fgrid.y[idx_y[-1]])

    rx, ry = check_equivariance(pair, d.gamma1, d.gamma2, d.wx, d.wy,
                                dgamma1=d.dgamma1, dgamma2=d.dgamma2,
                                sample_x=win_x, sample_y=win_y)
    report["equivariance_x"] = rx
    report["equivariance_y"] = ry
    report["equivariance_pass"] = bool(max(rx, ry) < equivariance_tol)
    if not report["equivariance_pass"]:
        report["skipped_after"] = "equivariance"
        return report, d

    # thin the covered window for the per-node pipeline re-run
    sel_x = idx_x[np.unique(np.linspace(0, idx_x.size - 1, min(monodromy_nodes, idx_x.size)).astype(int))]
    sel_y = idx_y[np.unique(np.linspace(0, idx_y.size - 1, min(monodromy_nodes, idx_y.size)).astype(int))]
    image_f = _image_grid(fgrid, d, sel_x, sel_y, trunc, step=step, drift_samples=drift_samples)
    sgrid = sym_immersion(fgrid, lam)
    image_s = sym_immersion(image_f, lam)

    # rigid motion from exact node pairs
    r_lin, t_vec, fit_rms = register_rigid(
        sgrid.points[np.ix_(sel_x, sel_y)].reshape(-1, 3),
        _image_nodes(image_s.points, d.switches_axes).reshape(-1, 3))
    d = d.with_motion(r_lin, t_vec)
    report["rigid_fit_rms"] = fit_rms
    angle = float(np.arccos(np.clip((np.trace(r_lin) - 1.0) / 2.0, -1.0, 1.0)))
    report["rotation_angle_measured_rad"] = angle

    eps = _fit_epsilon(sgrid, image_s, sel_x, sel_y, r_lin, d.switches_axes)
    report["epsilon"] = eps
    chi, spread = measure_monodromy(fgrid, d, image_f, sel_x, sel_y, epsilon=eps,
                                    lambdas=monodromy_lambdas)
    d = d.with_chi(chi)
    report["monodromy_spread"] = spread
    report["monodromy_pass"] = bool(spread < monodromy_tol)
    chi_rot = adjoint_rotation(chi.evaluate(1.0), tol=1e-4)
    report["chi_vs_R"] = float(np.max(np.abs(chi_rot - r_lin)))
    if not report["monodromy_pass"]:
        report["skipped_after"] = "monodromy"
        return report, d

    mask = np.zeros((fgrid.x.size, fgrid.y.size), dtype=bool)
    mask[np.ix_(idx_x, idx_y)] = True
    target = None
    if interp_x is not None:
        # the interpolation target only feeds bilinear lookups of f, so its
        # truncation may be lighter than the measurement grids'
        kwargs = {}
        if interp_trunc is not None:
            kwargs = {"trunc": interp_trunc, "split_tail_tol": 1e-6}
        else:
            kwargs = {"trunc": trunc}
        fine_f = reconstruct_frames(pair, np.asarray(interp_x), np.asarray(interp_y),
                                    step=step, basepoint=(fgrid.base_x, fgrid.base_y),
                                    drift_samples=drift_samples, **kwargs)
        target = sym_immersion(fine_f, lam)
    resid, coverage = check_surface_symmetry(sgrid, d, sample_mask=mask, target=target)
    report["surface_residual"] = resid
    report["surface_coverage"] = coverage
    report["surface_pass"] = bool(resid < surface_tol)
    report["all_pass"] = bool(report["equivariance_pass"] and report["monodromy_pass"]
                              and report["surface_pass"])
    return report, d
