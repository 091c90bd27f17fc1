from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import expm
from scipy.spatial.transform import Rotation

from psurf.loops import (CIRCLE_LAMBDAS, SU2_I, SU2_J, SU2_K, SYMMETRY_LAMBDAS, LaurentLoop,
                         adjoint_rotation, cauchy_product, random_twisted_unitary_loop)
from psurf.potentials import (BoundaryAngles, generalized_amsler_example,
                              normalized_from_boundary, soliton_alpha, soliton_beta)
from psurf.surface import EPS_DEGENERATE, FrameGrid, frames_at, reconstruct_frames, sym_immersion
from psurf.symmetry import (CERT_MONODROMY_TOL, SymmetryDescriptor, check_equivariance,
                            check_surface_symmetry, certify_from_potentials, compute_K,
                            coverage_window, measure_monodromy, su2_lift, _bracketing_nodes,
                            _chi_motion, _image_axes, _image_grid, _lerp_weights,
                            _surface_target, _z_matrix)
from tests.conftest import theta_to_t

IDENT = lambda t: t
ONE = lambda t: 1.0


def identity_descriptor(switches=False):
    return SymmetryDescriptor(gamma1=IDENT, gamma2=IDENT, dgamma1=ONE, dgamma2=ONE,
                              switches_axes=switches)


def test_su2_lift_inverts_adjoint():
    rng = np.random.default_rng(0)
    for _ in range(10):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        g = su2_lift(adjoint_rotation(su2_lift(np.eye(3)) @ np.eye(2)))  # smoke: identity path
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        ang = rng.uniform(0, np.pi)
        from scipy.linalg import expm
        from tests.conftest import r3_to_su2
        rot = adjoint_rotation(expm(ang * r3_to_su2(axis)))
        lift = su2_lift(rot)
        assert np.max(np.abs(adjoint_rotation(lift) - rot)) < 1e-12


def test_su2_lift_matches_the_scipy_quaternion_up_to_sign():
    rng = np.random.default_rng(3)
    axes = rng.standard_normal((12, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    # the identity, pi about each axis, angles within 1e-9 of pi, and a random stack
    rotvecs = np.concatenate([np.zeros((1, 3)), np.pi * np.eye(3),
                              (np.pi - rng.uniform(0, 1e-9, (12, 1))) * axes])
    rots = np.concatenate([Rotation.from_rotvec(rotvecs).as_matrix(),
                           Rotation.random(40, random_state=4).as_matrix()])
    for stack in (rots, rots.reshape(4, 14, 3, 3)):
        lifts = su2_lift(stack)
        assert lifts.shape == stack.shape[:-2] + (2, 2)
        assert np.max(np.abs(adjoint_rotation(lifts) - stack)) < 1e-12
    x, y, z, w = np.moveaxis(Rotation.from_matrix(rots).as_quat(), -1, 0)[..., None, None]
    ref = w * np.eye(2) + 2.0 * (x * SU2_I + y * SU2_J + z * SU2_K)
    gap = np.minimum(np.abs(lifts.reshape(-1, 2, 2) - ref).max(axis=(1, 2)),
                     np.abs(lifts.reshape(-1, 2, 2) + ref).max(axis=(1, 2)))
    assert np.max(gap) < 1e-12


def test_su2_lift_refuses_a_matrix_that_is_not_a_rotation():
    with pytest.raises(ValueError, match=r"not a rotation at node \(1,\) "
                                         r"\(orthogonality defect 0\.75, det 1\)"):
        su2_lift([np.eye(3), [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]])
    with pytest.raises(ValueError, match=r"not a rotation at node \(7, 3\) .*det -1\)"):
        su2_lift([np.diag([1.0, 1.0, -1.0])], nodes=np.array([[7, 3]]))


def test_descriptor_is_declared_once():
    import psurf
    from psurf import potentials
    assert SymmetryDescriptor is potentials.SymmetryDescriptor is psurf.SymmetryDescriptor
    assert [f.name for f in fields(SymmetryDescriptor)] == [
        "gamma1", "gamma2", "dgamma1", "dgamma2", "wx", "wy", "switches_axes"]


def test_surface_symmetry_identity(soliton_frames_small):
    s = sym_immersion(soliton_frames_small, 1.0)
    resid, coverage = check_surface_symmetry(s, identity_descriptor(), np.eye(3), np.zeros(3))
    assert resid < 1e-12 and coverage == 1.0


def test_surface_symmetry_shift_fails(soliton_frames_small):
    s = sym_immersion(soliton_frames_small, 1.0)
    d = SymmetryDescriptor(gamma1=lambda t: t + 0.25, gamma2=IDENT, dgamma1=ONE, dgamma2=ONE)
    resid, coverage = check_surface_symmetry(s, d, np.eye(3), np.zeros(3))
    assert resid > 1e-2
    assert 0.0 < coverage < 1.0


def test_compute_K_identity(soliton_frames_small):
    f = soliton_frames_small
    d = identity_descriptor()
    idx = np.array([3, 8, 13])
    img = _image_grid(f, d, idx, idx)
    ks, ok = compute_K(f, d, img, idx, idx)
    assert np.all(ok)
    assert np.max(np.abs(ks[ok] - np.eye(3))) < 1e-7


def test_monodromy_trivial(soliton_frames_small):
    f = soliton_frames_small
    d = identity_descriptor()
    idx = np.array([3, 8, 13])
    img = _image_grid(f, d, idx, idx)
    chi, spread = measure_monodromy(f, d, img, idx, idx)
    assert spread < 1e-9
    ident = chi.truncated(0, 0)
    assert np.max(np.abs(ident.coeff(0) - np.eye(2))) < 1e-9


def test_coverage_window_amsler():
    th = np.linspace(-2.6, -0.15, 33)
    ts = theta_to_t(th)
    _, desc = generalized_amsler_example()
    idx_x, idx_y = coverage_window(ts, ts, desc)
    assert idx_x.size >= 3 and idx_y.size >= 3
    for i in idx_x:
        assert ts[0] <= desc.gamma1(ts[i]) <= ts[-1]


@pytest.fixture(scope="module")
def amsler_swap():
    """The identity swap gamma(x, y) = (y, x) on a theta window of the
    rotational example, which is symmetric in x and y: (frames, descriptor,
    image frames, sampled indices)."""
    ts = theta_to_t(np.linspace(-1.8, -1.25, 17))
    pair, _ = generalized_amsler_example(domain=(ts[0] - 1e-6, ts[-1] + 1e-6))
    step = (ts[-1] - ts[0]) / 2048
    f = reconstruct_frames(pair, ts, ts, trunc=32, step=step, drift_samples=(1.0,))
    d = identity_descriptor(switches=True)
    idx = np.array([2, 5, 9, 13])
    return f, d, _image_grid(f, d, idx, idx), idx


@pytest.fixture(scope="module")
def soliton_swap():
    """The swap of the kink 4 atan(exp(x + y)) on [-1, 1]^2, 17^2 nodes."""
    pair = normalized_from_boundary(BoundaryAngles(alpha=soliton_alpha, beta=soliton_beta),
                                    (-1.0, 1.0), (-1.0, 1.0))
    xs = np.linspace(-1.0, 1.0, 17)
    f = reconstruct_frames(pair, xs, xs, trunc=24, step=1.0 / 512)
    d = identity_descriptor(switches=True)
    idx = np.arange(xs.size)
    return f, d, _image_grid(f, d, idx, idx), idx


def test_axis_switch_amsler_diagonal(amsler_swap):
    f, d, img, idx = amsler_swap
    chi, spread = measure_monodromy(f, d, img, idx, idx)
    assert spread < 1e-9
    # chi(lambda) is unitary on the circle
    vals = chi.evaluate(CIRCLE_LAMBDAS)
    assert np.max(np.abs(vals @ np.conj(np.swapaxes(vals, -1, -2)) - np.eye(2))) < 1e-9


def test_axis_switch_soliton(soliton_swap):
    f, d, img, idx = soliton_swap
    _, spread = measure_monodromy(f, d, img, idx, idx)
    assert spread < 1e-9


@pytest.mark.parametrize("case", ["amsler_window", "amsler_swap", "soliton_swap"])
def test_compute_K_reads_the_normal_sign(request, case):
    # det K = (-1)^switches: a motion exchanges the asymptotic families exactly
    # when it is improper; the tangent block's determinant fixes epsilon
    f, d, img, idx = request.getfixturevalue(case)
    ks, ok = compute_K(f, d, img, idx, idx)
    assert ok.sum() >= 4
    sign = -1.0 if d.switches_axes else 1.0
    # within the det tolerance that su2_lift applies
    assert np.max(np.abs(np.linalg.det(ks[ok]) - sign)) < CERT_MONODROMY_TOL
    # the amsler swap keeps the tangent orientation (det B > 0), the soliton swap reverses it
    want = {"amsler_window": 1.0, "amsler_swap": -1.0, "soliton_swap": 1.0}[case]
    assert np.all(ks[ok][:, 2, 2] == want)


# the constant gauge [[0, 1], [1, 0]] on both axes makes the kink's swap a symmetry
SWAP_GAUGE = LaurentLoop(np.array([[[0.0, 1.0], [1.0, 0.0]]]), 0)


@pytest.mark.parametrize("case", ["amsler_swap", "soliton_swap"])
def test_certification_of_a_swap_certifies_its_improper_motion(request, case):
    # the motion comes from chi, so a swap's improper motion passes the surface stage
    f, d, _, _ = request.getfixturevalue(case)
    if case == "soliton_swap":
        d = replace(d, wx=SWAP_GAUGE, wy=SWAP_GAUGE)
    rep, chi = certify_from_potentials(f, d)
    assert rep["all_pass"] is True and chi is not None
    assert rep["surface_residual"] < 1e-9 and rep["chi_vs_R"] < 1e-9
    assert abs(np.linalg.det(rep["rigid_rotation"]) + 1.0) < 1e-9
    assert "epsilon" not in rep and "rigid_fit_rms" not in rep


def test_axis_switch_misdeclared_fails():
    # generic asymmetric boundary data: the swap is not a symmetry
    alpha = lambda t: 0.9 * np.sin(2.0 * np.asarray(t))
    beta = lambda t: 1.3 + 0.4 * np.cos(np.asarray(t))
    pair = normalized_from_boundary(BoundaryAngles(alpha=alpha, beta=beta), (0, 1), (0, 1))
    xs = np.linspace(0, 1, 17)
    f = reconstruct_frames(pair, xs, xs, trunc=24)
    d = identity_descriptor(switches=True)
    idx = [2, 6, 10, 14]
    img = _image_grid(f, d, idx, idx)
    with pytest.raises(ValueError, match=r"monodromy: K is not a rotation at node \(\d+, \d+\)"):
        measure_monodromy(f, d, img, idx, idx)
    # the switching relation on the potentials already refuses it
    rep, chi = certify_from_potentials(f, d)
    assert rep["skipped_after"] == "equivariance" and chi is None
    assert min(rep["equivariance_x"], rep["equivariance_y"]) > 1.0


def test_monodromy_composition_amsler():
    # chi of gamma o gamma equals chi(gamma)^2 up to the double-cover sign
    from psurf.potentials import amsler_gamma, amsler_dgamma
    th_lo, th_hi = -5.0, -0.35
    ts_all = theta_to_t(np.linspace(th_lo, th_hi, 2))
    pair, desc = generalized_amsler_example(domain=(ts_all[0] - 1e-6, ts_all[-1] + 1e-6))
    # sample nodes in a window whose second iterate stays inside the domain
    th_win = np.linspace(-4.95, -4.75, 4)
    ts = theta_to_t(th_win)
    step = (ts_all[-1] - ts_all[0]) / 8192
    trunc = 64
    f = reconstruct_frames(pair, ts, ts, trunc=trunc, step=step,
                           basepoint=(ts_all[0], ts_all[0]), drift_samples=(1.0,))
    idx = np.arange(ts.size)
    gamma2 = lambda t: amsler_gamma(amsler_gamma(t))
    dgamma2 = lambda t: amsler_dgamma(amsler_gamma(t)) * amsler_dgamma(t)
    d1 = desc
    d2 = SymmetryDescriptor(gamma1=gamma2, gamma2=gamma2, dgamma1=dgamma2,
                            dgamma2=dgamma2, wx=desc.wx, wy=desc.wy)
    img1 = _image_grid(f, d1, idx, idx)
    img2 = _image_grid(f, d2, idx, idx)
    lams = np.exp(2j * np.pi * np.arange(8) / 8)
    chi1, spread1 = measure_monodromy(f, d1, img1, idx, idx, lambdas=lams)
    chi2, spread2 = measure_monodromy(f, d2, img2, idx, idx, lambdas=lams)
    assert spread1 < 1e-4 and spread2 < 1e-4
    sq = (chi1 * chi1).evaluate(lams)
    direct = chi2.evaluate(lams)
    err = min(float(np.max(np.abs(sq - direct))), float(np.max(np.abs(sq + direct))))
    assert err < 1e-4
    # non-switching case: K carries no y-dependence (diagonal nodes sit on
    # the degenerate curve and are skipped)
    ks, ok = compute_K(f, d1, img1, idx, idx)
    for p in range(len(idx)):
        qs = np.where(ok[p])[0]
        assert qs.size >= 2
        assert float(np.max(np.abs(ks[p, qs] - ks[p, qs[0]]))) < 1e-6


def left_multiplied(fgrid, chi0, switches):
    """fgrid's frames U replaced by chi0 U, or by chi0 U^(1/lambda) when
    switches: the frames of a symmetry whose monodromy is chi0."""
    u, u_min = fgrid.coeffs, fgrid.d_min
    if switches:
        u, u_min = u[:, :, ::-1], -(u_min + u.shape[2] - 1)
    return replace(fgrid, coeffs=cauchy_product(chi0.coeffs, u), d_min=chi0.d_min + u_min)


@pytest.mark.parametrize("switches", [False, True])
def test_chi_motion_is_the_motion_of_the_left_multiplied_surface(soliton_pair, switches):
    # Sym(chi0 U) = Ad chi0(1) f + Sym(chi0)(1), and the sign of f flips when U is
    # read at 1/lambda; chi0 has a translation far from zero
    xs = np.linspace(0.0, 1.0, 9)
    f = reconstruct_frames(soliton_pair, xs, xs, trunc=24)
    chi0 = random_twisted_unitary_loop(np.random.default_rng(5), degree=12, scale=0.6, pad=8)
    r, t = _chi_motion(chi0, switches)
    assert np.linalg.norm(t) > 0.1
    assert abs(np.linalg.det(r) - (-1.0 if switches else 1.0)) < 1e-12
    moved = sym_immersion(left_multiplied(f, chi0, switches), 1.0).points
    assert np.max(np.abs(moved - (sym_immersion(f, 1.0).points @ r.T + t))) < 1e-12


def test_rotation_and_swap_compose_on_the_amsler_window(amsler_window):
    # rho sigma, rho's maps with the axes switched, is rho after the identity swap
    # sigma: its chi is chi_rho chi_sigma up to sign, and its motion their composition
    f, rho, img_rho, idx = amsler_window
    motions, chis = [], []
    for d, img in ((rho, img_rho), (identity_descriptor(switches=True), None),
                   (replace(rho, switches_axes=True), None)):
        img = _image_grid(f, d, idx, idx) if img is None else img
        chi, spread = measure_monodromy(f, d, img, idx, idx)
        assert spread < CERT_MONODROMY_TOL
        chis.append(chi)
        motions.append(_chi_motion(chi, d.switches_axes))
    window = (f.x[0], f.x[-1])
    rx, ry = check_equivariance(f.pair, replace(rho, switches_axes=True), window, window)
    assert max(rx, ry) < 1e-10
    prod, direct = (chis[0] * chis[1]).evaluate(CIRCLE_LAMBDAS), chis[2].evaluate(CIRCLE_LAMBDAS)
    assert min(np.max(np.abs(prod - direct)), np.max(np.abs(prod + direct))) < 1e-5
    (r_rho, t_rho), (r_sig, t_sig), (r_rs, t_rs) = motions
    assert np.max(np.abs(r_rs - r_rho @ r_sig)) < 1e-5
    assert np.max(np.abs(t_rs - (r_rho @ t_sig + t_rho))) < 1e-5
    assert abs(np.linalg.det(r_rs) + 1.0) < 1e-5


# -- the stack code against the per-node loops it replaced -------------------------

def reference_compute_K(fgrid, d, image_fgrid, idx_x, idx_y):
    """compute_K as a per-node loop (the degeneracy threshold is EPS_DEGENERATE,
    and epsilon makes det K = (-1)^switches where |det| of the block is 1)."""
    npx, npy = len(idx_x), len(idx_y)
    ks = np.full((npx, npy, 3, 3), np.nan)
    ok = np.zeros((npx, npy), dtype=bool)
    for p, i in enumerate(idx_x):
        for q, j in enumerate(idx_y):
            xi, yj = fgrid.x[i], fgrid.y[j]
            phi = fgrid.phi[i, j]
            if abs(np.sin(phi)) < EPS_DEGENERATE:
                continue
            z = _z_matrix(fgrid.a_vals[i], fgrid.b_vals[j], phi)
            if d.switches_axes:
                jac = np.array([[0.0, d.dgamma1(yj)], [d.dgamma2(xi), 0.0]])
                phi_im, a_im, b_im = image_fgrid.phi[q, p], image_fgrid.a_vals[q], image_fgrid.b_vals[p]
            else:
                jac = np.diag([d.dgamma1(xi), d.dgamma2(yj)])
                phi_im, a_im, b_im = image_fgrid.phi[p, q], image_fgrid.a_vals[p], image_fgrid.b_vals[q]
            if abs(np.sin(phi_im)) < EPS_DEGENERATE:
                continue
            block = z @ np.linalg.inv(jac) @ np.linalg.inv(_z_matrix(a_im, b_im, phi_im))
            ks[p, q] = np.zeros((3, 3))
            ks[p, q, :2, :2] = block
            ks[p, q, 2, 2] = np.sign(np.linalg.det(block)) * (-1.0 if d.switches_axes else 1.0)
            ok[p, q] = True
    return ks, ok


def reference_monodromy(fgrid, d, image_fgrid, idx_x, idx_y, lambdas=CIRCLE_LAMBDAS):
    """measure_monodromy as a per-node loop of LaurentLoop products: with a
    switching descriptor the original frame is read at 1/lambda and the lift
    is that of -K; each chi takes the sign of the first chi at lambda = 1."""
    ks, ok = reference_compute_K(fgrid, d, image_fgrid, idx_x, idx_y)
    chis = []
    for p, i in enumerate(idx_x):
        for q, j in enumerate(idx_y):
            if not ok[p, q]:
                continue
            u = fgrid.loop(i, j)
            if d.switches_axes:
                lift, u = su2_lift(-ks[p, q]), u.reflect()
                u_im = image_fgrid.loop(q, p)
            else:
                lift, u_im = su2_lift(ks[p, q]), image_fgrid.loop(p, q)
            chi = ((u_im * np.conj(lift.T)) * u.dagger()).trim(rel=1e-13)
            if chis and np.linalg.norm(chi.evaluate(1.0) - chis[0].evaluate(1.0)) > \
                    np.linalg.norm(chi.evaluate(1.0) + chis[0].evaluate(1.0)):
                chi = LaurentLoop(-chi.coeffs, chi.d_min)
            chis.append(chi)
    total = sum(chis[1:], chis[0])
    chi_mean = LaurentLoop(total.coeffs / len(chis), total.d_min).trim(rel=1e-12)
    vals = chi_mean.evaluate(lambdas)
    spread = max(float(np.max(np.abs(c.evaluate(lambdas) - vals))) for c in chis)
    return chi_mean, spread


def reference_surface_symmetry(sgrid, d, r, t, sample_mask=None):
    """check_surface_symmetry as a per-node loop of interpolator calls."""
    interp = RegularGridInterpolator((sgrid.x, sgrid.y), sgrid.points,
                                     bounds_error=False, fill_value=np.nan)
    residual, covered, total = 0.0, 0, 0
    for i in range(sgrid.x.size):
        for j in range(sgrid.y.size):
            if sample_mask is not None and not sample_mask[i, j]:
                continue
            total += 1
            x, y = (sgrid.y[j], sgrid.x[i]) if d.switches_axes else (sgrid.x[i], sgrid.y[j])
            val = interp((d.gamma1(x), d.gamma2(y)))
            if np.any(np.isnan(val)):
                continue
            covered += 1
            moved = r @ sgrid.points[i, j] + t
            residual = max(residual, float(np.max(np.abs(val - moved))))
    return residual, covered / total if total else 0.0


def random_frame_grid(rng, nx, ny):
    """Angle and speed data only, with nodes on and near the degenerate curve."""
    phi = rng.uniform(-4.0, 4.0, (nx, ny))
    phi.flat[rng.choice(phi.size, 4, replace=False)] = [0.0, np.pi, 3e-7, np.pi + 2e-8]
    return FrameGrid(x=np.sort(rng.uniform(-1, 1, nx)), y=np.sort(rng.uniform(-1, 1, ny)),
                     coeffs=None, d_min=0, phi=phi, a_vals=rng.uniform(0.5, 2.0, nx),
                     b_vals=rng.uniform(0.5, 2.0, ny))


def warped_descriptor(switches):
    return SymmetryDescriptor(gamma1=np.sinh, gamma2=np.arctan, dgamma1=np.cosh,
                              dgamma2=lambda t: 1.0 / (1.0 + t * t), switches_axes=switches)


@pytest.mark.parametrize("switches", [False, True])
def test_compute_K_equals_the_node_loop_on_random_grids(switches):
    rng = np.random.default_rng(5 + switches)
    f = random_frame_grid(rng, 7, 5)
    idx_x, idx_y = np.array([0, 2, 3, 6]), np.array([1, 2, 4])
    shape = (idx_y.size, idx_x.size) if switches else (idx_x.size, idx_y.size)
    img = random_frame_grid(rng, *shape)
    for d in (warped_descriptor(switches), identity_descriptor(switches)):
        ks, ok = compute_K(f, d, img, idx_x, idx_y)
        ref_ks, ref_ok = reference_compute_K(f, d, img, idx_x, idx_y)
        assert np.array_equal(ok, ref_ok) and 0 < ok.sum() < ok.size
        assert np.array_equal(ks, ref_ks, equal_nan=True)


def test_compute_K_masks_nodes_below_the_degeneracy_threshold():
    rng = np.random.default_rng(9)
    f = random_frame_grid(rng, 4, 4)
    f.phi[:] = 1.0
    f.phi[1, 2] = 5e-7                   # above the old 1e-9 cut, below EPS_DEGENERATE
    idx = np.arange(4)
    _, ok = compute_K(f, identity_descriptor(), f, idx, idx)
    assert np.array_equal(np.argwhere(~ok), [[1, 2]])


def test_compute_K_equals_the_node_loop_on_the_amsler_window(amsler_window):
    f, desc, img, idx = amsler_window
    ks, ok = compute_K(f, desc, img, idx, idx)
    ref_ks, ref_ok = reference_compute_K(f, desc, img, idx, idx)
    assert np.array_equal(ok, ref_ok) and not np.all(ok)
    assert np.array_equal(ks, ref_ks, equal_nan=True)


def assert_monodromy_matches_reference(f, d, img, idx_x, idx_y, lambdas):
    chi, spread = measure_monodromy(f, d, img, idx_x, idx_y, lambdas=lambdas)
    ref_chi, ref_spread = reference_monodromy(f, d, img, idx_x, idx_y, lambdas=lambdas)
    assert np.max(np.abs(chi.evaluate(lambdas) - ref_chi.evaluate(lambdas))) < 1e-12
    assert abs(spread - ref_spread) < 1e-12
    return spread


def test_monodromy_equals_the_node_loop_without_switching(amsler_window):
    f, desc, img, idx = amsler_window
    assert assert_monodromy_matches_reference(f, desc, img, idx, idx, CIRCLE_LAMBDAS) < 1e-4


def test_monodromy_default_lambdas_certify_the_amsler_window(amsler_window):
    # the radial probes 0.5 and 2, once the default, read a spread of 1.04 here:
    # the truncated frames of the rotational example do not converge off the circle
    f, desc, img, idx = amsler_window
    _, spread = measure_monodromy(f, desc, img, idx, idx)
    assert spread < 1e-4


def test_monodromy_equals_the_node_loop_with_switching():
    th = np.linspace(-1.8, -1.25, 9)
    ts = theta_to_t(th)
    pair, _ = generalized_amsler_example(domain=(ts[0] - 1e-6, ts[-1] + 1e-6))
    step = (ts[-1] - ts[0]) / 2048
    f = reconstruct_frames(pair, ts, ts, trunc=32, step=step, drift_samples=(1.0,))
    d = identity_descriptor(switches=True)
    idx_x, idx_y = np.array([1, 4, 6]), np.array([0, 2, 5, 8])
    img = _image_grid(f, d, idx_x, idx_y)
    assert assert_monodromy_matches_reference(f, d, img, idx_x, idx_y, CIRCLE_LAMBDAS) < 1e-9


def test_monodromy_equals_the_node_loop_at_the_radial_lambdas(soliton_frames_small):
    f = soliton_frames_small
    d = identity_descriptor()
    idx_x, idx_y = np.array([0, 3, 8, 13]), np.array([2, 9, 16])
    img = _image_grid(f, d, idx_x, idx_y)
    assert_monodromy_matches_reference(f, d, img, idx_x, idx_y, SYMMETRY_LAMBDAS)


@pytest.mark.parametrize("switches", [False, True])
def test_surface_symmetry_equals_the_node_loop(soliton_surface_small, switches):
    s = soliton_surface_small
    rng = np.random.default_rng(3)
    skew = rng.standard_normal((3, 3))
    rot = expm(skew - skew.T)
    shift = rng.standard_normal(3)
    d = SymmetryDescriptor(gamma1=lambda t: t + 0.25, gamma2=lambda t: 0.9 * t, dgamma1=ONE,
                           dgamma2=lambda t: 0.9, switches_axes=switches)
    mask = rng.uniform(size=(s.x.size, s.y.size)) < 0.6
    for sample_mask in (None, mask):
        got = check_surface_symmetry(s, d, rot, shift, sample_mask=sample_mask)
        assert got == reference_surface_symmetry(s, d, rot, shift, sample_mask=sample_mask)
        assert 0.0 < got[1] < 1.0


def full_lattice_surface_symmetry(fgrid, d, rep, lattice_x, lattice_y):
    """check_surface_symmetry of certify_from_potentials' window and of the
    motion its chi gives, interpolated on the whole lattice."""
    idx_x, idx_y = coverage_window(fgrid.x, fgrid.y, d)
    mask = np.zeros((fgrid.x.size, fgrid.y.size), dtype=bool)
    mask[np.ix_(idx_x, idx_y)] = True
    full = sym_immersion(frames_at(fgrid, lattice_x, lattice_y), 1.0)
    return check_surface_symmetry(sym_immersion(fgrid, 1.0), d, np.array(rep["rigid_rotation"]),
                                  np.array(rep["rigid_translation"]), mask, full)


def test_certification_withholds_the_surface_verdict_on_partial_coverage(soliton_pair):
    xs = np.linspace(0.0, 1.0, 9)
    far = np.linspace(1.5, 2.0, 5)      # a target grid no image reaches
    fgrid = reconstruct_frames(soliton_pair, xs, xs)
    rep, _ = certify_from_potentials(fgrid, identity_descriptor(), interp_x=far, interp_y=far)
    assert rep["surface_coverage"] == 0.0 and rep["surface_residual"] == 0.0
    assert rep["surface_pass"] is False and rep["all_pass"] is False
    assert rep["surface_target_nodes"] == 0
    # a lattice that holds the images of x, y >= 0.5 only: the bracketing nodes
    # cover the same fraction of the window as the whole lattice
    half = np.linspace(0.5, 1.5, 9)
    rep, _ = certify_from_potentials(fgrid, identity_descriptor(), interp_x=half, interp_y=half)
    _, ref_coverage = full_lattice_surface_symmetry(fgrid, identity_descriptor(), rep, half, half)
    assert rep["surface_coverage"] == ref_coverage == 25 / 81
    # the images sit on the nodes 0.5 .. 1.0, each the lower corner of a kept cell
    assert rep["surface_pass"] is False and rep["surface_target_nodes"] == 6 * 6
    rep, chi = certify_from_potentials(fgrid, identity_descriptor())
    assert rep["surface_coverage"] == 1.0 and rep["all_pass"] is True
    assert rep["surface_target_nodes"] == 0
    # the measurements are returned: chi's motion as report lists, chi as a loop
    assert np.max(np.abs(np.array(rep["rigid_rotation"]) - np.eye(3))) < 1e-9
    assert np.max(np.abs(rep["rigid_translation"])) < 1e-9
    assert np.max(np.abs(chi.evaluate(CIRCLE_LAMBDAS) - np.eye(2))) < 1e-9


def test_certification_returns_no_chi_when_equivariance_fails(soliton_pair):
    xs = np.linspace(0.0, 1.0, 9)
    shift = SymmetryDescriptor(gamma1=lambda t: t + 0.25, gamma2=IDENT, dgamma1=ONE, dgamma2=ONE)
    rep, chi = certify_from_potentials(reconstruct_frames(soliton_pair, xs, xs), shift)
    assert rep["equivariance_pass"] is False and rep["skipped_after"] == "equivariance"
    assert chi is None and "rigid_rotation" not in rep


# -- the interpolation target: only the nodes the residual reads ----------------

@settings(max_examples=200, deadline=None)
@given(st.floats(-5.0, 5.0), st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=11),
       st.lists(st.floats(0.0, 1.0), max_size=8), st.lists(st.floats(-1.0, 2.0), max_size=8))
def test_lerp_weights_on_the_bracketing_nodes_equal_those_on_all_nodes(start, gaps, on, off):
    nodes = start + np.cumsum([0.0] + gaps)
    # points on nodes, both ends, and anywhere from below to above the nodes
    span = nodes[-1] - nodes[0]
    at = np.concatenate([nodes[np.round(np.array(on, dtype=float) * (nodes.size - 1)).astype(int)],
                         nodes[[0, -1]], nodes[0] + span * np.array(off, dtype=float)])
    keep = _bracketing_nodes(nodes, at)
    inside = (nodes[0] <= at) & (at <= nodes[-1])
    full, sub = _lerp_weights(nodes, at), _lerp_weights(nodes[keep], at)
    assert np.array_equal(sub[inside], full[inside][:, keep])
    assert not np.any(np.delete(full[inside], keep, axis=1))
    assert np.all(np.isnan(sub[~inside])) and np.all(np.isnan(full[~inside]))
    assert keep.size <= 2 * np.count_nonzero(inside)
    assert _bracketing_nodes(nodes, at[~inside]).size == 0


def test_certification_builds_only_the_bracketing_nodes_of_the_amsler_lattice():
    ts = theta_to_t(np.linspace(-2.6, -0.15, 17))
    pair, desc = generalized_amsler_example(domain=(ts[0] - 1e-9, ts[-1] + 1e-9))
    step = (ts[-1] - ts[0]) / 4096
    f = reconstruct_frames(pair, ts, ts, trunc=48, step=step, drift_samples=(1.0,))
    idx_x, idx_y = coverage_window(f.x, f.y, desc)
    # the images of a 9-node refinement of the covered window, as the CLI builds them
    lattice = _image_axes(desc, np.linspace(f.x[idx_x[0]], f.x[idx_x[-1]], 9),
                          np.linspace(f.y[idx_y[0]], f.y[idx_y[-1]], 9))
    rep, _ = certify_from_potentials(f, desc, *lattice)
    assert rep["monodromy_pass"] is True     # the surface stage ran
    assert rep["surface_target_nodes"] <= 4 * idx_x.size * idx_y.size < 9 * 9
    resid, coverage = full_lattice_surface_symmetry(f, desc, rep, *lattice)
    assert rep["surface_coverage"] == coverage == 1.0
    # the weights are the lattice's; the frames move only with the march's step placement
    assert abs(rep["surface_residual"] - resid) < 1e-12


def test_the_bracketing_nodes_follow_a_switching_descriptor(soliton_pair):
    xs = np.linspace(0.0, 1.0, 17)
    f = reconstruct_frames(soliton_pair, xs, xs, trunc=24, step=1.0 / 1024)
    s = sym_immersion(f, 1.0)
    d = SymmetryDescriptor(gamma1=lambda t: t + 0.25, gamma2=lambda t: 0.9 * t, dgamma1=ONE,
                           dgamma2=lambda t: 0.9, switches_axes=True)
    idx_x, idx_y = coverage_window(f.x, f.y, d)
    mask = np.zeros((xs.size, xs.size), dtype=bool)
    mask[np.ix_(idx_x, idx_y)] = True
    # unequal lattices that hold part of the images on each axis
    lattice_x, lattice_y = np.linspace(0.4, 1.3, 13), np.linspace(-0.2, 0.6, 11)
    sub = _surface_target(f, d, idx_x, idx_y, lattice_x, lattice_y)
    full = sym_immersion(frames_at(f, lattice_x, lattice_y), 1.0)
    assert sub.x.size < lattice_x.size and sub.y.size < lattice_y.size
    got = check_surface_symmetry(s, d, np.eye(3), np.zeros(3), mask, sub)
    ref = check_surface_symmetry(s, d, np.eye(3), np.zeros(3), mask, full)
    assert got[1] == ref[1] and 0.0 < got[1] < 1.0
    assert abs(got[0] - ref[0]) < 1e-12
