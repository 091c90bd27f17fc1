import numpy as np
import pytest

from psurf.loops import adjoint_rotation
from psurf.potentials import (BoundaryAngles, generalized_amsler_example,
                              normalized_from_boundary)
from psurf.surface import reconstruct_frames, sym_immersion
from psurf.symmetry import (SymmetryDescriptor, check_axis_switch,
                            check_surface_symmetry, compute_K, coverage_window,
                            measure_monodromy, su2_lift, _image_grid)
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
        from psurf.loops import r3_to_su2
        from scipy.linalg import expm
        rot = adjoint_rotation(expm(ang * r3_to_su2(axis)))
        lift = su2_lift(rot)
        assert np.max(np.abs(adjoint_rotation(lift) - rot)) < 1e-12


def test_surface_symmetry_identity(soliton_frames_small):
    s = sym_immersion(soliton_frames_small, 1.0)
    d = identity_descriptor().with_motion(np.eye(3), np.zeros(3))
    resid, coverage = check_surface_symmetry(s, d)
    assert resid < 1e-12 and coverage == 1.0


def test_surface_symmetry_shift_fails(soliton_frames_small):
    s = sym_immersion(soliton_frames_small, 1.0)
    d = SymmetryDescriptor(gamma1=lambda t: t + 0.25, gamma2=IDENT,
                           dgamma1=ONE, dgamma2=ONE).with_motion(np.eye(3), np.zeros(3))
    resid, coverage = check_surface_symmetry(s, d)
    assert resid > 1e-2
    assert 0.0 < coverage < 1.0


def test_surface_symmetry_requires_motion(soliton_frames_small):
    s = sym_immersion(soliton_frames_small, 1.0)
    with pytest.raises(ValueError, match="rigid motion"):
        check_surface_symmetry(s, identity_descriptor())


def test_compute_K_identity(soliton_frames_small):
    f = soliton_frames_small
    d = identity_descriptor()
    idx = np.array([3, 8, 13])
    img = _image_grid(f, d, idx, idx, trunc=24)
    ks, ok = compute_K(f, d, img, idx, idx, epsilon=1.0)
    assert np.all(ok)
    assert np.max(np.abs(ks[ok] - np.eye(3))) < 1e-7


def test_monodromy_trivial(soliton_frames_small):
    f = soliton_frames_small
    d = identity_descriptor()
    idx = np.array([3, 8, 13])
    img = _image_grid(f, d, idx, idx, trunc=24)
    chi, spread = measure_monodromy(f, d, img, idx, idx)
    assert spread < 1e-9
    ident = chi.truncated(0, 0)
    assert np.max(np.abs(ident.coeff(0) - np.eye(2))) < 1e-9


def test_coverage_window_amsler():
    th = np.linspace(-2.6, -0.15, 33)
    ts = theta_to_t(th)
    pair, desc = generalized_amsler_example(domain=(ts[0] - 1e-6, ts[-1] + 1e-6))
    from psurf.surface import FrameGrid
    fake = FrameGrid(x=ts, y=ts, coeffs=None, d_min=0, phi=None, a_vals=None,
                     b_vals=None, pair=pair)
    idx_x, idx_y = coverage_window(fake, desc)
    assert idx_x.size >= 3 and idx_y.size >= 3
    for i in idx_x:
        assert ts[0] <= desc.gamma1(ts[i]) <= ts[-1]


def test_axis_switch_amsler_diagonal():
    th = np.linspace(-1.8, -1.25, 17)
    ts = theta_to_t(th)
    pair, _ = generalized_amsler_example(domain=(ts[0] - 1e-6, ts[-1] + 1e-6))
    step = (ts[-1] - ts[0]) / 2048
    f = reconstruct_frames(pair, ts, ts, trunc=32, step=step, drift_samples=(1.0,))
    d = identity_descriptor(switches=True)
    idx = [2, 5, 9, 13]
    img = _image_grid(f, d, idx, idx, 32, step=step, drift_samples=(1.0,))
    res = check_axis_switch(f, d, img, idx, idx)
    assert res < 1e-5


def test_axis_switch_misdeclared_fails():
    # generic asymmetric boundary data: the swap is not a symmetry
    alpha = lambda t: 0.9 * np.sin(2.0 * np.asarray(t))
    beta = lambda t: 1.3 + 0.4 * np.cos(np.asarray(t))
    pair = normalized_from_boundary(BoundaryAngles(alpha=alpha, beta=beta), (0, 1), (0, 1))
    xs = np.linspace(0, 1, 17)
    f = reconstruct_frames(pair, xs, xs, trunc=24)
    d = identity_descriptor(switches=True)
    idx = [2, 6, 10, 14]
    img = _image_grid(f, d, idx, idx, 24)
    res = check_axis_switch(f, d, img, idx, idx)
    assert res > 1e-2


def test_axis_switch_requires_flag(soliton_frames_small):
    with pytest.raises(ValueError, match="switch"):
        check_axis_switch(soliton_frames_small, identity_descriptor(), None, [], [])


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
    img1 = _image_grid(f, d1, idx, idx, trunc, step=step, drift_samples=(1.0,))
    img2 = _image_grid(f, d2, idx, idx, trunc, step=step, drift_samples=(1.0,))
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
    ks, ok = compute_K(f, d1, img1, idx, idx, epsilon=1.0)
    for p in range(len(idx)):
        qs = np.where(ok[p])[0]
        assert qs.size >= 2
        assert float(np.max(np.abs(ks[p, qs] - ks[p, qs[0]]))) < 1e-6
