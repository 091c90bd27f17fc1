"""Acceptance criteria, one test per criterion, each printing a pass line.

Grids of n cells per axis use n + 1 nodes so the stated mesh width is exact
(65 nodes <-> h = 1/64).
"""

import time

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from psurf.birkhoff import split_plus_star_minus
from psurf.frames import direct_frame_solve, integrate_axis
from psurf.loops import LaurentLoop, exp_loop, random_twisted_unitary_loop
from psurf.oracle import GoursatProblem, goursat_solve, register_rigid
from psurf.potentials import (BoundaryAngles, extract_diagonal_potentials,
                              gauge_transform, generalized_amsler_example,
                              normalized_from_boundary, soliton_alpha,
                              soliton_beta)
from psurf.surface import (associated_family, cone_line_check, find_cone_point,
                           geometry_report, reconstruct_frames, sym_immersion)
from psurf.symmetry import certify_from_potentials
from tests.conftest import kink_phi, theta_to_t

ZETA = np.array([[0.0, 0.35j], [0.35j, 0.0]])


def report(name, passed, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


# -- 1: soliton round trip ----------------------------------------------------

def test_criterion_1_soliton_round_trip(soliton_pair):
    t0 = time.monotonic()
    xs = np.linspace(0.0, 1.0, 65)
    fgrid = reconstruct_frames(soliton_pair, xs, xs, trunc=24)
    sgrid = sym_immersion(fgrid, 1.0)
    rep = geometry_report(sgrid, fgrid)
    elapsed = time.monotonic() - t0
    phi_err = float(np.max(np.abs(fgrid.phi - kink_phi(xs[:, None], xs[None, :]))))
    k_err = rep["curvature_max_abs_err"]
    passed = phi_err < 1e-5 and k_err < 5e-3 and elapsed < 60.0
    report("1 soliton round trip", passed,
           f"phi err {phi_err:.3g} < 1e-5, |K+1| {k_err:.3g} < 5e-3, "
           f"runtime {elapsed:.1f}s < 60s")


# -- 2: randomized Birkhoff suite ----------------------------------------------

def test_criterion_2_birkhoff_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(20090228)
    worst_resid = worst_norm = worst_twist = 0.0
    for _ in range(200):
        g = random_twisted_unitary_loop(rng, degree=4)
        r = split_plus_star_minus(g, trunc=24)
        worst_resid = max(worst_resid, r.residual)
        worst_norm = max(worst_norm, float(np.max(np.abs(r.plus.coeff(0) - np.eye(2)))))
        worst_twist = max(worst_twist, r.plus.check_twist(), r.minus.check_twist())
    elapsed = time.monotonic() - t0
    passed = (worst_resid < 1e-9 and worst_norm < 1e-10 and worst_twist < 1e-10
              and elapsed < 30.0)
    report("2 birkhoff suite", passed,
           f"200 loops: residual {worst_resid:.3g} < 1e-9, "
           f"normalization {worst_norm:.3g} < 1e-10, twist {worst_twist:.3g} < 1e-10, "
           f"runtime {elapsed:.1f}s < 30s")


# -- 3: boundary contract -------------------------------------------------------

def test_criterion_3_boundary_contract():
    rng = np.random.default_rng(42)
    knots = np.linspace(0.0, 1.0, 8)
    alpha_vals = rng.uniform(-0.8, 0.8, 8)
    alpha_vals[0] = 0.0
    beta_vals = rng.uniform(-0.8, 0.8, 8) + 1.2
    spline_alpha = CubicSpline(knots, alpha_vals)
    spline_beta = CubicSpline(knots, beta_vals)
    pairs = [
        ("soliton", soliton_alpha, soliton_beta),
        ("flat", lambda t: 0.0 * np.asarray(t), lambda t: 0.0 * np.asarray(t)),
        ("trig", lambda t: 0.7 * np.sin(2.0 * np.asarray(t)),
         lambda t: 0.4 * np.cos(3.0 * np.asarray(t)) + 1.0),
        ("poly", lambda t: np.asarray(t) ** 2 * (1.0 - np.asarray(t)),
         lambda t: 0.3 + 0.5 * np.asarray(t) ** 3),
        ("random spline", spline_alpha, spline_beta),
    ]
    xs = np.linspace(0.0, 1.0, 21)
    worst = 0.0
    for name, alpha, beta in pairs:
        pair = normalized_from_boundary(BoundaryAngles(alpha=alpha, beta=beta), (0, 1), (0, 1))
        fgrid = reconstruct_frames(pair, xs, xs, trunc=24)
        ex = float(np.max(np.abs(fgrid.phi[:, 0] - (np.asarray(alpha(xs)) + float(beta(0.0))))))
        ey = float(np.max(np.abs(fgrid.phi[0, :] - np.asarray(beta(xs)))))
        worst = max(worst, ex, ey)
    passed = worst < 1e-7
    report("3 boundary contract", passed,
           f"5 boundary pairs: max axis deviation {worst:.3g} < 1e-7")


# -- 4: gauge invariance ---------------------------------------------------------

def test_criterion_4_gauge_invariance(soliton_pair):
    xs = np.linspace(0.0, 1.0, 21)
    base = sym_immersion(reconstruct_frames(soliton_pair, xs, xs, trunc=24), 1.0)
    ref = base.points.reshape(-1, 3)

    const_diag = LaurentLoop.constant(np.diag([np.exp(0.4j), np.exp(-0.4j)]))

    x_gen = LaurentLoop.from_terms({-1: ZETA})
    y_gen = LaurentLoop.from_terms({1: ZETA})

    def qx_var(x):
        return exp_loop(x_gen.scaled(np.sin(0.8 * x)), (-20, 0))

    def qy_var(y):
        return exp_loop(y_gen.scaled(np.sin(0.5 * y)), (0, 20))

    # d/dt exp(s(t) X) = s'(t) X exp(s(t) X), exact on the gauge band
    def dqx(x):
        return (x_gen * qx_var(x)).truncated(-20, 0).scaled(0.8 * np.cos(0.8 * x))

    def dqy(y):
        return (y_gen * qy_var(y)).truncated(0, 20).scaled(0.5 * np.cos(0.5 * y))

    cases = [
        ("constant diagonal x-gauge", dict(qx=const_diag), dict(init_x=const_diag)),
        ("varying minus x-gauge", dict(qx=qx_var, dqx=dqx), {}),
        ("varying gauges both axes", dict(qx=qx_var, qy=qy_var, dqx=dqx, dqy=dqy), {}),
    ]
    worst = 0.0
    details = []
    for name, gauges, inits in cases:
        gauged = gauge_transform(soliton_pair, **gauges)
        fg = reconstruct_frames(gauged, xs, xs, trunc=24, **inits)
        sg = sym_immersion(fg, 1.0)
        _, _, rms = register_rigid(sg.points.reshape(-1, 3), ref)
        worst = max(worst, rms)
        details.append(f"{name} rms {rms:.3g}")
    passed = worst < 1e-5
    report("4 gauge invariance", passed, "; ".join(details) + " (all < 1e-5)")


# -- 5: diagonal-restriction potentials -------------------------------------------

def test_criterion_5_diagonal_rebuild(soliton_pair):
    xs = np.linspace(0.0, 1.0, 33)
    f0 = reconstruct_frames(soliton_pair, xs, xs, trunc=24)
    s0 = sym_immersion(f0, 1.0)
    diag_pair = extract_diagonal_potentials(f0)
    f1 = reconstruct_frames(diag_pair, xs, xs, trunc=24, basepoint=(0.0, 0.0))
    s1 = sym_immersion(f1, 1.0)
    _, _, rms = register_rigid(s1.points.reshape(-1, 3), s0.points.reshape(-1, 3))
    passed = rms < 1e-5
    report("5 diagonal-potential rebuild", passed, f"registration rms {rms:.3g} < 1e-5")


# -- 6: oracle equivalence ---------------------------------------------------------

def test_criterion_6_oracle_equivalence(soliton_pair, soliton_frames_65):
    # soliton patch at h = 1/64
    xs = np.linspace(0.0, 0.5, 33)
    fg = reconstruct_frames(soliton_pair, xs, xs, trunc=24)
    phi_or = goursat_solve(GoursatProblem(xs, xs, fg.phi[:, 0], fg.phi[0, :]))
    d_soliton = float(np.max(np.abs(phi_or - fg.phi)))

    # rotational-example patch, pole-free, h = 1/64
    ts = 7.0 + np.linspace(0.0, 0.5, 33)
    pair3, _ = generalized_amsler_example(domain=(ts[0] - 1e-9, ts[-1] + 1e-9))
    fg3 = reconstruct_frames(pair3, ts, ts, trunc=24)
    phi_or3 = goursat_solve(GoursatProblem(ts, ts, fg3.phi[:, 0], fg3.phi[0, :],
                                           a=fg3.a_fn, b=fg3.b_fn))
    d_amsler = float(np.max(np.abs(phi_or3 - fg3.phi)))

    # fixed-lambda frame cross-check on the 65-node soliton grid
    f65 = soliton_frames_65
    u_direct, _ = direct_frame_solve(f65.phi, 1.0, 1.0, 1.0, f65.x, f65.y)
    u_loop = f65.evaluate(1.0)
    c = u_loop[0, 0] @ np.linalg.inv(u_direct[0, 0])
    worst_frame = float(np.max(np.abs(c @ u_direct[::8, ::8] - u_loop[::8, ::8])))
    passed = d_soliton < 1e-5 and d_amsler < 1e-5 and worst_frame < 1e-5
    report("6 oracle equivalence", passed,
           f"Goursat-vs-loop phi: soliton patch {d_soliton:.3g}, "
           f"rotational patch {d_amsler:.3g} (both < 1e-5); "
           f"direct frame match {worst_frame:.3g} < 1e-5")


# -- 7: the rotationally symmetric example -------------------------------------------

@pytest.fixture(scope="module")
def amsler_certification():
    th = np.linspace(-2.6, -0.15, 45)
    ts = theta_to_t(th)
    pair, desc = generalized_amsler_example(domain=(ts[0] - 1e-9, ts[-1] + 1e-9))
    th_img = np.linspace(-2.6 + 2 * np.pi / 3 - 0.02, -0.15, 105)
    ts_img = theta_to_t(th_img)
    step = (ts[-1] - ts[0]) / 4096
    rep, measured, fgrid = certify_from_potentials(
        pair, desc, ts, ts, trunc=48, step=step, monodromy_nodes=7,
        interp_x=ts_img, interp_y=ts_img, interp_trunc=40, drift_samples=(1.0,),
        monodromy_lambdas=np.exp(2j * np.pi * np.arange(16) / 16.0))
    sgrid = sym_immersion(fgrid, 1.0)
    return rep, measured, sgrid


def test_criterion_7_rotational_example(amsler_certification):
    rep, measured, sgrid = amsler_certification
    cone = find_cone_point(sgrid)
    cone_ok = cone is not None and cone["line_coverage"] > 0.9
    worst, tol, line_ok = (np.nan, np.nan, False) if cone is None else \
        cone_line_check(sgrid, cone["point"])
    passed = (rep["equivariance_x"] < 1e-8 and rep["equivariance_y"] < 1e-8
              and rep["monodromy_spread"] < 1e-4
              and rep["surface_residual"] < 1e-3
              and rep["chi_vs_R"] < 1e-3
              and cone_ok and line_ok)
    angle = rep["rotation_angle_measured_rad"]
    report("7 rotational example", passed,
           f"equivariance ({rep['equivariance_x']:.3g}, {rep['equivariance_y']:.3g}) < 1e-8, "
           f"monodromy spread {rep['monodromy_spread']:.3g} < 1e-4, "
           f"surface residual {rep['surface_residual']:.3g} < 1e-3, "
           f"Ad(chi(1)) vs R {rep['chi_vs_R']:.3g} < 1e-3, "
           f"measured rotation angle {angle:.4f} rad ({np.degrees(angle):.2f} deg, reported), "
           f"cone point spread {cone['spread']:.3g}, line distance {worst:.3g} < {tol:.3g}")


# -- 8: associated family -----------------------------------------------------------

def test_criterion_8_associated_family(soliton_frames_65):
    worst_speed = worst_k = 0.0
    for sg in associated_family(soliton_frames_65, [0.5, 1.0, 2.0]):
        rep = geometry_report(sg)
        worst_speed = max(worst_speed, rep["speed_x_max_err"], rep["speed_y_max_err"])
        worst_k = max(worst_k, rep["curvature_max_abs_err"])
    passed = worst_speed < 1e-3 and worst_k < 5e-3
    report("8 associated family", passed,
           f"lambda in (1/2, 1, 2): speed error {worst_speed:.3g} < 1e-3, "
           f"|K+1| {worst_k:.3g} < 5e-3")


# -- 9: degeneracy detection ----------------------------------------------------------

def test_criterion_9_degeneracy(soliton_frames_65):
    zero = lambda t: 0.0 * np.asarray(t)
    flat_pair = normalized_from_boundary(BoundaryAngles(alpha=zero, beta=zero), (0, 1), (0, 1))
    xs = np.linspace(0.0, 1.0, 17)
    flat = sym_immersion(reconstruct_frames(flat_pair, xs, xs, trunc=16), 1.0)
    flat_all = bool(np.all(flat.degenerate))
    h = xs[1] - xs[0]
    ffx = (flat.points[2:, 1:-1] - flat.points[:-2, 1:-1]) / (2 * h)
    ffy = (flat.points[1:-1, 2:] - flat.points[1:-1, :-2]) / (2 * h)
    flat_rank_low = float(np.max(np.linalg.norm(np.cross(ffx, ffy), axis=-1))) < 1e-10

    sol = sym_immersion(soliton_frames_65, 1.0)
    interior_clear = not np.any(sol.degenerate[1:-1, 1:-1])
    hs = sol.x[1] - sol.x[0]
    sfx = (sol.points[2:, 1:-1] - sol.points[:-2, 1:-1]) / (2 * hs)
    sfy = (sol.points[1:-1, 2:] - sol.points[1:-1, :-2]) / (2 * hs)
    min_cross = float(np.min(np.linalg.norm(np.cross(sfx, sfy), axis=-1)))
    passed = flat_all and flat_rank_low and interior_clear and min_cross > 1e-2
    report("9 degeneracy detection", passed,
           f"flat: all {flat.degenerate.size} nodes flagged, tangent rank < 2 "
           f"(cross norm < 1e-10: {flat_rank_low}); soliton: 0 interior flags, "
           f"min tangent cross norm {min_cross:.3g} > 1e-2")


# -- 10: convergence orders ------------------------------------------------------------

def test_criterion_10_convergence_orders(soliton_pair):
    def eta(t):
        e = np.exp(1j * soliton_alpha(t))
        return LaurentLoop.from_terms({1: 0.5j * np.array([[0, np.conj(e)], [e, 0]])})

    ref = integrate_axis(eta, np.array([0.0, 1.0]), step=1 / 1024).frame_at(1.0)
    errs = [(integrate_axis(eta, np.array([0.0, 1.0]), step=1 / n).frame_at(1.0)
             - ref).max_coeff_norm() for n in (8, 16)]
    rk_order = float(np.log2(errs[0] / errs[1]))

    g_errs = []
    for n in (65, 129):
        x = np.linspace(0, 1, n)
        phi = goursat_solve(GoursatProblem(x, x, kink_phi(x, 0.0), kink_phi(0.0, x)))
        g_errs.append(np.max(np.abs(phi - kink_phi(x[:, None], x[None, :]))))
    goursat_order = float(np.log2(g_errs[0] / g_errs[1]))

    k_errs = []
    for n in (17, 33):
        xs = np.linspace(0.0, 1.0, n)
        fg = reconstruct_frames(soliton_pair, xs, xs, trunc=24)
        k_errs.append(geometry_report(sym_immersion(fg, 1.0), fg)["curvature_max_abs_err"])
    curv_order = float(np.log2(k_errs[0] / k_errs[1]))

    passed = (abs(rk_order - 4.0) <= 0.3 and abs(goursat_order - 2.0) <= 0.3
              and abs(curv_order - 2.0) <= 0.3)
    report("10 convergence orders", passed,
           f"frame integrator order {rk_order:.2f} (4 +- 0.3), "
           f"Goursat order {goursat_order:.2f} (2 +- 0.3), "
           f"curvature order {curv_order:.2f} (2 +- 0.3)")
