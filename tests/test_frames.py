import numpy as np
import pytest

from psurf.frames import AxisFramePath, IntegrationDrift, direct_frame_solve, integrate_axis
from psurf.loops import LaurentLoop
from psurf.potentials import generalized_amsler_example, soliton_alpha
from tests.conftest import kink_phi

OFF = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def eta_soliton(t):
    e = np.exp(1j * soliton_alpha(t))
    return LaurentLoop.from_terms({1: 0.5j * np.array([[0, np.conj(e)], [e, 0]])})


def test_zero_potential_is_constant():
    eta = lambda t: LaurentLoop.zero()
    ts = np.linspace(0, 1, 5)
    path = integrate_axis(eta, ts, band=(0, 4))
    ident = LaurentLoop.identity().truncated(0, 4).coeffs
    assert path.d_min == 0 and np.array_equal(path.coeffs, np.stack([ident] * 5))


def test_constant_potential_closed_form():
    eta = lambda t: LaurentLoop.from_terms({1: 0.5j * OFF})
    ts = np.linspace(0, 1, 5)
    path = integrate_axis(eta, ts, step=1 / 256)
    for lam in (0.5, 1.0, 2.0):
        got = path.frame_at(1.0).evaluate(lam)
        c, s = np.cos(lam / 2), np.sin(lam / 2)
        expect = np.array([[c, 1j * s], [1j * s, c]])
        assert np.max(np.abs(got - expect)) < 1e-11


def test_backward_integration_from_interior_anchor():
    eta = lambda t: LaurentLoop.from_terms({1: 0.5j * OFF})
    ts = np.linspace(-1.0, 1.0, 9)
    path = integrate_axis(eta, ts, step=1 / 256)   # anchored at 0
    lam = 1.0
    got = path.frame_at(-1.0).evaluate(lam)
    c, s = np.cos(-lam / 2), np.sin(-lam / 2)
    assert np.max(np.abs(got - np.array([[c, 1j * s], [1j * s, c]]))) < 1e-11
    assert (path.frame_at(0.0) - LaurentLoop.identity().truncated(0, 24)).max_coeff_norm() < 1e-12


def test_order_four_convergence():
    ref = integrate_axis(eta_soliton, np.array([0.0, 1.0]), step=1 / 1024).frame_at(1.0)
    errs = [(integrate_axis(eta_soliton, np.array([0.0, 1.0]), step=1 / n).frame_at(1.0)
             - ref).max_coeff_norm() for n in (8, 16, 32)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 3.7 <= o <= 4.3


def test_local_ode_residual():
    ts = np.linspace(0, 1, 65)
    path = integrate_axis(eta_soliton, ts, step=1 / 64)
    h = ts[1] - ts[0]
    worst = 0.0
    for k in range(len(ts) - 1):
        g0, g1 = path.frame_at(ts[k]), path.frame_at(ts[k + 1])
        mid = eta_soliton(0.5 * (ts[k] + ts[k + 1]))
        approx = (g0.dagger() * (g1 - g0)).scaled(1.0 / h)
        diff = (approx - mid).truncated(0, 2)
        worst = max(worst, float(np.max(np.abs(diff.evaluate(1.0)))))
    assert worst < 0.5 * h  # O(step^2) with a modest constant


def test_determinant_along_path():
    ts = np.linspace(0, 1, 9)
    path = integrate_axis(eta_soliton, ts, step=1 / 256)
    for lam in (0.5, 1.0, 2.0):
        for t in ts:
            v = path.frame_at(t).evaluate(lam)
            assert abs(v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0] - 1.0) < 1e-10


def reference_march(eta, t_from, targets, init, step, band):
    """The LaurentLoop-arithmetic RK4 march that the array march replaced."""
    out, g, t = [], init.truncated(*band), t_from
    for t_next in targets:
        gap = t_next - t
        if abs(gap) > 0:
            nsub = max(1, int(np.ceil(abs(gap) / step)))
            h = gap / nsub
            for _ in range(nsub):
                k1 = (g * eta(t)).truncated(*band)
                k2 = ((g + (0.5 * h) * k1) * eta(t + 0.5 * h)).truncated(*band)
                k3 = ((g + (0.5 * h) * k2) * eta(t + 0.5 * h)).truncated(*band)
                k4 = ((g + h * k3) * eta(t + h)).truncated(*band)
                g = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t = t + h
        t = t_next
        out.append(g.coeffs)
    return out


def counted(eta):
    def fn(t):
        fn.calls += 1
        return eta(t)
    fn.calls = 0
    return fn


@pytest.mark.parametrize("case", ["degree +1", "two-sided", "backward from interior anchor"])
def test_array_march_matches_loop_arithmetic_bit_for_bit(case):
    amsler_eta = generalized_amsler_example()[0].eta_x
    eta, ts, t0, band = {
        "degree +1": (eta_soliton, np.linspace(0.0, 1.0, 9), 0.0, (0, 24)),
        "two-sided": (amsler_eta, np.linspace(-2.6, -0.15, 7), -2.6, (-16, 16)),
        "backward from interior anchor": (eta_soliton, np.linspace(-1.0, 1.0, 9), 0.3, (0, 24)),
    }[case]
    init = LaurentLoop.constant(np.diag([np.exp(0.2j), np.exp(-0.2j)]))
    new_eta, ref_eta = counted(eta), counted(eta)
    path = integrate_axis(new_eta, ts, init=init, step=1 / 64, band=band, t0=t0,
                          drift_limit=np.inf)  # the arithmetic is compared, not the accuracy
    above, below = ts[ts >= t0], ts[ts < t0][::-1]
    ref = reference_march(ref_eta, t0, below, init, 1 / 64, band)[::-1] \
        + reference_march(ref_eta, t0, above, init, 1 / 64, band)
    assert path.d_min == band[0]
    assert np.array_equal(path.coeffs, np.stack(ref))
    # three distinct stage times per step where the loop form evaluated eta four times
    assert new_eta.calls * 4 == ref_eta.calls * 3 > 0


def test_drift_error_on_coarse_step():
    amp = 60.0
    eta = lambda t: LaurentLoop.from_terms({1: 0.5j * amp * OFF})
    with pytest.raises(IntegrationDrift, match="drift"):
        integrate_axis(eta, np.linspace(0, 1, 3), step=0.5)


def test_frame_at_unknown_parameter():
    path = integrate_axis(eta_soliton, np.linspace(0, 1, 5), step=1 / 64)
    with pytest.raises(KeyError):
        path.frame_at(0.33)


def test_path_independence_exact_kink():
    kx = lambda x, y: 4 * np.exp(x + y) / (1 + np.exp(2 * (x + y)))
    xs = np.linspace(0, 1, 65)
    _, res = direct_frame_solve(kink_phi, 1.0, 1.0, 1.0, xs, xs, phi_x=kx)
    assert res < 1e-6


def test_incompatible_angle_flagged():
    phi = lambda x, y: np.pi / 2 + 0 * np.asarray(x)
    xs = np.linspace(0, 1, 17)
    _, res = direct_frame_solve(phi, 1.0, 1.0, 1.0, xs, xs, phi_x=lambda x, y: 0.0)
    assert res > 1e-2


def test_drift_is_read_at_every_recorded_frame():
    # a Hermitian diagonal part, positive on [0.1, 0.3] and negative on
    # [0.3, 0.5], pushes the frame off the unitary group and back: the
    # defect peaks at 0.3 and is gone from 0.5 on, so the first, middle and
    # last frames alone look unitary
    herm = np.diag([1.0, -1.0]).astype(complex)

    def eta(t):
        s = 0.5 * np.sin(2 * np.pi * (t - 0.1) / 0.4) if 0.1 <= t <= 0.5 else 0.0
        return LaurentLoop.from_terms({0: s * herm})

    ts = np.linspace(0.0, 1.0, 11)
    with pytest.raises(IntegrationDrift, match="drift"):
        integrate_axis(eta, ts, step=1 / 256, drift_samples=(1.0,))


@pytest.mark.parametrize("samples, band", [
    ((1.0, np.nan), (-4, 4)), ((np.inf,), (0, 4)), ((0.0, 1.0), (-4, 4)), ((0.0,), (-1, 0)),
])
def test_bad_drift_samples_are_rejected(samples, band):
    eta = lambda t: LaurentLoop.zero()
    with pytest.raises(ValueError, match="drift samples must be finite"):
        integrate_axis(eta, np.linspace(0, 1, 3), band=band, drift_samples=samples)


def test_zero_drift_sample_on_nonnegative_band():
    eta = lambda t: LaurentLoop.from_terms({1: 0.5j * OFF})
    path = integrate_axis(eta, np.linspace(0, 1, 3), step=1 / 64, drift_samples=(0.0, 1.0))
    assert path.drift < 1e-10


def test_non_finite_drift_is_integration_drift():
    eta = lambda t: LaurentLoop.from_terms({1: np.full((2, 2), np.nan)})
    with pytest.raises(IntegrationDrift, match="unitarity drift nan"):
        integrate_axis(eta, np.linspace(0, 1, 3), step=1 / 64)


# -- the fixed-lambda direct solve against its per-column form ----------------

def reference_direct_solve(phi, a, b, lam0, x, y, phi_x=None, substeps=2, init=None):
    """The per-column, per-node direct solve that the column-stack sweep replaced."""
    from scipy.interpolate import CubicSpline
    from psurf.potentials import speed_fn
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    a_fn, b_fn = speed_fn(a), speed_fn(b)
    if callable(phi):
        fn, hd = phi, 1e-6 * max(x[-1] - x[0], 1.0)
        fn_x = lambda xv, yv: (fn(xv + hd, yv) - fn(xv - hd, yv)) / (2.0 * hd)
    else:
        arr = np.asarray(phi, dtype=float)
        rows = [CubicSpline(x, arr[:, j]) for j in range(y.size)]
        cols = [CubicSpline(y, arr[i, :]) for i in range(x.size)]

        def fn(xv, yv):
            j = int(np.argmin(np.abs(y - yv)))
            if abs(y[j] - yv) < 1e-12:
                return float(rows[j](xv))
            return float(cols[int(np.argmin(np.abs(x - xv)))](yv))

        fn_x = lambda xv, yv: float(rows[int(np.argmin(np.abs(y - yv)))](xv, 1))
    fn_x = phi_x if phi_x is not None else fn_x
    init = np.eye(2, dtype=complex) if init is None else init

    def coef_x(yv):
        return lambda t: 0.5j * np.array([[-fn_x(t, yv), float(a_fn(t)) * lam0],
                                          [float(a_fn(t)) * lam0, fn_x(t, yv)]])

    def coef_y(xv):
        def coef(t):
            e = np.exp(1j * fn(xv, t))
            return (-0.5j * float(b_fn(t)) / lam0) * np.array([[0.0, e], [np.conj(e), 0.0]])
        return coef

    def sweep(u, coef, ts):
        for t0, t1 in zip(ts[:-1], ts[1:]):
            h, t = (t1 - t0) / substeps, t0
            for _ in range(substeps):
                k1 = u @ coef(t)
                k2 = (u + 0.5 * h * k1) @ coef(t + 0.5 * h)
                k3 = (u + 0.5 * h * k2) @ coef(t + 0.5 * h)
                k4 = (u + h * k3) @ coef(t + h)
                u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                t += h
        return u

    u = np.empty((x.size, y.size, 2, 2), dtype=complex)
    u[0, 0] = init
    for i in range(x.size - 1):
        u[i + 1, 0] = sweep(u[i, 0], coef_x(y[0]), x[i:i + 2])
    for i in range(x.size):
        for j in range(y.size - 1):
            u[i, j + 1] = sweep(u[i, j], coef_y(x[i]), y[j:j + 2])
    u_alt = init
    for j in range(y.size - 1):
        u_alt = sweep(u_alt, coef_y(x[0]), y[j:j + 2])
    for i in range(x.size - 1):
        u_alt = sweep(u_alt, coef_x(y[-1]), x[i:i + 2])
    return u, float(np.max(np.abs(u[-1, -1] - u_alt)))


def kink_phi_x(x, y):
    return 4 * np.exp(x + y) / (1 + np.exp(2 * (x + y)))


def speed_a(t):
    return 1.0 + 0.3 * np.sin(t)


def speed_b(t):
    return 0.8 + 0.1 * np.asarray(t) ** 2


@pytest.mark.parametrize("case", ["finite-difference phi_x", "exact phi_x", "non-unit speeds",
                                  "non-square grid", "init", "substeps=3"])
def test_stack_solve_matches_per_column_solve_bit_for_bit(case):
    xs, ys = np.linspace(0.0, 1.0, 9), np.linspace(-0.5, 0.5, 9)
    init = np.array([[np.exp(0.3j), 0.0], [0.0, np.exp(-0.3j)]])
    kwargs = {
        "finite-difference phi_x": {},
        "exact phi_x": {"phi_x": kink_phi_x},
        "non-unit speeds": {"a": speed_a, "b": speed_b},
        "non-square grid": {"y": np.linspace(-0.5, 0.5, 14), "a": 1.3},
        "init": {"init": init, "phi_x": kink_phi_x},
        "substeps=3": {"substeps": 3, "b": speed_b},
    }[case]
    args = {"phi": kink_phi, "a": 1.0, "b": 1.0, "lam0": 0.7, "x": xs, "y": ys, **kwargs}
    u, res = direct_frame_solve(**args)
    u_ref, res_ref = reference_direct_solve(**args)
    assert np.array_equal(u, u_ref) and res == res_ref


@pytest.mark.parametrize("case", ["soliton 33", "theta-uniform amsler 25"])
def test_stack_solve_matches_per_column_solve_on_angle_grids(case):
    from psurf.surface import reconstruct_frames
    from tests.conftest import theta_to_t
    if case == "soliton 33":
        xs = np.linspace(0.0, 1.0, 33)
        args = (kink_phi(xs[:, None], xs[None, :]), 1.0, 1.0, 1.0, xs, xs)
    else:
        ts = theta_to_t(np.linspace(-2.6, -0.15, 25))
        pair, _ = generalized_amsler_example(domain=(ts[0] - 1e-9, ts[-1] + 1e-9))
        fg = reconstruct_frames(pair, ts, ts, trunc=48, step=(ts[-1] - ts[0]) / 4096,
                                drift_samples=(1.0,))
        args = (fg.phi, fg.a_fn, fg.b_fn, 1.0, ts, ts)
    u, res = direct_frame_solve(*args)
    u_ref, res_ref = reference_direct_solve(*args)
    assert np.max(np.abs(u - u_ref)) < 1e-13 and abs(res - res_ref) < 1e-13


def test_stack_solve_rejects_a_misshapen_angle_grid():
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ValueError, match="shape"):
        direct_frame_solve(np.zeros((5, 4)), 1.0, 1.0, 1.0, xs, xs)
