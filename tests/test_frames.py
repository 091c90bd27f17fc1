import numpy as np
import pytest

from psurf import frames
from psurf.frames import AxisFramePath, IntegrationDrift, direct_frame_solve, integrate_axis
from psurf.loops import LaurentLoop, edge_norm
from psurf.potentials import generalized_amsler_example, pointwise, soliton_alpha
from tests.conftest import kink_phi

OFF = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# traced peak of one 4096-step gap on the band +-48: 0.86 MB in chunks of 64
# steps (0.40 MB of it the 65 checkpoints), 15.8 MB with the gap's maps built at once
MARCH_PEAK_BYTES = 4 * 2 ** 20


def eta_soliton(t):
    e = np.exp(1j * soliton_alpha(t))
    return LaurentLoop.from_terms({1: 0.5j * np.array([[0, np.conj(e)], [e, 0]])})


soliton = pointwise(eta_soliton)


def test_zero_potential_is_constant():
    eta = pointwise(lambda t: LaurentLoop.zero())
    ts = np.linspace(0, 1, 5)
    path = integrate_axis(eta, ts, step=1 / 256, band=(0, 4), t0=0.0)
    ident = LaurentLoop.identity().truncated(0, 4).coeffs
    assert path.d_min == 0 and np.array_equal(path.coeffs, np.stack([ident] * 5))


def test_constant_potential_closed_form():
    eta = pointwise(lambda t: LaurentLoop.from_terms({1: 0.5j * OFF}))
    ts = np.linspace(0, 1, 5)
    path = integrate_axis(eta, ts, step=1 / 256, band=(0, 24), t0=0.0)
    for lam in (0.5, 1.0, 2.0):
        got = path.frame_at(1.0).evaluate(lam)
        c, s = np.cos(lam / 2), np.sin(lam / 2)
        expect = np.array([[c, 1j * s], [1j * s, c]])
        assert np.max(np.abs(got - expect)) < 1e-11


def test_backward_integration_from_interior_anchor():
    eta = pointwise(lambda t: LaurentLoop.from_terms({1: 0.5j * OFF}))
    ts = np.linspace(-1.0, 1.0, 9)
    path = integrate_axis(eta, ts, step=1 / 256, band=(0, 24), t0=0.0)
    lam = 1.0
    got = path.frame_at(-1.0).evaluate(lam)
    c, s = np.cos(-lam / 2), np.sin(-lam / 2)
    assert np.max(np.abs(got - np.array([[c, 1j * s], [1j * s, c]]))) < 1e-11
    assert (path.frame_at(0.0) - LaurentLoop.identity().truncated(0, 24)).max_coeff_norm() < 1e-12


def test_order_four_convergence():
    ts = np.array([0.0, 1.0])
    ref = integrate_axis(soliton, ts, step=1 / 1024, band=(0, 24), t0=0.0).frame_at(1.0)
    errs = [(integrate_axis(soliton, ts, step=1 / n, band=(0, 24), t0=0.0).frame_at(1.0)
             - ref).max_coeff_norm() for n in (8, 16, 32)]
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for o in orders:
        assert 3.7 <= o <= 4.3


def test_local_ode_residual():
    ts = np.linspace(0, 1, 65)
    path = integrate_axis(soliton, ts, step=1 / 64, band=(0, 24), t0=0.0)
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
    path = integrate_axis(soliton, ts, step=1 / 256, band=(0, 24), t0=0.0)
    for lam in (0.5, 1.0, 2.0):
        for t in ts:
            v = path.frame_at(t).evaluate(lam)
            assert abs(v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0] - 1.0) < 1e-10


def reference_march(eta, t_from, targets, init, step, band, stagewise=False):
    """LaurentLoop-arithmetic RK4 at the march's stage times t + (h/2) k.  The
    stage products are untruncated and each step truncates once to the band,
    the arithmetic of the step maps; stagewise=True truncates every stage
    product instead."""
    cut = (lambda g: g.truncated(*band)) if stagewise else (lambda g: g)
    out, g, t = [], init.truncated(*band), t_from
    for t_next in targets:
        gap = t_next - t
        if abs(gap) > 0:
            nsub = max(1, int(np.ceil(abs(gap) / step)))
            h = gap / nsub
            for i in range(nsub):
                t_0, t_half, t_1 = (t + (0.5 * h) * k for k in (2 * i, 2 * i + 1, 2 * i + 2))
                k1 = cut(g * eta(t_0))
                k2 = cut((g + (0.5 * h) * k1) * eta(t_half))
                k3 = cut((g + (0.5 * h) * k2) * eta(t_half))
                k4 = cut((g + h * k3) * eta(t_1))
                g = (g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)).truncated(*band)
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
    # the step maps compose the four stages in another order than the loop
    # arithmetic, so the two agree to rounding, not to the bit
    amsler_eta = generalized_amsler_example()[0].eta_x
    eta, ts, t0, band = {
        "degree +1": (eta_soliton, np.linspace(0.0, 1.0, 9), 0.0, (0, 24)),
        "two-sided": (amsler_eta, np.linspace(-2.6, -0.15, 7), -2.6, (-16, 16)),
        "backward from interior anchor": (eta_soliton, np.linspace(-1.0, 1.0, 9), 0.3, (0, 24)),
    }[case]
    init = LaurentLoop.constant(np.diag([np.exp(0.2j), np.exp(-0.2j)]))
    new_eta, ref_eta = counted(eta), counted(eta)
    path = integrate_axis(pointwise(new_eta), ts, init=init, step=1 / 64, band=band, t0=t0,
                          drift_limit=np.inf)  # the arithmetic is compared, not the accuracy
    above, below = ts[ts >= t0], ts[ts < t0][::-1]
    ref = reference_march(ref_eta, t0, below, init, 1 / 64, band)[::-1] \
        + reference_march(ref_eta, t0, above, init, 1 / 64, band)
    assert path.d_min == band[0]
    assert np.max(np.abs(path.coeffs - np.stack(ref))) <= 1e-13
    # eta once per distinct stage time: t + h/2 and t + h per step, plus the
    # start of each nonzero gap, where the loop form evaluated eta four times a step
    steps, gaps = ref_eta.calls // 4, np.count_nonzero(ts != t0)
    assert new_eta.calls == 2 * steps + gaps and steps > 0


@pytest.mark.parametrize("half_width", [16, 24, 32])
def test_step_maps_are_at_least_as_accurate_as_stagewise_truncation(half_width):
    # on the two-sided case, against a march on the band +-64
    pair = generalized_amsler_example()[0]
    ts, band = np.linspace(-2.6, -0.15, 7), (-half_width, half_width)
    wide = integrate_axis(pair.coeffs_x, ts, step=1 / 64, band=(-64, 64), t0=ts[0],
                          drift_limit=np.inf)
    ref = wide.coeffs[:, 64 - half_width: 64 + half_width + 1]
    path = integrate_axis(pair.coeffs_x, ts, step=1 / 64, band=band, t0=ts[0],
                          drift_limit=np.inf)
    stagewise = np.stack(reference_march(pair.eta_x, ts[0], ts, LaurentLoop.identity(), 1 / 64,
                                         band, stagewise=True))
    assert np.max(np.abs(path.coeffs - ref)) <= np.max(np.abs(stagewise - ref))


def test_step_maps_do_not_depend_on_the_chunk_size(monkeypatch):
    pair = generalized_amsler_example()[0]
    ts = np.array([-2.6, -0.15])           # one gap of 628 steps, three chunks at the default

    def march():
        return integrate_axis(pair.coeffs_x, ts, step=1 / 256, band=(-24, 24), t0=ts[0],
                              drift_limit=np.inf).coeffs

    default = march()
    monkeypatch.setattr(frames, "MAP_CHUNK", 7)
    assert np.array_equal(march(), default)


def test_one_long_gap_marches_in_bounded_memory():
    # the step maps of a 4096-step gap, built at once, would hold several MB
    import tracemalloc
    pair = generalized_amsler_example()[0]
    ts = np.array([-2.6, -0.15])
    tracemalloc.start()
    try:
        integrate_axis(pair.coeffs_x, ts, step=(ts[1] - ts[0]) / 4096, band=(-48, 48),
                       t0=ts[0], drift_limit=np.inf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MARCH_PEAK_BYTES, peak


def test_checkpoints_hold_the_anchor_and_every_chunk_end():
    pair = generalized_amsler_example()[0]
    ts, step = np.array([-2.6, -1.0, -0.15]), 1 / 256
    path = integrate_axis(pair.coeffs_x, ts, step=step, band=(-24, 24), t0=-1.5,
                          drift_limit=np.inf)
    marks = path.checkpoints
    assert marks.d_min == -24 and marks.coeffs.shape[1:] == path.coeffs.shape[1:]
    assert np.all(np.diff(marks.t) > 0) and -1.5 in marks.t
    assert np.array_equal(marks.coeffs[marks.t == -1.5][0], LaurentLoop.identity().truncated(
        -24, 24).coeffs)
    # each recorded frame ends a chunk, and neighbours are at most a chunk apart
    for t, frame in zip(ts, path.coeffs):
        k = np.argmin(np.abs(marks.t - t))
        assert abs(marks.t[k] - t) < 1e-12 and np.array_equal(marks.coeffs[k], frame)
    assert np.max(np.diff(marks.t)) <= frames.MAP_CHUNK * step * (1 + 1e-12)


def test_a_continued_frame_does_not_depend_on_the_other_parameters():
    pair = generalized_amsler_example()[0]
    ts, step, band = np.linspace(-2.6, -0.15, 7), 1 / 256, (-24, 24)
    path = integrate_axis(pair.coeffs_x, ts, step=step, band=band, t0=-1.0, drift_limit=np.inf)
    # below the marched span, on a checkpoint, between checkpoints and beyond the span
    want = np.array([-2.7, -1.0, -0.98765, -0.5, -0.1])
    reads = []

    def eta(t_stages):
        reads.append(t_stages.size)
        return pair.coeffs_x(t_stages)

    def continued(t_values):
        return integrate_axis(eta, t_values, step=step, band=band, t0=-1.0,
                              checkpoints=path.checkpoints, drift_limit=np.inf)

    every = continued(want)
    assert every.checkpoints is path.checkpoints
    for n, t in enumerate(want):
        reads.clear()
        assert np.array_equal(continued([t]).coeffs[0], every.coeffs[n])
        if ts[0] <= t <= ts[-1]:
            # inside the span: at most MAP_CHUNK / 2 steps, eta read at their stage times
            assert sum(reads) <= frames.MAP_CHUNK + 1, (t, reads)
    assert np.array_equal(every.coeffs[1], path.checkpoints.frame_at(-1.0).coeffs)
    with pytest.raises(ValueError, match="checkpoints on the band"):
        integrate_axis(pair.coeffs_x, want, step=step, band=(-16, 16), t0=-1.0,
                       checkpoints=path.checkpoints)


def test_drift_error_on_coarse_step():
    amp = 60.0
    eta = pointwise(lambda t: LaurentLoop.from_terms({1: 0.5j * amp * OFF}))
    with pytest.raises(IntegrationDrift, match="drift"):
        integrate_axis(eta, np.linspace(0, 1, 3), step=0.5, band=(0, 24), t0=0.0)


def test_default_band_is_read_over_the_axis(monkeypatch, soliton_pair):
    # eta_x = t^2 (i/2) OFF lambda^-1 + (i/2) OFF lambda, kept as a gauged pair keeps
    # its coefficients: on the degrees that are nonzero somewhere on the request,
    # which at the anchor 0 alone is degree 1; reconstruct_frames marches the x
    # axis on trunc times the band read over the anchor and the samples
    from psurf import surface
    from psurf.potentials import PotentialPair

    def eta(ts):
        c = np.zeros((ts.size, 3, 2, 2), dtype=complex)
        c[:, 0] = (ts * ts)[:, None, None] * 0.5j * OFF
        c[:, 2] = 0.5j * OFF
        return (c, -1) if np.any(ts != 0.0) else (c[:, 2:], 1)

    class Marched(Exception):
        pass

    def recording(coeffs, ts, **kwargs):
        raise Marched(kwargs["band"], kwargs["t0"])

    monkeypatch.setattr(surface, "integrate_axis", recording)
    pair = PotentialPair(coeffs_x=eta, coeffs_y=soliton_pair.coeffs_y, kind="generalized",
                         domain_x=(0.0, 1.0), domain_y=(0.0, 1.0))
    xs = np.linspace(0, 1, 5)
    with pytest.raises(Marched) as exc:
        surface.reconstruct_frames(pair, xs, xs, trunc=24)
    assert exc.value.args == ((-24, 24), 0.0)


def test_frame_at_unknown_parameter():
    path = integrate_axis(soliton, np.linspace(0, 1, 5), step=1 / 64, band=(0, 24), t0=0.0)
    with pytest.raises(KeyError):
        path.frame_at(0.33)


def test_path_independence_exact_kink():
    xs = np.linspace(0, 1, 65)
    _, res = direct_frame_solve(kink_phi(xs[:, None], xs[None, :]), 1.0, 1.0, 1.0, xs, xs)
    assert res < 1e-6


def test_incompatible_angle_flagged():
    xs = np.linspace(0, 1, 17)
    _, res = direct_frame_solve(np.full((17, 17), np.pi / 2), 1.0, 1.0, 1.0, xs, xs)
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
    with pytest.raises(IntegrationDrift, match="drift") as exc:
        integrate_axis(pointwise(eta), ts, step=1 / 256, band=(0, 0), t0=0.0,
                       drift_samples=(1.0,))
    assert exc.value.t == ts[3] and f"at t = {ts[3]:.6g}, lambda = 1;" in str(exc.value)
    assert str(exc.value).startswith(f"unitarity drift {exc.value.drift:.3g} ")


def test_tail_is_read_at_every_recorded_frame():
    # eta = s(t) X with s = 24 (1 - 2t): G = exp(S(t) X), S = 24 (t - t^2), runs
    # out to S = 6 at t = 0.5 and back to the identity, so the band edge peaks
    # mid-march and the first and last frames alone show no tail
    def coeffs(ts):
        return (24.0 * (1.0 - 2.0 * ts))[:, None, None, None] * (0.5j * OFF), 1

    ts = np.linspace(0.0, 1.0, 9)
    path = integrate_axis(coeffs, ts, step=1 / 256, band=(0, 8), t0=0.0, drift_limit=np.inf)
    edges = [edge_norm(LaurentLoop(c, 0)) for c in path.coeffs]
    assert path.tail_norm == max(edges) == edges[4] > 1e6 * max(edges[0], edges[-1])


@pytest.mark.parametrize("samples, band", [
    ((1.0, np.nan), (-4, 4)), ((np.inf,), (0, 4)), ((0.0, 1.0), (-4, 4)), ((0.0,), (-1, 0)),
])
def test_bad_drift_samples_are_rejected(samples, band):
    eta = pointwise(lambda t: LaurentLoop.zero())
    with pytest.raises(ValueError, match="drift samples must be finite"):
        integrate_axis(eta, np.linspace(0, 1, 3), step=1 / 256, band=band, t0=0.0,
                       drift_samples=samples)


def test_zero_drift_sample_on_nonnegative_band():
    eta = pointwise(lambda t: LaurentLoop.from_terms({1: 0.5j * OFF}))
    path = integrate_axis(eta, np.linspace(0, 1, 3), step=1 / 64, band=(0, 24), t0=0.0,
                          drift_samples=(0.0, 1.0))
    assert path.drift < 1e-10


def test_non_finite_drift_is_integration_drift():
    eta = pointwise(lambda t: LaurentLoop.from_terms({1: np.full((2, 2), np.nan)}))
    with pytest.raises(IntegrationDrift, match="unitarity drift nan"):
        integrate_axis(eta, np.linspace(0, 1, 3), step=1 / 64, band=(0, 24), t0=0.0)


# -- the fixed-lambda direct solve against its per-column form ----------------

def reference_direct_solve(phi, a, b, lam0, x, y):
    """The per-column, per-node direct solve that the column-stack sweep replaced."""
    from scipy.interpolate import CubicSpline
    from psurf.potentials import speed_fn
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    a_fn, b_fn = speed_fn(a), speed_fn(b)
    arr = np.asarray(phi, dtype=float)
    rows = [CubicSpline(x, arr[:, j]) for j in range(y.size)]
    cols = [CubicSpline(y, arr[i, :]) for i in range(x.size)]

    def fn(xv, yv):
        j = int(np.argmin(np.abs(y - yv)))
        if abs(y[j] - yv) < 1e-12:
            return float(rows[j](xv))
        return float(cols[int(np.argmin(np.abs(x - xv)))](yv))

    fn_x = lambda xv, yv: float(rows[int(np.argmin(np.abs(y - yv)))](xv, 1))
    substeps = frames.DIRECT_SUBSTEPS

    def coef_x(yv):
        return lambda t: 0.5j * np.array([[-fn_x(t, yv), float(a_fn(t)) * lam0],
                                          [float(a_fn(t)) * lam0, fn_x(t, yv)]])

    def coef_y(xv):
        def coef(t):
            e = np.exp(1j * fn(xv, t))
            return (-0.5j * float(b_fn(t)) / lam0) * np.array([[0.0, e], [np.conj(e), 0.0]])
        return coef

    def sweep(u, coef, ts):     # at the march's stage times t + (h/2) k
        for t0, t1 in zip(ts[:-1], ts[1:]):
            h = (t1 - t0) / substeps
            for i in range(substeps):
                t, t_half, t_1 = (t0 + (0.5 * h) * k for k in (2 * i, 2 * i + 1, 2 * i + 2))
                k1 = u @ coef(t)
                k2 = (u + 0.5 * h * k1) @ coef(t_half)
                k3 = (u + 0.5 * h * k2) @ coef(t_half)
                k4 = (u + h * k3) @ coef(t_1)
                u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return u

    u = np.empty((x.size, y.size, 2, 2), dtype=complex)
    u[0, 0] = np.eye(2)
    for i in range(x.size - 1):
        u[i + 1, 0] = sweep(u[i, 0], coef_x(y[0]), x[i:i + 2])
    for i in range(x.size):
        for j in range(y.size - 1):
            u[i, j + 1] = sweep(u[i, j], coef_y(x[i]), y[j:j + 2])
    u_alt = np.eye(2, dtype=complex)
    for j in range(y.size - 1):
        u_alt = sweep(u_alt, coef_y(x[0]), y[j:j + 2])
    for i in range(x.size - 1):
        u_alt = sweep(u_alt, coef_x(y[-1]), x[i:i + 2])
    return u, float(np.max(np.abs(u[-1, -1] - u_alt)))


def speed_a(t):
    return 1.0 + 0.3 * np.sin(t)


def speed_b(t):
    return 0.8 + 0.1 * np.asarray(t) ** 2


@pytest.mark.parametrize("case", ["non-unit speeds", "non-square grid"])
def test_stack_solve_matches_per_column_solve_bit_for_bit(case):
    xs = np.linspace(0.0, 1.0, 9)
    ys, a, b = {
        "non-unit speeds": (np.linspace(-0.5, 0.5, 9), speed_a, speed_b),
        "non-square grid": (np.linspace(-0.5, 0.5, 14), 1.3, 1.0),
    }[case]
    args = (kink_phi(xs[:, None], ys[None, :]), a, b, 0.7, xs, ys)
    u, res = direct_frame_solve(*args)
    u_ref, res_ref = reference_direct_solve(*args)
    # the step maps compose the four stages in another order: equal to rounding
    assert np.max(np.abs(u - u_ref)) <= 1e-13 and abs(res - res_ref) <= 1e-13


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
