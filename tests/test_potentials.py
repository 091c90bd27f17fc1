import numpy as np
import pytest
from scipy.interpolate import CubicSpline as ScipyCubicSpline

from psurf.loops import LaurentLoop, _frob, band_slice, exp_loop
from psurf.loops import SYMMETRY_LAMBDAS
from psurf.potentials import (AMSLER_GAMMA_POLE, EQUIVARIANCE_SAMPLES, BoundaryAngles,
                              CubicSpline, SymmetryDescriptor, amsler_dgamma, amsler_gamma, cayley,
                              check_equivariance,
                              extract_diagonal_potentials, function_from_table,
                              gauge_transform, generalized_amsler_example,
                              normalized_from_boundary, pointwise, soliton_alpha,
                              soliton_beta, speed_fn, stretched_from_boundary,
                              x_axis_data, y_axis_data)
from psurf.potentials import _gauge_action
from psurf.surface import reconstruct_frames

ZETA = np.array([[0.0, 0.3j], [0.3j, 0.0]])


def soliton_bnd():
    return BoundaryAngles(alpha=soliton_alpha, beta=soliton_beta)


def test_normalized_structure():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    ex = pair.eta_x(0.3)
    assert (ex.d_min, ex.d_max) == (1, 1)
    ey = pair.eta_y(0.6)
    assert (ey.d_min, ey.d_max) == (-1, -1)
    a = soliton_alpha(0.3)
    expect = 0.5j * np.array([[0, np.exp(-1j * a)], [np.exp(1j * a), 0]])
    assert np.max(np.abs(ex.coeff(1) - expect)) < 1e-15
    b = soliton_beta(0.6)
    expect_y = -0.5j * np.array([[0, np.exp(1j * b)], [np.exp(-1j * b), 0]])
    assert np.max(np.abs(ey.coeff(-1) - expect_y)) < 1e-15


def test_normalized_zero_angles():
    pair = normalized_from_boundary(
        BoundaryAngles(alpha=lambda t: 0.0 * np.asarray(t), beta=lambda t: 0.0 * np.asarray(t)))
    assert np.max(np.abs(pair.eta_x(0.7).coeff(1) - 0.5j * np.array([[0, 1], [1, 0]]))) < 1e-15
    assert np.max(np.abs(pair.eta_y(0.2).coeff(-1) + 0.5j * np.array([[0, 1], [1, 0]]))) < 1e-15


def test_normalized_requires_alpha_zero():
    with pytest.raises(ValueError, match="alpha"):
        normalized_from_boundary(BoundaryAngles(alpha=lambda t: t + 1.0, beta=soliton_beta))


def test_normalized_rejects_speeds():
    bnd = BoundaryAngles(alpha=soliton_alpha, beta=soliton_beta, a=lambda t: 2.0 + 0 * t)
    with pytest.raises(ValueError, match="unit speeds"):
        normalized_from_boundary(bnd)


def test_skew_hermitian_on_real_axis():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    for t in np.linspace(0, 1, 7):
        for lam in (0.25, 1.0, 3.0):
            v = pair.eta_x(t).evaluate(lam)
            assert np.max(np.abs(v + np.conj(v.T))) < 1e-12
            w = pair.eta_y(t).evaluate(lam)
            assert np.max(np.abs(w + np.conj(w.T))) < 1e-12
        assert pair.eta_x(t).check_twist() < 1e-14


def test_axis_data_roundtrip():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    a_fn, alpha_fn = x_axis_data(pair)
    b_fn, beta_fn = y_axis_data(pair)
    ts = np.linspace(0, 1, 11)
    assert np.max(np.abs(a_fn(ts) - 1.0)) < 1e-12
    assert np.max(np.abs(alpha_fn(0.37) - soliton_alpha(0.37))) < 1e-12
    assert np.max(np.abs(beta_fn(0.81) - soliton_beta(0.81))) < 1e-12


def test_generalized_axis_angle_is_the_exact_unwrapped_angle():
    # angles that wrap past 2 pi three times and more over the domain
    alpha = lambda t: 5.0 * np.asarray(t) + np.sin(3.0 * np.asarray(t))
    beta = lambda t: -7.0 * np.asarray(t) + np.exp(np.asarray(t) / 2.0)
    pair = stretched_from_boundary(BoundaryAngles(alpha=alpha, beta=beta, a=1.5, b=0.5),
                                   (0.0, 4.0), (0.0, 4.0))
    nodes = np.linspace(0.0, 4.0, 25)
    for (_, angle), exact in ((x_axis_data(pair), alpha), (y_axis_data(pair), beta)):
        assert abs(exact(4.0) - exact(0.0)) > 6 * np.pi
        got = np.array([float(angle(t)) for t in nodes])
        assert np.max(np.abs(got - exact(nodes))) < 1e-13


def test_stretched_pair_carries_speeds():
    bnd = BoundaryAngles(alpha=soliton_alpha, beta=soliton_beta,
                         a=lambda t: 2.0 + 0.0 * np.asarray(t),
                         b=lambda t: 0.5 + 0.0 * np.asarray(t))
    pair = stretched_from_boundary(bnd, (0, 1), (0, 1))
    assert pair.kind == "generalized"
    a_fn, alpha_fn = x_axis_data(pair)
    assert abs(float(a_fn(0.3)) - 2.0) < 1e-12
    assert abs(float(alpha_fn(0.3)) - soliton_alpha(0.3)) < 1e-10


def test_gauge_identity_is_noop():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    gauged = gauge_transform(pair)
    for t in (0.1, 0.9):
        assert ((gauged.eta_x(t) - pair.eta_x(t)).max_coeff_norm()) < 1e-13
        assert ((gauged.eta_y(t) - pair.eta_y(t)).max_coeff_norm()) < 1e-13


def test_gauge_constant_diagonal_conjugates():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    d = LaurentLoop.constant(np.diag([np.exp(0.3j), np.exp(-0.3j)]))
    gauged = gauge_transform(pair, qx=d)
    t = 0.4
    expect = np.conj(d.coeff(0).T) @ pair.eta_x(t).coeff(1) @ d.coeff(0)
    assert np.max(np.abs(gauged.eta_x(t).coeff(1) - expect)) < 1e-14
    assert gauged.kind == "generalized"


def test_gauge_rejects_wrong_side():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    plus_loop = exp_loop(LaurentLoop.from_terms({1: ZETA}), (0, 12))
    with pytest.raises(ValueError, match="minus"):
        gauge_transform(pair, qx=plus_loop)
    with pytest.raises(ValueError, match="plus"):
        gauge_transform(pair, qy=plus_loop.reflect())
    # the side is read on the nonzero band: zero rows padded past degree 0 are no fault
    zero = np.zeros((2, 2))
    gauge_transform(pair, qx=LaurentLoop([np.eye(2), zero], 0),
                    qy=LaurentLoop([zero, np.eye(2)], -1))


def test_gauge_rejects_nonunitary():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    bad = LaurentLoop.constant(1.2 * np.eye(2))
    with pytest.raises(ValueError, match="unitary"):
        gauge_transform(pair, qx=bad)


def test_gauge_cocycle():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))

    def q1(x):
        return exp_loop(LaurentLoop.from_terms({-1: np.sin(x) * ZETA}), (-16, 0))

    def q2(x):
        return exp_loop(LaurentLoop.from_terms({-2: (0.2 * x * x) * 1j * np.diag([1.0, -1.0])}), (-16, 0))

    both = gauge_transform(gauge_transform(pair, qx=pointwise(q1)), qx=pointwise(q2))
    combined = gauge_transform(pair, qx=pointwise(lambda x: q1(x) * q2(x)))
    for t in (0.2, 0.8):
        diff = (both.eta_x(t) - combined.eta_x(t)).truncated(-8, 1)
        assert diff.max_coeff_norm() < 1e-8


def reference_gauge_action(eta_t, q, dq, t, h):
    """q^-1 eta q + q^-1 q' at one parameter as LaurentLoop products: q a
    constant loop or a callable t -> LaurentLoop, q' dq(t) or the 5-point
    central difference with step h."""
    if isinstance(q, LaurentLoop):
        return (q.dagger() * eta_t) * q
    q_t = q(t)
    if dq is not None:
        qd = dq(t)
    else:
        qd = LaurentLoop.zero()
        for k, w in zip((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0)):
            qd = qd + q(t + k * h).scaled(w / (12 * h))
    return (q_t.dagger() * eta_t) * q_t + q_t.dagger() * qd


def test_the_array_gauge_action_equals_the_loop_formula():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    ts = np.linspace(0.0, 1.0, 9)

    def q_loop(x):
        return exp_loop(LaurentLoop.from_terms({-1: np.sin(x) * ZETA}), (-16, 0))

    def dq_loop(x):
        return (LaurentLoop.from_terms({-1: ZETA}) * q_loop(x)).truncated(-16, 0) \
            .scaled(np.cos(x))

    const = LaurentLoop.constant(np.diag([np.exp(0.3j), np.exp(-0.3j)]))
    for q, dq in ((const, None), (q_loop, dq_loop), (q_loop, None)):
        q_arr = q if isinstance(q, LaurentLoop) else pointwise(q)
        dq_arr = None if dq is None else pointwise(dq)
        c, d = _gauge_action(pair.coeffs_x(ts), q_arr, dq_arr, ts, 1e-5)
        refs = [reference_gauge_action(pair.eta_x(t), q, dq, t, 1e-5) for t in ts]
        lo, hi = min(d, *(r.d_min for r in refs)), max(d + c.shape[1] - 1, *(r.d_max for r in refs))
        ref = np.stack([r.truncated(lo, hi).coeffs for r in refs])
        assert np.max(np.abs(band_slice(c, d, lo, hi) - ref)) <= 1e-13 * np.max(_frob(ref))


def test_the_gauged_pair_reads_its_gauge_once_per_request():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    q = pointwise(lambda x: exp_loop(LaurentLoop.from_terms({-1: np.sin(x) * ZETA}), (-16, 0)))
    calls = []

    def counted(ts):
        calls.append(ts.size)
        return q(ts)

    ts = np.linspace(0.0, 1.0, 9)
    # q is read once on the n parameters, and the central difference reads it
    # once more on the 4n shifted ones
    for dq, sizes in ((q, [ts.size]), (None, [ts.size, 4 * ts.size])):
        gauged = gauge_transform(pair, qx=counted, dqx=dq)
        calls.clear()
        gauged.coeffs_x(ts)
        assert calls == sizes


IDENT = lambda t: t
ONE = lambda t: 1.0


def test_descriptor_requires_the_derivatives():
    with pytest.raises(TypeError, match="dgamma1"):
        SymmetryDescriptor(gamma1=IDENT, gamma2=IDENT)


def test_equivariance_trivial_and_shift():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    rx, ry = check_equivariance(pair, SymmetryDescriptor(IDENT, IDENT, ONE, ONE))
    assert rx == 0.0 and ry == 0.0
    rx, _ = check_equivariance(pair, SymmetryDescriptor(lambda t: t + 0.2, IDENT, ONE, ONE),
                               sample_x=(0.0, 0.7))
    assert rx > 1e-3


def test_equivariance_rejects_critical_gamma():
    pair = normalized_from_boundary(soliton_bnd(), (0, 1), (0, 1))
    d = SymmetryDescriptor(gamma1=lambda t: t ** 2, gamma2=IDENT,
                           dgamma1=lambda t: 2 * t, dgamma2=ONE)
    with pytest.raises(ValueError, match="derivative"):
        check_equivariance(pair, d, sample_x=(0.0, 1.0))


def test_cayley_maps_line_to_circle():
    ts = np.linspace(-40, 40, 100)
    assert np.max(np.abs(np.abs(cayley(ts)) - 1.0)) < 1e-12


def test_amsler_structure_and_equivariance():
    pair, desc = generalized_amsler_example(domain=(-4.0, 4.0))
    loop = pair.eta_x(0.5)
    assert loop.check_twist() == 0.0
    assert (loop.d_min, loop.d_max) == (-1, 1)
    assert np.max(np.abs(loop.coeff(1) - loop.coeff(-1))) < 1e-15
    assert abs(loop.coeff(0)).max() < 1e-15
    for lam in (0.5, 1.0, 2.0):
        v = loop.evaluate(lam)
        assert np.max(np.abs(v + np.conj(v.T))) < 1e-13
    window = (-4.0, 0.28)   # gamma stays finite left of the pulled-back pole
    assert window[1] < AMSLER_GAMMA_POLE
    rx, ry = check_equivariance(pair, desc, sample_x=window, sample_y=window)
    assert rx < 1e-8 and ry < 1e-8


def reference_equivariance(eta, gamma, dgamma, w, window):
    """One axis of check_equivariance for a constant gauge w, written out."""
    res = 0.0
    for t in np.linspace(*window, EQUIVARIANCE_SAMPLES):
        diff = eta(gamma(t)).scaled(dgamma(t)) - (w.dagger() * eta(t)) * w
        res = max(res, float(np.max(np.abs(diff.evaluate(SYMMETRY_LAMBDAS)))))
    return res


def test_equivariance_reads_the_descriptor_bit_for_bit():
    pair, desc = generalized_amsler_example(domain=(-4.0, 4.0))
    win_x, win_y = (-4.0, 0.28), (-3.0, 0.1)
    rx, ry = check_equivariance(pair, desc, sample_x=win_x, sample_y=win_y)
    assert rx == reference_equivariance(pair.eta_x, amsler_gamma, amsler_dgamma, desc.wx, win_x)
    assert ry == reference_equivariance(pair.eta_y, amsler_gamma, amsler_dgamma, desc.wy, win_y)
    assert max(rx, ry) < 1e-12


def test_switching_equivariance_exchanges_the_axes():
    swap = SymmetryDescriptor(IDENT, IDENT, ONE, ONE, switches_axes=True)
    # eta_x = eta_y is invariant under lambda -> 1/lambda on the rotational example
    pair, _ = generalized_amsler_example(domain=(-4.0, 4.0))
    assert check_equivariance(pair, swap, sample_x=(-4.0, 0.28),
                              sample_y=(-4.0, 0.28)) == (0.0, 0.0)
    # the non-switching relation holds for any data under the identity
    asym = normalized_from_boundary(BoundaryAngles(alpha=lambda t: 0.9 * np.sin(2.0 * t),
                                                   beta=lambda t: 1.3 + 0.4 * np.cos(t)),
                                    (0, 1), (0, 1))
    assert check_equivariance(asym, SymmetryDescriptor(IDENT, IDENT, ONE, ONE)) == (0.0, 0.0)
    rx, ry = check_equivariance(asym, swap)
    assert rx > 1.0 and ry > 1.0
    kink = normalized_from_boundary(soliton_bnd(), (-1, 1), (-1, 1))
    rx, ry = check_equivariance(kink, swap)
    assert rx > 1.0 and ry > 1.0


def test_amsler_gamma_is_conjugated_rotation():
    mu = np.exp(2j * np.pi / 3)
    for t in (-2.0, -0.3, 0.1):
        w = cayley(amsler_gamma(t))
        assert abs(w - mu * cayley(t)) < 1e-12
    h = 1e-6
    fd = (amsler_gamma(0.2 + h) - amsler_gamma(0.2 - h)) / (2 * h)
    assert abs(fd - amsler_dgamma(0.2)) < 1e-8


def test_perturbed_amsler_breaks_equivariance():
    pair, desc = generalized_amsler_example(domain=(-4.0, 4.0))
    from psurf.potentials import _amsler_p

    def eta_bad(t):
        z = complex(_amsler_p(t)) + 0.1
        m = np.array([[0.0, z], [-np.conj(z), 0.0]])
        return LaurentLoop.from_terms({1: m, -1: m})

    from dataclasses import replace
    bad = replace(pair, coeffs_x=pointwise(eta_bad), coeffs_y=pointwise(eta_bad))
    rx, ry = check_equivariance(bad, desc, sample_x=(-4.0, 0.28), sample_y=(-4.0, 0.28))
    assert rx > 1e-3 and ry > 1e-3


def test_diagonal_extraction_requires_square_uniform(soliton_frames_small):
    from psurf.surface import reconstruct_frames
    pair = soliton_frames_small.pair
    xs = np.linspace(0, 1, 9)
    ys = np.linspace(0, 0.5, 9)
    bad = reconstruct_frames(pair, xs, ys, trunc=16)
    with pytest.raises(ValueError, match="square"):
        extract_diagonal_potentials(bad)


def test_diagonal_extraction_structure(soliton_frames_small):
    p = extract_diagonal_potentials(soliton_frames_small)
    loop = p.eta_x(0.5)
    assert (loop.d_min, loop.d_max) == (-1, 1)
    assert loop.check_twist() < 1e-14
    v = loop.evaluate(1.3)
    assert np.max(np.abs(v + np.conj(v.T))) < 1e-12
    assert p.coeffs_x is p.coeffs_y


def reference_diagonal_samples(frame_grid):
    """The diagonal Maurer-Cartan coefficients as a per-node loop of LaurentLoop sums."""
    x = frame_grid.x
    n, h = x.size, float(x[1] - x[0])
    samples = []
    for i in range(n):
        if i < 2:
            offs = np.arange(0, 5) - i
        elif i > n - 3:
            offs = np.arange(-4, 1) + (n - 1 - i)
        else:
            offs = np.arange(-2, 3)
        wts = np.linalg.solve(np.vander(offs * h, 5, increasing=True).T, np.eye(5)[1])
        du = frame_grid.loop(i + offs[0], i + offs[0]).scaled(wts[0])
        for o, w in zip(offs[1:], wts[1:]):
            du = du + frame_grid.loop(i + o, i + o).scaled(w)
        c = (frame_grid.loop(i, i).dagger() * du).truncated(-1, 1).coeffs.copy()
        for idx in range(3):
            m = 0.5 * (c[idx] - np.conj(c[idx].T))
            m -= 0.5 * np.trace(m) * np.eye(2)
            if (idx - 1) % 2 == 0:
                m[0, 1] = m[1, 0] = 0.0
            else:
                m[0, 0] = m[1, 1] = 0.0
            c[idx] = m
        samples.append(c)
    return np.stack(samples)


@pytest.mark.parametrize("n", [5, 6, 17])
def test_diagonal_extraction_equals_the_node_loop(soliton_pair, soliton_frames_small, n):
    f = soliton_frames_small if n == 17 else \
        reconstruct_frames(soliton_pair, np.linspace(0, 1, n), np.linspace(0, 1, n), trunc=24)
    ref = reference_diagonal_samples(f)
    p = extract_diagonal_potentials(f)
    got = np.stack([p.eta_x(t).coeffs for t in f.x])
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < 1e-12


def test_table_ingestion(tmp_path):
    ts = np.linspace(0, 1, 21)
    path = tmp_path / "alpha.csv"
    rows = "\n".join("%.17g,%.17g" % (t, np.sin(2 * t)) for t in ts)
    path.write_text("t,value\n" + rows + "\n")
    fn = function_from_table(str(path))
    assert abs(fn(0.5) - np.sin(1.0)) < 1e-6
    bad = tmp_path / "bad.csv"
    bad.write_text("0,0\n1,1\n")
    with pytest.raises(ValueError, match="header"):
        function_from_table(str(bad))


@pytest.mark.parametrize("n", [2, 3, 4, 65])
def test_cubic_spline_matches_the_scipy_reference(n):
    rng = np.random.default_rng(n)
    # non-uniform knots, each gap within a factor of 3 of the others
    knots = np.cumsum(rng.uniform(0.5, 1.5, n)) / n - 0.4
    t = np.linspace(knots[0] - 0.3, knots[-1] + 0.3, 397)   # beyond both ends too
    real = rng.standard_normal(n)
    multi = rng.standard_normal((n, 3, 4)) + 1j * rng.standard_normal((n, 3, 4))
    for values in (real, multi):
        ours, ref = CubicSpline(knots, values), ScipyCubicSpline(knots, values)
        assert np.array_equal(ours.x, knots)
        for nu in (0, 1):
            got, want = ours(t, nu), ref(t, nu)
            assert got.shape == want.shape and ours(0.1, nu).shape == values.shape[1:]
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_speed_fn_constants_callables_and_unit_default():
    ts = np.linspace(0, 1, 5)
    assert np.array_equal(speed_fn(None)(ts), np.ones(5))
    assert np.array_equal(speed_fn(2.5)(ts), np.full(5, 2.5))
    assert float(speed_fn(3)(0.3)) == 3.0
    fn = lambda t: 1.0 + t
    assert speed_fn(fn) is fn


def test_constant_speeds_reach_stretched_pair():
    bnd = BoundaryAngles(alpha=soliton_alpha, beta=soliton_beta, a=2.0, b=3.0)
    assert float(bnd.speed_a()(0.3)) == 2.0 and float(bnd.speed_b()(0.3)) == 3.0
    pair = stretched_from_boundary(bnd, (0, 1), (0, 1))
    # the lambda^1 entry of eta_x is i/2 a e^{-i alpha}, so its modulus is a / 2
    assert abs(abs(pair.eta_x(0.3).coeff(1)[0, 1]) - 1.0) < 1e-15
    assert abs(abs(pair.eta_y(0.6).coeff(-1)[0, 1]) - 1.5) < 1e-15
