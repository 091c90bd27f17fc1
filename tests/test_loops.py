import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psurf import loops as loops_module
from psurf.loops import (LaurentLoop, edge_norm, SU2_I, SU2_J, SU2_K, adjoint_rotation,
                         band_mask, band_slice, cauchy_product, degree_sum, evaluate, exp_loop,
                         inverse_one_sided, random_twisted_su_loop, random_twisted_unitary_loop,
                         su2_defect, su2_to_r3)
from tests.conftest import r3_to_su2

OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
# unitarity / determinant spot checks on the real axis
REAL_SAMPLES = np.array([0.25, 0.5, 1.0, 2.0, 4.0])


def test_identity_multiplication():
    rng = np.random.default_rng(1)
    g = random_twisted_unitary_loop(rng)
    prod = LaurentLoop.identity() * g
    assert (prod - g).max_coeff_norm() < 1e-15


def test_single_term_product_degrees():
    e = LaurentLoop.from_terms({1: OFFDIAG})
    sq = e * e
    assert (sq.d_min, sq.d_max) == (2, 2)
    assert np.allclose(sq.coeff(2), OFFDIAG @ OFFDIAG)


def test_evaluation_is_ring_homomorphism():
    rng = np.random.default_rng(2)
    for _ in range(20):
        g = random_twisted_unitary_loop(rng, degree=8, alg_degree=3)
        h = random_twisted_unitary_loop(rng, degree=8, alg_degree=3)
        for lam in (0.5, 1.0, 2.0):
            lhs = (g * h).evaluate(lam)
            rhs = g.evaluate(lam) @ h.evaluate(lam)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_twist_preserved_under_multiplication():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_twisted_unitary_loop(rng)
        h = random_twisted_unitary_loop(rng)
        assert (g * h).check_twist() < 1e-12


def test_check_twist_detects_patterns():
    ok = LaurentLoop.from_terms({1: 0.5j * OFFDIAG})
    assert ok.check_twist() == 0.0
    bad = LaurentLoop.from_terms({0: np.array([[0.0, 1.0], [-1.0, 0.0]])})
    assert bad.check_twist() > 0.5


def reference_check_twist(g):
    """Per-degree loop the parity-mask check_twist replaced."""
    res = 0.0
    for k in g.degrees:
        c = g.coeffs[k - g.d_min]
        if k % 2 == 0:
            res = max(res, abs(c[0, 1]), abs(c[1, 0]))
        else:
            res = max(res, abs(c[0, 0]), abs(c[1, 1]))
    return float(res)


@pytest.mark.parametrize("d_min", [-7, -4, 0, 3])
def test_check_twist_matches_per_degree_reference(d_min):
    rng = np.random.default_rng(20 + d_min)
    for n in (1, 2, 9):
        g = random_loop(rng, n, d_min=d_min)
        assert g.check_twist() == reference_check_twist(g)
        # one off-twist entry, placed at a random degree
        twisted = random_twisted_unitary_loop(rng)
        bad = twisted.coeffs.copy()
        k = int(rng.integers(bad.shape[0]))
        bad[k, 0, (k + twisted.d_min + 1) % 2] += 0.25
        h = LaurentLoop(bad, twisted.d_min)
        assert h.check_twist() == reference_check_twist(h) == 0.25


def test_unitarity_samples():
    rng = np.random.default_rng(4)
    g = random_twisted_unitary_loop(rng, pad=20, decay=0.25)
    u_def, det_def = su2_defect(g.evaluate(REAL_SAMPLES))
    assert u_def < 1e-10 and det_def < 1e-10


def test_dagger_inverts_a_unitary_loop():
    rng = np.random.default_rng(5)
    g = random_twisted_unitary_loop(rng, pad=20, decay=0.25)
    prod = (g * g.dagger()).truncated(-6, 6)
    assert (prod - LaurentLoop.identity().truncated(-6, 6)).max_coeff_norm() < 1e-10


def test_evaluate_at_zero_with_negative_degrees():
    g = LaurentLoop.from_terms({-1: np.eye(2)})
    with pytest.raises(ValueError, match="lambda = 0"):
        g.evaluate(0.0)
    const = LaurentLoop.constant(np.diag([3.0, 4.0]))
    assert np.allclose(const.evaluate(7.0), np.diag([3.0, 4.0]))


def test_log_lambda_derivative_basics():
    const = LaurentLoop.constant(np.eye(2))
    assert const.log_lambda_derivative().max_coeff_norm() == 0.0
    a = np.diag([1.0, 2.0]).astype(complex)
    b = np.diag([3.0, 4.0]).astype(complex)
    g = LaurentLoop.from_terms({1: a, -1: b})
    d = g.log_lambda_derivative()
    assert np.allclose(d.coeff(1), a)
    assert np.allclose(d.coeff(-1), -b)


def test_log_lambda_derivative_matches_finite_difference():
    rng = np.random.default_rng(6)
    g = random_twisted_unitary_loop(rng)
    lam0 = 1.3
    h = 1e-5
    fd = (g.evaluate(lam0 * np.exp(h)) - g.evaluate(lam0 * np.exp(-h))) / (2 * h)
    exact = g.log_lambda_derivative().evaluate(lam0)
    assert np.max(np.abs(exact - fd)) < 1e-9


def test_log_lambda_derivative_leibniz():
    rng = np.random.default_rng(7)
    g = random_twisted_unitary_loop(rng)
    h = random_twisted_unitary_loop(rng)
    lhs = (g * h).log_lambda_derivative()
    rhs = g.log_lambda_derivative() * h + g * h.log_lambda_derivative()
    assert (lhs - rhs).max_coeff_norm() < 1e-12


def test_su2_basis_table():
    v = su2_to_r3(0.5 * np.array([[0.0, 1j], [1j, 0.0]]))
    assert np.allclose(v, [1.0, 0.0, 0.0])
    assert np.allclose(r3_to_su2([1.0, 0.0, 0.0]), SU2_I)


def test_bracket_is_cross_product():
    br = SU2_I @ SU2_J - SU2_J @ SU2_I
    assert np.allclose(br, SU2_K)
    rng = np.random.default_rng(8)
    for _ in range(10):
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        br = r3_to_su2(v) @ r3_to_su2(w) - r3_to_su2(w) @ r3_to_su2(v)
        assert np.max(np.abs(su2_to_r3(br) - np.cross(v, w))) < 1e-14


def test_su2_roundtrip_and_rejection():
    rng = np.random.default_rng(9)
    v = rng.standard_normal(3)
    assert np.allclose(su2_to_r3(r3_to_su2(v)), v)
    with pytest.raises(ValueError, match="skew"):
        su2_to_r3(np.eye(2))


def test_adjoint_rotation_basics():
    assert np.allclose(adjoint_rotation(np.eye(2)), np.eye(3))
    assert np.allclose(adjoint_rotation(-np.eye(2)), np.eye(3))
    th = 0.9
    r = adjoint_rotation(np.diag([np.exp(0.5j * th), np.exp(-0.5j * th)]))
    expect = np.array([[np.cos(th), -np.sin(th), 0.0],
                       [np.sin(th), np.cos(th), 0.0],
                       [0.0, 0.0, 1.0]])
    assert np.max(np.abs(r - expect)) < 1e-12
    with pytest.raises(ValueError, match="SU\\(2\\)"):
        adjoint_rotation(np.diag([2.0, 0.5]))


def test_adjoint_rotation_homomorphism():
    rng = np.random.default_rng(10)
    for _ in range(10):
        g1 = random_twisted_unitary_loop(rng, pad=16).evaluate(1.0)
        g2 = random_twisted_unitary_loop(rng, pad=16).evaluate(1.0)
        lhs = adjoint_rotation(g1 @ g2, tol=1e-6)
        rhs = adjoint_rotation(g1, tol=1e-6) @ adjoint_rotation(g2, tol=1e-6)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_trim_and_truncate():
    g = LaurentLoop.from_terms({-2: 1e-20 * np.eye(2), 0: np.eye(2), 3: 1e-19 * np.eye(2)})
    t = g.trim()
    assert (t.d_min, t.d_max) == (0, 0)
    cut = g.truncated(0, 1)
    assert (cut.d_min, cut.d_max) == (0, 1)


def test_reflect_swaps_radial_samples():
    rng = np.random.default_rng(11)
    g = random_twisted_unitary_loop(rng)
    assert np.max(np.abs(g.reflect().evaluate(2.0) - g.evaluate(0.5))) < 1e-14


def test_inverse_one_sided():
    x = LaurentLoop.from_terms({1: 0.4j * OFFDIAG})
    e = exp_loop(x, (0, 16))
    inv = inverse_one_sided(e, 16)
    resid = (e * inv).truncated(0, 16) - LaurentLoop.identity().truncated(0, 16)
    assert resid.max_coeff_norm() < 1e-14
    with pytest.raises(ValueError, match="one-sided"):
        inverse_one_sided(LaurentLoop.from_terms({-1: np.eye(2), 1: np.eye(2)}), 8)


def test_exp_of_su_loop_is_unitary():
    rng = np.random.default_rng(12)
    x = random_twisted_su_loop(rng, degree=2, scale=0.4, decay=0.3)
    g = exp_loop(x, (-24, 24))
    u_def, det_def = su2_defect(g.evaluate(REAL_SAMPLES))
    assert u_def < 1e-11 and det_def < 1e-11
    assert g.check_twist() < 1e-14


def test_loops_are_immutable():
    g = LaurentLoop.identity()
    with pytest.raises(ValueError):
        g.coeffs[0, 0, 0] = 5.0


# -- the Cauchy-product kernel -----------------------------------------------

def reference_product(a, b):
    """Per-slice Cauchy product: the loop the one-GEMM-per-coefficient kernel replaced."""
    n = a.shape[0] + b.shape[0] - 1
    out = np.zeros((n, 2, 2), dtype=complex)
    if b.shape[0] <= a.shape[0]:
        for j in range(b.shape[0]):
            out[j:j + a.shape[0]] += a @ b[j]
    else:
        for j in range(a.shape[0]):
            out[j:j + b.shape[0]] += a[j] @ b
    return out


def random_loop(rng, n, d_min=0):
    return LaurentLoop(rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2)),
                       d_min)


def kernel_tol(a, b):
    return 1e-13 * np.linalg.norm(a) * np.linalg.norm(b)


VIEWS = {
    "plain": lambda g: g,
    "reflect": LaurentLoop.reflect,
    "transpose_loop": LaurentLoop.transpose_loop,
    "dagger": LaurentLoop.dagger,
}


@pytest.mark.parametrize("view", sorted(VIEWS))
@pytest.mark.parametrize("na, nb", [(1, 5), (5, 1), (3, 97), (97, 3), (49, 49), (193, 97)])
def test_product_matches_per_slice_reference(na, nb, view):
    rng = np.random.default_rng(na * 1000 + nb)
    g = VIEWS[view](random_loop(rng, na, d_min=-(na // 2)))
    h = VIEWS[view](random_loop(rng, nb, d_min=1 - nb))
    prod = g * h
    assert (prod.d_min, prod.d_max) == (g.d_min + h.d_min, g.d_max + h.d_max)
    ref = reference_product(g.coeffs, h.coeffs)
    assert np.max(np.abs(prod.coeffs - ref)) <= kernel_tol(g.coeffs, h.coeffs)


@pytest.mark.parametrize("view", sorted(VIEWS))
@pytest.mark.parametrize("n", [1, 97])
def test_constant_matrix_products_match_reference(n, view):
    rng = np.random.default_rng(n)
    g = VIEWS[view](random_loop(rng, n, d_min=-3))
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    right = g * m
    left = g.__rmul__(m)
    for out in (right, left):
        assert (out.d_min, out.d_max) == (g.d_min, g.d_max)
    assert np.max(np.abs(right.coeffs - g.coeffs @ m)) <= kernel_tol(g.coeffs, m)
    assert np.max(np.abs(left.coeffs - m @ g.coeffs)) <= kernel_tol(g.coeffs, m)
    # a real 2x2 gauge (the T_x rotation) promotes to complex like a loop would
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    assert np.max(np.abs((g * rot).coeffs - g.coeffs @ rot)) <= kernel_tol(g.coeffs, rot)


STACK_CASES = [(1, 1), (1, 6), (6, 1), (3, 97), (97, 3), (50, 50), (150, 149), (149, 150)]


def _stack(rng, *shape):
    return rng.standard_normal(shape + (2, 2)) + 1j * rng.standard_normal(shape + (2, 2))


@pytest.mark.parametrize("na, nb", STACK_CASES)
def test_stacked_product_equals_per_node_products(na, nb):
    rng = np.random.default_rng(7 * na + nb)
    a, b = _stack(rng, 12, na), _stack(rng, 12, nb)
    ref = np.stack([cauchy_product(a[n], b[n]) for n in range(12)])
    assert np.array_equal(cauchy_product(a, b), ref)
    # one operand shared by every node broadcasts over the node axis
    a1, b1 = a[0], b[0]
    assert np.array_equal(cauchy_product(a, b1), np.stack([cauchy_product(x, b1) for x in a]))
    assert np.array_equal(cauchy_product(a1, b), np.stack([cauchy_product(a1, y) for y in b]))


def test_stacked_product_broadcasts_two_node_axes():
    rng = np.random.default_rng(11)
    a, b = _stack(rng, 3, 1, 5), _stack(rng, 4, 7)
    ref = np.array([[cauchy_product(a[i, 0], b[j]) for j in range(4)] for i in range(3)])
    assert np.array_equal(cauchy_product(a, b), ref)


def test_band_slice_of_a_stack_slices_every_node():
    rng = np.random.default_rng(12)
    c = _stack(rng, 4, 6)
    for lo, hi in ((-5, 1), (0, 2), (4, 9), (-9, -6)):
        ref = np.stack([band_slice(x, -2, lo, hi) for x in c])
        assert np.array_equal(band_slice(c, -2, lo, hi), ref)


# -- ring properties (hypothesis) ---------------------------------------------

def _twisted(coeffs, d_min):
    """Zero the entries that the twist pattern forbids at each degree."""
    out = coeffs.copy()
    for i in range(out.shape[0]):
        if (d_min + i) % 2 == 0:
            out[i, 0, 1] = out[i, 1, 0] = 0.0
        else:
            out[i, 0, 0] = out[i, 1, 1] = 0.0
    return LaurentLoop(out, d_min, copy=False)


@st.composite
def loops(draw, twisted=False):
    n = draw(st.integers(1, 40))
    d_min = draw(st.integers(-20, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coeffs = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    if twisted:
        return _twisted(coeffs, d_min)
    return LaurentLoop(coeffs, d_min, copy=False)


def _abs_sum(g, radius=1.0):
    """sum_k ||c_k|| radius^k: bounds |g(lambda)| on |lambda| = radius."""
    ks = np.arange(g.d_min, g.d_max + 1, dtype=float)
    return float(np.sum(np.linalg.norm(g.coeffs, axis=(1, 2)) * radius ** ks))


@settings(deadline=None)
@given(loops(), loops(), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 2 * np.pi))
def test_evaluation_homomorphism_property(g, h, radius, angle):
    lam = radius * np.exp(1j * angle)
    lhs = (g * h).evaluate(lam)
    rhs = g.evaluate(lam) @ h.evaluate(lam)
    scale = _abs_sum(g, radius) * _abs_sum(h, radius)
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale


@settings(deadline=None)
@given(loops(), loops(), loops())
def test_product_is_associative(g, h, k):
    lhs, rhs = (g * h) * k, g * (h * k)
    assert (lhs.d_min, lhs.d_max) == (rhs.d_min, rhs.d_max)
    scale = _abs_sum(g) * _abs_sum(h) * _abs_sum(k)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13 * scale


@settings(deadline=None)
@given(loops(twisted=True), loops(twisted=True))
def test_twisted_loops_are_closed_under_product(g, h):
    assert (g * h).check_twist() == 0.0


@settings(deadline=None)
@given(loops())
def test_reflect_dagger_and_transpose_are_involutions(g):
    for op in (LaurentLoop.reflect, LaurentLoop.dagger, LaurentLoop.transpose_loop):
        back = op(op(g))
        assert back.d_min == g.d_min and np.array_equal(back.coeffs, g.coeffs)


@settings(deadline=None)
@given(loops(), st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       st.floats(0.0, 2 * np.pi))
def test_adjoint_rotation_matches_conjugation_in_r3(g, v, angle):
    # the unitary QR factor of one value of the loop, scaled to det 1
    q, _ = np.linalg.qr(g.evaluate(np.exp(1j * angle)))
    u = q / np.sqrt(np.linalg.det(q))
    v = np.array(v)
    scale = max(1.0, np.linalg.norm(v))
    assert np.max(np.abs(su2_to_r3(r3_to_su2(v)) - v)) <= 1e-16 * scale
    conj = su2_to_r3(u @ r3_to_su2(v) @ u.conj().T)
    assert np.max(np.abs(conj - adjoint_rotation(u) @ v)) <= 1e-13 * scale


def test_ndarray_times_loop_is_a_constant_loop_product():
    rng = np.random.default_rng(11)
    g = random_twisted_unitary_loop(rng)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    prod = m * g
    assert isinstance(prod, LaurentLoop)
    assert (prod - LaurentLoop.constant(m) * g).max_coeff_norm() < 1e-15


@pytest.mark.parametrize("scalar", [np.int64(2), np.float64(2.0), np.complex128(2.0), 2, 2.0,
                                    1.5 - 0.5j, np.float32(0.5)])
def test_numpy_and_python_scalars_scale_loops(scalar):
    g = random_twisted_unitary_loop(np.random.default_rng(12))
    for prod in (scalar * g, g * scalar):
        assert isinstance(prod, LaurentLoop)
        assert prod.d_min == g.d_min
        assert np.array_equal(prod.coeffs, complex(scalar) * g.coeffs)


def test_loop_times_non_number_is_type_error():
    g = random_twisted_unitary_loop(np.random.default_rng(14))
    with pytest.raises(TypeError):
        g * "x"
    with pytest.raises(TypeError):
        "x" * g


def test_su2_and_adjoint_maps_act_on_stacks():
    rng = np.random.default_rng(13)
    vecs = rng.standard_normal((3, 4, 3))
    stack = np.array([[r3_to_su2(v) for v in row] for row in vecs])
    assert np.array_equal(su2_to_r3(stack), vecs)
    from scipy.linalg import expm
    gs = np.array([[expm(m) for m in row] for row in stack])
    rots = adjoint_rotation(gs)
    assert rots.shape == (3, 4, 3, 3)
    for i in range(3):
        for j in range(4):
            assert np.array_equal(rots[i, j], adjoint_rotation(gs[i, j]))


def test_stack_checks_name_the_worst_matrix():
    stack = np.array([SU2_I, SU2_J + 1e-3 * np.eye(2), SU2_K + 0.5 * np.eye(2)])
    with pytest.raises(ValueError, match=r"residual 1.41\) at index \(2,\)"):
        su2_to_r3(stack)
    gs = np.array([np.eye(2), 1.01 * np.eye(2), 1.1 * np.eye(2)], dtype=complex)
    with pytest.raises(ValueError, match=r"at index \(2,\)"):
        adjoint_rotation(gs)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trim_names_a_non_finite_coefficient(bad):
    g = random_twisted_unitary_loop(np.random.default_rng(12))
    c = g.coeffs.copy()
    c[3, 0, 0] = bad
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match=f"non-finite coefficient at degree {g.d_min + 3}$"):
        LaurentLoop(c, g.d_min).trim()     # inf * conj(inf) in the norm is nan
    assert LaurentLoop(np.zeros((3, 2, 2)), -1).trim().coeffs.shape == (1, 2, 2)


def test_edge_norm_reads_the_two_outermost_coefficients_off_degree_zero():
    c = np.zeros((7, 2, 2), dtype=complex)
    c[:, 0, 0] = [5.0, 1.0, 7.0, 8.0, 4.0, 2.0, 3.0]     # degrees -3..3
    assert edge_norm(LaurentLoop(c, -3)) == 5.0
    assert edge_norm(LaurentLoop(c[3:], 0)) == 3.0       # degrees 0..3: top end only
    assert edge_norm(LaurentLoop(c[:4], -3)) == 5.0      # degrees -3..0: bottom end only
    assert edge_norm(LaurentLoop(c[3:5], 0)) == 8.0      # degrees 0..1 read degree 0 too
    assert edge_norm(LaurentLoop.identity()) == 0.0


# -- the evaluation and trim kernels against the code they replaced -----------

def reference_trim(coeffs, d_min, rel):
    """LaurentLoop.trim as written out before band_mask: (kept coefficients,
    their first degree), or None when no coefficient exceeds the cut."""
    norms = np.linalg.norm(coeffs, axis=(1, 2))
    cut = rel * float(np.max(norms))
    keep = np.nonzero(norms > cut)[0]
    if keep.size == 0:
        return None
    lo, hi = keep[0], keep[-1]
    return coeffs[lo:hi + 1], d_min + lo


def reference_node_trim_mask(chis, rel):
    """The per-node trim of measure_monodromy as written out before band_mask."""
    norms = np.linalg.norm(chis, axis=(-2, -1))
    keep = norms > rel * np.max(norms, axis=1, keepdims=True)
    return (np.logical_or.accumulate(keep, axis=1)
            & np.logical_or.accumulate(keep[:, ::-1], axis=1)[:, ::-1])


@st.composite
def coefficient_stacks(draw):
    """(..., K, 2, 2) stacks with up to two leading axes, coefficient norms
    spread over 18 decades so some ends fall below a trim cut, some all-zero
    loops, and optionally the degree-major layout of a FrameGrid tensor."""
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal(lead + (k, 2, 2)) + 1j * rng.standard_normal(lead + (k, 2, 2))
    c *= 10.0 ** rng.integers(-18, 1, size=lead + (k, 1, 1))
    c[np.asarray(rng.random(lead) < 0.25)] = 0.0
    if draw(st.booleans()):
        c = np.moveaxis(np.ascontiguousarray(np.moveaxis(c, -3, 0)), 0, -3)
    return c, draw(st.integers(-12, 12))


@settings(deadline=None)
@given(coefficient_stacks(), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 2 * np.pi))
def test_evaluation_kernels_reproduce_the_contractions_they_replaced(stack, radius, angle):
    c, d_min = stack
    ks = np.arange(d_min, d_min + c.shape[-3])
    lams = np.asarray(radius * np.exp(1j * angle * np.arange(1, 4)), dtype=complex)
    powers = lams[:, None] ** ks
    for idx in np.ndindex(c.shape[:-3]):     # LaurentLoop.evaluate
        loop = c[idx]
        ref = np.einsum("...k,kij->...ij", powers, loop)
        assert np.array_equal(evaluate(loop, d_min, lams), ref)
        assert np.array_equal(LaurentLoop(loop, d_min).evaluate(lams), ref)
    if c.ndim == 5:     # FrameGrid.evaluate and the Sym derivative weights
        lam0 = complex(lams[0])
        ref = np.einsum("k,ijkab->ijab", lam0 ** ks, c)
        assert np.array_equal(evaluate(c, d_min, lam0), ref)
        weights = ks * lam0 ** ks
        assert np.array_equal(degree_sum(c, weights), np.einsum("k,ijkab->ijab", weights, c))
    if c.ndim == 4:     # node values of the monodromy and the axis drift
        ref = np.einsum("lk,nkij->nlij", powers, c)
        assert np.array_equal(evaluate(c[:, None], d_min, lams), ref)


@settings(deadline=None)
@given(coefficient_stacks(), st.sampled_from([1e-15, 1e-14, 1e-13, 1e-12, 1e-6]))
def test_band_mask_reproduces_the_trims_it_replaced(stack, rel):
    c, d_min = stack
    mask = band_mask(c, rel)
    assert mask.shape == c.shape[:-2]
    for idx in np.ndindex(c.shape[:-3]):
        loop, keep = c[idx], mask[idx]
        ref = reference_trim(loop, d_min, rel)
        trimmed = LaurentLoop(loop, d_min).trim(rel)
        if ref is None:
            assert not keep.any()
            assert trimmed.d_min == 0 and np.array_equal(trimmed.coeffs, np.zeros((1, 2, 2)))
        else:
            assert np.array_equal(loop[keep], ref[0])
            assert trimmed.d_min == ref[1] and np.array_equal(trimmed.coeffs, ref[0])
    if c.ndim == 4:
        assert np.array_equal(mask, reference_node_trim_mask(c, rel))


# -- the caches that depend only on shapes -------------------------------------

@settings(deadline=None)
@given(samples=st.sampled_from(["RESIDUAL_LAMBDAS", "CIRCLE64_LAMBDAS"]),
       calls=st.lists(st.tuples(st.integers(-60, 60), st.integers(1, 120)), min_size=1,
                      max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_cached_evaluate_matches_the_uncached_power_table(samples, calls, seed):
    lams = getattr(loops_module, samples)
    rng = np.random.default_rng(seed)
    loops_module._POWER_TABLES.clear()   # the drawn calls grow the table from cold
    for d_min, k in calls:
        c = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
        ref = np.einsum("...k,...kij->...ij", lams[:, None] ** np.arange(d_min, d_min + k), c)
        assert np.array_equal(evaluate(c, d_min, lams), ref)
        assert np.array_equal(LaurentLoop(c, d_min).evaluate(lams), ref)


def test_a_wide_evaluation_after_a_narrow_one_widens_the_table():
    lams = loops_module.RESIDUAL_LAMBDAS
    rng = np.random.default_rng(13)
    loops_module._POWER_TABLES.clear()
    for d_min, k in ((0, 3), (-50, 120), (-2, 4)):
        c = rng.standard_normal((k, 2, 2)) + 1j * rng.standard_normal((k, 2, 2))
        ref = np.einsum("...k,...kij->...ij", lams[:, None] ** np.arange(d_min, d_min + k), c)
        assert np.array_equal(evaluate(c, d_min, lams), ref)
    lo, table = loops_module._POWER_TABLES[lams.tobytes()]
    assert (lo, table.shape) == (-50, (lams.size, 120))


def test_shape_caches_stay_bounded_after_many_sample_sets():
    rng = np.random.default_rng(14)
    c = rng.standard_normal((5, 2, 2)) + 0j
    for _ in range(3 * loops_module.POWER_TABLE_SETS):
        lams = np.exp(1j * rng.random(4))
        assert np.array_equal(evaluate(c, -2, lams),
                              np.einsum("...k,...kij->...ij", lams[:, None] ** np.arange(-2, 3), c))
    assert len(loops_module._POWER_TABLES) <= loops_module.POWER_TABLE_SETS
    for k in range(1, 3 * loops_module._twist_mask.cache_info().maxsize):
        LaurentLoop(np.zeros((k, 2, 2)), -k).check_twist()
    info = loops_module._twist_mask.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
