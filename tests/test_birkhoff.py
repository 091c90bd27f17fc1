import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psurf import birkhoff
from psurf.birkhoff import (RESIDUAL_TOL, FactorizationFailure, _residual_samples,
                            _solve_plus_star, split_minus_star_plus, split_plus_minusfree,
                            split_plus_star_minus)
from psurf.loops import LaurentLoop, random_twisted_unitary_loop, su2_defect


def test_identity_splits_trivially():
    for split in (split_plus_star_minus, split_minus_star_plus, split_plus_minusfree):
        r = split(LaurentLoop.identity())
        assert r.residual < 1e-14
        assert (r.plus - LaurentLoop.identity()).max_coeff_norm() < 1e-14
        assert (r.minus - LaurentLoop.identity()).max_coeff_norm() < 1e-14


def test_plus_input_passes_through():
    rng = np.random.default_rng(0)
    g = random_twisted_unitary_loop(rng)
    p = split_plus_star_minus(g).plus       # star-normalized plus loop
    r = split_plus_star_minus(p)
    assert (r.minus - LaurentLoop.identity()).max_coeff_norm() < 1e-12
    assert (r.plus - p).max_coeff_norm() < 1e-12


def test_constant_diagonal_goes_to_plus_side():
    d = LaurentLoop.constant(np.diag([np.exp(0.4j), np.exp(-0.4j)]))
    r = split_minus_star_plus(d)
    assert (r.minus - LaurentLoop.identity()).max_coeff_norm() < 1e-14
    assert (r.plus - d).max_coeff_norm() < 1e-14


def test_multiply_back_and_normalization():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = random_twisted_unitary_loop(rng)
        r = split_plus_star_minus(g, trunc=24)
        assert r.residual < 1e-9
        assert np.max(np.abs(r.plus.coeff(0) - np.eye(2))) < 1e-12
        assert r.plus.check_twist() < 1e-10
        assert r.minus.check_twist() < 1e-10
        assert r.plus.d_min == 0 and r.minus.d_max == 0


def test_minus_star_plus_consistency():
    rng = np.random.default_rng(2)
    g = random_twisted_unitary_loop(rng)
    r = split_minus_star_plus(g, trunc=24)
    assert r.residual < 1e-9
    assert np.max(np.abs(r.minus.coeff(0) - np.eye(2))) < 1e-12
    samples = np.exp(2j * np.pi * np.arange(16) / 16)
    back = r.minus.evaluate(samples) @ r.plus.evaluate(samples)
    assert np.max(np.abs(back - g.evaluate(samples))) < 1e-9


def test_plus_minusfree_convention():
    rng = np.random.default_rng(3)
    g = random_twisted_unitary_loop(rng)
    r = split_plus_minusfree(g, trunc=24)
    # g * minus_star = plus up to the residual
    samples = np.exp(2j * np.pi * np.arange(16) / 16)
    lhs = g.evaluate(samples) @ r.minus.evaluate(samples)
    assert np.max(np.abs(lhs - r.plus.evaluate(samples))) < 1e-9
    assert np.max(np.abs(r.minus.coeff(0) - np.eye(2))) < 1e-12


def test_minus_star_input_to_plus_minusfree():
    # input already in Lambda^-_*: the arrangement is (I, g^-1)
    rng = np.random.default_rng(4)
    g = random_twisted_unitary_loop(rng)
    m = split_plus_minusfree(g).minus       # Lambda^-_* loop
    r = split_plus_minusfree(m)
    assert (r.plus - LaurentLoop.identity()).max_coeff_norm() < 1e-10
    ident = (m * r.minus).truncated(-24, 0)
    assert (ident - LaurentLoop.identity().truncated(-24, 0)).max_coeff_norm() < 1e-9


def test_idempotence():
    rng = np.random.default_rng(5)
    g = random_twisted_unitary_loop(rng)
    r1 = split_plus_star_minus(g)
    r2 = split_plus_star_minus(r1.plus * r1.minus)
    assert (r1.plus - r2.plus).max_coeff_norm() < 1e-9
    assert (r1.minus - r2.minus).max_coeff_norm() < 1e-9


def test_factorization_failure_carries_residual(monkeypatch):
    rng = np.random.default_rng(6)
    g = random_twisted_unitary_loop(rng)
    # the splitters read both tolerances at call time
    monkeypatch.setattr(birkhoff, "RESIDUAL_TOL", 1e-30)
    monkeypatch.setattr(birkhoff, "TAIL_TOL", 1e-30)
    for split, shape in ((split_plus_star_minus, "plus*minus"),
                         (split_minus_star_plus, "plus*minus"),
                         (split_plus_minusfree, "plus*minus_star^-1")):
        with pytest.raises(FactorizationFailure,
                           match=rf"^{re.escape(shape)} splitting did not resolve") as exc:
            split(g)
        for value in (exc.value.residual, exc.value.tail_norm):
            assert value is not None and np.isfinite(value)
        assert f"residual {exc.value.residual:.3g}, tail {exc.value.tail_norm:.3g}" \
            in str(exc.value)


def test_unitary_factors_track_input_defect():
    # factors of a nearly unitary loop stay nearly unitary on the circle
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = random_twisted_unitary_loop(rng, pad=16, decay=0.25)
        in_def = max(su2_defect(g.evaluate(np.array([0.5, 1.0, 2.0]))))
        r = split_plus_star_minus(g, trunc=40)
        lam = np.array([1.0])
        for fac in (r.plus, r.minus):
            v = fac.evaluate(lam)[0]
            d = np.max(np.abs(np.conj(v.T) @ v - np.eye(2)))
            assert d < max(100 * in_def, 1e-9)


@pytest.mark.parametrize("trunc", [0, -4])
def test_nonpositive_trunc_is_rejected(trunc):
    g = random_twisted_unitary_loop(np.random.default_rng(8))
    for split in (split_plus_star_minus, split_minus_star_plus, split_plus_minusfree):
        with pytest.raises(ValueError, match="trunc must be >= 1"):
            split(g, trunc=trunc)


# -- the parity solve --------------------------------------------------------

def block_solve_reference(g, n):
    """The dense 2x2-block Toeplitz least-squares solve the parity split replaced."""
    j_max = n + g.d_max
    if j_max < 1:
        return LaurentLoop.identity()
    # P[k-1, j-1] = c_{j-k}, k = 1..n, j = 1..j_max
    c = g.coeffs
    ks = np.arange(1, n + 1)
    js = np.arange(1, j_max + 1)
    idx = js[None, :] - ks[:, None] - g.d_min
    valid = (idx >= 0) & (idx < c.shape[0])
    blocks = np.zeros((n, j_max, 2, 2), dtype=complex)
    blocks[valid] = c[idx[valid]]
    # rows of h decouple: solve B^T x^T = r^T with two right-hand sides
    mat = blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * j_max).T
    rhs_idx = js - g.d_min
    rvalid = (rhs_idx >= 0) & (rhs_idx < c.shape[0])
    rhs_blocks = np.zeros((j_max, 2, 2), dtype=complex)
    rhs_blocks[rvalid] = c[rhs_idx[rvalid]]
    rhs = -rhs_blocks.transpose(0, 2, 1).reshape(2 * j_max, 2)
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    coeffs = np.zeros((n + 1, 2, 2), dtype=complex)
    coeffs[0] = np.eye(2)
    coeffs[1:] = sol.reshape(n, 2, 2).transpose(0, 2, 1)
    return LaurentLoop(coeffs, 0, copy=False)


SOLVE_INPUTS = {
    "plain": lambda g: g,
    # what split_minus_star_plus and split_plus_minusfree hand to the solve
    "reflect": LaurentLoop.reflect,
    "transpose_reflect": lambda g: g.transpose_loop().reflect(),
}


@pytest.mark.parametrize("view", sorted(SOLVE_INPUTS))
@pytest.mark.parametrize("n", [8, 24, 48])
@pytest.mark.parametrize("degree", [2, 4, 6, 8])
def test_parity_solve_matches_block_reference(degree, n, view):
    rng = np.random.default_rng(100 * degree + n)
    for _ in range(3):
        g = SOLVE_INPUTS[view](random_twisted_unitary_loop(rng, degree=degree, scale=1.0))
        h = _solve_plus_star(g, n)
        ref = block_solve_reference(g, n)
        assert h.d_min == ref.d_min == 0 and h.d_max == ref.d_max
        assert h.check_twist() == 0.0
        assert (h - ref).max_coeff_norm() <= 1e-12 * max(1.0, ref.max_coeff_norm())


def two_solve_reference(g, n):
    """The parity solve before the quaternion mirror: one least-squares solve
    per row of h."""
    j_max = n + g.d_max
    if j_max < 1:
        return LaurentLoop.identity()
    c = g.truncated(1 - n, j_max).coeffs
    ks = np.arange(1, n + 1)
    js = np.arange(1, j_max + 1)
    lag = js[:, None] - ks[None, :] + n - 1
    coeffs = np.zeros((n + 1, 2, 2), dtype=complex)
    coeffs[0] = np.eye(2)
    for p in (0, 1):
        col_h, col_hg = (ks + p) % 2, (js + p) % 2
        sol, *_ = np.linalg.lstsq(c[lag, col_h[None, :], col_hg[:, None]],
                                  -c[js + n - 1, p, col_hg], rcond=None)
        coeffs[ks, p, col_h] = sol
    return LaurentLoop(coeffs, 0, copy=False)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(2, 8), scale=st.floats(0.05, 1.0),
       view=st.sampled_from(sorted(SOLVE_INPUTS)), n=st.sampled_from([8, 24, 48]))
def test_mirrored_row_equals_the_two_solve_reference(seed, degree, scale, view, n):
    g = SOLVE_INPUTS[view](random_twisted_unitary_loop(np.random.default_rng(seed),
                                                       degree=degree, scale=scale))
    h, ref = _solve_plus_star(g, n), two_solve_reference(g, n)
    assert h.d_min == ref.d_min == 0
    assert np.array_equal(h.coeffs, ref.coeffs)


def test_solve_plans_grow_and_stay_bounded():
    rng = np.random.default_rng(12)
    wide = random_twisted_unitary_loop(rng, degree=8)
    narrow = random_twisted_unitary_loop(rng, degree=2)
    birkhoff._SOLVE_PLANS.clear()
    for g in (narrow, wide, narrow):     # the wide loop grows the plan of n = 24
        assert np.array_equal(_solve_plus_star(g, 24).coeffs, two_solve_reference(g, 24).coeffs)
    assert birkhoff._SOLVE_PLANS[24][1].size == 24 + wide.d_max
    for n in range(1, 3 * birkhoff.SOLVE_PLAN_SIZES):
        _solve_plus_star(narrow, n)
    assert len(birkhoff._SOLVE_PLANS) <= birkhoff.SOLVE_PLAN_SIZES


def test_splitters_reject_untwisted_input():
    g = random_twisted_unitary_loop(np.random.default_rng(9))
    bad = g.coeffs.copy()
    bad[-g.d_min, 0, 1] += 1e-3          # off-diagonal entry of the lambda^0 coefficient
    g_bad = LaurentLoop(bad, g.d_min)
    for split in (split_plus_star_minus, split_minus_star_plus, split_plus_minusfree):
        with pytest.raises(ValueError, match="not twisted: off-twist part 0.001"):
            split(g_bad)
        assert split(g).residual < 1e-9


@pytest.mark.parametrize("offset, entry", [(0, (1, 1)), (1, (1, 0))])
def test_splitters_reject_input_outside_the_real_form(offset, entry):
    # a row-1 entry on the twist pattern: lambda^0's diagonal, lambda^1's off-diagonal
    g = random_twisted_unitary_loop(np.random.default_rng(10))
    bad = g.coeffs.copy()
    bad[(-g.d_min + offset,) + entry] += 1e-3
    g_bad = LaurentLoop(bad, g.d_min)
    assert g_bad.check_twist() == 0.0
    for split in (split_plus_star_minus, split_minus_star_plus, split_plus_minusfree):
        with pytest.raises(ValueError,
                           match=r"not in the SU\(2\) real form: quaternion defect 0\.001 "):
            split(g_bad)


def test_non_finite_input_fails_before_any_lapack_call(capfd):
    g = random_twisted_unitary_loop(np.random.default_rng(11))
    bad = g.coeffs.copy()
    bad[2, 0, 1] = np.nan
    g_bad = LaurentLoop(bad, g.d_min)
    for split in (split_plus_star_minus, split_minus_star_plus, split_plus_minusfree):
        with pytest.raises(FactorizationFailure,
                           match=f"non-finite coefficient at degree {g.d_min + 2}$"):
            split(g_bad)
    assert capfd.readouterr().err == ""


# -- the three shapes (hypothesis) ---------------------------------------------

# each shape: its splitter, how its factors multiply back to g on sample
# values, which factor is star-normalized, and the remainder of the identity
# the splitter accepts on, as a loop (minus_star_plus reflects into the
# plus-star shape)
SHAPES = {
    "plus_star_minus": (split_plus_star_minus, lambda p, m: p @ m, "plus",
                        lambda g, p, m: g - p * m),
    "minus_star_plus": (split_minus_star_plus, lambda p, m: m @ p, "minus",
                        lambda g, p, m: g.reflect() - m.reflect() * p.reflect()),
    "plus_minusfree": (split_plus_minusfree, lambda p, m: p @ np.linalg.inv(m), "minus",
                       lambda g, p, m: g * m - p),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(2, 8), scale=st.floats(0.0, 1.0),
       pad=st.sampled_from([0, 16]))
def test_split_shapes_property(shape, seed, degree, scale, pad):
    split, back, star, remainder = SHAPES[shape]
    g = random_twisted_unitary_loop(np.random.default_rng(seed), degree=degree, scale=scale,
                                    pad=pad)
    r = split(g)
    # the radial probes of RESIDUAL_LAMBDAS can lie outside the factors' domain
    # of convergence; unless g's band is radially converged (as it mostly is
    # with pad 16) the splitter checks the circle alone, and so does this test
    samples = _residual_samples(g)
    got = back(r.plus.evaluate(samples), r.minus.evaluate(samples))
    assert np.max(np.abs(got - g.evaluate(samples))) <= RESIDUAL_TOL
    # the reported residual is the remainder of the identity on those samples
    expected = float(np.max(np.abs(remainder(g, r.plus, r.minus).evaluate(samples))))
    assert abs(r.residual - expected) <= 1e-12 * expected
    assert np.max(np.abs(getattr(r, star).coeff(0) - np.eye(2))) < 1e-12
    assert r.plus.d_min >= 0 and r.minus.d_max <= 0
    assert r.plus.check_twist() <= 1e-12 and r.minus.check_twist() <= 1e-12


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_an_accepted_first_attempt_evaluates_one_loop(monkeypatch, shape):
    calls = {"lstsq": 0, "evaluate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
    monkeypatch.setattr(LaurentLoop, "evaluate", counted("evaluate", LaurentLoop.evaluate))
    r = SHAPES[shape][0](random_twisted_unitary_loop(np.random.default_rng(13)))
    assert r.residual <= RESIDUAL_TOL
    # one solve: accepted at the first truncation, on one evaluated remainder
    assert calls == {"lstsq": 1, "evaluate": 1}
