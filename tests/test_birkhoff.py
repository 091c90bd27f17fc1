import numpy as np
import pytest

from psurf.birkhoff import (FactorizationFailure, split_minus_star_plus,
                            split_plus_minusfree, split_plus_star_minus)
from psurf.loops import LaurentLoop, random_twisted_unitary_loop


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


def test_factorization_failure_carries_residual():
    rng = np.random.default_rng(6)
    g = random_twisted_unitary_loop(rng)
    with pytest.raises(FactorizationFailure) as exc:
        split_plus_star_minus(g, residual_tol=1e-30, tail_tol=1e-30)
    assert exc.value.residual is not None


def test_unitary_factors_track_input_defect():
    # factors of a nearly unitary loop stay nearly unitary on the circle
    rng = np.random.default_rng(7)
    from psurf.loops import unitarity_defect
    for _ in range(5):
        g = random_twisted_unitary_loop(rng, pad=16, decay=0.25)
        in_def = max(unitarity_defect(g, samples=(0.5, 1.0, 2.0)))
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
