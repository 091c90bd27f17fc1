"""Numerical Birkhoff factorization of twisted loops.

The factorization identity is expanded in powers of lambda; the unknown
star-normalized factor's coefficients solve a block-Toeplitz least-squares
system built from the input coefficients, which the twist splits into two
scalar Toeplitz systems.  The other factor comes out as an
exact banded product.  Residuals are measured on a fixed circle/radial
sample set and truncation is widened adaptively when the retained tail of
the solved factor is not negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psurf.loops import (CIRCLE64_LAMBDAS, RESIDUAL_LAMBDAS, LaurentLoop, edge_norm,
                         inverse_one_sided)

DEFAULT_TRUNC = 24
MAX_TRUNC = 96
TAIL_TOL = 1e-8
RESIDUAL_TOL = 1e-6


def _residual_samples(g):
    """Circle samples, plus the radial probes when the input band is
    radially converged (otherwise 2^degree amplification of the retained
    tail would swamp the factorization error)."""
    amp = 0.0
    if g.d_max > 0:
        amp = max(amp, float(np.linalg.norm(g.coeff(g.d_max))) * 2.0 ** g.d_max)
    if g.d_min < 0:
        amp = max(amp, float(np.linalg.norm(g.coeff(g.d_min))) * 2.0 ** (-g.d_min))
    if amp < 1e-9 * max(1.0, g.max_coeff_norm()):
        return RESIDUAL_LAMBDAS
    return CIRCLE64_LAMBDAS


class FactorizationFailure(RuntimeError):
    """Splitting left the numerically resolvable regime.

    For these unitary-valued twisted loops the factorization always exists,
    so failure signals truncation or conditioning trouble, not a geometric
    obstruction.  The offending residual and tail norm are attached.
    """

    def __init__(self, message, residual=None, tail_norm=None):
        super().__init__(message)
        self.residual = residual
        self.tail_norm = tail_norm


@dataclass(frozen=True)
class SplitResult:
    plus: LaurentLoop
    minus: LaurentLoop
    residual: float
    tail_norm: float


def _solve_plus_star(g, n):
    """h in Lambda^+_* (support 0..n, h_0 = I) minimizing the positive-degree
    coefficients of h*g for twisted g; returns h or None on a singular solve.

    Row p of h_k lives only in column (k+p) % 2 and row p of (h*g)_j only in
    column (j+p) % 2, so the block-Toeplitz system is the direct sum of one
    scalar Toeplitz system per row p of h:
        sum_k c_{j-k}[(k+p)%2, (j+p)%2] h_k[p, (k+p)%2] = -c_j[p, (j+p)%2],
    for j = 1..j_max, each solved in the least-squares sense.
    """
    j_max = n + g.d_max
    if j_max < 1:
        return LaurentLoop.identity()
    # c[d + n - 1] is the lambda^d coefficient, d = 1-n..j_max, zero off the band
    c = g.truncated(1 - n, j_max).coeffs
    ks = np.arange(1, n + 1)
    js = np.arange(1, j_max + 1)
    lag = js[:, None] - ks[None, :] + n - 1
    coeffs = np.zeros((n + 1, 2, 2), dtype=complex)
    coeffs[0] = np.eye(2)
    for p in (0, 1):
        col_h, col_hg = (ks + p) % 2, (js + p) % 2
        try:
            sol, *_ = np.linalg.lstsq(c[lag, col_h[None, :], col_hg[:, None]],
                                      -c[js + n - 1, p, col_hg], rcond=None)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(sol)):
            return None
        coeffs[ks, p, col_h] = sol
    return LaurentLoop(coeffs, 0, copy=False)


def _require_twisted(g, residual_tol):
    """The parity solve drops off-twist content, which no factor pair it
    returns can reproduce; reject input that has more of it than the residual
    tolerance instead of running the truncation schedule to a failure."""
    twist = g.check_twist()
    if twist > residual_tol:
        raise ValueError(f"input loop is not twisted: off-twist part {twist:.3g} "
                         f"exceeds residual_tol {residual_tol:.3g}")


def _trunc_schedule(trunc):
    """Truncations to try: trunc, then doubling up to MAX_TRUNC."""
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc}")
    n = trunc
    while True:
        yield n
        if n >= MAX_TRUNC:
            return
        n = min(2 * n, MAX_TRUNC)


def _split(g, trunc, residual_tol, tail_tol, shape, solve_on, factors, back):
    """The truncation schedule and acceptance policy shared by the splitters.

    Each attempt solves for the star factor h of solve_on at truncation n;
    factors(h, n) returns (star, plus, minus), star being the solved factor
    before trimming, whose two outermost coefficients are the retained tail.
    back(plus(s), minus(s)) must reproduce g(s) on the residual samples.
    """
    _require_twisted(g, residual_tol)
    samples = _residual_samples(g)
    gv = g.evaluate(samples)
    last = (np.inf, np.inf)
    for n in _trunc_schedule(trunc):
        h = _solve_plus_star(solve_on, n)
        if h is None:
            continue
        star, plus, minus = factors(h, n)
        tail = edge_norm(star)
        residual = float(np.max(np.abs(gv - back(plus.evaluate(samples),
                                                 minus.evaluate(samples)))))
        if residual <= residual_tol and tail <= tail_tol:
            return SplitResult(plus, minus, residual, tail)
        last = (residual, tail)
    raise FactorizationFailure(
        f"{shape} splitting did not resolve (residual {last[0]:.3g}, tail {last[1]:.3g})",
        residual=last[0], tail_norm=last[1])


def split_plus_star_minus(g, trunc=DEFAULT_TRUNC, residual_tol=RESIDUAL_TOL,
                          tail_tol=TAIL_TOL):
    """g = plus * minus with plus in Lambda^+_* (lambda^0 = I), minus in Lambda^-."""
    def factors(h, n):
        star = inverse_one_sided(h, n)
        # trim at the numerical noise floor: the radial residual samples
        # amplify degree-k content by 2^k, so roundoff-level coefficients in
        # the solved factor must not be carried around
        return star, star.trim(), (h * g).truncated(min(g.d_min, 0), 0).trim()
    return _split(g, trunc, residual_tol, tail_tol, "plus*minus", g, factors, np.matmul)


def split_minus_star_plus(g, trunc=DEFAULT_TRUNC, residual_tol=RESIDUAL_TOL,
                          tail_tol=TAIL_TOL):
    """g = minus * plus with minus in Lambda^-_* (lambda^0 = I), plus in Lambda^+.

    Reduced to the plus-star case by the lambda -> 1/lambda reflection.
    """
    r = split_plus_star_minus(g.reflect(), trunc, residual_tol, tail_tol)
    return SplitResult(plus=r.minus.reflect(), minus=r.plus.reflect(),
                       residual=r.residual, tail_norm=r.tail_norm)


def split_plus_minusfree(g, trunc=DEFAULT_TRUNC, residual_tol=RESIDUAL_TOL,
                         tail_tol=TAIL_TOL):
    """g = plus * minus_star^{-1} with minus_star in Lambda^-_*, plus in Lambda^+.

    This is the splitting shape used by the frame reconstruction: the
    right factor is the star-normalized minus loop itself (not inverted),
    so the returned pair satisfies g * minus_star = plus up to the residual.
    The right-multiplied unknown reduces to the left solve by transposing.
    """
    def factors(h, n):
        star = h.transpose_loop().reflect()  # Lambda^-_*, support -n..0
        minus = star.trim()
        prod = g * minus
        return star, prod.truncated(0, max(prod.d_max, 0)).trim(), minus
    return _split(g, trunc, residual_tol, tail_tol, "plus*minus_star^-1",
                  g.transpose_loop().reflect(), factors,
                  lambda pv, mv: pv @ np.linalg.inv(mv))
