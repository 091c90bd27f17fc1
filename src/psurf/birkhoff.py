"""Numerical Birkhoff factorization of twisted loops.

The factorization identity is expanded in powers of lambda; the unknown
star-normalized factor's coefficients solve a block-Toeplitz least-squares
system built from the input coefficients, which the twist splits into two
scalar Toeplitz systems.  For input in the SU(2) real form the second
system's solution is the quaternion conjugate of the first's, so each
attempt makes one least-squares solve.  The other factor comes out as an
exact banded product.  The residual is the remainder of the factorization
identity on a fixed circle/radial sample set, and truncation is widened
adaptively when the retained tail of the solved factor is not negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psurf.loops import (CIRCLE64_LAMBDAS, RESIDUAL_LAMBDAS, LaurentLoop, _frob, band_slice,
                         edge_norm, inverse_one_sided)

DEFAULT_TRUNC = 24
MAX_TRUNC = 96
TAIL_TOL = 1e-8
RESIDUAL_TOL = 1e-6
_QUATERNION_SIGNS = np.array([1.0, -1.0])


def _residual_samples(g):
    """Circle samples, plus the radial probes when the input band is
    radially converged (otherwise 2^degree amplification of the retained
    tail would swamp the factorization error)."""
    norms = _frob(g.coeffs)
    amp = 0.0
    if g.d_max > 0:
        amp = max(amp, float(norms[-1]) * 2.0 ** g.d_max)
    if g.d_min < 0:
        amp = max(amp, float(norms[0]) * 2.0 ** (-g.d_min))
    if amp < 1e-9 * max(1.0, float(norms.max())):
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


# flat index plans of the parity solve, keyed by truncation n: (system,
# rhs, row0, row1) for equations j = 1..J, J the largest j_max asked for;
# a smaller j_max takes the first j_max equations, which do not depend on J
_SOLVE_PLANS = {}
SOLVE_PLAN_SIZES = 16


def _solve_plan(n, j_max):
    """Flat gather / scatter indices of the row-0 parity solve at truncation n.

    Gathers index c.reshape(-1) for c with c[d + n - 1] the lambda^d
    coefficient, d = 1-n..j_max; scatters index the (n + 1, 2, 2) factor.
    """
    plan = _SOLVE_PLANS.get(n)
    if plan is None or plan[1].size < j_max:
        if plan is None and len(_SOLVE_PLANS) >= SOLVE_PLAN_SIZES:
            _SOLVE_PLANS.pop(next(iter(_SOLVE_PLANS)), None)
        ks = np.arange(1, n + 1)
        js = np.arange(1, j_max + 1)
        col_h, col_hg = ks % 2, js % 2
        lag = js[:, None] - ks[None, :] + n - 1
        plan = (4 * lag + 2 * col_h[None, :] + col_hg[:, None],   # system matrix
                4 * (js + n - 1) + col_hg,                          # right-hand side
                4 * ks + col_h,                                     # h_k[0, k % 2]
                4 * ks + 2 + (1 - col_h))                           # h_k[1, (k + 1) % 2]
        for a in plan:
            a.flags.writeable = False
        _SOLVE_PLANS[n] = plan
    system, rhs, row0, row1 = plan
    return system[:j_max], rhs[:j_max], row0, row1


def _solve_plus_star(g, n):
    """h in Lambda^+_* (support 0..n, h_0 = I) minimizing the positive-degree
    coefficients of h*g for twisted g in the SU(2) real form; returns h or
    None on a singular solve.

    Row p of h_k lives only in column (k+p) % 2 and row p of (h*g)_j only in
    column (j+p) % 2, so the block-Toeplitz system is the direct sum of one
    scalar Toeplitz system per row p of h:
        sum_k c_{j-k}[(k+p)%2, (j+p)%2] h_k[p, (k+p)%2] = -c_j[p, (j+p)%2],
    for j = 1..j_max.  Row 0 is solved in the least-squares sense.  With
    every c_k = [[a, b], [-conj b, conj a]], row 1's system is row 0's
    conjugated with the signs (-1)^j on the equations and (-1)^k on the
    unknowns, so row 1 is row 0's quaternion conjugate: h_k[1, 1] =
    conj h_k[0, 0] for even k and h_k[1, 0] = -conj h_k[0, 1] for odd k.
    """
    j_max = n + g.d_max
    if j_max < 1:
        return LaurentLoop.identity()
    system, rhs, row0, row1 = _solve_plan(n, j_max)
    c = band_slice(g.coeffs, g.d_min, 1 - n, j_max).reshape(-1)
    try:
        sol, *_ = np.linalg.lstsq(c[system], -c[rhs], rcond=None)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(sol)):
        return None
    mirror = np.conj(sol)
    mirror[::2] = -mirror[::2]          # odd k = 1, 3, ...
    coeffs = np.zeros((n + 1, 2, 2), dtype=complex)
    coeffs[0] = np.eye(2)
    flat = coeffs.reshape(-1)
    flat[row0] = sol
    flat[row1] = mirror
    return LaurentLoop(coeffs, 0, copy=False)


def _require_real_form(g):
    """Preconditions of the parity solve on the input loop.

    A non-finite coefficient raises FactorizationFailure naming its degree
    before any LAPACK call.  The parity solve drops off-twist content and the
    mirrored row drops the part of each coefficient outside the SU(2) real
    form [[a, b], [-conj b, conj a]]; no factor pair the solve returns can
    reproduce either, so input with more of them than the residual tolerance
    is rejected instead of running the truncation schedule to a failure.
    RESIDUAL_TOL is read at call time.
    """
    c = g.coeffs
    # row 1 reversed is conj(row 0) times (1, -1); every entry enters the
    # defect, so a non-finite coefficient makes it non-finite
    defect = float(np.max(np.abs(c[:, 1, ::-1] - np.conj(c[:, 0]) * _QUATERNION_SIGNS)))
    if not np.isfinite(defect):
        finite = np.isfinite(c).all(axis=(1, 2))
        if not finite.all():
            degree = g.d_min + int(np.argmin(finite))
            raise FactorizationFailure(
                f"input loop has a non-finite coefficient at degree {degree}")
    twist = g.check_twist()
    if twist > RESIDUAL_TOL:
        raise ValueError(f"input loop is not twisted: off-twist part {twist:.3g} "
                         f"exceeds RESIDUAL_TOL {RESIDUAL_TOL:.3g}")
    if not defect <= RESIDUAL_TOL:
        raise ValueError(f"input loop is not in the SU(2) real form: quaternion defect "
                         f"{defect:.3g} exceeds RESIDUAL_TOL {RESIDUAL_TOL:.3g}")


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


def _split(g, trunc, shape, solve_on, factors):
    """The truncation schedule and acceptance policy shared by the splitters.

    Each attempt solves for the star factor h of solve_on at truncation n;
    factors(h, n) returns (star, plus, minus, remainder), star being the
    solved factor before trimming, whose two outermost coefficients are the
    retained tail, and remainder the exact Laurent remainder of the shape's
    identity.  An attempt is accepted when the remainder, evaluated on the
    residual samples, is within RESIDUAL_TOL and the tail within TAIL_TOL,
    both read at call time.
    """
    _require_real_form(g)
    samples = _residual_samples(g)
    last = (np.inf, np.inf)
    for n in _trunc_schedule(trunc):
        h = _solve_plus_star(solve_on, n)
        if h is None:
            continue
        star, plus, minus, remainder = factors(h, n)
        tail = edge_norm(star)
        residual = float(np.max(np.abs(remainder.evaluate(samples))))
        if residual <= RESIDUAL_TOL and tail <= TAIL_TOL:
            return SplitResult(plus, minus, residual, tail)
        last = (residual, tail)
    raise FactorizationFailure(
        f"{shape} splitting did not resolve (residual {last[0]:.3g}, tail {last[1]:.3g})",
        residual=last[0], tail_norm=last[1])


def split_plus_star_minus(g, trunc=DEFAULT_TRUNC):
    """g = plus * minus with plus in Lambda^+_* (lambda^0 = I), minus in Lambda^-."""
    def factors(h, n):
        star = inverse_one_sided(h, n)
        # trim at the numerical noise floor: the radial residual samples
        # amplify degree-k content by 2^k, so roundoff-level coefficients in
        # the solved factor must not be carried around
        plus, minus = star.trim(), (h * g).truncated(min(g.d_min, 0), 0).trim()
        return star, plus, minus, g - plus * minus
    return _split(g, trunc, "plus*minus", g, factors)


def split_minus_star_plus(g, trunc=DEFAULT_TRUNC):
    """g = minus * plus with minus in Lambda^-_* (lambda^0 = I), plus in Lambda^+.

    Reduced to the plus-star case by the lambda -> 1/lambda reflection; the
    preconditions are checked first on g, so that errors name g's degrees.
    """
    _require_real_form(g)
    r = split_plus_star_minus(g.reflect(), trunc)
    return SplitResult(plus=r.minus.reflect(), minus=r.plus.reflect(),
                       residual=r.residual, tail_norm=r.tail_norm)


def split_plus_minusfree(g, trunc=DEFAULT_TRUNC):
    """g = plus * minus_star^{-1} with minus_star in Lambda^-_*, plus in Lambda^+.

    This is the splitting shape used by the frame reconstruction: the
    right factor is the star-normalized minus loop itself (not inverted),
    so the returned pair satisfies g * minus_star = plus up to the residual,
    the remainder g * minus_star - plus (negative degrees and trimmed ends)
    on the residual samples.  The right-multiplied unknown reduces to the
    left solve by transposing and reflecting (coefficient c_k -> c_{-k}^T).
    """
    def transpose_reflect(coeffs):
        return np.swapaxes(coeffs, 1, 2)[::-1]

    def factors(h, n):
        star = LaurentLoop(transpose_reflect(h.coeffs), -n, copy=False)  # Lambda^-_*
        minus = star.trim()
        prod = g * minus
        plus = prod.truncated(0, max(prod.d_max, 0)).trim()
        return star, plus, minus, prod - plus
    return _split(g, trunc, "plus*minus_star^-1",
                  LaurentLoop(transpose_reflect(g.coeffs), -g.d_max, copy=False), factors)
