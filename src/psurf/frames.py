"""Moving-frame integration.

integrate_axis advances dG/dt = G eta(t) directly on Laurent coefficients,
so a single integration serves every lambda.  direct_frame_solve integrates
the frame system at one fixed lambda given an angle grid; it is the
loop-group-free cross check.  Both march by RK4 step maps: the four stages
of one step composed into one loop (or matrix) R, so that a step is G <- G R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from psurf.loops import (_EYE2, PROBE_LAMBDAS, LaurentLoop, _frob, cauchy_product, edge_rows,
                         evaluate, su2_defects)
from psurf.potentials import CubicSpline, speed_fn

DRIFT_LIMIT = 1e-6
# steps whose maps one batched pass builds: bounds the march's working memory
# (a whole 2770-step gap of the rotational example at once costs 12% of its peak RSS)
MAP_CHUNK = 256
# RK4 steps per grid interval of direct_frame_solve
DIRECT_SUBSTEPS = 2


class IntegrationDrift(RuntimeError):
    """Unitarity drift exceeded the limit; a smaller step is needed.  drift is
    the worst defect and t the parameter of the frame that showed it."""

    def __init__(self, message, drift=None, t=None):
        super().__init__(message)
        self.drift, self.t = drift, t


@dataclass(frozen=True)
class AxisFramePath:
    """Frames G(t) at the requested parameter values along one axis:
    coeffs[n, k - d_min] is the lambda^k coefficient of G(t[n]) on the integration band."""

    t: np.ndarray
    coeffs: np.ndarray            # (n_t, K, 2, 2) complex
    d_min: int
    drift: float = 0.0
    tail_norm: float = 0.0

    def frame_at(self, t_value):
        idx = int(np.argmin(np.abs(self.t - t_value)))
        if abs(self.t[idx] - t_value) > 1e-12 * (1.0 + abs(t_value)):
            raise KeyError(f"parameter {t_value} was not a requested sample")
        return LaurentLoop(self.coeffs[idx], self.d_min)


def _step_maps(c, d, h):
    """RK4 step maps of dG/dt = G eta for m steps of size h.

    c holds eta's coefficients from degree d at the stage times t + (h/2) k,
    k = 0..2m, as a (2m + 1, ..., K, 2, 2) stack.  Returns (R, r_min): R of
    shape (m, ..., W, 2, 2) from degree r_min <= 0, step s being G <- G R[s]
    with, for stage values c0, c_half, c1,
    R = I + (h/6)(c0 + 4 c_half + c1) + (h^2/6)(c0 c_half + c_half^2 + c_half c1)
          + (h^3/12)(c0 c_half^2 + c_half^2 c1) + (h^4/24) c0 c_half^2 c1,
    the four stages of classical RK4 composed without truncation.
    """
    c0, ch, c1 = c[:-1:2], c[1::2], c[2::2]
    ch2 = cauchy_product(ch, ch)
    c0ch2 = cauchy_product(c0, ch2)
    terms = (c0 + 4.0 * ch + c1,
             cauchy_product(c0, ch) + ch2 + cauchy_product(ch, c1),
             c0ch2 + cauchy_product(ch2, c1),
             cauchy_product(c0ch2, c1))
    k = c.shape[-3] - 1
    lo, hi = min(0, 4 * d), max(0, 4 * (d + k))
    r = np.zeros(c0.shape[:-3] + (hi - lo + 1, 2, 2), dtype=complex)
    r[..., -lo, :, :] = _EYE2
    for p, (weight, term) in enumerate(zip((h / 6.0, h ** 2 / 6.0, h ** 3 / 12.0, h ** 4 / 24.0),
                                           terms), 1):
        r[..., p * d - lo: p * (d + k) - lo + 1, :, :] += weight * term
    return r, lo


def _march(coef, advance, u, t_from, targets, substeps, out=None):
    """RK4 march of dG/dt = G eta(t) from t_from through the targets,
    substeps(gap) steps per gap; writes u(targets[n]) to out[n] when given and
    returns the final state.

    coef(ts) gives eta's coefficients at the parameters ts as (c, d_min), and
    advance(u, R, r_min) applies a chunk of step maps to the state u.  A gap of
    n steps reads eta at its 2n + 1 stage times t + (h/2) k, in chunks of at
    most MAP_CHUNK steps; a chunk after the first reads its start again.
    """
    t = t_from
    for n, t_next in enumerate(targets):
        gap = t_next - t
        if abs(gap) > 0:
            nsub = substeps(gap)
            h = gap / nsub
            ts = t + (0.5 * h) * np.arange(2 * nsub + 1)
            for s in range(0, nsub, MAP_CHUNK):
                e = min(s + MAP_CHUNK, nsub)
                u = advance(u, *_step_maps(*coef(ts[2 * s: 2 * e + 1]), h))
        t = t_next
        if out is not None:
            out[n] = u
    return u


def _band_advance(u, r, r_min):
    """u R[s] on u's degree band for each map in turn: u is (B, 2, 2), R (m, W, 2, 2).

    Window j of the zero-padded state holds the band coefficients that meet
    R's coefficient of degree r_max - j, so one matmul over the (W, 2B, 2)
    window view and one sum over the windows make a step."""
    size, w = u.shape[0], r.shape[1]
    r_max = r_min + w - 1
    pad = np.zeros((size + w - 1, 2, 2), dtype=complex)
    pad[r_max: r_max + size] = u
    rows = pad.reshape(-1, 2)
    windows = as_strided(rows, shape=(w, 2 * size, 2),
                         strides=(2 * rows.strides[0],) + rows.strides)
    band = rows[2 * r_max: 2 * (r_max + size)]
    for rs in r[:, ::-1]:
        np.add.reduce(windows @ rs, axis=0, out=band)
    return pad[r_max: r_max + size].copy()


def _matrix_advance(u, r, r_min):
    """u R[s] for each fixed-lambda map in turn (one degree-0 coefficient each)."""
    for rs in r[..., 0, :, :]:
        u = u @ rs
    return u


def integrate_axis(eta, t_values, step, band, t0, init=None, drift_limit=DRIFT_LIMIT,
                   drift_samples=PROBE_LAMBDAS):
    """Classical 4th-order integration of dG/dt = G eta(t) on a degree band.

    eta is a coefficient function: eta(ts) gives (c, d_min), c of shape
    (n, K, 2, 2) the coefficients of eta at the parameters ts from degree
    d_min (potentials.pointwise adapts a per-parameter LaurentLoop callable).
    t_values are the parameters at which frames are recorded, band = (lo, hi)
    the degrees kept, and t0 the anchor where G equals init (the identity
    when None); each gap is marched in steps of at most step.  Integration
    runs in both directions from the anchor when needed.  Each step applies
    the exact RK4 step map and then truncates to the band.  Unitarity is
    monitored at every recorded frame, not enforced; for loops whose band
    converges only on the unit circle, restrict drift_samples accordingly
    (evaluation away from |lambda| = 1 amplifies the truncated tail
    exponentially).
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or t_values.size == 0:
        raise ValueError("need a nonempty 1-d array of parameters")
    if np.any(np.diff(t_values) <= 0):
        raise ValueError("parameters must be strictly increasing")
    if init is None:
        init = LaurentLoop.identity()
    samples = np.asarray(drift_samples, dtype=complex)
    if not np.all(np.isfinite(samples)) or (band[0] < 0 and np.any(samples == 0)):
        raise ValueError(f"drift samples must be finite, and nonzero on a band with "
                         f"negative degrees; got {drift_samples}")
    init_b = init.truncated(*band).coeffs

    def substeps(gap):
        return max(1, int(np.ceil(abs(gap) / step)))

    coeffs = np.empty((t_values.size, band[1] - band[0] + 1, 2, 2), dtype=complex)
    n_below = int(np.sum(t_values < t0 - 1e-15))
    _march(eta, _band_advance, init_b, t0, t_values[n_below:], substeps, coeffs[n_below:])
    _march(eta, _band_advance, init_b, t0, t_values[:n_below][::-1], substeps,
           coeffs[:n_below][::-1])

    # every frame carries the band, so one contraction evaluates them all
    defect = np.maximum(*su2_defects(evaluate(coeffs[:, None], band[0], samples)))
    n, s = np.unravel_index(np.argmax(defect), defect.shape)  # a NaN is the worst
    drift = float(defect[n, s])
    span = max(1.0, float(t_values[-1] - t_values[0]))
    if not drift <= drift_limit * span:  # a NaN drift fails too
        lam = samples[s]
        raise IntegrationDrift(
            f"unitarity drift {drift:.3g} over span {span:.3g} at t = {t_values[n]:.6g}, "
            f"lambda = {lam.real if lam.imag == 0 else lam:.3g}; reduce the step",
            drift=drift, t=float(t_values[n]))
    # the frames span exactly the integration band, so their edge is the retained tail
    tail = float(_frob(coeffs[:, edge_rows(*band)]).max(initial=0.0))
    return AxisFramePath(t=t_values, coeffs=coeffs, d_min=band[0], drift=drift,
                         tail_norm=tail)


# -- fixed-lambda direct solve ----------------------------------------------


def direct_frame_solve(phi, a, b, lam0, x, y):
    """Integrate the fixed-lambda frame system over the grid, given the angle.

    phi is the (nx, ny) angle grid; cubic splines through its columns give
    phi between the nodes, and through its bottom and top rows phi_x.
    Returns (U grid from U = I at the lower-left node, path-independence
    residual at the far corner); a large residual signals that phi is not a
    sine-Gordon solution at this resolution.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (x.size, y.size):
        raise ValueError("phi grid must have shape (nx, ny)")
    a_fn, b_fn = speed_fn(a), speed_fn(b)
    columns = CubicSpline(y, phi.T)               # phi(x_i, t) for every i at once

    # the coefficients at the parameters ts, one degree-0 coefficient per matrix
    def coef_x(row):                              # phi_x along a row: its spline's derivative
        def coef(ts):
            px = row(ts, 1)
            m = np.empty((ts.size, 1, 2, 2), dtype=complex)
            m[:, 0, 0, 0], m[:, 0, 1, 1] = -px, px
            m[:, 0, 0, 1] = m[:, 0, 1, 0] = a_fn(ts) * lam0
            return 0.5j * m, 0
        return coef

    def coef_y(ts):                               # (n, nx, 1, 2, 2): every column at once
        e = np.exp(1j * columns(ts))
        m = np.zeros(e.shape + (1, 2, 2), dtype=complex)
        m[..., 0, 0, 1], m[..., 0, 1, 0] = e, np.conj(e)
        return ((-0.5j * b_fn(ts)) / lam0)[:, None, None, None, None] * m, 0

    fixed = lambda gap: DIRECT_SUBSTEPS
    u = np.empty((x.size, y.size, 2, 2), dtype=complex)
    u[0, 0] = np.eye(2)
    # bottom row along x, then all columns together along y
    _march(coef_x(CubicSpline(x, phi[:, 0])), _matrix_advance, u[0, 0], x[0], x[1:], fixed,
           u[1:, 0])
    _march(coef_y, _matrix_advance, u[:, 0], y[0], y[1:], fixed, np.moveaxis(u, 1, 0)[1:])
    # the other path: up the left column, which is u[0, :], then along the top row
    u_alt = _march(coef_x(CubicSpline(x, phi[:, -1])), _matrix_advance, u[0, -1], x[0], x[1:],
                   fixed)
    return u, float(np.max(np.abs(u[-1, -1] - u_alt)))
