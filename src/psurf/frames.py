"""Moving-frame integration.

integrate_axis advances dG/dt = G eta(t) directly on Laurent coefficients,
so a single integration serves every lambda.  direct_frame_solve integrates
the frame system at one fixed lambda given an angle grid; it is the
loop-group-free cross check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psurf.birkhoff import DEFAULT_TRUNC
from psurf.loops import (PROBE_LAMBDAS, LaurentLoop, band_slice, cauchy_product, edge_norm,
                         evaluate, su2_defect)
from psurf.potentials import CubicSpline, speed_fn

DRIFT_LIMIT = 1e-6


class IntegrationDrift(RuntimeError):
    """Unitarity drift exceeded the limit; a smaller step is needed."""


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


def _rk4(u, mul, c_0, coef, t, h):
    """One classical RK4 step of du/dt = mul(u, coef(t)), given c_0 = coef(t).
    Returns (u at t + h, coef(t + h)), so consecutive steps read coef once
    per stage time."""
    c_half, c_1 = coef(t + 0.5 * h), coef(t + h)
    k1 = mul(u, c_0)
    k2 = mul(u + (0.5 * h) * k1, c_half)
    k3 = mul(u + (0.5 * h) * k2, c_half)
    k4 = mul(u + h * k3, c_1)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), c_1


def _march(coef, mul, u, t_from, targets, substeps, out=None):
    """RK4 march of du/dt = mul(u, coef(t)) from t_from through the targets,
    substeps(gap) steps per gap; writes u(targets[n]) to out[n] when given and
    returns the final state."""
    t = t_from
    for n, t_next in enumerate(targets):
        gap = t_next - t
        if abs(gap) > 0:
            nsub = substeps(gap)
            h = gap / nsub
            c = coef(t)
            for _ in range(nsub):
                u, c = _rk4(u, mul, c, coef, t, h)
                t = t + h
        t = t_next
        if out is not None:
            out[n] = u
    return u


def integrate_axis(eta, t_values, init=None, step=None, band=None, t0=None,
                   drift_limit=DRIFT_LIMIT, drift_samples=PROBE_LAMBDAS):
    """Classical 4th-order integration of dG/dt = G eta(t) on a degree band.

    t_values are the parameters at which frames are recorded; t0 is the
    anchor where G equals init (defaults to the first t_value, or 0.0 if it
    lies inside the range).  Integration runs in both directions from the
    anchor when needed.  Unitarity is monitored, not enforced; for loops
    whose band converges only on the unit circle, restrict drift_samples
    accordingly (evaluation away from |lambda| = 1 amplifies the truncated
    tail exponentially).
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.ndim != 1 or t_values.size == 0:
        raise ValueError("need a nonempty 1-d array of parameters")
    if np.any(np.diff(t_values) <= 0):
        raise ValueError("parameters must be strictly increasing")
    if init is None:
        init = LaurentLoop.identity()
    if t0 is None:
        t0 = 0.0 if t_values[0] <= 0.0 <= t_values[-1] else float(t_values[0])
    if step is None:
        span = max(t_values[-1] - t_values[0], abs(t_values[0] - t0),
                   abs(t_values[-1] - t0))
        step = max(span, 1e-12) / 256.0
    if band is None:
        probe = eta(t0)
        band = (min(0, DEFAULT_TRUNC * probe.d_min), max(0, DEFAULT_TRUNC * probe.d_max))
    samples = np.asarray(drift_samples, dtype=complex)
    if not np.all(np.isfinite(samples)) or (band[0] < 0 and np.any(samples == 0)):
        raise ValueError(f"drift samples must be finite, and nonzero on a band with "
                         f"negative degrees; got {drift_samples}")
    init_b = init.truncated(*band).coeffs

    def mul(u, eta_t):            # coefficients of G eta(t) on the band
        return band_slice(cauchy_product(u, eta_t.coeffs), band[0] + eta_t.d_min, *band)

    def substeps(gap):
        return max(1, int(np.ceil(abs(gap) / step)))

    coeffs = np.empty((t_values.size, band[1] - band[0] + 1, 2, 2), dtype=complex)
    n_below = int(np.sum(t_values < t0 - 1e-15))
    _march(eta, mul, init_b, t0, t_values[n_below:], substeps, coeffs[n_below:])
    _march(eta, mul, init_b, t0, t_values[:n_below][::-1], substeps, coeffs[:n_below][::-1])

    # every frame carries the band, so one contraction evaluates them all
    drift = max(su2_defect(evaluate(coeffs[:, None], band[0], samples)))
    span = max(1.0, float(t_values[-1] - t_values[0]))
    if not drift <= drift_limit * span:  # a NaN drift fails too
        raise IntegrationDrift(
            f"unitarity drift {drift:.3g} over span {span:.3g}; reduce the step")
    # the frames span exactly the integration band, so their edge is the retained tail
    tail = max(edge_norm(LaurentLoop(c, band[0])) for c in coeffs[[0, -1]])
    return AxisFramePath(t=t_values, coeffs=coeffs, d_min=band[0], drift=float(drift),
                         tail_norm=tail)


# -- fixed-lambda direct solve ----------------------------------------------


def _x_coefficient(phi_x, a_val, lam):
    return 0.5j * np.array([[-phi_x, a_val * lam], [a_val * lam, phi_x]])


def direct_frame_solve(phi, a, b, lam0, x, y, phi_x=None, substeps=2, init=None):
    """Integrate the fixed-lambda frame system over the grid, given the angle.

    phi is an (nx, ny) array or a callable phi(x, y) that takes the x grid as
    an array; phi_x optionally gives the exact x-derivative.  Returns (U grid,
    path-independence residual at the far corner); a large residual signals
    that phi is not a sine-Gordon solution at this resolution.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    a_fn, b_fn = speed_fn(a), speed_fn(b)
    if callable(phi):
        columns = lambda t: phi(x, t)
        h = 1e-6 * max(x[-1] - x[0], 1.0)
        model_x = lambda xv, yv: (phi(xv + h, yv) - phi(xv - h, yv)) / (2.0 * h)
    else:
        arr = np.asarray(phi, dtype=float)
        if arr.shape != (x.size, y.size):
            raise ValueError("phi grid must have shape (nx, ny)")
        columns = CubicSpline(y, arr.T)           # phi(x_i, t) for every i at once
        # phi_x is only needed along the bottom and top rows
        rows = {y[0]: CubicSpline(x, arr[:, 0]), y[-1]: CubicSpline(x, arr[:, -1])}
        model_x = lambda xv, yv: float(rows[yv](xv, 1))
    phi_x = phi_x or model_x

    def coef_x(yv):
        return lambda t: _x_coefficient(phi_x(t, yv), float(a_fn(t)), lam0)

    def coef_y(t):                                # (nx, 2, 2): every column at once
        e = np.exp(1j * columns(t))
        m = np.zeros((x.size, 2, 2), dtype=complex)
        m[:, 0, 1], m[:, 1, 0] = e, np.conj(e)
        return (-0.5j * float(b_fn(t)) / lam0) * m

    fixed = lambda gap: substeps
    u = np.empty((x.size, y.size, 2, 2), dtype=complex)
    u[0, 0] = np.eye(2) if init is None else init
    # bottom row along x, then all columns together along y
    _march(coef_x(y[0]), np.matmul, u[0, 0], x[0], x[1:], fixed, u[1:, 0])
    _march(coef_y, np.matmul, u[:, 0], y[0], y[1:], fixed, np.moveaxis(u, 1, 0)[1:])
    # the other path: up the left column, which is u[0, :], then along the top row
    u_alt = _march(coef_x(y[-1]), np.matmul, u[0, -1], x[0], x[1:], fixed)
    return u, float(np.max(np.abs(u[-1, -1] - u_alt)))
