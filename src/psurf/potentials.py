"""Potential pairs along the two asymptotic axes.

A pair holds the loop-valued 1-form coefficients eta_x(x), eta_y(y) as
coefficient functions, evaluated on whole parameter arrays.  The
normalized kind is pinned to pure degree +1 / -1 with unit speeds and is
determined by boundary angles; the generalized kind allows wider
lambda-expansions with nonvanishing top terms, from which speeds and phases
are extracted numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from psurf.loops import (_ENTRY_PARITY, PROBE_LAMBDAS, SYMMETRY_LAMBDAS, LaurentLoop, _dagger,
                         band_add, band_mask, band_slice, cauchy_product, evaluate, su2_defect,
                         twist_defect)

# parameter samples per axis of the equivariance check
EQUIVARIANCE_SAMPLES = 33


def speed_fn(s):
    """Speed s as a function of the axis parameter: a callable is returned as
    is, a number c becomes the constant c, and None is the unit speed."""
    if callable(s):
        return s
    c = 1.0 if s is None else float(s)
    return lambda t: np.full(np.shape(t), c)


def is_uniform(t):
    """Whether the increasing samples t are uniformly spaced, to 1e-9 of the step."""
    h = np.diff(t)
    return not np.max(np.abs(h - h[0])) > 1e-9 * abs(h[0])


def _phase_coeffs(alpha):
    """(n, 1, 2, 2) stack of i/2 [[0, e^-i alpha], [e^i alpha, 0]] at the angles alpha."""
    e = np.exp(1j * np.asarray(alpha, dtype=float))
    m = np.zeros(e.shape + (1, 2, 2), dtype=complex)
    m[:, 0, 0, 1], m[:, 0, 1, 0] = np.conj(e), e
    return 0.5j * m


@dataclass(frozen=True)
class BoundaryAngles:
    """Angle data along the axes: alpha(x) = phi(x,0) - phi(0,0), beta(y) = phi(0,y).

    Speeds are functions or constants and default to 1 (None); nonunit
    speeds belong to generalized potentials and the Goursat oracle.
    """

    alpha: object
    beta: object
    a: object = None
    b: object = None

    def speed_a(self):
        return speed_fn(self.a)

    def speed_b(self):
        return speed_fn(self.b)


def _loop_at(coeffs, t):
    c, d = coeffs(np.array([t], dtype=float))
    return LaurentLoop(c[0], d)


def pointwise(eta):
    """Coefficient function of a per-parameter potential eta: t -> LaurentLoop.
    eta is called once per parameter, and its loops are zero-padded to their
    common degree band."""
    def coeffs(ts):
        loops = [eta(float(t)) for t in ts]
        lo, hi = min(q.d_min for q in loops), max(q.d_max for q in loops)
        return np.stack([band_slice(q.coeffs, q.d_min, lo, hi) for q in loops]), lo
    return coeffs


@dataclass(frozen=True)
class PotentialPair:
    """coeffs_x, coeffs_y: the coefficients of dx, dy as coefficient functions.

    coeffs_x(ts) maps a 1-d parameter array to (c, d_min), c of shape
    (n, K, 2, 2) the coefficients of eta_x(ts[i]) from degree d_min; the
    same for coeffs_y.  eta_x(t) and eta_y(t) read one parameter as a
    LaurentLoop.
    """

    coeffs_x: object
    coeffs_y: object
    kind: str
    domain_x: tuple = (-1.0, 1.0)
    domain_y: tuple = (-1.0, 1.0)
    boundary: BoundaryAngles = None

    def eta_x(self, t):
        return _loop_at(self.coeffs_x, t)

    def eta_y(self, t):
        return _loop_at(self.coeffs_y, t)


def normalized_from_boundary(bnd, domain_x=(-1.0, 1.0), domain_y=(-1.0, 1.0)):
    """Pair of normalized potentials for the given boundary angles: the
    stretched pair with unit speeds."""
    if bnd.a is not None or bnd.b is not None:
        raise ValueError("normalized potentials have unit speeds; "
                         "use a generalized pair for nonunit speeds")
    return replace(stretched_from_boundary(bnd, domain_x, domain_y), kind="normalized")


def stretched_from_boundary(bnd, domain_x=(-1.0, 1.0), domain_y=(-1.0, 1.0)):
    """Generalized pair with speeds: the top-degree terms carry a(x), b(y)."""
    a0 = float(np.asarray(bnd.alpha(0.0)))
    # 1e-8 leaves room for spline interpolants of tabulated angles
    if abs(a0) > 1e-8:
        raise ValueError(f"alpha(0) must vanish, got {a0}")
    a_fn, b_fn = bnd.speed_a(), bnd.speed_b()

    def coeffs_x(xs):
        return a_fn(xs)[:, None, None, None] * _phase_coeffs(bnd.alpha(xs)), 1

    def coeffs_y(ys):
        return -b_fn(ys)[:, None, None, None] * _phase_coeffs(-bnd.beta(ys)), -1

    return PotentialPair(coeffs_x=coeffs_x, coeffs_y=coeffs_y, kind="generalized",
                         domain_x=tuple(domain_x), domain_y=tuple(domain_y),
                         boundary=bnd)


# -- axis data extraction ----------------------------------------------------

def _axis_data(coeffs, domain, degree, axis):
    """(speed, angle) from z, the top off-diagonal entry of the lambda^degree
    coefficient of eta (degree +-1, coefficient function coeffs): speed 2|z|,
    angle -degree times the phase of -2i degree z on the 2 pi branch of its
    unwrapped 2049 domain samples."""
    def z(t):
        c, d = coeffs(np.atleast_1d(np.asarray(t, dtype=float)))
        zs = c[:, degree - d, 0, 1] if 0 <= degree - d < c.shape[1] else np.zeros(c.shape[0])
        return zs.reshape(np.shape(t))

    ts = np.linspace(domain[0], domain[1], 2049)
    zs = z(ts)
    if np.min(np.abs(zs)) < 1e-14:
        raise ValueError(f"lambda^{degree} coefficient of eta_{axis} vanishes on the domain")
    dense = np.unwrap(np.angle(-2j * degree * zs))

    def speed(t):
        return 2.0 * np.abs(z(t))

    def angle(t):
        phase = np.angle(-2j * degree * z(t))
        return -degree * (phase + 2 * np.pi * np.round((np.interp(t, ts, dense) - phase)
                                                        / (2 * np.pi)))

    return speed, angle


def x_axis_data(pair):
    """(a(x), alpha(x)) with i/2 a e^{-i alpha} the top off-diagonal entry of
    the lambda^1 coefficient of eta_x."""
    if pair.kind == "normalized" and pair.boundary is not None:
        return speed_fn(None), pair.boundary.alpha
    return _axis_data(pair.coeffs_x, pair.domain_x, 1, "x")


def y_axis_data(pair):
    """(b(y), beta(y)) with rho = -b e^{i beta} = -2i * (lambda^-1 coeff)[0,1]."""
    if pair.kind == "normalized" and pair.boundary is not None:
        return speed_fn(None), pair.boundary.beta
    return _axis_data(pair.coeffs_y, pair.domain_y, -1, "y")


# -- gauges ------------------------------------------------------------------

def _gauge_coeffs(q, ts):
    """(coeffs, d_min) of the gauge q at ts; a constant loop's are (K, 2, 2)."""
    q = LaurentLoop.identity() if q is None else q
    return (q.coeffs, q.d_min) if isinstance(q, LaurentLoop) else q(ts)


def _validate_gauge(q, side, domain):
    c, d = _gauge_coeffs(q, np.linspace(domain[0], domain[1], 7))
    degrees = d + np.nonzero(band_mask(c, 0.0))[-1]      # the nonzero band of each sample
    if side == "-" and np.any(degrees > 0):
        raise ValueError("x-gauge must lie in the minus loop group")
    if side == "+" and np.any(degrees < 0):
        raise ValueError("y-gauge must lie in the plus loop group")
    defect = max(su2_defect(evaluate(c[..., None, :, :, :], d, PROBE_LAMBDAS)))
    if defect > 1e-6:
        raise ValueError(f"gauge loop is not unitary-valued (defect {defect:.3g})")
    if twist_defect(c, d) > 1e-8:
        raise ValueError("gauge loop violates the twist condition")


def _gauge_action(eta, q, dq, ts, h):
    """(coeffs, d_min) of q^-1 eta q + q^-1 q' at the parameters ts, eta = (coeffs,
    d_min) there.  q' is dq(ts), or the 5-point central difference with step h
    from one q call on the 4n shifted parameters; a constant q has q' = 0."""
    c, d = eta
    qc, q_min = _gauge_coeffs(q, ts)
    q_inv = _dagger(qc)
    out, out_min = cauchy_product(cauchy_product(q_inv, c), qc), 2 * q_min + d
    if qc.ndim == 3:            # a constant gauge
        return out, out_min
    if dq is not None:
        dc, dq_min = dq(ts)
    else:
        shifted, dq_min = q((ts + np.array([-2, -1, 1, 2])[:, None] * h).ravel())
        dc = sum(w / (12 * h) * s for w, s in zip((1.0, -8.0, 8.0, -1.0), np.split(shifted, 4)))
    return band_add(out, out_min, cauchy_product(q_inv, dc), q_min + dq_min)


def _gauged_coeffs(coeffs, q, dq, ts):
    c, d = _gauge_action(coeffs(ts), q, dq, ts, 1e-5)
    keep = np.flatnonzero(band_mask(c, 1e-13).any(axis=0))
    # an empty band means a non-finite stack, which the axis march names
    first, last = (keep[0], keep[-1]) if keep.size else (0, c.shape[1] - 1)
    return c[:, first:last + 1], d + int(first)


def gauge_transform(pair, qx=None, qy=None, dqx=None, dqy=None):
    """Gauged pair eta~ = q^-1 eta q + q^-1 q' along each axis.

    qx (x-parametrized, minus loops) and qy (y-parametrized, plus loops) are
    coefficient functions as PotentialPair.coeffs_x (pointwise adapts t ->
    LaurentLoop), constant loops, or None; the derivatives dqx, dqy are
    coefficient functions and default to central differences with step 1e-5.
    The gauged stack keeps the union of its nodes' bands at rel 1e-13.  The
    result is a generalized pair for the same surface when the frame
    integration is started from the gauge values at the basepoint.
    """
    _validate_gauge(qx, "-", pair.domain_x)
    _validate_gauge(qy, "+", pair.domain_y)
    return PotentialPair(coeffs_x=lambda ts: _gauged_coeffs(pair.coeffs_x, qx, dqx, ts),
                         coeffs_y=lambda ts: _gauged_coeffs(pair.coeffs_y, qy, dqy, ts),
                         kind="generalized", domain_x=pair.domain_x, domain_y=pair.domain_y)


# -- equivariance ------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryDescriptor:
    """A candidate symmetry as declared on the potentials: the axis maps
    gamma1, gamma2 with their derivatives dgamma1, dgamma2 (all callables of
    one parameter), and the gauges wx, wy (as in gauge_transform; None is the
    identity).  switches_axes marks maps that exchange the two asymptotic
    families: gamma(x, y) = (gamma1(y), gamma2(x)).  What the certification
    measures (rigid motion, monodromy) is returned, never stored here.
    """

    gamma1: object
    gamma2: object
    dgamma1: object
    dgamma2: object
    wx: object = None
    wy: object = None
    switches_axes: bool = False


def check_equivariance(pair, d, sample_x=None, sample_y=None):
    """Residuals of the potential-level symmetry condition of the descriptor
    d along each axis.

    Checks (eta o gamma) gamma' = w^-1 eta w + w^-1 w' at EQUIVARIANCE_SAMPLES
    parameters of each window (default: the potential's domain) and at
    SYMMETRY_LAMBDAS; (0, 0) certifies the symmetry on the potentials.  When
    d switches the axes, the x residual compares (eta_y o gamma2) gamma2' with
    the wx action on eta_x reflected (lambda -> 1/lambda), and the y residual
    the same with x and y exchanged.  w' of a non-constant gauge is a central
    difference with step 1e-4 of the domain.
    """
    def axis_residual(coeffs, w, window, domain, image_coeffs, gamma, dgamma):
        ts = np.linspace(*(window if window is not None else domain), EQUIVARIANCE_SAMPLES)
        gp = np.array([dgamma(t) for t in ts])
        if np.any(np.abs(gp) < 1e-12):
            raise ValueError(f"gamma derivative vanishes near t = {ts[np.argmin(np.abs(gp))]}")
        rhs, r_min = _gauge_action(coeffs(ts), w, None, ts, 1e-4 * (domain[1] - domain[0]))
        if d.switches_axes:
            rhs, r_min = rhs[:, ::-1], -(r_min + rhs.shape[1] - 1)
        lhs, l_min = image_coeffs(np.array([gamma(t) for t in ts]))
        diff, d_min = band_add(gp[:, None, None, None] * lhs, l_min, -rhs, r_min)
        return float(np.max(np.abs(evaluate(diff[:, None], d_min, SYMMETRY_LAMBDAS))))

    # the image potential and axis map of each axis; a switching gamma exchanges them
    image = [(pair.coeffs_x, d.gamma1, d.dgamma1), (pair.coeffs_y, d.gamma2, d.dgamma2)]
    if d.switches_axes:
        image.reverse()
    rx = axis_residual(pair.coeffs_x, d.wx, sample_x, pair.domain_x, *image[0])
    ry = axis_residual(pair.coeffs_y, d.wy, sample_y, pair.domain_y, *image[1])
    return rx, ry


# -- the rotationally symmetric example ---------------------------------------

def cayley(t):
    """C(t) = (t - i)/(t + i), real line onto the unit circle."""
    t = np.asarray(t, dtype=complex)
    return (t - 1j) / (t + 1j)


def _amsler_p(t):
    # p = d/dt (Q(w)/w) with Q(w) = w^3 + w^-3, w = C(t)
    w = cayley(t)
    dw = 2j / (np.asarray(t, dtype=complex) + 1j) ** 2
    return dw * (2.0 * w - 4.0 * w ** -5)


def amsler_gamma(t):
    """Axis map: conjugate of the 2 pi/3 circle rotation by the Cayley transform."""
    mu = np.exp(2j * np.pi / 3.0)
    w = mu * cayley(t)
    return float((1j * (1.0 + w) / (1.0 - w)).real)


def amsler_dgamma(t):
    mu = np.exp(2j * np.pi / 3.0)
    w = cayley(t)
    val = -4.0 * mu / ((1.0 - mu * w) ** 2 * (np.asarray(t, dtype=complex) + 1j) ** 2)
    return float(val.real)


AMSLER_GAMMA_POLE = float(np.tan(np.pi / 6.0))  # gamma blows up here


def generalized_amsler_example(domain=(-4.0, 4.0)):
    """Potential pair and symmetry data of the rotationally symmetric example.

    eta^x(x) = (lambda + 1/lambda) [[0, p(x)], [-conj p(x), 0]] with the same
    p on the y-axis; the symmetry gauge is the constant diagonal third-root
    rotation and the axis maps conjugate the 2 pi/3 circle rotation by the
    Cayley transform.
    """

    def coeffs(ts):                 # degrees -1..1, [[0, p], [-conj p, 0]] at -1 and 1
        p = _amsler_p(ts)
        c = np.zeros((p.size, 3, 2, 2), dtype=complex)
        c[:, 0, 0, 1], c[:, 0, 1, 0] = p, -np.conj(p)
        c[:, 2] = c[:, 0]
        return c, -1

    pair = PotentialPair(coeffs_x=coeffs, coeffs_y=coeffs, kind="generalized",
                         domain_x=tuple(domain), domain_y=tuple(domain))
    gauge = LaurentLoop.constant(np.diag([np.exp(1j * np.pi / 3.0),
                                          np.exp(-1j * np.pi / 3.0)]))
    descriptor = SymmetryDescriptor(
        gamma1=amsler_gamma, gamma2=amsler_gamma,
        dgamma1=amsler_dgamma, dgamma2=amsler_dgamma,
        wx=gauge, wy=gauge)
    return pair, descriptor


# -- diagonal-restriction potentials ------------------------------------------

def _fd_rows_5(n, h):
    """(taps, weights), each (n, 5): the nodes and weights of the 5-point
    first-derivative stencil at every row of an n-node uniform grid."""
    start = np.clip(np.arange(n) - 2, 0, n - 5)
    taps = start[:, None] + np.arange(5)
    # the stencil at row i has offsets arange(5) - shift with shift = i - start in 0..4
    offs = (np.arange(5) - np.arange(5)[:, None]) * h
    vander = offs[:, None, :] ** np.arange(5)[None, :, None]
    weights = np.linalg.solve(vander, np.eye(5)[1])
    return taps, weights[np.arange(n) - start]


def _project_twisted_su(coeffs, d_min):
    """Project loop coefficients (a (..., n, 2, 2) stack) onto the twisted
    su(2) pattern.

    The true potential has skew-Hermitian traceless coefficients, diagonal
    at even degrees and off-diagonal at odd ones; finite-difference noise
    off that structure would otherwise leak into unitarity drift.
    """
    c = 0.5 * (coeffs - _dagger(coeffs))
    c = c - 0.5 * np.trace(c, axis1=-2, axis2=-1)[..., None, None] * np.eye(2)
    k = d_min + np.arange(c.shape[-3])[:, None, None]
    return np.where((k + _ENTRY_PARITY) % 2 == 0, c, 0.0)


def extract_diagonal_potentials(frame_grid):
    """Generalized pair from the frame's Maurer-Cartan form on the grid diagonal.

    Both returned potentials are the loop d/dt[U(t,t)] pulled back by
    U(t,t)^-1, i.e. the full diagonal derivative.  This is the gauge of the
    normalized pair by the diagonal restrictions of the splitting factors
    (those restrictions enter through both partial derivatives, so the
    cross terms cannot be dropped), and rebuilding from it reproduces the
    surface.  Requires a uniformly spaced square grid; derivatives are
    5-point finite differences along the diagonal, projected back onto the
    twisted su(2) structure.
    """
    x = np.asarray(frame_grid.x, dtype=float)
    y = np.asarray(frame_grid.y, dtype=float)
    if x.size != y.size or np.max(np.abs(x - y)) > 1e-12:
        raise ValueError("diagonal extraction needs a square grid (x and y samples equal)")
    n = x.size
    if n < 5:
        raise ValueError("need at least 5 diagonal nodes")
    if not is_uniform(x):
        raise ValueError("diagonal extraction requires uniform spacing")

    band = (-1, 1)
    diag = frame_grid.coeffs[np.arange(n), np.arange(n)]        # (n, K, 2, 2)
    taps, weights = _fd_rows_5(n, float(x[1] - x[0]))
    du = np.einsum("nt,ntkab->nkab", weights, diag[taps])
    # U^-1 dU with U^-1 the coefficientwise dagger, on degrees -1..1
    eta_c = band_slice(cauchy_product(_dagger(diag), du), 2 * frame_grid.d_min, *band)
    data = _project_twisted_su(eta_c, band[0])
    splines = CubicSpline(x, data.reshape(n, -1))

    def coeffs(ts):
        return splines(ts).reshape(ts.size, -1, 2, 2), band[0]

    dom = (float(x[0]), float(x[-1]))
    return PotentialPair(coeffs_x=coeffs, coeffs_y=coeffs, kind="generalized",
                         domain_x=dom, domain_y=dom)


class CubicSpline:
    """Not-a-knot cubic spline through the rows of y (real or complex) at the
    increasing knots x (2 knots give a line, 3 a parabola), extrapolating its
    end pieces: spline(t) is the value at t and spline(t, 1) the derivative."""

    def __init__(self, x, y):
        self.x = x = np.asarray(x, dtype=float)
        y = np.asarray(y) + 0.0
        h = np.diff(x)
        dx = h.reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dx
        if x.size < 4:  # the slopes of the line or parabola through the knots
            curv = (slope[-1] - slope[0]) / (x[-1] - x[0])
            s = slope[0] + curv * (2 * x - x[0] - x[1]).reshape((-1,) + dx.shape[1:])
        else:  # the tridiagonal system for the knot slopes, by a Thomas sweep
            d0, d1 = x[2] - x[0], x[-1] - x[-3]
            lower, upper = np.r_[h[1:], d1], np.r_[d0, h[:-1]]
            diag = np.r_[h[1], 2 * (h[:-1] + h[1:]), h[-2]]
            s = np.empty_like(y)
            s[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
            s[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            s[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
            for i in range(1, x.size):
                m = lower[i - 1] / diag[i - 1]
                diag[i], s[i] = diag[i] - m * upper[i - 1], s[i] - m * s[i - 1]
            s[-1] /= diag[-1]
            for i in range(x.size - 2, -1, -1):
                s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self._c = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])

    def __call__(self, t, nu=0):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.x, t, side="right") - 1, 0, self.x.size - 2)
        c3, c2, c1, c0 = self._c[:, i]
        h = (t - self.x[i]).reshape(t.shape + (1,) * (c0.ndim - t.ndim))
        # the power form, not Horner's rule: the rounding the oracle keys were recorded with
        return c0 + c1 * h + c2 * (h * h) + c3 * (h * h * h) if nu == 0 else \
            c1 + c2 * h * 2 + c3 * (h * h) * 3


# -- catalogue / ingestion -----------------------------------------------------

def soliton_alpha(x):
    return 4.0 * np.arctan(np.exp(x)) - np.pi


def soliton_beta(y):
    return 4.0 * np.arctan(np.exp(y))


def zero_angle(t):
    return np.zeros_like(np.asarray(t, dtype=float))


BUILTIN_FUNCTIONS = {
    "zero": zero_angle,
    "soliton_alpha": soliton_alpha,
    "soliton_beta": soliton_beta,
}


def function_from_table(path):
    """Cubic-spline interpolant of a two-column t,value CSV (header required).

    Every fault of the file is a ValueError that starts with the path; data
    rows count from 1 after the header, '#' starts a comment.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not text
        raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    if lines and any(ch.isdigit() for ch in lines[0].split(",")[0]):
        raise ValueError(f"{path}: header row 't,value' is required")
    rows = {}  # data row number -> (t, value)
    for k, line in enumerate(lines[1:], 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            t, value = (float(tok) for tok in text.split(","))
        except ValueError:  # a non-numeric entry, or not two of them
            raise ValueError(f"{path}: data row {k} ({text!r}) must be two numbers t,value") \
                from None
        rows[k] = (t, value)
    if len(rows) < 4:
        raise ValueError(f"{path}: need at least 4 data rows, got {len(rows)}")
    numbers, data = list(rows), np.array(list(rows.values()))
    finite = np.isfinite(data).all(axis=1)
    bad = np.flatnonzero(~finite | np.r_[False, np.diff(data[:, 0]) <= 0])
    if bad.size:
        k = bad[0]
        why = "a non-finite entry" if not finite[k] else "t not above the previous row's"
        raise ValueError(f"{path}: data row {numbers[k]} (t={data[k, 0]:g}, "
                         f"value={data[k, 1]:g}) has {why}")
    return CubicSpline(data[:, 0], data[:, 1])
