"""Twisted 2x2 matrix Laurent loops and the su(2) <-> R^3 dictionary.

Loops are truncated Laurent polynomials sum_k c_k lambda^k with 2x2 complex
coefficients; this keeps lambda-derivatives exact and makes the splitting
solvers finite linear algebra.  A loop is "twisted" when even-degree
coefficients are diagonal and odd-degree ones off-diagonal, and
"unitary-valued" when its values on the real axis are in SU(2) up to a
monitored tolerance.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

TRIM_REL = 1e-14

# The lambda sample sets of every module (README, "Sample sets and tolerances"):
# the probe triple, the radial probes, and the roots of unity of the splitting
# residual (64) and of the symmetry checks (16).  The radial probes are read
# only where the loops converge there: monodromy reads the 16 roots alone.
PROBE_LAMBDAS = (0.5, 1.0, 2.0)
RADIAL_LAMBDAS = np.array([0.5 + 0j, 2.0 + 0j])
CIRCLE64_LAMBDAS = np.exp(2j * np.pi * np.arange(64) / 64.0)
CIRCLE_LAMBDAS = np.exp(2j * np.pi * np.arange(16) / 16.0)
RESIDUAL_LAMBDAS = np.concatenate([CIRCLE64_LAMBDAS, RADIAL_LAMBDAS])
SYMMETRY_LAMBDAS = np.concatenate([CIRCLE_LAMBDAS, RADIAL_LAMBDAS])

# su(2) images of the R^3 basis; the commutator matches the cross product.
SU2_I = np.array([[0.0, 0.5j], [0.5j, 0.0]])
SU2_J = np.array([[0.0, -0.5], [0.5, 0.0]], dtype=complex)
SU2_K = np.array([[0.5j, 0.0], [0.0, -0.5j]])

_EYE2 = np.eye(2, dtype=complex)
# (row + column) % 2 of each 2x2 entry: 0 on the diagonal, 1 off it
_ENTRY_PARITY = np.add.outer(np.arange(2), np.arange(2))


def _dagger(m):
    """Conjugate transpose of a 2x2 matrix or of each matrix in a (..., 2, 2) stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def _frob(m):
    """Frobenius norm of each matrix in a (..., 2, 2) stack: the formula of
    ``np.linalg.norm(m, axis=(-2, -1))``, bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce((m.conj() * m).real, axis=(-2, -1)))


def _det(m):
    """Determinant of each matrix in a (..., 2, 2) stack."""
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _raise_at_worst(excess, message):
    """Raise ValueError(message(index)) at the matrix with the largest excess > 0."""
    if np.any(excess > 0):
        worst = np.unravel_index(np.argmax(excess), excess.shape)
        where = f" at index {tuple(int(i) for i in worst)}" if worst else ""
        raise ValueError(message(worst) + where)


def _rows(c):
    """(..., n, 2, 2) stack -> (..., 2n, 2) block column [c_0; c_1; ...; c_{n-1}]."""
    return c.reshape(c.shape[:-3] + (2 * c.shape[-3], 2))


def _columns(c):
    """(..., n, 2, 2) stack -> (..., 2, 2n) block row [c_0 c_1 ... c_{n-1}]."""
    return np.swapaxes(c, -3, -2).reshape(c.shape[:-3] + (2, 2 * c.shape[-3]))


def _uncolumns(r):
    """Inverse of ``_columns`` (a view): (..., 2, 2n) block row -> (..., n, 2, 2) stack."""
    return np.swapaxes(r.reshape(r.shape[:-2] + (2, r.shape[-1] // 2, 2)), -3, -2)


def cauchy_product(a, b):
    """Cauchy product of two (..., n, 2, 2) coefficient stacks: the coefficients
    of the loop product, starting at the sum of the two lowest degrees.

    The sum runs over the coefficients of the shorter operand; each term is
    one GEMM on the longer operand's coefficients laid side by side as a
    block column or block row, because ``@`` on an ``(n, 2, 2)`` stack makes
    one BLAS call per 2x2 slice.  Each output coefficient adds its terms in
    increasing index of the shorter operand.  Leading axes broadcast, so a
    stack of nodes makes the same GEMMs per node as one product per node.
    """
    na, nb = a.shape[-3], b.shape[-3]
    lead = a.shape[:-3] if b.ndim == 3 else np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    out = np.zeros(lead + (na + nb - 1, 2, 2), dtype=complex)
    if nb <= na:
        a_rows, shape = _rows(a), lead + (na, 2, 2)
        for j in range(nb):
            out[..., j:j + na, :, :] += (a_rows @ b[..., j, :, :]).reshape(shape)
    else:
        b_cols = _columns(b)
        for j in range(na):
            out[..., j:j + nb, :, :] += _uncolumns(a[..., j, :, :] @ b_cols)
    return out


def band_slice(coeffs, d_min, lo, hi):
    """Degrees lo..hi of a (..., n, 2, 2) coefficient stack starting at degree
    d_min, zero-padded."""
    if lo > hi:
        raise ValueError("empty degree band")
    out = np.zeros(coeffs.shape[:-3] + (hi - lo + 1, 2, 2), dtype=complex)
    s_lo, s_hi = max(lo, d_min), min(hi, d_min + coeffs.shape[-3] - 1)
    if s_lo <= s_hi:
        out[..., s_lo - lo: s_hi - lo + 1, :, :] = coeffs[..., s_lo - d_min: s_hi - d_min + 1, :, :]
    return out


def band_add(a, a_min, b, b_min):
    """(coeffs, d_min) of the sum of two (..., n, 2, 2) coefficient stacks from
    degrees a_min and b_min, on the union of their bands."""
    lo = min(a_min, b_min)
    out = band_slice(a, a_min, lo, max(a_min + a.shape[-3], b_min + b.shape[-3]) - 1)
    out[..., b_min - lo: b_min - lo + b.shape[-3], :, :] += b
    return out, lo


def degree_sum(coeffs, weights):
    """sum_k weights[..., k] c_k over the degree axis of a (..., K, 2, 2)
    coefficient stack; the leading axes of weights and coeffs broadcast."""
    return np.einsum("...k,...kij->...ij", weights, coeffs)


# lambda-power tables of the multi-point sample sets evaluate has seen, keyed
# by the samples' bytes: (lowest degree, (n, degrees) table), oldest first
_POWER_TABLES = {}
POWER_TABLE_SETS = 8


def _powers(lam, lo, hi):
    """lam[..., None] ** (lo..hi).  For a 1-d multi-point lam the table is
    cached, and widened to the union of the degree ranges asked for; powers
    are elementwise, so a slice of the wider table has the same bits."""
    if lam.ndim != 1 or lam.size < 2:
        return lam[..., None] ** np.arange(lo, hi + 1)
    key = lam.tobytes()
    t_lo, table = _POWER_TABLES.get(key, (lo, None))
    if table is None or t_lo > lo or t_lo + table.shape[1] <= hi:
        if table is None and len(_POWER_TABLES) >= POWER_TABLE_SETS:
            _POWER_TABLES.pop(next(iter(_POWER_TABLES)), None)
        t_hi = hi if table is None else max(hi, t_lo + table.shape[1] - 1)
        t_lo = min(lo, t_lo)
        table = lam[:, None] ** np.arange(t_lo, t_hi + 1)
        table.flags.writeable = False
        _POWER_TABLES[key] = (t_lo, table)
    return table[:, lo - t_lo: hi - t_lo + 1]


def evaluate(coeffs, d_min, lam):
    """Values sum_k c_k lam^k of a (..., K, 2, 2) coefficient stack starting at
    degree d_min; lam (nonzero if d_min < 0) broadcasts against the leading axes."""
    lam = np.asarray(lam, dtype=complex)
    if d_min < 0 and np.any(lam == 0):
        raise ValueError("lambda = 0 not in the domain of a loop with negative degrees")
    return degree_sum(coeffs, _powers(lam, d_min, d_min + coeffs.shape[-3] - 1))


def band_mask(coeffs, rel):
    """(..., K) mask of each loop's degrees from its first to its last coefficient
    whose norm exceeds rel times the loop's largest (all False if none does)."""
    norms = _frob(coeffs)
    keep = norms > rel * norms.max(axis=-1, keepdims=True)
    return (np.logical_or.accumulate(keep, axis=-1)
            & np.logical_or.accumulate(keep[..., ::-1], axis=-1)[..., ::-1])


class LaurentLoop:
    """Immutable matrix Laurent polynomial with degrees d_min..d_max."""

    __slots__ = ("coeffs", "d_min")
    # numpy operators defer to the loop's reflected methods, so m * g with a
    # 2x2 ndarray m reaches __rmul__ instead of broadcasting over m
    __array_ufunc__ = None

    def __init__(self, coeffs, d_min, copy=True):
        arr = np.array(coeffs, dtype=complex, copy=copy)
        if arr.ndim != 3 or arr.shape[1:] != (2, 2) or arr.shape[0] == 0:
            raise ValueError("coeffs must have shape (n, 2, 2) with n >= 1")
        arr.flags.writeable = False
        self.coeffs = arr
        self.d_min = int(d_min)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity():
        return LaurentLoop(_EYE2[None, :, :], 0)

    @staticmethod
    def zero():
        return LaurentLoop(np.zeros((1, 2, 2), dtype=complex), 0)

    @staticmethod
    def constant(m):
        return LaurentLoop(np.asarray(m, dtype=complex)[None, :, :], 0)

    @staticmethod
    def from_terms(terms):
        """Build from a {degree: 2x2 matrix} mapping."""
        if not terms:
            return LaurentLoop.zero()
        lo, hi = min(terms), max(terms)
        coeffs = np.zeros((hi - lo + 1, 2, 2), dtype=complex)
        for k, m in terms.items():
            coeffs[k - lo] = np.asarray(m, dtype=complex)
        return LaurentLoop(coeffs, lo, copy=False)

    # -- basic structure ---------------------------------------------------

    @property
    def d_max(self):
        return self.d_min + self.coeffs.shape[0] - 1

    @property
    def degrees(self):
        return range(self.d_min, self.d_max + 1)

    def coeff(self, k):
        """Coefficient of lambda^k (zero matrix outside the stored band)."""
        if self.d_min <= k <= self.d_max:
            return self.coeffs[k - self.d_min]
        return np.zeros((2, 2), dtype=complex)

    def max_coeff_norm(self):
        return float(np.max(_frob(self.coeffs)))

    def __repr__(self):
        return "LaurentLoop(degrees [%d, %d], max coeff %.3g)" % (
            self.d_min, self.d_max, self.max_coeff_norm())

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        """Loop product (Cauchy product of coefficient sequences, `cauchy_product`).

        A plain 2x2 array is treated as a constant loop, which avoids the
        degree bookkeeping for the frequent gauge-by-constant case; a scalar
        scales the loop, as it does from the left.
        """
        if isinstance(other, np.ndarray):
            prod = (_rows(self.coeffs) @ other).reshape(self.coeffs.shape)
            return LaurentLoop(prod, self.d_min, copy=False)
        if isinstance(other, numbers.Number):
            return self.scaled(other)
        if not isinstance(other, LaurentLoop):
            return NotImplemented
        return LaurentLoop(cauchy_product(self.coeffs, other.coeffs),
                           self.d_min + other.d_min, copy=False)

    def __rmul__(self, other):
        if isinstance(other, np.ndarray):
            return LaurentLoop(_uncolumns(other @ _columns(self.coeffs)), self.d_min, copy=False)
        if isinstance(other, numbers.Number):  # numpy scalars register as Numbers
            return self.scaled(other)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, LaurentLoop):
            return NotImplemented
        return LaurentLoop(*band_add(self.coeffs, self.d_min, other.coeffs, other.d_min),
                           copy=False)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def scaled(self, s):
        return LaurentLoop(s * self.coeffs, self.d_min, copy=False)

    # -- maps on loops -----------------------------------------------------

    def evaluate(self, lam):
        """Sum c_k lam^k; lam may be a scalar or an array of nonzero values."""
        return evaluate(self.coeffs, self.d_min, lam)

    def dagger(self):
        """Coefficientwise conjugate transpose.

        On the real axis this is the pointwise adjoint, hence the inverse of
        a unitary-valued loop.
        """
        return LaurentLoop(_dagger(self.coeffs), self.d_min, copy=False)

    def transpose_loop(self):
        return LaurentLoop(np.transpose(self.coeffs, (0, 2, 1)), self.d_min, copy=False)

    def reflect(self):
        """lambda -> 1/lambda: coefficient index negation."""
        return LaurentLoop(self.coeffs[::-1], -self.d_max, copy=False)

    def log_lambda_derivative(self):
        """d/d(log lambda): c_k -> k c_k, exact on the coefficient band."""
        ks = np.arange(self.d_min, self.d_max + 1, dtype=float)
        return LaurentLoop(ks[:, None, None] * self.coeffs, self.d_min, copy=False)

    def truncated(self, lo, hi):
        """Restrict to degrees lo..hi (zero-padded if the band is larger)."""
        return LaurentLoop(band_slice(self.coeffs, self.d_min, lo, hi), lo, copy=False)

    def trim(self, rel=TRIM_REL):
        """Drop leading/trailing coefficients below rel * max coefficient norm.

        Raises ValueError at the first non-finite coefficient, whose norm
        leaves no coefficient above the cut."""
        keep = np.flatnonzero(band_mask(self.coeffs, rel))
        if keep.size == 0:
            finite = np.isfinite(self.coeffs).all(axis=(1, 2))
            if not finite.all():
                raise ValueError(f"cannot trim a loop with a non-finite coefficient at degree "
                                 f"{self.d_min + int(np.argmin(finite))}")
            return LaurentLoop.zero()
        return LaurentLoop(self.coeffs[keep[0]:keep[-1] + 1], self.d_min + int(keep[0]))

    # -- diagnostics ---------------------------------------------------------

    def check_twist(self):
        """twist_defect of the loop: 0 exactly on twisted loops."""
        return twist_defect(self.coeffs, self.d_min)


def twist_defect(coeffs, d_min):
    """Largest modulus of the entries of a (..., K, 2, 2) coefficient stack from
    degree d_min off the twist pattern: even degrees must be diagonal, odd
    degrees off-diagonal, so the residual is 0 exactly on twisted loops."""
    off = coeffs[..., _twist_mask(d_min % 2, coeffs.shape[-3])]
    # hypot rounds like abs() on one complex scalar; np.abs may differ by an ulp
    return float(np.max(np.hypot(off.real, off.imag)))


@functools.lru_cache(maxsize=256)
def _twist_mask(parity, length):
    """Entries off the twist pattern of a band of the given length whose
    lowest degree has the given parity."""
    k = np.arange(parity, parity + length)[:, None, None]
    mask = (k + _ENTRY_PARITY) % 2 == 1
    mask.flags.writeable = False
    return mask


def su2_defects(vals):
    """(||v^+ v - I||, |det v - 1|) of each value in a (..., 2, 2) stack, the
    first as the largest entry modulus: two (...) arrays."""
    gram = _dagger(vals) @ vals
    return np.abs(gram - _EYE2).max(axis=(-2, -1)), np.abs(_det(vals) - 1.0)


def su2_defect(vals):
    """(max ||v^+ v - I||, max |det v - 1|) over a (..., 2, 2) stack of values."""
    return tuple(float(np.max(d)) for d in su2_defects(vals))


def edge_rows(d_min, d_max):
    """Rows of the band d_min..d_max that edge_norm reads: the two outermost
    degrees at each end of the band that lies off degree 0."""
    tips = [d_max, d_max - 1] if d_max > 0 else []
    tips += [d_min, d_min + 1] if d_min < 0 else []
    # a tip outside the stored band is a zero coefficient
    return [k - d_min for k in tips if d_min <= k <= d_max]


def edge_norm(g):
    """Largest norm of the two outermost coefficients at each end of g's band
    that lies off degree 0: the retained tail of a truncated loop."""
    return float(_frob(g.coeffs[edge_rows(g.d_min, g.d_max)]).max(initial=0.0))


def inverse_one_sided(g, trunc):
    """Formal inverse of a one-sided loop with invertible lambda^0 coefficient.

    For g = g0 (I + N) with N supported on strictly positive (or strictly
    negative) degrees, returns the Neumann-series inverse truncated at
    |degree| <= trunc.  Exact in the truncated algebra.
    """
    if g.d_min > 0 or g.d_max < 0:
        raise ValueError("loop must contain degree 0")
    if g.d_min < 0 and g.d_max > 0:
        raise ValueError("loop must be one-sided (all degrees >= 0 or all <= 0)")
    if g.d_min == g.d_max == 0:
        return LaurentLoop.constant(np.linalg.inv(g.coeff(0)))
    if g.d_min < 0:
        return inverse_one_sided(g.reflect(), trunc).reflect()
    g0_inv = np.linalg.inv(g.coeff(0))
    p = g0_inv @ g.coeffs  # (I + N) with N strictly positive degrees
    n = min(trunc, 10**6)
    out = np.zeros((n + 1, 2, 2), dtype=complex)
    out[0] = _EYE2
    width = g.coeffs.shape[0]
    for k in range(1, n + 1):
        acc = np.zeros((2, 2), dtype=complex)
        for j in range(1, min(k, width - 1) + 1):
            acc += p[j] @ out[k - j]
        out[k] = -acc
    return LaurentLoop(out, 0, copy=False) * g0_inv


def exp_loop(x, band):
    """exp of a loop by its power series, truncated to degrees band[0]..band[1].

    Converges for any x; terms are added until they fall below 1e-17 of the
    running maximum coefficient norm.
    """
    lo, hi = band
    acc = LaurentLoop.identity().truncated(lo, hi)
    term = LaurentLoop.identity().truncated(lo, hi)
    for n in range(1, 60):
        term = (term * x).truncated(lo, hi).scaled(1.0 / n)
        acc = acc + term
        if term.max_coeff_norm() < 1e-17 * max(1.0, acc.max_coeff_norm()):
            break
    return acc


def random_twisted_su_loop(rng, degree=2, scale=0.5, decay=0.3):
    """Random twisted su(2)-valued Laurent loop (algebra element).

    Coefficient k is skew-Hermitian traceless, diagonal for even k and
    off-diagonal for odd k, with norm ~ scale * decay**|k|.
    """
    terms = {}
    for k in range(-degree, degree + 1):
        amp = scale * decay ** abs(k)
        if k % 2 == 0:
            t = amp * rng.standard_normal()
            terms[k] = np.array([[1j * t, 0.0], [0.0, -1j * t]])
        else:
            z = amp * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
            terms[k] = np.array([[0.0, z], [-np.conj(z), 0.0]])
    return LaurentLoop.from_terms(terms)


def random_twisted_unitary_loop(rng, degree=4, scale=0.5, decay=0.3, alg_degree=None, pad=0):
    """Random twisted approximately-unitary loop with degrees in [-degree-pad, degree+pad].

    Built as exp of a random twisted algebra loop supported on [-alg_degree,
    alg_degree].  The trimmed exp tail is the only source of unitarity
    defect; pad widens the retained band when a test needs the loop to be
    unitary-valued to near machine precision at large |lambda| samples.
    """
    if alg_degree is None:
        alg_degree = max(1, degree // 2)
    x = random_twisted_su_loop(rng, degree=alg_degree, scale=scale, decay=decay)
    return exp_loop(x, (-degree - pad, degree + pad))


# -- su(2) <-> R^3 ---------------------------------------------------------

def su2_to_r3(m, tol=1e-6):
    """Coordinates of a traceless skew-Hermitian matrix in the (i,j,k) basis.

    m may be one 2x2 matrix or a (..., 2, 2) stack (coordinates (..., 3));
    every matrix is checked and the error names the worst one.
    """
    m = np.asarray(m, dtype=complex)
    defect = _frob(m + _dagger(m))
    scale = tol * np.maximum(1.0, _frob(m))
    _raise_at_worst(np.where(defect > scale, defect / scale, 0.0),
                    lambda w: f"matrix is not skew-Hermitian (residual {defect[w]:.3g})")
    return np.stack([2.0 * m[..., 0, 1].imag,
                     -2.0 * m[..., 0, 1].real,
                     2.0 * m[..., 0, 0].imag], axis=-1)


def adjoint_rotation(g, tol=1e-6):
    """SO(3) matrix of Ad(g) for g in SU(2); kills the double-cover sign.

    g may be one 2x2 matrix or a (..., 2, 2) stack (rotations (..., 3, 3));
    every matrix is checked and the error names the worst one.
    """
    g = np.asarray(g, dtype=complex)
    g_inv = _dagger(g)
    gram_defect = _frob(g_inv @ g - _EYE2)
    det = _det(g)
    worst = np.maximum(gram_defect, np.abs(det - 1.0))
    _raise_at_worst(np.where(worst > tol, worst, 0.0),
                    lambda w: f"matrix is not in SU(2) (unitarity {gram_defect[w]:.3g}, "
                              f"det {det[w]:.6g})")
    cols = [su2_to_r3(g @ b @ g_inv, tol=10 * max(tol, 1e-12))
            for b in (SU2_I, SU2_J, SU2_K)]
    return np.stack(cols, axis=-1)
