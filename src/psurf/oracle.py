"""Loop-group-free reference computations.

A characteristic-grid Goursat solver for phi_xy = a(x) b(y) sin(phi) and a
closed-form rigid registration, used to cross-validate the main pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from psurf.potentials import speed_fn


class StiffnessError(RuntimeError):
    """Cell fixed-point update failed to contract."""


class RegistrationError(ValueError):
    """Point sets too degenerate for a rigid fit."""


@dataclass(frozen=True)
class GoursatProblem:
    """Characteristic boundary data on the left/bottom edges of a grid.

    boundary_x holds phi(x_i, y_0), boundary_y holds phi(x_0, y_j); the two
    must agree at the shared corner.
    """

    x: np.ndarray
    y: np.ndarray
    boundary_x: np.ndarray
    boundary_y: np.ndarray
    a: object = 1.0
    b: object = 1.0

    def __post_init__(self):
        bx = np.asarray(self.boundary_x, dtype=float)
        by = np.asarray(self.boundary_y, dtype=float)
        if bx.shape != np.asarray(self.x).shape or by.shape != np.asarray(self.y).shape:
            raise ValueError("boundary data must match the axis sample counts")
        if abs(bx[0] - by[0]) > 1e-10:
            raise ValueError(f"corner mismatch: {bx[0]} vs {by[0]}")


def goursat_solve(problem):
    """March phi across the grid cell by cell.

    Each cell uses the exact cross-difference identity with the source
    integral approximated by the midpoint rule (4-corner average inside the
    sine), iterating the implicit corner to a relative change of 1e-13, at
    most 20 times.  Second order in the mesh width.
    """
    x = np.asarray(problem.x, dtype=float)
    y = np.asarray(problem.y, dtype=float)
    a_fn, b_fn = speed_fn(problem.a), speed_fn(problem.b)
    nx, ny = x.size, y.size
    phi = np.empty((nx, ny))
    phi[:, 0] = problem.boundary_x
    phi[0, :] = problem.boundary_y
    a_mid = a_fn(0.5 * (x[1:] + x[:-1]))
    b_mid = b_fn(0.5 * (y[1:] + y[:-1]))
    dx = np.diff(x)
    dy = np.diff(y)
    for j in range(ny - 1):
        wy = dy[j] * b_mid[j]
        col = phi[:, j]
        for i in range(nx - 1):
            q = dx[i] * a_mid[i] * wy
            known = col[i] + col[i + 1] + phi[i, j + 1]
            base = col[i + 1] + phi[i, j + 1] - col[i]
            u = base
            for _ in range(20):
                u_new = base + q * np.sin(0.25 * (known + u))
                if abs(u_new - u) < 1e-13 * (1.0 + abs(u_new)):
                    u = u_new
                    break
                u = u_new
            else:
                raise StiffnessError(
                    f"cell ({i},{j}) update did not converge; reduce the mesh width")
            phi[i + 1, j + 1] = u
    return phi


def register_rigid(a_pts, b_pts):
    """Least-squares proper rigid motion with R a + t ~ b.

    Cross-covariance SVD with reflection correction; returns (R, t, rms).
    """
    a = np.asarray(a_pts, dtype=float).reshape(-1, 3)
    b = np.asarray(b_pts, dtype=float).reshape(-1, 3)
    if a.shape != b.shape or a.shape[0] < 3:
        raise RegistrationError("need two equally sized sets of >= 3 points")
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    h = (a - ca).T @ (b - cb)
    u, s, vt = np.linalg.svd(h)
    if s[1] <= 1e-12 * max(s[0], 1e-300):
        raise RegistrationError("point set is (numerically) collinear")
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    t = cb - r @ ca
    rms = float(np.sqrt(np.mean(np.sum((a @ r.T + t - b) ** 2, axis=1))))
    return r, t, rms
