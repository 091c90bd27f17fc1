import numpy as np
import pytest

from psurf.cli import _theta_to_t as theta_to_t  # noqa: F401  (shared by the tests)
from psurf.loops import SU2_I, SU2_J, SU2_K
from psurf.potentials import (BoundaryAngles, normalized_from_boundary,
                              soliton_alpha, soliton_beta)
from psurf.surface import reconstruct_frames, sym_immersion


def kink_phi(x, y):
    return 4.0 * np.arctan(np.exp(np.asarray(x) + np.asarray(y)))


def r3_to_su2(v):
    """The su(2) matrix with coordinates v in the (i, j, k) basis: su2_to_r3 inverted."""
    v = np.asarray(v, dtype=float)
    return v[0] * SU2_I + v[1] * SU2_J + v[2] * SU2_K


@pytest.fixture(scope="session")
def soliton_pair():
    bnd = BoundaryAngles(alpha=soliton_alpha, beta=soliton_beta)
    return normalized_from_boundary(bnd, (0.0, 1.0), (0.0, 1.0))


@pytest.fixture(scope="session")
def soliton_frames_small(soliton_pair):
    xs = np.linspace(0.0, 1.0, 17)
    return reconstruct_frames(soliton_pair, xs, xs, trunc=24)


@pytest.fixture(scope="session")
def soliton_surface_small(soliton_frames_small):
    return sym_immersion(soliton_frames_small, 1.0)


@pytest.fixture(scope="session")
def soliton_frames_65(soliton_pair):
    xs = np.linspace(0.0, 1.0, 65)
    return reconstruct_frames(soliton_pair, xs, xs, trunc=24)


@pytest.fixture(scope="session")
def amsler_window():
    """Frames of the rotational example on a 6 x 6 theta window whose images
    under the symmetry stay clear of its pole, with the image-grid re-run:
    (frames, descriptor, image frames, sampled indices)."""
    from psurf.potentials import generalized_amsler_example
    from psurf.symmetry import _image_grid
    ts = theta_to_t(np.linspace(-2.6, -2.2, 6))
    hi = theta_to_t(-0.1)
    pair, desc = generalized_amsler_example(domain=(ts[0] - 1e-9, hi))
    step = (hi - ts[0]) / 4096
    f = reconstruct_frames(pair, ts, ts, trunc=48, step=step, drift_samples=(1.0,))
    idx = np.arange(ts.size)
    img = _image_grid(f, desc, idx, idx)
    return f, desc, img, idx
