import numpy as np
import pytest

from psurf.cli import _theta_to_t as theta_to_t  # noqa: F401  (shared by the tests)
from psurf.potentials import (BoundaryAngles, normalized_from_boundary,
                              soliton_alpha, soliton_beta)
from psurf.surface import reconstruct_frames, sym_immersion


def kink_phi(x, y):
    return 4.0 * np.arctan(np.exp(np.asarray(x) + np.asarray(y)))


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
