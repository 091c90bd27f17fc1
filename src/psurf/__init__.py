"""Pseudospherical surface synthesis from loop-group potential data."""

from psurf.birkhoff import (FactorizationFailure, SplitResult,
                            split_minus_star_plus, split_plus_minusfree,
                            split_plus_star_minus)
from psurf.frames import IntegrationDrift, direct_frame_solve, integrate_axis
from psurf.loops import LaurentLoop, adjoint_rotation, su2_to_r3
from psurf.oracle import (GoursatProblem, RegistrationError, StiffnessError,
                          goursat_solve, register_rigid)
from psurf.potentials import (BoundaryAngles, PotentialPair, SymmetryDescriptor,
                              check_equivariance, extract_diagonal_potentials,
                              gauge_transform, generalized_amsler_example,
                              normalized_from_boundary, pointwise, stretched_from_boundary)
from psurf.surface import (FrameGrid, SurfaceGrid, find_cone_point, geometry_report,
                           reconstruct_frames, sym_immersion, write_csv, write_obj)
from psurf.symmetry import (certify_from_potentials, check_surface_symmetry, compute_K,
                            measure_monodromy)

__all__ = [
    "BoundaryAngles", "FactorizationFailure", "FrameGrid", "GoursatProblem",
    "IntegrationDrift", "LaurentLoop", "PotentialPair", "RegistrationError",
    "SplitResult", "StiffnessError", "SurfaceGrid", "SymmetryDescriptor",
    "adjoint_rotation", "certify_from_potentials", "check_equivariance",
    "check_surface_symmetry", "compute_K", "direct_frame_solve",
    "extract_diagonal_potentials", "find_cone_point", "gauge_transform",
    "generalized_amsler_example", "geometry_report", "goursat_solve",
    "integrate_axis", "measure_monodromy", "normalized_from_boundary", "pointwise",
    "reconstruct_frames", "register_rigid", "split_minus_star_plus",
    "split_plus_minusfree", "split_plus_star_minus", "stretched_from_boundary",
    "su2_to_r3", "sym_immersion", "write_csv", "write_obj",
]
__version__ = "0.1.0"
