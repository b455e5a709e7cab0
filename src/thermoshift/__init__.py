"""Zero-temperature limits of equilibrium states on subshifts of finite type.

The package classifies locally constant potentials by the weak* limit of
their equilibrium Markov measures as the inverse temperature grows,
computes rotation-set polytopes and maximizing subshifts, and evaluates
the localized entropy function in the interior and on one-dimensional
faces of the rotation set.
"""

__version__ = "0.1.0"

from .errors import (DegenerateFaceError, EmptyShiftError, InvalidArgumentError,
                     NotTransitiveError, NumericError, OutOfDomainError,
                     ReducibleMatrixError, ResourceLimitError, ThermoshiftError,
                     UnderflowError, UnsupportedDimensionError)
from .core_sft import (RecodedSft, SccComponent, Sft, is_transitive,
                       recode_to_one_step, strongly_connected_components)
from .orbits import (ElementaryOrbit, birkhoff_average, elementary_orbits,
                     permutability_classes)
from .potential import (CohomologyReport, PotentialLC, cohomology_test,
                        scalarize, universal_potential)
from .rotation_geometry import (FaceFingerprint, GenericityReport,
                                RotationPolytope, face_in_direction,
                                face_segment, genericity_check, rotation_set)
from .max_face import (FaceComponent, FaceSubshift, face_subshift,
                       max_entropy_components, max_mean_data)
from .thermodynamics import (MarkovMeasure, equilibrium_markov, parry_measure,
                             pressure)
from .zero_temperature import (ClassificationResult, ZtCoefficients, classify,
                               ground_state_check, symmetry_coefficients,
                               zt_coefficients)
from .boundary_entropy import (DiffReport, FaceCurve, differentiability_scan,
                               face_entropy_curve, localized_entropy_interior)
from .builtins import get_potential, get_shift, potential_names, shift_names
from .cache import cached_elementary_orbits

__all__ = [
    "__version__",
    # errors
    "ThermoshiftError", "InvalidArgumentError", "EmptyShiftError",
    "ReducibleMatrixError", "NotTransitiveError", "ResourceLimitError",
    "UnsupportedDimensionError", "OutOfDomainError", "DegenerateFaceError",
    "UnderflowError", "NumericError",
    # shifts and orbits
    "Sft", "RecodedSft", "SccComponent", "recode_to_one_step", "is_transitive",
    "strongly_connected_components", "ElementaryOrbit",
    "elementary_orbits", "birkhoff_average", "permutability_classes",
    # potentials
    "PotentialLC", "scalarize", "universal_potential", "CohomologyReport",
    "cohomology_test",
    # rotation geometry
    "RotationPolytope", "FaceFingerprint", "GenericityReport", "rotation_set",
    "face_in_direction", "face_segment", "genericity_check",
    # maximizing subshifts
    "FaceSubshift", "FaceComponent", "face_subshift", "max_entropy_components",
    "max_mean_data",
    # thermodynamics
    "MarkovMeasure", "pressure", "equilibrium_markov", "parry_measure",
    # zero temperature
    "ClassificationResult", "ZtCoefficients", "classify", "zt_coefficients",
    "symmetry_coefficients", "ground_state_check",
    # boundary entropy
    "FaceCurve", "DiffReport", "face_entropy_curve", "differentiability_scan",
    "localized_entropy_interior",
    # named examples and cache
    "get_shift", "get_potential", "shift_names", "potential_names",
    "cached_elementary_orbits",
]
