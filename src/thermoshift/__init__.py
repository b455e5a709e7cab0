"""Zero-temperature limits of equilibrium states on subshifts of finite type.

The package classifies locally constant potentials by the weak* limit of
their equilibrium Markov measures as the inverse temperature grows,
computes rotation-set polytopes and maximizing subshifts, and evaluates
the localized entropy function in the interior and on one-dimensional
faces of the rotation set.

The public names below load their defining module on first access
(PEP 562), so that ``import thermoshift`` and the commands that never
solve a Perron problem do not import numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "ThermoshiftError", "InvalidArgumentError", "EmptyShiftError",
        "ReducibleMatrixError", "NotTransitiveError", "ResourceLimitError",
        "UnsupportedDimensionError", "OutOfDomainError", "DegenerateFaceError",
        "UnderflowError", "NumericError"),
    # shifts and orbits
    "core_sft": ("Sft", "RecodedSft", "SccComponent", "recode_to_one_step",
                 "is_transitive", "strongly_connected_components"),
    "orbits": ("ElementaryOrbit", "elementary_orbits", "birkhoff_average"),
    # potentials
    "potential": ("PotentialLC", "scalarize", "universal_potential",
                  "CohomologyReport", "cohomology_test"),
    "rotation_geometry": ("RotationPolytope", "FaceFingerprint", "GenericityReport",
                          "rotation_set", "face_in_direction", "genericity_check"),
    # maximizing subshifts
    "max_face": ("FaceSubshift", "FaceComponent", "face_subshift",
                 "max_entropy_components", "max_mean_data"),
    # the modules below import numpy (boundary_entropy only for sampled curves)
    "thermodynamics": ("MarkovMeasure", "pressure", "equilibrium_markov",
                       "parry_measure"),
    "zero_temperature": ("ClassificationResult", "ZtCoefficients", "classify",
                         "zt_coefficients", "symmetry_coefficients",
                         "ground_state_check"),
    "boundary_entropy": ("FaceCurve", "DiffReport", "face_entropy_curve",
                         "differentiability_scan", "localized_entropy_interior"),
    # named examples and cache
    "builtins": ("get_shift", "get_potential", "shift_names", "potential_names"),
    "cache": ("cached_elementary_orbits",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value         # later reads skip this hook, as after an eager import
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
