"""Numerical laboratory for the original Grover iteration and four phase-generalized variants.

The package constructs each variant's one-iteration operator in the 2D
subspace spanned by the target/non-target superpositions, runs it there and
on full statevectors, verifies that matched phases make the variants
coincide up to a computable global phase, and tabulates probability sweeps
as CSV data.
"""
from .analysis import (
    SweepGrid,
    closed_form_probability,
    optimal_iterations,
    sweep,
)
from .equivalence import (
    EquivalenceReport,
    TRANSFORMABLE_KINDS,
    angle_distance,
    transform_phases,
    verify_phase_equivalence,
    wrap_angle,
)
from .model import (
    AlgorithmKind,
    LiCMParams,
    LiDFParams,
    LiPCParams,
    LongParams,
    OriginalParams,
    PhaseParams,
    make_search_space,
    params_from_phases,
)
from .statevector import measure, run_full
from .subspace import (initial_state, iteration_planes, operator_coefficients, run,
                       success_probability)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmKind",
    "EquivalenceReport",
    "LiCMParams",
    "LiDFParams",
    "LiPCParams",
    "LongParams",
    "OriginalParams",
    "PhaseParams",
    "SweepGrid",
    "TRANSFORMABLE_KINDS",
    "angle_distance",
    "closed_form_probability",
    "initial_state",
    "iteration_planes",
    "make_search_space",
    "measure",
    "operator_coefficients",
    "optimal_iterations",
    "params_from_phases",
    "run",
    "run_full",
    "success_probability",
    "sweep",
    "transform_phases",
    "verify_phase_equivalence",
    "wrap_angle",
]
