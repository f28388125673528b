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
    global_phase_align,
    max_entry_deviation,
    predicted_global_phase,
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
from .operators import (
    iteration_matrix,
    operator_coefficients,
)
from .statevector import (
    project_to_subspace,
    run_full,
    target_probability,
)
from .subspace import initial_state, run, success_probability

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
    "global_phase_align",
    "initial_state",
    "iteration_matrix",
    "make_search_space",
    "max_entry_deviation",
    "operator_coefficients",
    "optimal_iterations",
    "params_from_phases",
    "predicted_global_phase",
    "project_to_subspace",
    "run",
    "run_full",
    "success_probability",
    "sweep",
    "target_probability",
    "transform_phases",
    "verify_phase_equivalence",
    "wrap_angle",
]
