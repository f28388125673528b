"""The phase-transform condition, the global phases it predicts, and the angle arithmetic.

The four variants coincide up to a global phase whenever their parameters
sit on the chain

    phi = 2*tau + pi = gamma1 - gamma2 = -beta        (with eta1 - eta2 = gamma1 - gamma2)

and the phase of each variant's iteration relative to the single-phase long
iteration is

    lidf   0
    licm   -(gamma2 + eta2)
    lipc   pi - beta

The licm entry generalizes the two-parameter case (where gamma = eta and the
relative phase is -2*gamma2) to independent gamma2, eta2 offsets.  The chain
is Long's phase matching (PRA 64, 022307, 2001); _CHAIN holds it per kind.

Angles are radians, "wrapped" into (-pi, pi].  A global phase e^{i chi} between
two complex arrays of one shape, such as two (2, 2) matrices, is read as chi.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .model import (AlgorithmKind, LiCMParams, LiDFParams, LiPCParams, LongParams, PhaseParams,
                    _require_finite)
from .operators import iteration_matrix
from .subspace import run, success_probability

TAU = 2.0 * math.pi
_CONDITION_TOL = 1e-9


def check_tolerance(name: str, tol: float) -> None:
    """Reject a tolerance that is not positive, NaN included, naming it by name."""
    if not tol > 0:
        raise ValueError(f"{name} must be positive, got {tol}")


def wrap_angle(angle: float) -> float:
    """Reduce an angle mod 2*pi into (-pi, pi]."""
    a = math.remainder(angle, TAU)
    if a <= -math.pi:
        a += TAU
    return a + 0.0  # normalizes -0.0


def angle_distance(a, b):
    """Distance between two angles mod 2*pi, in [0, pi]; a or b may be a float array.

    An array gets the scalar bits: fmod is exact, as math.remainder is, and
    TAU - d is exact for d in (pi, TAU).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        d = np.abs(np.fmod(np.subtract(a, b), TAU))
        return np.where(d > math.pi, TAU - d, d)
    return abs(_wrapped_difference(a, b))


def _wrapped_difference(a: float, b: float) -> float:
    """a - b, wrapped; two finite angles whose difference overflows are reduced first."""
    d = float(a) - float(b)
    if math.isinf(d) and math.isfinite(a) and math.isfinite(b):
        d = wrap_angle(a) - wrap_angle(b)
    return wrap_angle(d)


def max_entry_deviation(a: np.ndarray, b: np.ndarray, phase: float = 0.0) -> float:
    """Max entrywise |a - e^{i phase} * b|."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - cmath.exp(1j * phase) * b)))


def global_phase_align(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> float | None:
    """Angle chi with a == e^{i chi} * b entrywise within tol, or None.

    The candidate phase is read off the largest-magnitude entry of b, which
    keeps the division away from near-zero entries.  None means "not
    equivalent up to a global phase at this tolerance", which a NaN entry in
    either matrix also is; it is not an error.
    """
    check_tolerance("tol", tol)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    pivot = int(np.argmax(np.abs(b)))
    if abs(b.flat[pivot]) == 0.0:
        raise ValueError("cannot align against the zero matrix")
    ratio = complex(a.flat[pivot]) / complex(b.flat[pivot])
    if not abs(abs(ratio) - 1.0) <= tol:  # NaN fails too
        return None
    chi = wrap_angle(cmath.phase(ratio))
    return chi if max_entry_deviation(a, b, chi) <= tol else None


def _long_phi(params: LongParams) -> float:
    if params.diffusion_phi is not None and np.any(params.diffusion_phi != params.phi):
        raise ValueError(
            "the transform condition covers only the single-phase long "
            "iteration (diffusion phase equal to phi)"
        )
    return params.phi


def _licm_phi(params: LiCMParams) -> float:
    phi = _require_finite("licm gamma1 - gamma2", params.gamma1 - params.gamma2)
    eta = _require_finite("licm eta1 - eta2", params.eta1 - params.eta2)
    if not np.all(angle_distance(phi, eta) <= _CONDITION_TOL):  # every element of an array
        raise ValueError("licm parameters must satisfy gamma1 - gamma2 = eta1 - eta2 "
                         "to sit on the transform chain")
    return phi


class _ChainEntry(NamedTuple):
    at: Callable[[float], PhaseParams]     # the kind's bundle on the chain at phi
    phi: Callable[[PhaseParams], float]    # the chain value a bundle carries
    chi: Callable[[PhaseParams], float]    # chi with G_long = e^{i chi} * G_kind


# licm gets the canonical representative (phi, 0, phi, 0): the chain pins
# only the differences gamma1 - gamma2 and eta1 - eta2, and zero offsets make
# the mapping a function (and the predicted relative phase 0).  A sum or
# difference of finite phases can overflow, so each column names its own.
_CHAIN = {
    AlgorithmKind.LONG: _ChainEntry(LongParams, _long_phi, lambda p: 0.0),
    AlgorithmKind.LI_DF: _ChainEntry(
        lambda phi: LiDFParams((phi - math.pi) / 2.0),
        lambda p: _require_finite("lidf 2*tau + pi", 2.0 * p.tau + math.pi), lambda p: 0.0),
    AlgorithmKind.LI_CM: _ChainEntry(
        lambda phi: LiCMParams(phi, 0.0, phi, 0.0), _licm_phi,
        lambda p: -_require_finite("licm gamma2 + eta2", p.gamma2 + p.eta2)),
    AlgorithmKind.LI_PC: _ChainEntry(lambda phi: LiPCParams(-phi),
                                     lambda p: -p.beta, lambda p: math.pi - p.beta),
}

#: Variants covered by the transform condition (everything but the original).
TRANSFORMABLE_KINDS = tuple(_CHAIN)


def _chain_entry(kind: AlgorithmKind) -> _ChainEntry:
    if kind not in _CHAIN:
        raise ValueError(f"the {kind.value} iteration is not on the transform chain")
    return _CHAIN[kind]


def _chain(column: str, params: PhaseParams) -> float:
    """The bundle's chain value ("phi") or relative phase ("chi") from its _CHAIN column."""
    entry = _chain_entry(params.kind)
    with np.errstate(over="ignore"):  # the column rejects an overflow, by name
        return getattr(entry, column)(params)


def transform_phases(params: PhaseParams, to_kind: AlgorithmKind) -> PhaseParams:
    """Map a variant's parameters to another variant along the condition chain."""
    return _chain_entry(to_kind).at(_chain("phi", params))


def predicted_global_phase(params_a: PhaseParams, params_b: PhaseParams) -> float:
    """Angle chi with G_a = e^{i chi} * G_b, given parameters on the chain."""
    phi_a, phi_b = _chain("phi", params_a), _chain("phi", params_b)
    if angle_distance(phi_a, phi_b) > _CONDITION_TOL:
        raise ValueError(
            f"parameters do not satisfy the phase-transform condition: "
            f"chain values {phi_a} vs {phi_b}"
        )
    return _wrapped_difference(_chain("chi", params_b), _chain("chi", params_a))


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of aligning one variant pair at a tolerance.

    holds requires all three: the alignment succeeded (so its residual entry
    deviation is within tolerance), the measured phase matches the
    prediction mod 2*pi, and the success probabilities after k steps differ
    by at most the tolerance.
    """

    target_params: PhaseParams
    predicted_phase: float
    measured_phase: float | None
    max_entry_deviation: float
    prob_deviation: float
    holds: bool


def _perturbed(params: PhaseParams, delta: float) -> PhaseParams:
    """Shift a variant's leading phase (its first field) off the chain, for necessity checks."""
    lead = params.__match_args__[0]
    return replace(params, **{lead: getattr(params, lead) + delta})


def verify_phase_equivalence(
    params_long: LongParams,
    s: np.ndarray,
    tol: float = 1e-10,
    perturb: float = 0.0,
    k: int = 0,
) -> list[EquivalenceReport]:
    """Map a long iteration's phase to every other variant and test the claim about |s> = s.

    Failures are recorded in the reports, never raised.  A nonzero perturb
    offsets each mapped variant's leading phase, stepping off the chain; the
    reports then demonstrate that the condition is necessary, not just
    sufficient.  The long iteration and the three variants run k steps as
    one (4, 2, 2) stack; prob_deviation compares their success
    probabilities (at k = 0 it is 0).
    """
    check_tolerance("tol", tol)
    mapped = [transform_phases(params_long, to_kind) for to_kind in TRANSFORMABLE_KINDS[1:]]
    realized = [_perturbed(p, perturb) if perturb else p for p in mapped]
    mats = np.stack([iteration_matrix(p, s) for p in [params_long, *realized]])
    probs = success_probability(run(mats, k, s))
    g_long = mats[0]
    reports = []
    for mapped_params, realized_params, g_other, p in zip(mapped, realized, mats[1:], probs[1:]):
        predicted = predicted_global_phase(params_long, mapped_params)
        measured = global_phase_align(g_long, g_other, tol)
        deviation = max_entry_deviation(g_long, g_other,
                                        predicted if measured is None else measured)
        prob_deviation = float(abs(p - probs[0]))
        holds = (measured is not None and angle_distance(measured, predicted) <= tol
                 and prob_deviation <= tol)
        reports.append(
            EquivalenceReport(
                target_params=realized_params,
                predicted_phase=predicted,
                measured_phase=measured,
                max_entry_deviation=deviation,
                prob_deviation=prob_deviation,
                holds=holds,
            )
        )
    return reports
