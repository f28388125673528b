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
from .operators import check_unitary, iteration_planes, operator_coefficients
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

    Arrays go element by element through the scalar rule into their broadcast
    shape, in Python: a numpy ufunc would warn at the rule's overflowing subtraction.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.broadcast_arrays(a, b)
        return np.fromiter(map(angle_distance, a.flat, b.flat), float, a.size).reshape(a.shape)
    return abs(_wrapped_difference(a, b))


def _wrapped_difference(a: float, b: float) -> float:
    """a - b, wrapped; two finite angles whose difference overflows are reduced first."""
    d = float(a) - float(b)
    if math.isinf(d) and math.isfinite(a) and math.isfinite(b):
        d = wrap_angle(a) - wrap_angle(b)
    return wrap_angle(d)


def _align(a: np.ndarray, rows: np.ndarray, tol: float, fallback: list) -> tuple[list, list]:
    """Angle chi with a == e^{i chi} * row within tol, or None, for each row; and its deviation.

    The candidate chi is read off the row's largest-magnitude entry, which
    keeps the division away from near-zero entries.  The deviation
    max |a - e^{i chi} row| is taken at the measured chi, else at the row's
    fallback phase.
    """
    a_list, candidates = a.tolist(), []
    for row, pivot in zip(rows.tolist(), np.abs(rows).argmax(axis=-1).tolist()):
        ratio = a_list[pivot] / row[pivot]  # Python's division: numpy rounds complex ones otherwise
        candidates.append(wrap_angle(cmath.phase(ratio)) if abs(abs(ratio) - 1.0) <= tol else None)
    deviations = _deviations(a, rows, [f if c is None else c for c, f in zip(candidates, fallback)])
    measured = [c if c is not None and d <= tol else None for c, d in zip(candidates, deviations)]
    for j, (c, m) in enumerate(zip(candidates, measured)):
        if c is not None and m is None:  # the candidate failed its own deviation
            deviations[j] = _deviations(a, rows[j], fallback[j:j + 1])[0]
    return measured, deviations


def _deviations(a: np.ndarray, rows: np.ndarray, phases: list) -> list:
    """max |a - e^{i phase} row| for each row and its phase, rounded as for one row."""
    factors = np.array([cmath.exp(1j * phase) for phase in phases])[:, None]
    return np.maximum.reduce(np.abs(a - factors * rows), axis=-1).tolist()


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


def transform_phases(params: PhaseParams, to_kind: AlgorithmKind) -> PhaseParams:
    """Map a variant's parameters to another variant along the condition chain."""
    entry = _chain_entry(to_kind)
    with np.errstate(over="ignore"):  # the chain-value column rejects an overflow, by name
        return entry.at(_chain_entry(params.kind).phi(params))


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
    sufficient.  Long's chain value is read once and mapped to each kind.
    The four bundles' rows make one table, checked and expanded once, so the
    long iteration and the three variants run k steps as four cells of one
    run; prob_deviation compares their success probabilities (at k = 0 it
    is 0).  The three entry rows are aligned against long's in one pass.

    phi is taken as given, and the mapped phases round at its scale: at
    LongParams(1e8), lambda 0.3 and k = 3, lidf and lipc FAIL.  Pass
    wrap_angle(phi), as check-equivalence does with --phi, to avoid that.
    """
    check_tolerance("tol", tol)
    long_entry = _chain_entry(params_long.kind)
    with np.errstate(over="ignore"):  # each column rejects an overflow, by name
        phi, chi_long = long_entry.phi(params_long), long_entry.chi(params_long)
        mapped = [_CHAIN[kind].at(phi) for kind in TRANSFORMABLE_KINDS[1:]]
        for params in mapped:
            chain_value = _CHAIN[params.kind].phi(params)
            if angle_distance(phi, chain_value) > _CONDITION_TOL:
                raise ValueError(f"parameters do not satisfy the phase-transform condition: "
                                 f"chain values {phi} vs {chain_value}")
        predicted = [_wrapped_difference(_CHAIN[p.kind].chi(p), chi_long) for p in mapped]
    bundles = [params_long] + [_perturbed(p, perturb) if perturb else p for p in mapped]
    # The table's columns (target, rest, c, d) as rows of one (4, 4) array, one cell per bundle.
    table = np.array(list(zip(*map(operator_coefficients, bundles))))
    check_unitary([p.kind for p in bundles], table, s)
    # run's planes; column j holds bundle j's entries (m00, m01, m10, m11).
    planes = np.array(iteration_planes(table, s))
    p_long, *probs = success_probability(run(planes, k, s)).tolist()
    measured, deviations = _align(planes[:, 0], planes[:, 1:].T, tol, predicted)
    reports = []
    for realized, chi, m, deviation, p in zip(bundles[1:], predicted, measured, deviations, probs):
        prob_deviation = abs(p - p_long)
        reports.append(EquivalenceReport(
            target_params=realized,
            predicted_phase=chi,
            measured_phase=m,
            max_entry_deviation=deviation,
            prob_deviation=prob_deviation,
            holds=m is not None and angle_distance(m, chi) <= tol and prob_deviation <= tol,
        ))
    return reports
