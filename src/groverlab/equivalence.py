"""The canonical form of the phased iterations, the global phases it predicts, and angle arithmetic.

At every phase value, each transformable bundle's iteration is a unit scalar
times two-phase long at one point (phi_o, phi_d), its oracle and diffusion
phases: G_long(phi_o, phi_d) = e^{i chi} G_kind, with

    kind   bundle             (phi_o, phi_d)             chi
    long   (phi, vphi)        (phi, vphi)                0
    lidf   tau                (2 tau + pi, 2 tau + pi)   0
    licm   (g1, g2, e1, e2)   (e1 - e2, g1 - g2)         -(g2 + e2)
    lipc   beta               (-beta, -beta)             pi - beta

long and licm cover the plane; lidf and lipc only its diagonal phi_o = phi_d,
the chain phi = 2 tau + pi = gamma1 - gamma2 = -beta of Long's phase matching
(Long, Li, Zhang and Niu, Phys. Lett. A 262, 27, 1999; Long, PRA 64, 022307,
2001).  _FORMS holds the table.  transform_phases maps a bundle to a kind's
bundle at its point, so two-phase long and licm map both ways, and lidf and
lipc reject an off-diagonal point by name.  A point within _CONDITION_TOL of
the diagonal maps as (phi_d, phi_d): long gets LongParams(phi_d), and licm the
representative (phi_d, 0, phi_o, 0), whose zero offsets make its chi 0.

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
_CONDITION_TOL = 1e-11  # a snapped point's iteration stays within 1e-10 of the bundle's


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


class _Form(NamedTuple):
    point: Callable[[PhaseParams], tuple]         # the bundle's (phi_o, phi_d)
    chi: Callable[[PhaseParams], float]           # chi with G_long(point) = e^{i chi} * G_kind
    at: Callable[[float, float], PhaseParams]     # the kind's bundle at (phi_o, phi_d)


def _off_chain(kind: str):
    raise ValueError(f"{kind} covers only the chain phi_o = phi_d, and the point is off it")


def _licm_point(p: LiCMParams) -> tuple:
    phi_d = _require_finite("licm gamma1 - gamma2", p.gamma1 - p.gamma2)
    return _require_finite("licm eta1 - eta2", p.eta1 - p.eta2), phi_d


# at() gets a point on the diagonal as (phi_d, phi_d), one object twice.  A sum
# or difference of finite phases can overflow, so each column names its own.
_FORMS = {
    AlgorithmKind.LONG: _Form(lambda p: (p.phi, p.diffusion_phase), lambda p: 0.0,
                              lambda o, d: LongParams(d) if o is d else LongParams(o, d)),
    AlgorithmKind.LI_DF: _Form(
        lambda p: (_require_finite("lidf 2*tau + pi", 2.0 * p.tau + math.pi),) * 2, lambda p: 0.0,
        lambda o, d: LiDFParams((d - math.pi) / 2.0) if o is d else _off_chain("lidf")),
    AlgorithmKind.LI_CM: _Form(_licm_point,
                               lambda p: -_require_finite("licm gamma2 + eta2", p.gamma2 + p.eta2),
                               lambda o, d: LiCMParams(d, 0.0, o, 0.0)),
    AlgorithmKind.LI_PC: _Form(
        lambda p: (-p.beta,) * 2, lambda p: math.pi - p.beta,
        lambda o, d: LiPCParams(-d) if o is d else _off_chain("lipc")),
}

#: Variants covered by the canonical form (everything but the original).
TRANSFORMABLE_KINDS = tuple(_FORMS)


def _form(kind: AlgorithmKind) -> _Form:
    if kind not in _FORMS:
        raise ValueError(f"the {kind.value} iteration has no point in the canonical form")
    return _FORMS[kind]


def _point(params: PhaseParams) -> tuple:
    """The bundle's (phi_o, phi_d); (phi_d, phi_d) within _CONDITION_TOL of the diagonal."""
    with np.errstate(over="ignore"):  # each column rejects an overflow, by name
        phi_o, phi_d = _form(params.kind).point(params)
    # A single-phase point holds one object twice; an array goes element by element.
    on_chain = phi_o is phi_d or np.all(angle_distance(phi_o, phi_d) <= _CONDITION_TOL)
    if on_chain and isinstance(phi_o, np.ndarray) and phi_o.shape != np.shape(phi_d):
        phi_d = np.broadcast_to(phi_d, np.broadcast(phi_o, phi_d).shape).copy()  # the point's shape
    return (phi_d if on_chain else phi_o), phi_d


def transform_phases(params: PhaseParams, to_kind: AlgorithmKind) -> PhaseParams:
    """The to_kind bundle at the point (phi_o, phi_d) of params; see the module table."""
    return _form(to_kind).at(*_point(params))


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
    sufficient.  Long's point is read once and mapped to each kind, and each
    predicted phase is a difference of chis.
    The four bundles' rows make one table, checked and expanded once, so the
    long iteration and the three variants run k steps as four cells of one
    run; prob_deviation compares their success probabilities (at k = 0 it
    is 0).  The three entry rows are aligned against long's in one pass.

    phi is taken as given, and the mapped phases round at its scale: at
    LongParams(1e8), lambda 0.3 and k = 3, lidf and lipc FAIL.  Pass
    wrap_angle(phi), as check-equivalence does with --phi, to avoid that.
    """
    check_tolerance("tol", tol)
    point = _point(params_long)
    mapped = [_FORMS[kind].at(*point) for kind in TRANSFORMABLE_KINDS[1:]]
    with np.errstate(over="ignore"):  # a chi column rejects an overflow, by name
        chi_long = _FORMS[params_long.kind].chi(params_long)
        predicted = [_wrapped_difference(_FORMS[p.kind].chi(p), chi_long) for p in mapped]
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
