"""Shared helpers for the test suite, and closed-form references that only tests use."""
import cmath
import math

import numpy as np

from groverlab.analysis import sweep
from groverlab.cli import _random_case
from groverlab.equivalence import (_CONDITION_TOL, _FORMS, TRANSFORMABLE_KINDS, EquivalenceReport,
                                   _perturbed, _point, _wrapped_difference, angle_distance,
                                   check_tolerance, transform_phases, wrap_angle)
from groverlab.model import AlgorithmKind, LongParams, params_from_phases
from groverlab.statevector import measure, run_full
from groverlab.subspace import (check_unitary, initial_state, iteration_planes,
                               operator_coefficients, run, success_probability)

KINDS = list(AlgorithmKind)


def random_params(rng, kind):
    """Uniformly random phase bundle for a kind (angles in [-2pi, 2pi])."""
    return params_from_phases(kind, rng.uniform(-2 * math.pi, 2 * math.pi, size=4))


def random_kind(rng):
    return KINDS[int(rng.integers(0, len(KINDS)))]


def unmatched_params(kind, phase):
    """Bundle of an unmatched sweep cell: the phase in every field; licm pins gamma2 = eta2 = 0."""
    pin = 0.0 if kind is AlgorithmKind.LI_CM else phase
    return params_from_phases(kind, (phase, pin, phase, pin))


def sweep_array(grid, matched_from_long=False):
    """The rows that sweep yields, as one (lambda_steps, phase_steps) array."""
    return np.array(list(sweep(grid, matched_from_long=matched_from_long)))


def cubic(m):
    """The paper's one-iteration probability at oracle phase pi/2, m = lambda."""
    return 4 * m ** 3 - 8 * m ** 2 + 5 * m


def iteration_matrix(params, s):
    """The bundle's iteration diffusion @ oracle about |s> = s, checked by check_unitary.

    A scalar bundle and one (2,) s give one (2, 2) matrix.  A bundle's
    phases may be arrays and s a (..., 2) stack: the phases' shape and
    s.shape[:-1] broadcast to the leading axes of a (..., 2, 2) stack.  When
    the two have one ndim, each cell has the bits of its own scalar build.
    """
    coefficients = operator_coefficients(params)
    check_unitary(params.kind, coefficients, s)
    m = np.stack(iteration_planes(coefficients, s), axis=-1)
    return m.reshape(m.shape[:-1] + (2, 2))


def run_matrix(m, k, start):
    """subspace.run on a (2, 2) matrix or a (..., 2, 2) stack, whose entries are run's planes."""
    return run((m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]), k, start)


def max_entry_deviation(a, b, phase=0.0):
    """Max entrywise |a - e^{i phase} * b|."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - cmath.exp(1j * phase) * b)))


def predicted_global_phase(params_a, params_b):
    """Angle chi with G_a = e^{i chi} * G_b, for bundles at one point (phi_o, phi_d): table chis."""
    point_a, point_b = _point(params_a), _point(params_b)
    if max(map(angle_distance, point_a, point_b)) > _CONDITION_TOL:
        raise ValueError(f"parameters do not satisfy the phase-transform condition: "
                         f"points {point_a} vs {point_b}")
    with np.errstate(over="ignore"):  # a chi column rejects an overflow, by name
        return _wrapped_difference(_FORMS[params_b.kind].chi(params_b),
                                   _FORMS[params_a.kind].chi(params_a))


def global_phase_align_reference(a, b, tol=1e-10):
    """Angle chi with a == e^{i chi} * b entrywise within tol, or None: verify's alignment rule.

    The candidate phase is read off the largest-magnitude entry of b.  None
    means "not equivalent up to a global phase at this tolerance", which a
    NaN entry in either matrix also is; it is not an error.
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


def verify_reference(params_long, s, tol=1e-10, perturb=0.0, k=0):
    """equivalence.verify_phase_equivalence by its per-variant loop.

    Each mapped variant gets its own transform_phases, predicted_global_phase,
    global_phase_align_reference and max_entry_deviation; the four bundles
    still run as the four cells of one run.
    """
    check_tolerance("tol", tol)
    mapped = [transform_phases(params_long, to_kind) for to_kind in TRANSFORMABLE_KINDS[1:]]
    bundles = [params_long] + [_perturbed(p, perturb) if perturb else p for p in mapped]
    table = tuple(map(np.stack, zip(*map(operator_coefficients, bundles))))
    check_unitary([p.kind for p in bundles], table, s)
    entries = np.stack(iteration_planes(table, s), axis=-1)
    probs = success_probability(run(entries.T, k, s))
    g_long = entries[0]
    reports = []
    for mapped_params, realized, g_other, p in zip(mapped, bundles[1:], entries[1:], probs[1:]):
        predicted = predicted_global_phase(params_long, mapped_params)
        measured = global_phase_align_reference(g_long, g_other, tol)
        deviation = max_entry_deviation(g_long, g_other,
                                        predicted if measured is None else measured)
        prob_deviation = float(abs(p - probs[0]))
        holds = (measured is not None and angle_distance(measured, predicted) <= tol
                 and prob_deviation <= tol)
        reports.append(EquivalenceReport(realized, predicted, measured, deviation,
                                         prob_deviation, holds))
    return reports


def one_step_at_half_pi(ms):
    """The subspace engine's probability after one LongParams(pi/2) step, one per m in ms."""
    starts = np.array([initial_state(m) for m in np.atleast_1d(ms).tolist()])
    mats = iteration_matrix(LongParams(math.pi / 2), starts)
    return success_probability(run_matrix(mats, 1, starts))


def long_iteration_closed_form(start, phi, diffusion_phi=None):
    """Entrywise closed form of the two-phase long iteration about |s> = start.

    phi drives the oracle, diffusion_phi the diffusion (defaulting to phi,
    the phase-matched case).
    """
    vphi = phi if diffusion_phi is None else diffusion_phi
    s, c = start
    eo = cmath.exp(1j * phi)
    ed = cmath.exp(1j * vphi)
    return np.array(
        [
            [-eo * (s * s * ed + c * c), s * c * (1.0 - ed)],
            [s * c * eo * (1.0 - ed), -(c * c * ed + s * s)],
        ],
        dtype=complex,
    )


def single_iteration_amplitude_long(m, phi):
    """Target amplitude after one long iteration from the uniform state.

    sqrt(m) * (1 - 2 e^{i phi} - (1 - e^{i phi})^2 * m), with m = sin^2(theta).
    """
    e = cmath.exp(1j * phi)
    return math.sqrt(m) * (1.0 - 2.0 * e - (1.0 - e) ** 2 * m)


def is_unitary(m: np.ndarray, tol: float = 1e-12) -> bool:
    """True iff m @ m^dagger deviates from the identity by at most tol (max entry).

    m may be a (..., n, n) stack; every matrix in it must pass.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    m = np.asarray(m, dtype=complex)
    gram = m @ m.conj().swapaxes(-1, -2)
    np.einsum("...ii->...i", gram)[...] -= 1  # the diagonal, as a writable view
    return bool(np.max(np.abs(gram)) <= tol)


def cmath_row(params, exp=cmath.exp, cos=math.cos):
    """The operator table row (target, rest, c, d), written out with cmath for one scalar bundle.

    The reference for subspace.operator_coefficients and for run_full's
    oracle and diffusion.  mpmath's exp and cos give the row at mpmath's
    working precision instead.
    """
    if params.kind is AlgorithmKind.ORIGINAL:
        return -1.0 + 0j, 1.0 + 0j, 2.0 + 0j, -1.0 + 0j
    if params.kind is AlgorithmKind.LONG:
        return (exp(1j * params.phi), 1.0 + 0j,
                1.0 - exp(1j * params.diffusion_phase), -1.0 + 0j)
    if params.kind is AlgorithmKind.LI_DF:
        w = 2.0 * cos(params.tau) * exp(1j * params.tau)
        return 1.0 - w, 1.0 + 0j, w, -1.0 + 0j
    if params.kind is AlgorithmKind.LI_CM:
        eg2 = exp(1j * params.gamma2)
        return (-exp(1j * params.eta1), -exp(1j * params.eta2),
                exp(1j * params.gamma1) - eg2, eg2)
    e = exp(1j * params.beta)
    return exp(-1j * params.beta), 1.0 + 0j, 1.0 - e, e


def apply_oracle(marked, amplitudes, params):
    """Multiply marked amplitudes by the target eigenvalue of the bundle's kind.

    Only licm also rescales the unmarked amplitudes (by -e^{i eta2}).  One
    step at a time, by gather and scatter: the reference for run_full.
    """
    target, rest, _, _ = cmath_row(params)
    amps = amplitudes.copy()
    amps[marked] *= target
    if rest != 1:
        amps[~marked] *= rest
    return amps


def apply_diffusion(marked, amplitudes, params):
    """v -> c * <s|v> * |s> + d * v with the coefficients (c, d) of the bundle's kind."""
    _, _, c, d = cmath_row(params)
    # c * <s|v> * |s> has the constant value c * sum(v) / N on every index.
    uniform_part = c * amplitudes.sum() / marked.size
    return d * amplitudes + uniform_part


def crosscheck_reference(n, seed, samples, tol=1e-10):
    """crosscheck's stdout lines and exit code by the per-sample path, and the (kind, k) drawn.

    The same _random_case draws as the command, for samples >= 1, but every
    sample's 2x2 side is its own run_matrix(iteration_matrix(params, s), k, s).
    """
    rng = np.random.default_rng(seed)
    deviations, residuals, gaps, drawn = [], [], [], []
    for _ in range(samples):
        marked, params, k = _random_case(rng, n)
        full = run_full(marked, params, k)
        s = initial_state(np.count_nonzero(marked) / marked.size)
        sub = run_matrix(iteration_matrix(params, s), k, s)
        probability, projected, residual = measure(marked, full)
        deviations.append(abs(probability - success_probability(sub)))
        residuals.append(residual)
        gaps.append(np.abs(projected - sub).max())
        drawn.append((params.kind, k))
    max_prob_dev, max_residual, max_gap = (float(np.max(x)) for x in (deviations, residuals, gaps))
    lines = [f"rng=PCG64 seed={seed} n={n} samples={samples}",
             f"max probability deviation: {max_prob_dev:.3e}",
             f"max subspace residual: {max_residual:.3e}"]
    # Each worst value, the amplitude gap included, must lie below tol; nan fails.
    ok = max_prob_dev < tol and max_residual < tol and max_gap < tol
    return lines, 0 if ok else 2, drawn
