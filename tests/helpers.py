"""Shared helpers for the test suite, and closed-form references that only tests use."""
import cmath
import math

import numpy as np

from groverlab.analysis import sweep
from groverlab.cli import _random_case
from groverlab.model import AlgorithmKind, LongParams, params_from_phases
from groverlab.operators import iteration_matrix
from groverlab.statevector import project_to_subspace, run_full, target_probability
from groverlab.subspace import initial_state, run, success_probability

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


def one_step_at_half_pi(ms):
    """The subspace engine's probability after one LongParams(pi/2) step, one per m in ms."""
    starts = np.array([initial_state(m) for m in np.atleast_1d(ms).tolist()])
    mats = iteration_matrix(LongParams(math.pi / 2), starts)
    return success_probability(run(mats, 1, starts))


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

    The reference for operators.operator_coefficients and for run_full's
    oracle and diffusion.  mpmath's exp and cos give the row at mpmath's
    working precision instead.
    """
    if params.kind is AlgorithmKind.ORIGINAL:
        return -1.0 + 0j, 1.0 + 0j, 2.0 + 0j, -1.0 + 0j
    if params.kind is AlgorithmKind.LONG:
        return (exp(1j * params.oracle_phase), 1.0 + 0j,
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
    sample's 2x2 side is its own run(iteration_matrix(params, s), k, s).
    """
    rng = np.random.default_rng(seed)
    deviations, residuals, gaps, drawn = [], [], [], []
    for _ in range(samples):
        marked, kind, phases, k = _random_case(rng, n)
        params = params_from_phases(kind, phases)
        full = run_full(marked, params, k)
        s = initial_state(np.count_nonzero(marked) / marked.size)
        sub = run(iteration_matrix(params, s), k, s)
        deviations.append(abs(target_probability(marked, full) - success_probability(sub)))
        projected, residual = project_to_subspace(marked, full)
        residuals.append(residual)
        gaps.append(np.abs(projected - sub).max())
        drawn.append((kind, k))
    max_prob_dev, max_residual, max_gap = (float(np.max(x)) for x in (deviations, residuals, gaps))
    lines = [f"rng=PCG64 seed={seed} n={n} samples={samples}",
             f"max probability deviation: {max_prob_dev:.3e}",
             f"max subspace residual: {max_residual:.3e}"]
    # Each worst value, the amplitude gap included, must lie below tol; nan fails.
    ok = max_prob_dev < tol and max_residual < tol and max_gap < tol
    return lines, 0 if ok else 2, drawn
