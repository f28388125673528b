"""Shared helpers for the test suite, and closed-form references that only tests use."""
import cmath
import math

import numpy as np

from groverlab.analysis import sweep
from groverlab.model import AlgorithmKind, params_from_phases
from groverlab.statevector import StateVector

KINDS = list(AlgorithmKind)


def random_params(rng, kind):
    """Uniformly random phase bundle for a kind (angles in [-2pi, 2pi])."""
    return params_from_phases(kind, rng.uniform(-2 * math.pi, 2 * math.pi, size=4))


def random_kind(rng):
    return KINDS[int(rng.integers(0, len(KINDS)))]


def sweep_array(grid, matched_from_long=False):
    """The rows that sweep yields, as one (lambda_steps, phase_steps) array."""
    return np.array(list(sweep(grid, matched_from_long=matched_from_long)))


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


def apply_oracle(v, params):
    """Multiply marked amplitudes by the target eigenvalue of the bundle's kind.

    Only licm also rescales the unmarked amplitudes (by -e^{i eta2}).  One
    step at a time, by gather and scatter: the reference for run_full.
    """
    rest = 1.0
    if params.kind is AlgorithmKind.ORIGINAL:
        target = -1.0
    elif params.kind is AlgorithmKind.LONG:
        target = cmath.exp(1j * params.oracle_phase)
    elif params.kind is AlgorithmKind.LI_DF:
        target = 1.0 - 2.0 * math.cos(params.tau) * cmath.exp(1j * params.tau)
    elif params.kind is AlgorithmKind.LI_CM:
        target, rest = -cmath.exp(1j * params.eta1), -cmath.exp(1j * params.eta2)
    else:
        target = cmath.exp(-1j * params.beta)
    amps = v.amplitudes.copy()
    amps[v.space.marked] *= target
    if rest != 1:
        amps[~v.space.marked] *= rest
    return StateVector(amps, v.space)


def apply_diffusion(v, params):
    """v -> c * <s|v> * |s> + d * v with the coefficients (c, d) of the bundle's kind."""
    if params.kind is AlgorithmKind.ORIGINAL:
        c, d = 2.0 + 0j, -1.0 + 0j
    elif params.kind is AlgorithmKind.LONG:
        c, d = 1.0 - cmath.exp(1j * params.diffusion_phase), -1.0 + 0j
    elif params.kind is AlgorithmKind.LI_DF:
        c = 2.0 * math.cos(params.tau) * cmath.exp(1j * params.tau)
        d = -1.0 + 0j
    elif params.kind is AlgorithmKind.LI_CM:
        c = cmath.exp(1j * params.gamma1) - cmath.exp(1j * params.gamma2)
        d = cmath.exp(1j * params.gamma2)
    else:
        c = 1.0 - cmath.exp(1j * params.beta)
        d = cmath.exp(1j * params.beta)
    # c * <s|v> * |s> has the constant value c * sum(v) / N on every index.
    uniform_part = c * v.amplitudes.sum() / v.space.size
    return StateVector(d * v.amplitudes + uniform_part, v.space)
