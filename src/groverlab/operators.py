"""Oracle, diffusion, and one-iteration operators restricted to the search subspace.

Every algorithm's oracle is diagonal in the (|alpha>, |beta>) basis and every
diffusion has the rank-one form c*|s><s| + d*I, so the N-dimensional operators
restrict cleanly to 2x2 matrices acting on span{|alpha>, |beta>}.  One
iteration is diffusion applied after the oracle.

Oracle eigenvalues (target, non-target) and diffusion coefficients (c, d):

  original  (-1, 1)                          (2, -1)
  long      (e^{i phi}, 1)                   (1 - e^{i vphi}, -1)
  lidf      (1 - 2 cos(tau) e^{i tau}, 1)    (2 cos(tau) e^{i tau}, -1)
  licm      (-e^{i eta1}, -e^{i eta2})       (e^{i gamma1} - e^{i gamma2}, e^{i gamma2})
  lipc      (e^{-i beta}, 1)                 (1 - e^{i beta}, e^{i beta})

Phases are accepted on all of R; nothing is normalized mod 2*pi here.
"""
from __future__ import annotations

import numpy as np

from .model import AlgorithmKind, PhaseParams

UNITARITY_TOL = 1e-10


def operator_coefficients(params: PhaseParams) -> tuple:
    """The bundle's row (target, rest, c, d) of the table above; phase arrays give array entries."""
    if params.kind is AlgorithmKind.ORIGINAL:
        return -1.0 + 0j, 1.0 + 0j, 2.0 + 0j, -1.0 + 0j
    if params.kind is AlgorithmKind.LONG:
        ed = np.exp(1j * params.diffusion_phase)
        return np.exp(1j * params.oracle_phase), 1.0 + 0j, 1.0 - ed, -1.0 + 0j
    if params.kind is AlgorithmKind.LI_DF:
        w = 2.0 * np.cos(params.tau) * np.exp(1j * params.tau)
        return 1.0 - w, 1.0 + 0j, w, -1.0 + 0j
    if params.kind is AlgorithmKind.LI_CM:
        eg1, eg2 = np.exp(1j * params.gamma1), np.exp(1j * params.gamma2)
        return -np.exp(1j * params.eta1), -np.exp(1j * params.eta2), eg1 - eg2, eg2
    e = np.exp(1j * params.beta)
    return np.exp(-1j * params.beta), 1.0 + 0j, 1.0 - e, e


def check_unitary(kind: AlgorithmKind, coefficients, s: np.ndarray) -> None:
    """Reject table rows or start vectors whose iterations would not be unitary.

    coefficients is (target, rest, c, d), four entries of one shape.
    Unitarity is checked on the coefficients and on s, never on a matrix.  s
    must be real with |s|^2 within UNITARITY_TOL of 1, so the diffusion is
    normal with eigenvalues d and c + d (to |c| * UNITARITY_TOL), and the
    oracle is diagonal.  With e_o and e_d the worst ||x|^2 - 1| over
    (target, rest) and over (d, c + d), every iteration's m @ m^dagger lies
    within (1 + e_o) * (1 + e_d) - 1 of the identity in spectral norm, which
    bounds every entry.
    """
    target, rest, c, d = coefficients
    moduli = np.abs(np.stack([target, rest, d, c + d])) ** 2 - 1.0
    e_o, e_d = np.abs(moduli[:2]).max(), np.abs(moduli[2:]).max()
    if not (1.0 + e_o) * (1.0 + e_d) - 1.0 <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(
            f"{kind.value} iteration matrix failed the unitarity check at {UNITARITY_TOL}"
        )
    if np.iscomplexobj(s) or not np.abs(np.square(s).sum(axis=-1) - 1.0).max() <= UNITARITY_TOL:
        raise ValueError(f"s must be a real unit vector, |s|^2 within {UNITARITY_TOL} of 1")


def iteration_planes(coefficients, s: np.ndarray) -> tuple:
    """Entries (m00, m01, m10, m11) of (c |s><s| + d I) diag(target, rest), broadcast together."""
    target, rest, c, d = coefficients
    s0, s1 = s[..., 0], s[..., 1]
    off = c * (s0 * s1)  # the shared off-diagonal of the diffusion
    return (c * (s0 * s0) + d) * target, off * rest, off * target, (c * (s1 * s1) + d) * rest


def iteration_matrices(kind: AlgorithmKind, coefficients, s: np.ndarray) -> np.ndarray:
    """The iteration_planes, checked by check_unitary, as one (..., 2, 2) stack.

    coefficients is (target, rest, c, d): four scalars or a (4, ...) array.  s
    is one (2,) vector or a (..., 2) stack of them; the coefficients' shape
    and s.shape[:-1] broadcast to the stack's leading axes.
    """
    # Arrays, even 0-d: numpy rounds a product of complex scalars differently
    # from its array loops, which a sweep's planes go through.
    coefficients = [np.asarray(x, dtype=complex) for x in coefficients]
    check_unitary(kind, coefficients, s)
    m = np.stack(iteration_planes(coefficients, s), axis=-1)
    return m.reshape(m.shape[:-1] + (2, 2))


def iteration_matrix(params: PhaseParams, s: np.ndarray) -> np.ndarray:
    """Composed (2, 2) iteration for one bundle about |s> = s: diffusion @ oracle, checked unitary."""
    return iteration_matrices(params.kind, operator_coefficients(params), s)
