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

import cmath
import math

import numpy as np

from .model import AlgorithmKind, PhaseParams, SubspaceGeometry

UNITARITY_TOL = 1e-10


def operator_coefficients(params: PhaseParams) -> tuple[complex, complex, complex, complex]:
    """One row of the table above, for the bundle's own kind: (target, rest, c, d)."""
    if params.kind is AlgorithmKind.ORIGINAL:
        return -1.0 + 0j, 1.0 + 0j, 2.0 + 0j, -1.0 + 0j
    if params.kind is AlgorithmKind.LONG:
        ed = cmath.exp(1j * params.diffusion_phase)
        return cmath.exp(1j * params.oracle_phase), 1.0 + 0j, 1.0 - ed, -1.0 + 0j
    if params.kind is AlgorithmKind.LI_DF:
        w = 2.0 * math.cos(params.tau) * cmath.exp(1j * params.tau)
        return 1.0 - w, 1.0 + 0j, w, -1.0 + 0j
    if params.kind is AlgorithmKind.LI_CM:
        eg1, eg2 = cmath.exp(1j * params.gamma1), cmath.exp(1j * params.gamma2)
        return -cmath.exp(1j * params.eta1), -cmath.exp(1j * params.eta2), eg1 - eg2, eg2
    e = cmath.exp(1j * params.beta)
    return cmath.exp(-1j * params.beta), 1.0 + 0j, 1.0 - e, e


def iteration_matrices(kind: AlgorithmKind, coefficients, sin_theta, cos_theta) -> np.ndarray:
    """(c * |s><s| + d * I) @ diag(target, rest) with |s> = (sin_theta, cos_theta).

    coefficients is (target, rest, c, d): four scalars or a (4, ...) array.
    sin_theta and cos_theta share one shape; the two shapes broadcast to one
    (..., 2, 2) stack.  Unitarity is checked on the coefficients, not on the
    stack: |s> is a real unit vector, so the diffusion is normal with
    eigenvalues d and c + d, and the oracle is diagonal.  With e_o and e_d the
    worst ||x|^2 - 1| over (target, rest) and over (d, c + d), every matrix's
    m @ m^dagger lies within (1 + e_o) * (1 + e_d) - 1 of the identity in
    spectral norm, which bounds every entry.
    """
    coefficients = np.asarray(coefficients, dtype=complex)
    target, rest, c, d = coefficients
    moduli = np.abs(np.stack([target, rest, d, c + d])) ** 2 - 1.0
    e_o, e_d = np.abs(moduli[:2]).max(), np.abs(moduli[2:]).max()
    if not (1.0 + e_o) * (1.0 + e_d) - 1.0 <= UNITARITY_TOL:  # NaN fails too
        raise ValueError(
            f"{kind.value} iteration matrix failed the unitarity check at {UNITARITY_TOL}"
        )
    target, rest, c, d = coefficients[..., None, None]
    s = np.stack([sin_theta, cos_theta], axis=-1)
    m = c * (s[..., :, None] * s[..., None, :]) + d * np.eye(2)
    # The diagonal oracle scales the columns; numpy's complex products keep
    # every entry equal to the full 2x2 matmul to the last bit.
    m *= np.concatenate([target, rest], axis=-1)
    return m


def iteration_matrix(params: PhaseParams, g: SubspaceGeometry) -> np.ndarray:
    """Composed (2, 2) iteration for one parameter bundle: diffusion @ oracle, checked unitary."""
    return iteration_matrices(
        params.kind, operator_coefficients(params), math.sin(g.theta), math.cos(g.theta)
    )
