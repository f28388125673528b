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
    """The bundle's row (target, rest, c, d) of the table above, as four complex arrays.

    The four have one shape: 0-d for a bundle of scalar phases, else the
    broadcast shape of its phase arrays.
    """
    if params.kind is AlgorithmKind.ORIGINAL:
        row = -1.0, 1.0, 2.0, -1.0
    elif params.kind is AlgorithmKind.LONG:
        row = np.exp(1j * params.oracle_phase), 1.0, 1.0 - np.exp(1j * params.diffusion_phase), -1.0
    elif params.kind is AlgorithmKind.LI_DF:
        w = 2.0 * np.cos(params.tau) * np.exp(1j * params.tau)
        row = 1.0 - w, 1.0, w, -1.0
    elif params.kind is AlgorithmKind.LI_CM:
        eg1, eg2 = np.exp(1j * params.gamma1), np.exp(1j * params.gamma2)
        row = -np.exp(1j * params.eta1), -np.exp(1j * params.eta2), eg1 - eg2, eg2
    else:
        e = np.exp(1j * params.beta)
        row = np.exp(-1j * params.beta), 1.0, 1.0 - e, e
    # Arrays, even 0-d: numpy rounds a product of complex scalars differently
    # from its array loops, which a sweep's planes go through.
    row = [np.asarray(x, dtype=complex) for x in row]
    # A scalar row skips np.broadcast_arrays, which would double the row's cost.
    return tuple(np.broadcast_arrays(*row) if any(x.ndim for x in row) else row)


def check_unitary(kind, coefficients, s: np.ndarray) -> None:
    """Reject table rows or start vectors whose iterations would not be unitary.

    coefficients is (target, rest, c, d), four entries of one shape: one cell
    each.  kind is every cell's kind, or a sequence of one kind per cell of a
    1-D table.  s must be real with |s|^2 within UNITARITY_TOL of 1, so the
    diffusion is normal with eigenvalues d and c + d (to |c| * UNITARITY_TOL),
    and the oracle is diagonal.  With a cell's e_o and e_d the worst
    ||x|^2 - 1| over its (target, rest) and over its (d, c + d), its
    m @ m^dagger lies within (1 + e_o) * (1 + e_d) - 1 of the identity in
    spectral norm, which bounds every entry; so no matrix is built, and a
    table passes exactly when each of its rows would.
    """
    target, rest, c, d = coefficients
    e = np.abs(np.abs(np.stack([target, rest, d, c + d])) ** 2 - 1.0)
    passed = (1.0 + np.maximum(e[0], e[1])) * (1.0 + np.maximum(e[2], e[3])) - 1.0 <= UNITARITY_TOL
    if not passed.all():  # NaN fails too; name the first failing cell's kind
        name = kind if isinstance(kind, AlgorithmKind) else kind[int(np.argmin(passed))]
        raise ValueError(f"{name.value} iteration matrix failed the unitarity check at "
                         f"{UNITARITY_TOL}")
    if np.iscomplexobj(s) or not np.abs(np.square(s).sum(axis=-1) - 1.0).max() <= UNITARITY_TOL:
        raise ValueError(f"s must be a real unit vector, |s|^2 within {UNITARITY_TOL} of 1")


def iteration_planes(coefficients, s: np.ndarray) -> tuple:
    """Entries (m00, m01, m10, m11) of (c |s><s| + d I) diag(target, rest): run's planes."""
    # A coefficient takes s's leading axes: numpy rounds a one-element complex
    # product of operands of different ndim without FMA, unlike a stack's.
    lead = s.ndim - 1
    target, rest, c, d = (np.asarray(x)[(None,) * (lead - np.ndim(x))] if np.ndim(x) < lead
                          else x for x in coefficients)
    s0, s1 = s[..., 0], s[..., 1]
    off = c * (s0 * s1)  # the shared off-diagonal of the diffusion
    return (c * (s0 * s0) + d) * target, off * rest, off * target, (c * (s1 * s1) + d) * rest

