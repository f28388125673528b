"""Brute-force N-dimensional engine used to cross-validate the subspace engine.

The oracle is a diagonal: the kind's target eigenvalue on marked indices and
its rest eigenvalue (1 except for licm) elsewhere.  The diffusion maps v to
c * <s|v> * |s> + d * v, a rank-one update.  run_full builds the oracle
diagonal once and then works on one amplitude buffer, four O(N) passes per
step: scale by the diagonal, sum, scale by d, add the uniform part.  The
coefficients are written out here from the operator definitions on purpose:
this module must stay an independent route from the 2x2 construction in
operators.py, so no coefficient tables are shared.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .model import AlgorithmKind, PhaseParams, check_iterations


def _coefficients(params: PhaseParams) -> tuple[complex, complex, complex, complex]:
    """(target, rest, c, d): oracle eigenvalues on marked and other indices, diffusion (c, d)."""
    if params.kind is AlgorithmKind.ORIGINAL:
        return -1.0, 1.0, 2.0 + 0j, -1.0 + 0j
    if params.kind is AlgorithmKind.LONG:
        c = 1.0 - cmath.exp(1j * params.diffusion_phase)
        return cmath.exp(1j * params.oracle_phase), 1.0, c, -1.0 + 0j
    if params.kind is AlgorithmKind.LI_DF:
        w = 2.0 * math.cos(params.tau) * cmath.exp(1j * params.tau)
        return 1.0 - w, 1.0, w, -1.0 + 0j
    if params.kind is AlgorithmKind.LI_CM:
        d = cmath.exp(1j * params.gamma2)
        c = cmath.exp(1j * params.gamma1) - d
        return -cmath.exp(1j * params.eta1), -cmath.exp(1j * params.eta2), c, d
    e = cmath.exp(1j * params.beta)
    return cmath.exp(-1j * params.beta), 1.0, 1.0 - e, e


def _check_mask(marked: np.ndarray) -> int:
    """M, the target count of marked, which must be a 1-D bool mask with at least one target."""
    if not isinstance(marked, np.ndarray) or marked.dtype != bool or marked.ndim != 1:
        raise TypeError(f"marked must be a 1-D bool mask, got {marked!r}")
    num_targets = int(np.count_nonzero(marked))
    if num_targets == 0:
        raise ValueError(f"marked must mark at least one of its {marked.size} indices")
    return num_targets


def run_full(marked: np.ndarray, params: PhaseParams, k: int) -> np.ndarray:
    """The N = marked.size amplitudes after k oracle-then-diffusion steps from the uniform state."""
    _check_mask(marked)
    check_iterations("k", k)
    target, rest, c, d = _coefficients(params)
    diagonal = np.where(marked, complex(target), complex(rest))
    amps = np.full(marked.size, 1.0 / math.sqrt(marked.size), dtype=complex)
    for _ in range(k):
        amps *= diagonal
        # c * <s|v> * |s> has the constant value c * sum(v) / N on every index.
        uniform_part = c * amps.sum() / marked.size
        np.multiply(d, amps, out=amps)  # d first: the product's last bit depends on the order
        amps += uniform_part
    return amps


def target_probability(marked: np.ndarray, amplitudes: np.ndarray) -> float:
    """Summed |amplitude|^2 over the target indices, clamped into [0, 1]; nan stays nan."""
    _check_mask(marked)
    p = float(np.sum(np.abs(amplitudes[marked]) ** 2))
    return float(np.clip(p, 0.0, 1.0))


def project_to_subspace(marked: np.ndarray, amplitudes: np.ndarray) -> tuple[np.ndarray, float]:
    """The (2,) amplitudes (<alpha|v>, <beta|v>) and the norm of what lies outside the span.

    With M = N there are no non-target indices; the |beta> component is 0.
    """
    num_targets, size = _check_mask(marked), marked.size
    a = complex(amplitudes[marked].sum() / math.sqrt(num_targets))
    if num_targets < size:
        b = complex(amplitudes[~marked].sum() / math.sqrt(size - num_targets))
        b_entry = b / math.sqrt(size - num_targets)
    else:
        b = b_entry = 0j
    # The span's component of v, entry by entry; then v minus it, in place.
    residual = np.where(marked, a / math.sqrt(num_targets), b_entry)
    np.subtract(amplitudes, residual, out=residual)
    parts = residual.view(float)  # its norm from the squared parts, in place: no BLAS call
    return np.array([a, b]), math.sqrt(np.square(parts, out=parts).sum())
