"""Brute-force N-dimensional engine used to cross-validate the subspace engine.

The oracle multiplies target amplitudes by the kind's eigenvalue; the
diffusion maps v to c * <s|v> * |s> + d * v.  Both are rank-one updates,
O(N) per application, and are written out here from the operator
definitions on purpose: this module must stay an independent route from
the 2x2 construction in operators.py, so no coefficient tables are shared.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .model import AlgorithmKind, PhaseParams, SearchSpace


@dataclass(frozen=True, eq=False)
class StateVector:
    """Length-N amplitude vector over the computational basis."""

    amplitudes: np.ndarray
    space: SearchSpace


def uniform_state(space: SearchSpace) -> StateVector:
    """Equal superposition: every amplitude 1/sqrt(N)."""
    size = space.size
    return StateVector(np.full(size, 1.0 / math.sqrt(size), dtype=complex), space)


def apply_oracle(v: StateVector, params: PhaseParams) -> StateVector:
    """Multiply marked amplitudes by the target eigenvalue of the bundle's kind.

    Only licm also rescales the unmarked amplitudes (by -e^{i eta2}).
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


def apply_diffusion(v: StateVector, params: PhaseParams) -> StateVector:
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


def run_full(space: SearchSpace, params: PhaseParams, k: int) -> StateVector:
    """k alternations of oracle then diffusion, starting from the uniform state."""
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    v = uniform_state(space)
    for _ in range(k):
        v = apply_diffusion(apply_oracle(v, params), params)
    return v


def target_probability(v: StateVector) -> float:
    """Summed |amplitude|^2 over the target indices, clamped into [0, 1]."""
    p = float(np.sum(np.abs(v.amplitudes[v.space.marked]) ** 2))
    return min(1.0, max(0.0, p))


def project_to_subspace(v: StateVector) -> tuple[np.ndarray, float]:
    """The (2,) amplitudes (<alpha|v>, <beta|v>) and the norm of what lies outside the span.

    With M = N there are no non-target indices; the |beta> component is 0.
    """
    size, num_targets, marked = v.space.size, v.space.num_targets, v.space.marked
    a = complex(v.amplitudes[marked].sum() / math.sqrt(num_targets))
    residual_vec = v.amplitudes.copy()
    residual_vec[marked] -= a / math.sqrt(num_targets)
    if num_targets < size:
        b = complex(v.amplitudes[~marked].sum() / math.sqrt(size - num_targets))
        residual_vec[~marked] -= b / math.sqrt(size - num_targets)
    else:
        b = 0j
    return np.array([a, b]), float(np.linalg.norm(residual_vec))
