"""Closed-form success probabilities and (proportion, phase) probability sweeps."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .linalg import TAU
from .model import AlgorithmKind, LongParams, PhaseParams, params_from_phases
from .operators import iteration_matrices, operator_coefficients
from .equivalence import transform_phases
from .subspace import MAX_ITERATIONS, check_proportion, initial_state, run, success_probability


def closed_form_probability(lambda_: float, k: int) -> float:
    """Success probability of k original iterations: sin^2((2k+1) * asin(sqrt(lambda)))."""
    check_proportion("lambda_", lambda_)
    k = operator.index(k)  # a float k, even 2.0, is a TypeError
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    return math.sin((2 * k + 1) * math.asin(math.sqrt(lambda_))) ** 2


def optimal_iterations(lambda_: float) -> int:
    """Iteration count floor(pi / (4 * sqrt(lambda))) for the original algorithm."""
    check_proportion("lambda_", lambda_)
    return int(math.floor(math.pi / (4.0 * math.sqrt(lambda_))))


def single_iteration_probability(m: float) -> float:
    """One-iteration success probability at oracle phase pi/2: 4m^3 - 8m^2 + 5m."""
    check_proportion("m", m)
    return 4.0 * m ** 3 - 8.0 * m ** 2 + 5.0 * m


# Roots of the cubic's derivative 12m^2 - 16m + 5.
_CUBIC_CRITICAL_POINTS = (0.5, 5.0 / 6.0)


def probability_floor(m_min: float) -> float:
    """Minimum of the one-iteration cubic over [m_min, 1], via its critical points."""
    check_proportion("m_min", m_min)
    candidates = [m_min, 1.0]
    candidates.extend(c for c in _CUBIC_CRITICAL_POINTS if m_min <= c <= 1.0)
    return min(single_iteration_probability(c) for c in candidates)


@dataclass(frozen=True)
class SweepGrid:
    """Uniform (lambda, phase) grid swept at a fixed iteration count."""

    kind: AlgorithmKind
    k: int
    lambda_min: float = 0.01
    lambda_max: float = 1.0
    lambda_steps: int = 101
    phase_min: float = 0.0
    phase_max: float = TAU
    phase_steps: int = 101

    def __post_init__(self) -> None:
        check_proportion("lambda_min", self.lambda_min)
        check_proportion("lambda_max", self.lambda_max)
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda_min must not exceed lambda_max")
        if not math.isfinite(float(self.phase_max) - float(self.phase_min)):
            raise ValueError(f"phase endpoints must be finite, and so must phase_max - "
                             f"phase_min; got {self.phase_min} and {self.phase_max}")
        if self.phase_min > self.phase_max:
            raise ValueError("phase_min must not exceed phase_max")
        for count in (self.lambda_steps, self.phase_steps, self.k):
            operator.index(count)  # a float count, even 3.0, is a TypeError
        if self.lambda_steps < 1 or self.phase_steps < 1:
            raise ValueError("step counts must be >= 1")
        if self.k < 0:
            raise ValueError(f"iteration count must be >= 0, got {self.k}")
        if self.k > MAX_ITERATIONS:
            raise ValueError(f"iteration count must be <= 2**53 = {MAX_ITERATIONS}, got {self.k}")

    def lambdas(self) -> np.ndarray:
        return np.linspace(self.lambda_min, self.lambda_max, self.lambda_steps)

    def phases(self) -> np.ndarray:
        return np.linspace(self.phase_min, self.phase_max, self.phase_steps)


def phase_params_for(kind: AlgorithmKind, phase: float) -> PhaseParams:
    """Single-scalar-phase bundle used by sweeps: phase in every field of the kind.

    licm alone pins gamma2 = eta2 = 0.  LongParams(phase, phase) has the
    coefficients of LongParams(phase).
    """
    pin = 0.0 if kind is AlgorithmKind.LI_CM else phase
    return params_from_phases(kind, (phase, pin, phase, pin))


# A sweep runs in blocks of whole lambda rows of at most this many cells (one
# row if a row is longer).  A block's matrix stack takes at most 128 KiB and
# each per-cell temporary 32 KiB, reused from the allocator's heap; one
# 201x201 stack (2.6 MB) and its temporaries would be mapped and unmapped
# again, page fault by page fault, on every sweep.  Cells do not depend on
# the block they are in.
_BLOCK_CELLS = 2048


def sweep(grid: SweepGrid, matched_from_long: bool = False) -> Iterator[np.ndarray]:
    """Success probabilities over the grid: one (phase_steps,) row per lambda, in order.

    With matched_from_long the scalar phase axis is read as the long oracle
    phase and mapped to the grid's kind through the transform condition, so
    matched sweeps of different kinds tabulate the same field.  The original
    kind ignores the phase axis entirely.  Every check runs on the first block:
    all blocks share one coefficient table, and SweepGrid bounds the lambdas.
    """
    if matched_from_long and grid.kind is not AlgorithmKind.ORIGINAL:
        params = [transform_phases(LongParams(float(p)), grid.kind) for p in grid.phases()]
    else:
        params = [phase_params_for(grid.kind, float(p)) for p in grid.phases()]
    coefficients = np.array([operator_coefficients(p) for p in params]).T
    lambdas = grid.lambdas()
    rows = max(1, _BLOCK_CELLS // grid.phase_steps)
    for i in range(0, grid.lambda_steps, rows):
        block = np.array([initial_state(lam) for lam in lambdas[i:i + rows].tolist()])[:, None, :]
        mats = iteration_matrices(grid.kind, coefficients, block)
        yield from success_probability(run(mats, grid.k, block))
