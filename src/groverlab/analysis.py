"""Closed-form success probabilities and (proportion, phase) probability sweeps."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import AlgorithmKind, LongParams, check_integer, check_iterations, params_from_phases
from .operators import check_unitary, iteration_planes, operator_coefficients
from .equivalence import TAU, transform_phases
from .subspace import check_proportion, initial_state, run, success_probability


def closed_form_probability(lambda_: float, k: int) -> float:
    """Success probability of k original iterations: sin^2((2k+1) * asin(sqrt(lambda)))."""
    check_proportion("lambda_", lambda_)
    k = check_iterations("k", k)
    return math.sin((2 * k + 1) * math.asin(math.sqrt(lambda_))) ** 2


def optimal_iterations(lambda_: float) -> int:
    """Iteration count floor(pi / (4 * sqrt(lambda))) for the original algorithm."""
    check_proportion("lambda_", lambda_)
    return int(math.floor(math.pi / (4.0 * math.sqrt(lambda_))))


def check_axis(lo: float, hi: float, steps: int, shown: str, steps_name: str = "steps") -> None:
    """Reject a sweep axis of steps points from lo to hi unless it is well formed.

    The endpoints and the span hi - lo must be finite, lo <= hi, and steps
    an int >= 1 (check_integer names it steps_name).  shown is the axis as
    its caller names it, quoted after "got" in the message.
    """
    check_integer(steps_name, steps)
    if not math.isfinite(float(hi) - float(lo)):  # also nan or inf at an endpoint
        raise ValueError(f"endpoints and max - min must be finite, got {shown}")
    if lo > hi:
        raise ValueError(f"min must not exceed max, got {shown}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {shown}")


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
        for axis in ("lambda", "phase"):
            lo, hi, steps = (getattr(self, f"{axis}_{end}") for end in ("min", "max", "steps"))
            check_axis(lo, hi, steps, f"{axis}_min={lo}, {axis}_max={hi}, {axis}_steps={steps}",
                       f"{axis}_steps")
        check_iterations("k", self.k)

    def lambdas(self) -> np.ndarray:
        return np.linspace(self.lambda_min, self.lambda_max, self.lambda_steps)

    def phases(self) -> np.ndarray:
        return np.linspace(self.phase_min, self.phase_max, self.phase_steps)


# A sweep runs in blocks of whole lambda rows of at most this many cells (one
# row if a row is longer), so memory does not grow with lambda_steps; it grows with
# phase_steps, as the table spans the phase axis (tracemalloc, lipc: about 272 B a
# step, 27.2 MB at 1e5 steps; 35.3 MB for the sweep command).  Blocks keep a 201x201
# sweep's planes (2.6 MB whole) within 128 KiB, but do not keep its pages: the sweep
# command still takes ~1400 minor faults at 201x201 (lipc) and a matched figure ~350.
# Cells do not depend on their block.
_BLOCK_CELLS = 2048


def sweep(grid: SweepGrid, matched_from_long: bool = False) -> Iterator[np.ndarray]:
    """Success probabilities over the grid: one read-only (phase_steps,) row per lambda, in order.

    With matched_from_long the scalar phase axis is read as the long oracle
    phase and mapped to the grid's kind through the transform condition, so
    matched sweeps of different kinds tabulate the same field.  The original
    kind ignores the phase axis entirely.  One bundle holds the whole phase
    axis; its table and every start vector are checked before the first row.
    """
    phases = grid.phases()
    if matched_from_long and grid.kind is not AlgorithmKind.ORIGINAL:
        params = transform_phases(LongParams(phases), grid.kind)
    else:
        # The phase in every field of the kind, but licm pins gamma2 = eta2 = 0.
        # LongParams(phase, phase) has the coefficients of LongParams(phase).
        pin = 0.0 if grid.kind is AlgorithmKind.LI_CM else phases
        params = params_from_phases(grid.kind, (phases, pin, phases, pin))
    coefficients = operator_coefficients(params)
    starts = np.fromiter(map(initial_state, grid.lambdas().tolist()), np.dtype((float, 2)),
                         grid.lambda_steps)
    check_unitary(grid.kind, coefficients, starts)
    rows = max(1, _BLOCK_CELLS // grid.phase_steps)
    for i in range(0, grid.lambda_steps, rows):
        s = starts[i:i + rows, None]
        # (rows, phase_steps) cells; the original kind's 0-d table gives one per row.
        p = success_probability(run(iteration_planes(coefficients, s), grid.k, s))
        yield from np.broadcast_to(p, (len(p), grid.phase_steps))
