"""Closed-form success probabilities and (proportion, phase) probability sweeps."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .model import AlgorithmKind, LongParams, check_integer, check_iterations, params_from_phases
from .equivalence import TAU, transform_phases
from .subspace import (check_proportion, check_unitary, initial_state, iteration_planes,
                       operator_coefficients, run, success_probability)


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


# A sweep runs in blocks of at most this many cells: whole lambda rows when a
# row fits, else one row in pieces of at most this many phases, slices of the
# one whole-axis table; cells do not depend on their block.  No planes, run or
# check temporaries span more (tracemalloc: a 201x201 lipc sweep command peaks
# at 0.28 MB, 0.51 MB with blocks of 2048).  The table (64 B a phase step) and
# the rows still grow with phase_steps: 3 lipc rows of 1e5 steps take 8.3 MB,
# 26.2 MB in the sweep command.
_BLOCK_CELLS = 1024


def sweep(grid: SweepGrid, matched_from_long: bool = False) -> Iterator[np.ndarray]:
    """Success probabilities over the grid: one read-only (phase_steps,) row per lambda, in order.

    With matched_from_long the scalar phase axis is read as the long oracle
    phase and mapped to the grid's kind through the transform condition, so
    matched sweeps of different kinds tabulate the same field.  The original
    kind ignores the phase axis entirely and runs one cell per row.  One
    bundle holds the whole phase axis; blocks of at most _BLOCK_CELLS cells run
    slices of its table, each checked with every start vector before the first row.
    """
    phases = grid.phases()
    if matched_from_long and grid.kind is not AlgorithmKind.ORIGINAL:
        params = transform_phases(LongParams(phases), grid.kind)
    else:
        # The phase in every field of the kind, but licm pins gamma2 = eta2 = 0.
        # LongParams(phase, phase) has the coefficients of LongParams(phase).
        pin = 0.0 if grid.kind is AlgorithmKind.LI_CM else phases
        params = params_from_phases(grid.kind, (phases, pin, phases, pin))
    # A (1, phase_steps) table; the original kind's one entry serves every phase.
    # Its pieces have the ndim of the (rows, 1) start vectors: numpy rounds a
    # one-element complex product of operands of different ndim without FMA.
    table = np.atleast_2d(*operator_coefficients(params))
    starts = np.fromiter(map(initial_state, grid.lambdas().tolist()), np.dtype((float, 2)),
                         grid.lambda_steps)
    pieces = [tuple(c[:, j:j + _BLOCK_CELLS] for c in table)
              for j in range(0, table[0].size, _BLOCK_CELLS)]
    for piece in pieces:
        check_unitary(grid.kind, piece, starts)
    rows = max(1, _BLOCK_CELLS // grid.phase_steps)
    for i in range(0, grid.lambda_steps, rows):
        s = starts[i:i + rows, None]
        # (rows, len(piece[0])) cells: one per row for the original kind.
        p = [success_probability(run(iteration_planes(piece, s), grid.k, s)) for piece in pieces]
        yield from np.broadcast_to(p[0] if len(p) == 1 else np.hstack(p),
                                   (len(s), grid.phase_steps))
