"""Search-problem data model: database, targets, phase parameters.

A database of N = 2**n items with M marked targets has the target
proportion M/N, from which subspace.initial_state builds the start vector.
Each algorithm variant carries its own phase parameter bundle; the bundles
are frozen dataclasses tagged with the AlgorithmKind they drive.  Their
phases may also be float arrays that broadcast together, one bundle for a
whole phase axis.  Both engines take their iteration count through
check_iterations.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum, unique
from typing import ClassVar, Iterable, Sequence, Union, get_args

import numpy as np


@unique
class AlgorithmKind(Enum):
    """The five Grover-type iterations this package constructs."""

    ORIGINAL = "original"
    LONG = "long"
    LI_DF = "lidf"
    LI_CM = "licm"
    LI_PC = "lipc"


def make_search_space(n: int, targets: Iterable[int]) -> np.ndarray:
    """Read-only length-2**n bool mask of the targets, a non-empty set of integers in [0, 2**n)."""
    n = check_integer("n", n)
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    size = 2 ** n
    if isinstance(targets, np.ndarray) and targets.dtype.kind in "iu":
        indices = targets  # the dtype vouches for every entry
    else:
        items = list(targets.flat if isinstance(targets, np.ndarray) else targets)
        for item in items:  # a float, bool or string is rejected, not truncated or misread
            if isinstance(item, bool) or not isinstance(item, (int, np.integer)):
                raise ValueError(f"target indices must be integers, got {item!r}")
        indices = np.asarray(items)
    # Range-checked before the intp cast, so a Python int beyond intp is rejected too.
    if indices.size == 0:
        raise ValueError("at least one target index is required")
    lo, hi = indices.min(), indices.max()
    if lo < 0 or hi >= size:
        raise ValueError(f"target indices must lie in [0, {size}), got min {lo} and max {hi}")
    marked = np.zeros(size, dtype=bool)
    marked[indices.astype(np.intp, copy=False)] = True
    marked.flags.writeable = False
    return marked


# Above 2**53 a float64 no longer holds every integer, so an angle k * w
# computed for k iterations means nothing.
MAX_ITERATIONS = 2 ** 53


def check_integer(name: str, value: int) -> int:
    """value as an int; a bool, float, string or array of several is a TypeError naming it."""
    if not isinstance(value, bool):  # operator.index would read True as 1
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def check_iterations(name: str, k: int) -> int:
    """k as an int in [0, MAX_ITERATIONS] (through check_integer), or an error naming it."""
    k = check_integer(name, k)
    if not 0 <= k <= MAX_ITERATIONS:
        raise ValueError(f"{name} must lie in [0, 2**53 = {MAX_ITERATIONS}], got {k}")
    return k


def _require_finite(name: str, value: float) -> float:
    # math.isfinite takes a float (np.float64 included) ~10x faster than numpy's checks.
    if isinstance(value, float):
        finite = math.isfinite(value)
    else:  # a float array; a complex value is rejected
        finite = not np.iscomplexobj(value) and np.isfinite(value).all()
    if not finite:
        raise ValueError(f"{name} must be a finite angle, got {value}")
    return value


class _Bundle:
    """Base of the phase bundles: every phase that is set must be a finite angle."""

    def __post_init__(self) -> None:
        for name in self.__match_args__:  # the dataclass's fields, resolved once per class
            value = getattr(self, name)
            if value is not None:
                _require_finite(name, value)


@dataclass(frozen=True)
class OriginalParams(_Bundle):
    """The phase-free original iteration."""

    kind: ClassVar[AlgorithmKind] = AlgorithmKind.ORIGINAL


@dataclass(frozen=True)
class LongParams(_Bundle):
    """Oracle phase phi, with an optional distinct diffusion phase.

    The single-phase form (diffusion_phi omitted) is the matched case in
    which oracle and diffusion share phi.
    """

    phi: float
    diffusion_phi: float | None = None
    kind: ClassVar[AlgorithmKind] = AlgorithmKind.LONG

    @property
    def oracle_phase(self) -> float:
        return self.phi

    @property
    def diffusion_phase(self) -> float:
        return self.phi if self.diffusion_phi is None else self.diffusion_phi


@dataclass(frozen=True)
class LiDFParams(_Bundle):
    """Single phase tau; both operator sides carry 2*cos(tau)*e^{i tau}."""

    tau: float
    kind: ClassVar[AlgorithmKind] = AlgorithmKind.LI_DF


@dataclass(frozen=True)
class LiCMParams(_Bundle):
    """Four phases: gamma1/gamma2 on the diffusion side, eta1/eta2 on the oracle side."""

    gamma1: float
    gamma2: float
    eta1: float
    eta2: float
    kind: ClassVar[AlgorithmKind] = AlgorithmKind.LI_CM


@dataclass(frozen=True)
class LiPCParams(_Bundle):
    """Single phase beta; the oracle applies e^{-i beta} to targets."""

    beta: float
    kind: ClassVar[AlgorithmKind] = AlgorithmKind.LI_PC


PhaseParams = Union[OriginalParams, LongParams, LiDFParams, LiCMParams, LiPCParams]

_PARAMS_OF_KIND = {cls.kind: cls for cls in get_args(PhaseParams)}


def params_from_phases(kind: AlgorithmKind, phases: Sequence[float]) -> PhaseParams:
    """The kind's bundle with its fields, in declaration order, taken from the leading phases."""
    cls = _PARAMS_OF_KIND[kind]
    return cls(*phases[:len(cls.__match_args__)])
