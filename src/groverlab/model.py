"""Search-problem data model: database, targets, subspace geometry, phase parameters.

A database of N = 2**n items with M marked targets determines the angle
theta through sin(theta) = sqrt(M/N).  Each algorithm variant carries its
own phase parameter bundle; the bundles are frozen dataclasses tagged with
the AlgorithmKind they drive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """Database of 2**n items; marked is the read-only length-N bool mask of its targets."""

    n: int
    marked: np.ndarray

    @property
    def size(self) -> int:
        """Database size N = 2**n."""
        return 2 ** self.n

    @property
    def num_targets(self) -> int:
        return int(np.count_nonzero(self.marked))


def make_search_space(n: int, targets: Iterable[int]) -> SearchSpace:
    """Search space marking the given indices; rejects empty or out-of-range target sets."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    size = 2 ** n
    # Range-checked before the intp cast, so a Python int beyond intp is rejected too.
    indices = np.asarray(targets if isinstance(targets, np.ndarray) else list(targets))
    if indices.size == 0:
        raise ValueError("at least one target index is required")
    lo, hi = indices.min(), indices.max()
    if lo < 0 or hi >= size:
        raise ValueError(f"target indices must lie in [0, {size}), got min {lo} and max {hi}")
    marked = np.zeros(size, dtype=bool)
    marked[indices.astype(np.intp, copy=False)] = True
    marked.flags.writeable = False
    return SearchSpace(n=n, marked=marked)


@dataclass(frozen=True)
class SubspaceGeometry:
    """Polar form of the target/non-target split: sin(theta) = sqrt(lambda)."""

    theta: float
    lambda_: float


def geometry_of(space: SearchSpace) -> SubspaceGeometry:
    """Subspace geometry of a concrete search space."""
    return geometry_from_lambda(space.num_targets / space.size)


def geometry_from_lambda(lambda_: float) -> SubspaceGeometry:
    """Subspace geometry from a target proportion in (0, 1] directly."""
    if not 0.0 < lambda_ <= 1.0:
        raise ValueError(f"target proportion must lie in (0, 1], got {lambda_}")
    return SubspaceGeometry(theta=math.asin(math.sqrt(lambda_)), lambda_=float(lambda_))


def _require_finite(**angles: float) -> None:
    for name, value in angles.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite angle, got {value}")


@dataclass(frozen=True)
class OriginalParams:
    """The phase-free original iteration."""

    kind: ClassVar[AlgorithmKind] = AlgorithmKind.ORIGINAL


@dataclass(frozen=True)
class LongParams:
    """Oracle phase phi, with an optional distinct diffusion phase.

    The single-phase form (diffusion_phi omitted) is the matched case in
    which oracle and diffusion share phi.
    """

    phi: float
    diffusion_phi: float | None = None
    kind: ClassVar[AlgorithmKind] = AlgorithmKind.LONG

    def __post_init__(self) -> None:
        _require_finite(phi=self.phi)
        if self.diffusion_phi is not None:
            _require_finite(diffusion_phi=self.diffusion_phi)

    @property
    def oracle_phase(self) -> float:
        return self.phi

    @property
    def diffusion_phase(self) -> float:
        return self.phi if self.diffusion_phi is None else self.diffusion_phi


@dataclass(frozen=True)
class LiDFParams:
    """Single phase tau; both operator sides carry 2*cos(tau)*e^{i tau}."""

    tau: float
    kind: ClassVar[AlgorithmKind] = AlgorithmKind.LI_DF

    def __post_init__(self) -> None:
        _require_finite(tau=self.tau)


@dataclass(frozen=True)
class LiCMParams:
    """Four phases: gamma1/gamma2 on the diffusion side, eta1/eta2 on the oracle side."""

    gamma1: float
    gamma2: float
    eta1: float
    eta2: float
    kind: ClassVar[AlgorithmKind] = AlgorithmKind.LI_CM

    def __post_init__(self) -> None:
        _require_finite(gamma1=self.gamma1, gamma2=self.gamma2, eta1=self.eta1, eta2=self.eta2)


@dataclass(frozen=True)
class LiPCParams:
    """Single phase beta; the oracle applies e^{-i beta} to targets."""

    beta: float
    kind: ClassVar[AlgorithmKind] = AlgorithmKind.LI_PC

    def __post_init__(self) -> None:
        _require_finite(beta=self.beta)


PhaseParams = Union[OriginalParams, LongParams, LiDFParams, LiCMParams, LiPCParams]

_PARAMS_OF_KIND = {cls.kind: cls for cls in get_args(PhaseParams)}


def params_from_phases(kind: AlgorithmKind, phases: Sequence[float]) -> PhaseParams:
    """The kind's bundle with its fields, in declaration order, taken from the leading phases."""
    cls = _PARAMS_OF_KIND[kind]
    return cls(*phases[:len(fields(cls))])
