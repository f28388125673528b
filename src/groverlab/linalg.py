"""Angle arithmetic mod 2*pi and comparison of complex arrays up to a global phase.

Angles are radians; a "wrapped" angle lives in (-pi, pi].  The comparisons
take two complex arrays of one shape, such as two (2, 2) iteration matrices,
and read a global phase e^{i chi} as its angle chi.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

TAU = 2.0 * math.pi


def check_tolerance(name: str, tol: float) -> None:
    """Reject a tolerance that is not positive, NaN included, naming it by name."""
    if not tol > 0:
        raise ValueError(f"{name} must be positive, got {tol}")


def wrap_angle(angle: float) -> float:
    """Reduce an angle mod 2*pi into (-pi, pi]."""
    a = math.remainder(angle, TAU)
    if a <= -math.pi:
        a += TAU
    return a + 0.0  # normalizes -0.0


def angle_distance(a, b):
    """Distance between two angles mod 2*pi, in [0, pi]; a or b may be a float array.

    An array gets the scalar bits: fmod is exact, as math.remainder is, and
    TAU - d is exact for d in (pi, TAU).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        d = np.abs(np.fmod(np.subtract(a, b), TAU))
        return np.where(d > math.pi, TAU - d, d)
    return abs(wrap_angle(a - b))


def global_phase_align(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> float | None:
    """Angle chi with a == e^{i chi} * b entrywise within tol, or None.

    The candidate phase is read off the largest-magnitude entry of b, which
    keeps the division away from near-zero entries.  None means "not
    equivalent up to a global phase at this tolerance", which a NaN entry in
    either matrix also is; it is not an error.
    """
    check_tolerance("tol", tol)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    pivot = int(np.argmax(np.abs(b)))
    if abs(b.flat[pivot]) == 0.0:
        raise ValueError("cannot align against the zero matrix")
    ratio = complex(a.flat[pivot]) / complex(b.flat[pivot])
    if not abs(abs(ratio) - 1.0) <= tol:  # NaN fails too
        return None
    chi = wrap_angle(cmath.phase(ratio))
    if not np.max(np.abs(a - cmath.exp(1j * chi) * b)) <= tol:
        return None
    return chi


def max_entry_deviation(a: np.ndarray, b: np.ndarray, phase: float = 0.0) -> float:
    """Max entrywise |a - e^{i phase} * b|."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a - cmath.exp(1j * phase) * b)))
