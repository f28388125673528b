"""Propagate Grover-type iterations from the subspace initial state.

States are complex arrays of shape (..., 2): the amplitudes on |alpha> and
|beta>, target component first.
"""
from __future__ import annotations

import math

import numpy as np

from .model import SubspaceGeometry


def initial_state(g: SubspaceGeometry) -> np.ndarray:
    """The uniform superposition (sin(theta), cos(theta))."""
    return np.array([math.sin(g.theta), math.cos(g.theta)], dtype=complex)


def run(m: np.ndarray, k: int, start: np.ndarray) -> np.ndarray:
    """State after k applications of m to start; k = 0 returns start.

    m is one (2, 2) matrix or a (..., 2, 2) stack; start broadcasts to
    m.shape[:-1], the shape of the result.
    """
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    v = np.broadcast_to(start, m.shape[:-1]).astype(complex)
    for _ in range(k):
        v = np.einsum("...ij,...j->...i", m, v)
    return v


def success_probability(v: np.ndarray):
    """|v[..., 0]|^2, clamped into [0, 1] against roundoff."""
    # np.square, not ** 2: on a float64 scalar ** 2 calls pow, which can
    # differ in the last bit from the x * x that a stack gets.
    return np.clip(np.square(np.abs(v[..., 0])), 0.0, 1.0)
