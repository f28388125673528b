"""The subspace start state |s> and the propagation of Grover-type iterations from it.

States are arrays of shape (..., 2): the amplitudes on |alpha> and |beta>,
target component first.  initial_state is the one place where theta is computed.
"""
from __future__ import annotations

import math

import numpy as np

from .model import check_iterations


def check_proportion(name: str, value: float) -> None:
    """Reject a target proportion outside (0, 1], NaN included, naming it by name."""
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must lie in (0, 1], got {value}")


def initial_state(lambda_: float) -> np.ndarray:
    """|s> = (sin(theta), cos(theta)) with sin(theta) = sqrt(lambda), lambda in (0, 1].

    The uniform superposition over a database whose proportion lambda = M/N
    of items are targets.  It is the start state of every iteration and the
    axis of every diffusion c * |s><s| + d * I; a real float64 vector.
    """
    check_proportion("target proportion", lambda_)
    theta = math.asin(math.sqrt(lambda_))
    return np.array([math.sin(theta), math.cos(theta)])


def run(m: np.ndarray, k: int | np.ndarray, start: np.ndarray) -> np.ndarray:
    """State after k applications of m to start; k = 0 returns a copy of start.

    m is one unitary (2, 2) matrix or a (..., 2, 2) stack of them (callers
    pass matrices that iteration_matrix has checked); start broadcasts to
    m.shape[:-1], the shape of the result.  k is an int in [0, 2**53], or an
    integer array of them that broadcasts to m.shape[:-2]: one count per matrix.

    The cost does not depend on k.  With m = e^{i delta} V, det V = 1,
    tr V = 2 cos w and G = (m - (tr m / 2) I) / e^{i delta}, the Chebyshev
    power (sin(k w) V - sin((k-1) w) I) / sin w is V^k = cos(k w) I +
    sin(k w) / sin(w) * G, and I + k G at sin w = 0.  The sign of
    e^{i delta} = +-sqrt(det m) puts w in [0, pi/2].  Only the rounding of
    k w and k delta grows with k: the state keeps unit norm, and those
    angles are off by about |k w| * 2**-53 and |k delta| * 2**-53.
    """
    k = check_iterations("k", k)
    if isinstance(k, np.ndarray):
        k = np.broadcast_to(k, m.shape[:-2])[..., None]  # aligned with the (..., 1) planes
    # astype copies, so the in-place update below never writes into start.
    v = np.broadcast_to(start, m.shape[:-1]).astype(complex, order="C")
    # (..., 1) slices keep one matrix and a stack on the same array loops, so
    # every matrix of a stack gets the bits of its own single run.
    _power(m[..., 0, :1], m[..., 0, 1:], m[..., 1, :1], m[..., 1, 1:], k, v[..., :1], v[..., 1:])
    return v


def _power(m00, m01, m10, m11, k, v0: np.ndarray, v1: np.ndarray) -> None:
    """Overwrite (v0, v1) with m^k (v0, v1), m = [[m00, m01], [m10, m11]], by run's closed form.

    Each element is one cell; the entries and k (an int or an integer array)
    broadcast to v0's shape.  The caller has checked k.
    """
    phase = m00 * m11
    phase -= m01 * m10
    np.sqrt(phase, out=phase)
    cos_w = ((m00 + m11) / phase).real / 2
    np.negative(phase, out=phase, where=cos_w < 0)
    np.abs(cos_w, out=cos_w)
    # T = m - (tr m / 2) I has entries half_gap, m01, m10 and -half_gap.  Taking
    # them directly, not as m - cos(w) I or sqrt(1 - cos^2 w), keeps full
    # precision as w -> 0.
    half_gap = m00 - m11
    half_gap /= 2
    sin_w = np.hypot(np.abs(half_gap), np.sqrt(np.abs(m01 * m10)))
    kw = k * np.arctan2(sin_w, cos_w)
    # m^k = e^{i k delta} (cos(k w) I + sin(k w) / sin(w) * T / e^{i delta})
    #     = i_coef * I + t_coef * T
    t_coef = np.divide(np.sin(kw), sin_w, out=np.full_like(kw, k),  # the limit k at w = 0
                       where=sin_w >= np.finfo(float).tiny)
    cos_kw = np.cos(kw, out=kw)
    del sin_w, cos_w
    # e^{i k delta} with unit modulus: phase ** k would carry |phase|^k drift.
    i_coef = np.exp(1j * (k * np.angle(phase)))
    t_coef = i_coef * t_coef
    t_coef /= phase
    i_coef *= cos_kw
    del kw, cos_kw, phase
    # m^k v = i_coef * v + t_coef * T v.  No product of two complex arrays is
    # taken in place: numpy rounds that product differently on one-element
    # arrays, so a single run would differ from the same cell in a stack.
    tv0 = half_gap * v0 + m01 * v1
    tv1 = m10 * v0 - half_gap * v1
    np.add(v0 * i_coef, tv0 * t_coef, out=v0)
    np.add(v1 * i_coef, tv1 * t_coef, out=v1)


def success_probability(v: np.ndarray):
    """|v[..., 0]|^2, clamped into [0, 1] against roundoff."""
    # np.square, not ** 2: on a float64 scalar ** 2 calls pow, which can
    # differ in the last bit from the x * x that a stack gets.
    return np.clip(np.square(np.abs(v[..., 0])), 0.0, 1.0)
