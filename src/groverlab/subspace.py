"""The subspace start state |s> and the propagation of Grover-type iterations from it.

States are arrays of shape (..., 2): the amplitudes on |alpha> and |beta>,
target component first.  initial_state is the one place where theta is computed.
"""
from __future__ import annotations

import math
import operator

import numpy as np


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


# Above 2**53 a float64 no longer holds every integer, so k * w means nothing.
MAX_ITERATIONS = 2 ** 53


def run(m: np.ndarray, k: int, start: np.ndarray) -> np.ndarray:
    """State after k applications of m to start; k = 0 returns a copy of start.

    m is one unitary (2, 2) matrix or a (..., 2, 2) stack of them (callers
    pass matrices that iteration_matrices has checked); start broadcasts to
    m.shape[:-1], the shape of the result.  k is an int, 0 <= k <= MAX_ITERATIONS.

    The cost does not depend on k.  With m = e^{i delta} V, det V = 1,
    tr V = 2 cos w and G = (m - (tr m / 2) I) / e^{i delta}, the Chebyshev
    power (sin(k w) V - sin((k-1) w) I) / sin w is V^k = cos(k w) I +
    sin(k w) / sin(w) * G, and I + k G at sin w = 0.  The sign of
    e^{i delta} = +-sqrt(det m) puts w in [0, pi/2].  Only the rounding of
    k w and k delta grows with k: the state keeps unit norm, and those
    angles are off by about |k w| * 2**-53 and |k delta| * 2**-53.
    """
    k = operator.index(k)
    if k < 0:
        raise ValueError(f"iteration count must be >= 0, got {k}")
    if k > MAX_ITERATIONS:
        raise ValueError(f"iteration count must be <= 2**53 = {MAX_ITERATIONS}, got {k}")
    # astype copies, so the in-place update below never writes into start.
    v = np.broadcast_to(start, m.shape[:-1]).astype(complex, order="C")
    # (..., 1) slices keep one matrix and a stack on the same array loops, so
    # every matrix of a stack gets the bits of its own single run.
    m00, m01 = m[..., 0, :1], m[..., 0, 1:]
    m10, m11 = m[..., 1, :1], m[..., 1, 1:]
    v0, v1 = v[..., :1], v[..., 1:]
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
    # T v, built in place so that few (..., 1) temporaries are live at once.
    out = np.empty_like(v)
    out0, out1 = out[..., :1], out[..., 1:]
    np.multiply(m01, v1, out=out1)
    np.multiply(half_gap, v0, out=out0)
    out0 += out1
    half_gap *= v1
    np.multiply(m10, v0, out=out1)
    out1 -= half_gap
    del half_gap
    out *= t_coef
    v *= i_coef
    out += v
    return out


def success_probability(v: np.ndarray):
    """|v[..., 0]|^2, clamped into [0, 1] against roundoff."""
    # np.square, not ** 2: on a float64 scalar ** 2 calls pow, which can
    # differ in the last bit from the x * x that a stack gets.
    return np.clip(np.square(np.abs(v[..., 0])), 0.0, 1.0)
