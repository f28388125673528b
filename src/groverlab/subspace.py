"""The 2x2 engine: the operator table, the start state |s> and k-step propagation.

Every algorithm's oracle is diagonal in the (|alpha>, |beta>) basis and every
diffusion has the rank-one form c*|s><s| + d*I, so the N-dimensional operators
restrict cleanly to 2x2 matrices acting on span{|alpha>, |beta>}.  One
iteration is diffusion applied after the oracle.

Oracle eigenvalues (target, non-target) and diffusion coefficients (c, d):

  original  (-1, 1)                          (2, -1)
  long      (e^{i phi}, 1)                   (1 - e^{i vphi}, -1)
  lidf      (1 - 2 cos(tau) e^{i tau}, 1)    (2 cos(tau) e^{i tau}, -1)
  licm      (-e^{i eta1}, -e^{i eta2})       (e^{i gamma1} - e^{i gamma2}, e^{i gamma2})
  lipc      (e^{-i beta}, 1)                 (1 - e^{i beta}, e^{i beta})

Phases are accepted on all of R; nothing is normalized mod 2*pi here.
States are arrays of shape (..., 2): the amplitudes on |alpha> and |beta>,
target component first.  initial_state is the one place where theta is computed.
"""
from __future__ import annotations

import math

import numpy as np

from .model import AlgorithmKind, PhaseParams, check_iterations

UNITARITY_TOL = 1e-10
_TINY = np.finfo(float).tiny


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


def operator_coefficients(params: PhaseParams) -> tuple:
    """The bundle's row (target, rest, c, d) of the table above, as four complex arrays.

    The four have one shape: 0-d for a bundle of scalar phases, else the
    broadcast shape of its phase arrays.
    """
    if params.kind is AlgorithmKind.ORIGINAL:
        row = -1.0, 1.0, 2.0, -1.0
    elif params.kind is AlgorithmKind.LONG:
        row = np.exp(1j * params.phi), 1.0, 1.0 - np.exp(1j * params.diffusion_phase), -1.0
    elif params.kind is AlgorithmKind.LI_DF:
        w = 2.0 * np.cos(params.tau) * np.exp(1j * params.tau)
        row = 1.0 - w, 1.0, w, -1.0
    elif params.kind is AlgorithmKind.LI_CM:
        eg1, eg2 = np.exp(1j * params.gamma1), np.exp(1j * params.gamma2)
        row = -np.exp(1j * params.eta1), -np.exp(1j * params.eta2), eg1 - eg2, eg2
    else:
        e = np.exp(1j * params.beta)
        row = np.exp(-1j * params.beta), 1.0, 1.0 - e, e
    # Arrays, even 0-d: numpy rounds a product of complex scalars differently
    # from its array loops, which a sweep's planes go through.
    row = [np.asarray(x, dtype=complex) for x in row]
    # A scalar row skips np.broadcast_arrays, which would double the row's cost.
    return tuple(np.broadcast_arrays(*row) if any(x.ndim for x in row) else row)


def check_unitary(kind, coefficients, s: np.ndarray) -> None:
    """Reject table rows or start vectors whose iterations would not be unitary.

    coefficients is (target, rest, c, d), four entries of one shape: one cell
    each.  kind is every cell's kind, or a sequence of one kind per cell of a
    1-D table.  s must be real with |s|^2 within UNITARITY_TOL of 1, so the
    diffusion is normal with eigenvalues d and c + d (to |c| * UNITARITY_TOL),
    and the oracle is diagonal.  With a cell's e_o and e_d the worst
    ||x|^2 - 1| over its (target, rest) and over its (d, c + d), its
    m @ m^dagger lies within (1 + e_o) * (1 + e_d) - 1 of the identity in
    spectral norm, which bounds every entry; so no matrix is built, and a
    table passes exactly when each of its rows would.
    """
    target, rest, c, d = coefficients
    e = np.abs(np.abs(np.stack([target, rest, d, c + d])) ** 2 - 1.0)
    passed = (1.0 + np.maximum(e[0], e[1])) * (1.0 + np.maximum(e[2], e[3])) - 1.0 <= UNITARITY_TOL
    if not passed.all():  # NaN fails too; name the first failing cell's kind
        name = kind if isinstance(kind, AlgorithmKind) else kind[int(np.argmin(passed))]
        raise ValueError(f"{name.value} iteration matrix failed the unitarity check at "
                         f"{UNITARITY_TOL}")
    if np.iscomplexobj(s) or not np.abs(np.square(s).sum(axis=-1) - 1.0).max() <= UNITARITY_TOL:
        raise ValueError(f"s must be a real unit vector, |s|^2 within {UNITARITY_TOL} of 1")


def iteration_planes(coefficients, s: np.ndarray) -> tuple:
    """Entries (m00, m01, m10, m11) of (c |s><s| + d I) diag(target, rest): run's planes."""
    target, rest, c, d = coefficients
    s0, s1 = s[..., 0], s[..., 1]
    off = c * (s0 * s1)  # the shared off-diagonal of the diffusion
    return (c * (s0 * s0) + d) * target, off * rest, off * target, (c * (s1 * s1) + d) * rest


def run(planes, k: int, start: np.ndarray) -> np.ndarray:
    """State after k applications of the iteration m to start; k = 0 returns a copy of start.

    planes are m's entries (m00, m01, m10, m11), four arrays of the cells'
    shape, from iteration_planes on a table that check_unitary has passed.
    start broadcasts to the cells' shape + (2,), the shape of the result.
    One int k in [0, 2**53] runs all.

    The cost does not depend on k.  With m = e^{i delta} V, det V = 1,
    tr V = 2 cos w and G = (m - (tr m / 2) I) / e^{i delta}, the Chebyshev
    power (sin(k w) V - sin((k-1) w) I) / sin w is V^k = cos(k w) I +
    sin(k w) / sin(w) * G, and I + k G at sin w = 0.  The sign of
    e^{i delta} = +-sqrt(det m) puts w in [0, pi/2].  The state keeps unit
    norm, and the angles k w and k delta are off by about |k w| 2**-53 and
    |k delta| 2**-53.  Near an identity step (w and delta both small) the
    rounding of m's own entries dominates instead, and the probability error
    grows as k 2**-53.  Against an 80-digit power of the exact iteration,
    tests/test_run_reference.py bounds it by 8 ((k (w + |delta|) + 1) 2**-53
    + 2 |sin(k w) / sin w| g), with g the float m's rounding of the target
    amplitude of T s, T = m - (tr m / 2) I.
    """
    k = check_iterations("k", k)
    # (..., 1) views keep one cell and a stack on the same array loops, so
    # every cell of a stack gets the bits of its own single run.
    m00, m01, m10, m11 = (p[..., None] for p in planes)
    # astype copies, so the in-place update below never writes into start.
    v = np.broadcast_to(start, m00.shape[:-1] + (2,)).astype(complex, order="C")
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
                       where=sin_w >= _TINY)
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
    return v


def success_probability(v: np.ndarray):
    """|v[..., 0]|^2, clamped into [0, 1] against roundoff."""
    # np.square, not ** 2: on a float64 scalar ** 2 calls pow, which can
    # differ in the last bit from the x * x that a stack gets.
    return np.clip(np.square(np.abs(v[..., 0])), 0.0, 1.0)
