"""Brute-force N-dimensional engine used to cross-validate the subspace engine.

The oracle is a diagonal: the kind's target eigenvalue on marked indices and
its rest eigenvalue (1 except for licm) elsewhere.  The diffusion maps v to
c * <s|v> * |s> + d * v, a rank-one update.  run_full builds the oracle
diagonal once and then works on one amplitude buffer, four O(N) passes per
step: scale by the diagonal, sum, scale by d, add the uniform part.  No mask
work branches per entry: gathers go through an index, selects by table
lookup.  The coefficients are written out here from the operator definitions
on purpose: this module must stay an independent route from the 2x2
construction in operators.py, so no coefficient tables are shared.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .model import AlgorithmKind, PhaseParams, check_iterations


def _coefficients(params: PhaseParams) -> tuple[complex, complex, complex, complex]:
    """(target, rest, c, d): oracle eigenvalues on marked and other indices, diffusion (c, d)."""
    if params.kind is AlgorithmKind.ORIGINAL:
        return -1.0, 1.0, 2.0 + 0j, -1.0 + 0j
    if params.kind is AlgorithmKind.LONG:
        c = 1.0 - cmath.exp(1j * params.diffusion_phase)
        return cmath.exp(1j * params.oracle_phase), 1.0, c, -1.0 + 0j
    if params.kind is AlgorithmKind.LI_DF:
        w = 2.0 * math.cos(params.tau) * cmath.exp(1j * params.tau)
        return 1.0 - w, 1.0, w, -1.0 + 0j
    if params.kind is AlgorithmKind.LI_CM:
        d = cmath.exp(1j * params.gamma2)
        c = cmath.exp(1j * params.gamma1) - d
        return -cmath.exp(1j * params.eta1), -cmath.exp(1j * params.eta2), c, d
    e = cmath.exp(1j * params.beta)
    return cmath.exp(-1j * params.beta), 1.0, 1.0 - e, e


def _check_mask(marked: np.ndarray) -> int:
    """M, the target count of marked, which must be a 1-D bool mask with at least one target."""
    if not isinstance(marked, np.ndarray) or marked.dtype != bool or marked.ndim != 1:
        raise TypeError(f"marked must be a 1-D bool mask, got {marked!r}")
    num_targets = int(np.count_nonzero(marked))
    if num_targets == 0:
        raise ValueError(f"marked must mark at least one of its {marked.size} indices")
    return num_targets


def run_full(marked: np.ndarray, params: PhaseParams, k: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """The N = marked.size amplitudes after k oracle-then-diffusion steps from the uniform state.

    They are written into out, a 1-D C-contiguous complex128 array of length
    N, when one is given, and out is returned; else into a new array.  A
    caller running many states of one N keeps one buffer, not a fresh N-length
    allocation (and its page faults) per run.
    """
    _check_mask(marked)
    check_iterations("k", k)
    size = marked.size
    if out is not None and not (isinstance(out, np.ndarray) and out.dtype == complex
                                and out.shape == (size,) and out.flags.c_contiguous):
        raise TypeError(f"out must be a 1-D C-contiguous complex128 array of length {size}")
    target, rest, c, d = _coefficients(params)
    diagonal = np.empty(size, complex)
    for i in range(0, size, _CHUNK):  # out may be live: no N-entry index beside it
        _select(marked[i:i + _CHUNK], complex(rest), complex(target), out=diagonal[i:i + _CHUNK])
    amps = np.empty(size, complex) if out is None else out
    amps.fill(1.0 / math.sqrt(size))
    for _ in range(k):
        amps *= diagonal
        # c * <s|v> * |s> has the constant value c * sum(v) / N on every index.
        uniform_part = c * amps.sum() / size
        np.multiply(d, amps, out=amps)  # d first: the product's last bit depends on the order
        amps += uniform_part
    return amps


_CHUNK = 2 ** 14  # entries a piece; measure then peaks at 16 N + 9 min(N, _CHUNK) bytes


def _select(marked: np.ndarray, off: complex, on: complex, out: np.ndarray | None = None):
    """on where marked, else off, by table lookup; "clip" reads any nonzero byte as marked."""
    return np.array([off, on]).take(marked.view(np.uint8), out=out, mode="clip")


def _gather(marked: np.ndarray, side: bool, amplitudes: np.ndarray, count: int) -> np.ndarray:
    """The count amplitudes where marked reads side, in order, one chunk's index at a time."""
    out, at = np.empty(count, complex), 0
    for i in range(0, marked.size, _CHUNK):  # "clip" writes into out directly; "raise" copies it
        chunk = marked[i:i + _CHUNK]  # nonzero()[0]: np.flatnonzero's ravel adds ~1.6 us a call
        index = (chunk if side else ~chunk).nonzero()[0]
        amplitudes[i:i + _CHUNK].take(index, out=out[at:at + index.size], mode="clip")
        at += index.size
        del index  # else it is live beside the next chunk's
    return out


def measure(marked: np.ndarray, amplitudes: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(p, (a, b), residual): target probability, (<alpha|v>, <beta|v>), norm outside their span.

    p is clamped into [0, 1]; nan stays nan.  With M = N there are no
    non-target indices and b = 0.  Each side is gathered once, in chunks, and
    |on| overwrites the target gather, so for any M the peak above the amplitudes
    is at most 16 N + 9 min(N, _CHUNK) bytes: one N-length complex array beside
    one chunk's index (8 bytes an entry) and mask (1).
    """
    num_targets, size = _check_mask(marked), marked.size
    on = _gather(marked, True, amplitudes, num_targets)
    a = complex(on.sum() / math.sqrt(num_targets))
    # |on| into on's own bytes: piece [lo, 2 lo) overwrites only entries already read.
    moduli, lo = on.view(float)[:num_targets], _CHUNK
    moduli[:lo] = np.abs(on[:lo])  # this piece overlaps its input: through a copy
    while lo < num_targets:
        np.abs(on[lo:2 * lo], out=moduli[lo:2 * lo])
        lo *= 2
    p = min(max(float(np.square(moduli, out=moduli).sum()), 0.0), 1.0)  # nan stays nan
    del on, moduli
    if num_targets < size:
        others = _gather(marked, False, amplitudes, size - num_targets)
        b = complex(others.sum() / math.sqrt(size - num_targets))
        del others
        b_entry = b / math.sqrt(size - num_targets)
    else:
        b = b_entry = 0j
    # The span's component of v, entry by entry; then v minus it, in place.
    a_entry, residual = a / math.sqrt(num_targets), np.empty(size, complex)
    for i in range(0, size, _CHUNK):
        _select(marked[i:i + _CHUNK], b_entry, a_entry, out=residual[i:i + _CHUNK])
    np.subtract(amplitudes, residual, out=residual)
    parts = residual.view(float)  # its norm from the squared parts, in place: no BLAS call
    return p, np.array([a, b]), math.sqrt(np.square(parts, out=parts).sum())
