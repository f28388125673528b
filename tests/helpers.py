"""Shared helpers for the test suite."""
import math

from groverlab.model import (
    AlgorithmKind,
    LiCMParams,
    LiDFParams,
    LiPCParams,
    LongParams,
    OriginalParams,
)

KINDS = list(AlgorithmKind)


def params_of(kind, a):
    """A kind's phase bundle built from the four phases a."""
    if kind is AlgorithmKind.ORIGINAL:
        return OriginalParams()
    if kind is AlgorithmKind.LONG:
        return LongParams(a[0], a[1])
    if kind is AlgorithmKind.LI_DF:
        return LiDFParams(a[0])
    if kind is AlgorithmKind.LI_CM:
        return LiCMParams(*a)
    return LiPCParams(a[0])


def random_params(rng, kind):
    """Uniformly random phase bundle for a kind (angles in [-2pi, 2pi])."""
    return params_of(kind, rng.uniform(-2 * math.pi, 2 * math.pi, size=4))


def random_kind(rng):
    return KINDS[int(rng.integers(0, len(KINDS)))]
