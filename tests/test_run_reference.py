"""run against an 80-digit mpmath reference: its forward error over lambda in [1e-14, 1], k <= 2**53."""
import math

import mpmath
import numpy as np
import pytest

from groverlab.model import AlgorithmKind, LiPCParams, params_from_phases
from groverlab.operators import iteration_matrix
from groverlab.subspace import initial_state, run, success_probability

from helpers import cmath_row

EPS = 2.0 ** -53
KS = [1, 10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12, 2 ** 53]
# The worst ratio of error to bound over seeds 0-29 of these draws (10800
# cases) was 4.2; C leaves about a factor of two.
C = 8


def exact_iteration(params, lam):
    """The iteration (c |s><s| + d I) diag(target, rest) at mpmath's precision, and s."""
    target, rest, c, d = cmath_row(params, exp=mpmath.exp, cos=mpmath.cos)
    s0, s1 = mpmath.sqrt(mpmath.mpf(lam)), mpmath.sqrt(1 - mpmath.mpf(lam))
    return mpmath.matrix([[(c * s0 * s0 + d) * target, c * s0 * s1 * rest],
                          [c * s0 * s1 * target, (c * s1 * s1 + d) * rest]]), s0, s1


def rotation(m):
    """(w, delta) as run defines them: m = e^{i delta} V, det V = 1, tr V = 2 cos w, w in [0, pi/2]."""
    phase = mpmath.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    cos_w = mpmath.re((m[0, 0] + m[1, 1]) / phase) / 2
    if cos_w < 0:
        phase = -phase
    return mpmath.acos(min(abs(cos_w), 1)), mpmath.arg(phase)


def draws(seed=0, per_kind=12):
    """Random phases of every kind with lambda log-uniform in [1e-14, 1], then near-identity steps."""
    rng = np.random.default_rng(seed)
    for kind in AlgorithmKind:
        for _ in range(per_kind):
            lam = float(10 ** rng.uniform(-14, 0))
            yield params_from_phases(kind, rng.uniform(-2 * math.pi, 2 * math.pi, size=4)), lam
    yield LiPCParams(1e-8), 0.3
    yield LiPCParams(2 * math.pi), 0.3


@pytest.mark.parametrize("params,lam", list(draws()))
def test_forward_error_stays_within_the_stated_bound(params, lam):
    # |P_run - P_exact| <= C * ((k (w + |delta|) + 1) 2**-53 + 2 |sin(k w) / sin w| g).
    # The first term is run's own rounding of k w and k delta.  The second
    # carries the float matrix's rounding g of (T s)_0, T = m - (tr m / 2) I,
    # through the k-th power's T coefficient.  It dominates near an identity
    # step, where m's entries are near those of I: for LiPCParams(1e-8) at
    # lambda = 0.3, the first term alone is exceeded by factors of 2e5 to 1e7
    # at k = 1e6 to 1e9.
    s = initial_state(lam)
    m = iteration_matrix(params, s)
    with mpmath.workdps(80):
        exact, s0, s1 = exact_iteration(params, lam)
        w, delta = rotation(exact)
        gap = [[mpmath.mpc(complex(m[i, j])) - exact[i, j] for j in range(2)] for i in range(2)]
        g = float(abs((gap[0][0] - gap[1][1]) / 2 * s0 + gap[0][1] * s1))
        for k in KS:
            p_exact = float(abs((exact ** k * mpmath.matrix([s0, s1]))[0]) ** 2)
            p_run = float(success_probability(run(m, k, s)))
            t_coef = abs(mpmath.sin(k * w) / mpmath.sin(w)) if w else k
            bound = C * (float(k * (w + abs(delta)) + 1) * EPS + 2 * float(t_coef) * g)
            assert abs(p_run - p_exact) <= bound, (k, p_run, p_exact, bound)
