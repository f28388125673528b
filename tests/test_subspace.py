"""Tests for the 2D iteration engine."""
import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverlab.analysis import closed_form_probability
from groverlab.model import (
    MAX_ITERATIONS,
    AlgorithmKind,
    LiCMParams,
    LiDFParams,
    LiPCParams,
    LongParams,
    OriginalParams,
    params_from_phases,
)
from groverlab.subspace import initial_state, success_probability

from helpers import (KINDS, iteration_matrix, random_kind, random_params, run_matrix,
                     single_iteration_amplitude_long)


def k_fold(m, k, start):
    """k einsum steps: the multiply run replaced, kept as the reference."""
    v = np.broadcast_to(start, m.shape[:-1]).astype(complex)
    for _ in range(k):
        v = np.einsum("...ij,...j->...i", m, v)
    return v


# Phases on all of R, lambda at both ends of (0, 1] and in between.
real_phases = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4)
lambdas = st.one_of(st.just(1.0), st.just(1e-14), st.floats(min_value=1e-14, max_value=1.0))
steps = st.integers(min_value=0, max_value=300)

# Degenerate phases: lidf at tau = pi/2 (c = 2 cos(tau) e^{i tau} ~ 1e-16, so
# sin w ~ 7e-17); long and lipc at 0 (m = -I and m = I: sin w = 0, the limit
# branch) and at pi; licm at all-zero phases (m = -I).
CORNERS = [
    (AlgorithmKind.LI_DF, LiDFParams(math.pi / 2)),
    (AlgorithmKind.LONG, LongParams(0.0)),
    (AlgorithmKind.LONG, LongParams(math.pi)),
    (AlgorithmKind.LI_PC, LiPCParams(0.0)),
    (AlgorithmKind.LI_PC, LiPCParams(math.pi)),
    (AlgorithmKind.LI_CM, LiCMParams(0.0, 0.0, 0.0, 0.0)),
]


class TestInitialState:
    def test_all_targets(self):
        state = initial_state(1.0)
        assert state[0] == pytest.approx(1.0, abs=1e-15)
        assert state[1] == pytest.approx(0.0, abs=1e-15)

    def test_half_proportion_is_symmetric(self):
        state = initial_state(0.5)
        assert state[0] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert state[1] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_quarter_proportion(self):
        state = initial_state(0.25)
        assert state[0] == pytest.approx(0.5, abs=1e-15)
        assert state[1] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)

    def test_is_a_real_float64_pair(self):
        state = initial_state(0.3)
        assert state.dtype == np.float64 and state.shape == (2,)

    @pytest.mark.parametrize("lam,theta", [(0.25, math.pi / 6), (0.5, math.pi / 4),
                                           (1.0, math.pi / 2)])
    def test_theta_at_reference_proportions(self, lam, theta):
        state = initial_state(lam)
        assert math.atan2(state[0], state[1]) == pytest.approx(theta, abs=1e-15)

    def test_theta_reference_point(self):
        # asin(sqrt(0.147)), frozen
        assert math.asin(initial_state(0.147)[0]) == pytest.approx(0.3934810829739611, abs=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0000001, float("nan"), float("inf")])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError, match=r"target proportion must lie in \(0, 1\]"):
            initial_state(bad)

    def test_sin_squared_theta_equals_the_target_proportion(self):
        for n in range(1, 13):
            size = 2 ** n
            for num_targets in range(1, size + 1):
                lam = num_targets / size
                assert abs(initial_state(lam)[0] ** 2 - lam) <= 1e-15


class TestRun:
    def test_zero_iterations_returns_initial_state(self):
        s = initial_state(0.33)
        m = iteration_matrix(OriginalParams(), s)
        state = run_matrix(m, 0, s)
        assert np.array_equal(state, s)

    def test_negative_iterations_rejected(self):
        s = initial_state(0.33)
        m = iteration_matrix(OriginalParams(), s)
        for matrices in (m, np.stack([m, m])):
            with pytest.raises(ValueError, match=re.escape(
                    "k must lie in [0, 2**53 = 9007199254740992], got -1")):
                run_matrix(matrices, -1, s)

    def test_stack_matches_slice_by_slice_runs(self):
        rng = np.random.default_rng(19)
        vectors = [initial_state(float(lam)) for lam in rng.uniform(1e-3, 1.0, size=3)]
        kinds = [random_kind(rng) for _ in range(4)]
        params = [random_params(rng, kind) for kind in kinds]
        stack = np.array([[iteration_matrix(p, s) for p in params] for s in vectors])
        starts = np.array(vectors)[:, None, :]
        for k in (0, 1, 7, 250):
            states = run_matrix(stack, k, starts)
            assert states.shape == (3, 4, 2)
            for i, s in enumerate(vectors):
                for j in range(len(kinds)):
                    single = run_matrix(stack[i, j], k, s)
                    assert np.max(np.abs(states[i, j] - single)) < 1e-15

    def test_original_closed_form(self):
        # (sin((2k+1) theta), cos((2k+1) theta)) for k up to 100
        for lam in np.linspace(0.01, 1.0, 100):
            theta = math.asin(math.sqrt(lam))
            v = initial_state(float(lam))
            m = iteration_matrix(OriginalParams(), v)
            for k in range(1, 101):
                v = m @ v
                angle = (2 * k + 1) * theta
                assert abs(v[0] - math.sin(angle)) < 1e-9
                assert abs(v[1] - math.cos(angle)) < 1e-9

    def test_long_one_iteration_at_half_proportion_is_certain(self):
        s = initial_state(0.5)
        m = iteration_matrix(LongParams(math.pi / 2), s)
        assert success_probability(run_matrix(m, 1, s)) == pytest.approx(1.0, abs=1e-12)

    def test_long_single_iteration_amplitude(self):
        # engine amplitude vs the closed-form target amplitude
        for phi in np.linspace(0.0, 2 * math.pi, 25):
            for m in np.linspace(0.02, 1.0, 25):
                s = initial_state(float(m))
                it = iteration_matrix(LongParams(float(phi)), s)
                expected = single_iteration_amplitude_long(float(m), float(phi))
                assert abs(run_matrix(it, 1, s)[0] - expected) < 1e-12

    def test_norm_preserved_through_thousand_iterations(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            kind = random_kind(rng)
            s = initial_state(float(rng.uniform(1e-3, 1.0)))
            m = iteration_matrix(random_params(rng, kind), s)
            state = run_matrix(m, 1000, s)
            norm_sq = abs(state[0]) ** 2 + abs(state[1]) ** 2
            assert abs(norm_sq - 1.0) < 1e-9

    def test_global_phase_does_not_change_probabilities(self):
        rng = np.random.default_rng(5)
        s = initial_state(0.21)
        for _ in range(20):
            kind = random_kind(rng)
            m = iteration_matrix(random_params(rng, kind), s)
            chi = float(rng.uniform(-math.pi, math.pi))
            shifted = cmath.exp(1j * chi) * m
            for k in (1, 5, 13):
                p = success_probability(run_matrix(m, k, s))
                p_shifted = success_probability(run_matrix(shifted, k, s))
                assert abs(p - p_shifted) < 1e-12


class TestClosedFormPower:
    @given(st.sampled_from(KINDS), real_phases, lambdas, steps)
    @settings(max_examples=300)
    def test_equals_the_k_fold_multiply(self, kind, phases, lam, k):
        s = initial_state(lam)
        m = iteration_matrix(params_from_phases(kind, phases), s)
        assert np.max(np.abs(run_matrix(m, k, s) - k_fold(m, k, s))) < 1e-12

    @pytest.mark.parametrize("kind,params", CORNERS)
    @given(lam=lambdas, k=steps)
    @settings(max_examples=50)
    def test_corners_equal_the_k_fold_multiply(self, kind, params, lam, k):
        s = initial_state(lam)
        m = iteration_matrix(params, s)
        assert np.max(np.abs(run_matrix(m, k, s) - k_fold(m, k, s))) < 1e-12

    @given(st.lists(st.tuples(st.sampled_from(KINDS), real_phases, lambdas),
                    min_size=1, max_size=6), steps)
    @settings(max_examples=100)
    def test_mixed_stack_equals_its_slice_by_slice_runs(self, cells, k):
        cases = [(iteration_matrix(params_from_phases(kind, a), s), s)
                 for kind, a, s in ((kind, a, initial_state(lam))
                                    for kind, a, lam in cells)]
        cases += [(iteration_matrix(params, initial_state(0.3)),
                   initial_state(0.3)) for kind, params in CORNERS]
        stack = np.stack([m for m, _ in cases])
        states = run_matrix(stack, k, np.stack([s for _, s in cases]))
        for state, (m, start) in zip(states, cases):
            assert np.array_equal(state, run_matrix(m, k, start))

    def test_complex_starts_give_a_stack_the_bits_of_single_runs(self):
        rng = np.random.default_rng(21)
        mats = np.stack([iteration_matrix(random_params(rng, random_kind(rng)),
                                          initial_state(float(lam)))
                         for lam in rng.uniform(1e-6, 1.0, 200)])
        starts = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        for k in (1, 7, 2 ** 40):
            for state, m, start in zip(run_matrix(mats, k, starts), mats, starts):
                assert np.array_equal(state, run_matrix(m, k, start))

    @pytest.mark.parametrize("dtype", [float, complex])  # a complex start needs no cast
    @pytest.mark.parametrize("k", [0, 1, 9])
    def test_neither_mutates_nor_aliases_start(self, k, dtype):
        m = iteration_matrix(LongParams(1.1), initial_state(0.3))
        for matrices in (m, np.stack([m, m.T])):
            start = initial_state(0.3).astype(dtype)
            start.flags.writeable = False
            state = run_matrix(matrices, k, start)
            assert np.array_equal(start, initial_state(0.3))
            assert not np.shares_memory(state, start)
            assert state.flags.c_contiguous and state.flags.writeable

    def test_no_drift_at_a_million_steps(self):
        # The k-fold multiply drifted 1.9e-10 from the closed form here.
        s = initial_state(1e-6)
        m = iteration_matrix(OriginalParams(), s)
        p = success_probability(run_matrix(m, 10 ** 6, s))
        assert abs(p - closed_form_probability(1e-6, 10 ** 6)) < 1e-12

    @pytest.mark.parametrize("chi", [math.pi, -math.pi / 2, 2.0, 3.0])
    def test_a_global_phase_costs_no_accuracy(self, chi):
        # With the other square root of det m, w would sit near pi and the
        # rounding of k w (about k * pi * 2**-53) would reach the probability.
        s = initial_state(1e-6)
        m = cmath.exp(1j * chi) * iteration_matrix(OriginalParams(), s)
        p = success_probability(run_matrix(m, 10 ** 6, s))
        assert abs(p - closed_form_probability(1e-6, 10 ** 6)) < 1e-12

    def test_norm_holds_at_any_k(self):
        # Only k w is rounded, so no error accumulates in the norm.
        rng = np.random.default_rng(29)
        for lam in (1e-6, 0.3, 1.0):
            s = initial_state(lam)
            for kind in KINDS:
                m = iteration_matrix(random_params(rng, kind), s)
                for k in (10 ** 9, 10 ** 12, MAX_ITERATIONS):
                    state = run_matrix(m, k, s)
                    assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12

    # A stack runs by one count, so an array of counts is rejected too.
    @pytest.mark.parametrize("k", [2.5, 3.0, np.float64(3.0), np.array([2, 5]), np.array([[5]])])
    def test_non_integer_k_is_rejected(self, k):
        s = initial_state(0.3)
        m = iteration_matrix(LongParams(1.1), s)
        for matrices in (m, np.stack([m, m])):
            with pytest.raises(TypeError):
                run_matrix(matrices, k, s)

    def test_numpy_integer_k_gives_the_same_bits(self):
        s = initial_state(0.3)
        m = iteration_matrix(LiPCParams(0.7), s)
        for matrices in (m, np.stack([m, m.T])):
            for k in (0, 3, 10 ** 6):
                assert np.array_equal(run_matrix(matrices, np.int64(k), s),
                                      run_matrix(matrices, k, s))
                assert np.array_equal(run_matrix(matrices, np.array(k), s),
                                      run_matrix(matrices, k, s))

    def test_iteration_count_is_bounded_by_float64_integers(self):
        s = initial_state(0.25)
        m = iteration_matrix(OriginalParams(), s)
        assert MAX_ITERATIONS == 2 ** 53
        state = run_matrix(m, MAX_ITERATIONS, s)
        assert abs(np.sum(np.abs(state) ** 2) - 1.0) < 1e-12
        for matrices in (m, np.stack([m, m])):
            with pytest.raises(ValueError, match=re.escape(
                    "k must lie in [0, 2**53 = 9007199254740992], got 9007199254740993")):
                run_matrix(matrices, MAX_ITERATIONS + 1, s)


class TestSuccessProbability:
    def test_certain_state(self):
        assert success_probability(np.array([1.0 + 0j, 0j])) == 1.0

    def test_rotation_reaches_certainty_at_quarter_proportion(self):
        s = initial_state(0.25)
        m = iteration_matrix(OriginalParams(), s)
        assert success_probability(run_matrix(m, 1, s)) == pytest.approx(1.0, abs=1e-12)

    def test_half_proportion_single_iteration(self):
        s = initial_state(0.5)
        m = iteration_matrix(OriginalParams(), s)
        assert success_probability(run_matrix(m, 1, s)) == pytest.approx(0.5, abs=1e-12)

    def test_clamps_roundoff_overshoot(self):
        assert success_probability(np.array([1.0 + 1e-12 + 0j, 0j])) == 1.0
        assert success_probability(np.array([0j, 1.0 + 0j])) == 0.0

    def test_stack_is_clamped_per_state(self):
        states = np.array([[[1.0 + 1e-12, 0j], [0j, 1.0]], [[0.6, 0.8], [0.8j, 0.6]]])
        p = success_probability(states)
        assert p.shape == (2, 2)
        assert p[0, 0] == 1.0 and p[0, 1] == 0.0
        assert np.allclose(p[1], [0.36, 0.64], rtol=0, atol=1e-15)
