"""Tests for the 2D iteration engine."""
import cmath
import math

import numpy as np
import pytest

from groverlab.analysis import single_iteration_amplitude_long
from groverlab.model import (
    AlgorithmKind,
    LiCMParams,
    LiDFParams,
    LiPCParams,
    LongParams,
    OriginalParams,
    geometry_from_lambda,
)
from groverlab.operators import iteration_matrix
from groverlab.subspace import initial_state, run, success_probability

from helpers import random_kind, random_params


class TestInitialState:
    def test_all_targets(self):
        state = initial_state(geometry_from_lambda(1.0))
        assert state[0] == pytest.approx(1.0, abs=1e-15)
        assert state[1] == pytest.approx(0.0, abs=1e-15)

    def test_half_proportion_is_symmetric(self):
        state = initial_state(geometry_from_lambda(0.5))
        assert state[0] == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert state[1] == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_quarter_proportion(self):
        state = initial_state(geometry_from_lambda(0.25))
        assert state[0] == pytest.approx(0.5, abs=1e-15)
        assert state[1] == pytest.approx(math.sqrt(3) / 2, abs=1e-15)


class TestRun:
    def test_zero_iterations_returns_initial_state(self):
        g = geometry_from_lambda(0.33)
        m = iteration_matrix(AlgorithmKind.ORIGINAL, OriginalParams(), g)
        state = run(m, 0, initial_state(g))
        assert np.array_equal(state, initial_state(g))

    def test_negative_iterations_rejected(self):
        g = geometry_from_lambda(0.33)
        m = iteration_matrix(AlgorithmKind.ORIGINAL, OriginalParams(), g)
        for matrices in (m, np.stack([m, m])):
            with pytest.raises(ValueError, match="iteration count must be >= 0"):
                run(matrices, -1, initial_state(g))

    def test_stack_matches_slice_by_slice_runs(self):
        rng = np.random.default_rng(19)
        gs = [geometry_from_lambda(float(lam)) for lam in rng.uniform(1e-3, 1.0, size=3)]
        kinds = [random_kind(rng) for _ in range(4)]
        params = [random_params(rng, kind) for kind in kinds]
        stack = np.array([[iteration_matrix(kind, p, g) for kind, p in zip(kinds, params)]
                          for g in gs])
        starts = np.array([initial_state(g) for g in gs])[:, None, :]
        for k in (0, 1, 7, 250):
            states = run(stack, k, starts)
            assert states.shape == (3, 4, 2)
            for i, g in enumerate(gs):
                for j in range(len(kinds)):
                    single = run(stack[i, j], k, initial_state(g))
                    assert np.max(np.abs(states[i, j] - single)) < 1e-15

    def test_original_closed_form(self):
        # (sin((2k+1) theta), cos((2k+1) theta)) for k up to 100
        for lam in np.linspace(0.01, 1.0, 100):
            g = geometry_from_lambda(float(lam))
            m = iteration_matrix(AlgorithmKind.ORIGINAL, OriginalParams(), g)
            v = np.array([math.sin(g.theta), math.cos(g.theta)], dtype=complex)
            for k in range(1, 101):
                v = m @ v
                angle = (2 * k + 1) * g.theta
                assert abs(v[0] - math.sin(angle)) < 1e-9
                assert abs(v[1] - math.cos(angle)) < 1e-9

    def test_long_one_iteration_at_half_proportion_is_certain(self):
        g = geometry_from_lambda(0.5)
        m = iteration_matrix(AlgorithmKind.LONG, LongParams(math.pi / 2), g)
        assert success_probability(run(m, 1, initial_state(g))) == pytest.approx(1.0, abs=1e-12)

    def test_long_single_iteration_amplitude(self):
        # engine amplitude vs the closed-form target amplitude
        for phi in np.linspace(0.0, 2 * math.pi, 25):
            for m in np.linspace(0.02, 1.0, 25):
                g = geometry_from_lambda(float(m))
                it = iteration_matrix(AlgorithmKind.LONG, LongParams(float(phi)), g)
                expected = single_iteration_amplitude_long(float(m), float(phi))
                assert abs(run(it, 1, initial_state(g))[0] - expected) < 1e-12

    def test_norm_preserved_through_thousand_iterations(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            kind = random_kind(rng)
            g = geometry_from_lambda(float(rng.uniform(1e-3, 1.0)))
            m = iteration_matrix(kind, random_params(rng, kind), g)
            state = run(m, 1000, initial_state(g))
            norm_sq = abs(state[0]) ** 2 + abs(state[1]) ** 2
            assert abs(norm_sq - 1.0) < 1e-9

    def test_global_phase_does_not_change_probabilities(self):
        rng = np.random.default_rng(5)
        g = geometry_from_lambda(0.21)
        for _ in range(20):
            kind = random_kind(rng)
            m = iteration_matrix(kind, random_params(rng, kind), g)
            chi = float(rng.uniform(-math.pi, math.pi))
            shifted = cmath.exp(1j * chi) * m
            for k in (1, 5, 13):
                p = success_probability(run(m, k, initial_state(g)))
                p_shifted = success_probability(run(shifted, k, initial_state(g)))
                assert abs(p - p_shifted) < 1e-12


class TestSuccessProbability:
    def test_certain_state(self):
        assert success_probability(np.array([1.0 + 0j, 0j])) == 1.0

    def test_rotation_reaches_certainty_at_quarter_proportion(self):
        g = geometry_from_lambda(0.25)
        m = iteration_matrix(AlgorithmKind.ORIGINAL, OriginalParams(), g)
        assert success_probability(run(m, 1, initial_state(g))) == pytest.approx(1.0, abs=1e-12)

    def test_half_proportion_single_iteration(self):
        g = geometry_from_lambda(0.5)
        m = iteration_matrix(AlgorithmKind.ORIGINAL, OriginalParams(), g)
        assert success_probability(run(m, 1, initial_state(g))) == pytest.approx(0.5, abs=1e-12)

    def test_clamps_roundoff_overshoot(self):
        assert success_probability(np.array([1.0 + 1e-12 + 0j, 0j])) == 1.0
        assert success_probability(np.array([0j, 1.0 + 0j])) == 0.0

    def test_stack_is_clamped_per_state(self):
        states = np.array([[[1.0 + 1e-12, 0j], [0j, 1.0]], [[0.6, 0.8], [0.8j, 0.6]]])
        p = success_probability(states)
        assert p.shape == (2, 2)
        assert p[0, 0] == 1.0 and p[0, 1] == 0.0
        assert np.allclose(p[1], [0.36, 0.64], rtol=0, atol=1e-15)
