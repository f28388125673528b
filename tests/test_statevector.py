"""Tests for the full N-dimensional engine and its agreement with the 2D engine."""
import ast
import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverlab.equivalence import predicted_global_phase, transform_phases
from groverlab.model import (
    AlgorithmKind,
    LiCMParams,
    LiPCParams,
    LongParams,
    OriginalParams,
    make_search_space,
    params_from_phases,
)
from groverlab.operators import iteration_matrix
import groverlab.statevector
from groverlab.statevector import (
    StateVector,
    project_to_subspace,
    run_full,
    target_probability,
    uniform_state,
)
from groverlab.subspace import initial_state, run, success_probability

from helpers import apply_diffusion, apply_oracle, random_kind, random_params


def random_state(rng, space):
    raw = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
    return StateVector(raw / np.linalg.norm(raw), space)


def random_case(rng, n):
    size = 2 ** n
    num_targets = int(rng.integers(1, size + 1))
    targets = rng.choice(size, size=num_targets, replace=False)
    params = random_params(rng, random_kind(rng))
    return make_search_space(n, targets), params, int(rng.integers(0, 26))


def test_engine_imports_nothing_of_the_package_but_the_model():
    # crosscheck means something only while this engine builds its own
    # coefficients: no table from operators or equivalence may reach it.
    with open(groverlab.statevector.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("groverlab")):
            package_imports.add(node.module if node.level else node.module.split(".", 1)[-1])
        elif isinstance(node, ast.Import):
            package_imports.update(a.name for a in node.names if a.name.startswith("groverlab"))
    assert package_imports == {"model"}


class TestUniformState:
    @pytest.mark.parametrize("n,expected", [(1, math.sqrt(0.5)), (2, 0.5), (3, 0.5 / math.sqrt(2))])
    def test_amplitudes(self, n, expected):
        state = uniform_state(make_search_space(n, {0}))
        assert state.amplitudes.shape == (2 ** n,)
        assert np.allclose(state.amplitudes, expected, atol=1e-15)


class TestApplyOracle:
    def test_original_negates_target(self):
        space = make_search_space(2, {3})
        out = apply_oracle(uniform_state(space), OriginalParams())
        assert np.allclose(out.amplitudes, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_long_at_pi_matches_original(self):
        rng = np.random.default_rng(3)
        space = make_search_space(4, {2, 7, 11})
        state = random_state(rng, space)
        via_long = apply_oracle(state, LongParams(math.pi))
        via_original = apply_oracle(state, OriginalParams())
        assert np.max(np.abs(via_long.amplitudes - via_original.amplitudes)) < 1e-15

    def test_lipc_at_zero_is_identity(self):
        rng = np.random.default_rng(4)
        space = make_search_space(3, {0, 6})
        state = random_state(rng, space)
        out = apply_oracle(state, LiPCParams(0.0))
        assert np.array_equal(out.amplitudes, state.amplitudes)

    @pytest.mark.parametrize("targets", [{1}, [3, 0, 3], range(4)])
    def test_licm_scales_both_sectors(self, targets):
        space = make_search_space(2, targets)
        out = apply_oracle(uniform_state(space), LiCMParams(0, 0, 0.9, -0.4))
        for idx in range(4):
            eta = 0.9 if space.marked[idx] else -0.4
            assert out.amplitudes[idx] == pytest.approx(0.5 * -cmath.exp(1j * eta), abs=1e-15)


class TestApplyDiffusion:
    def test_uniform_state_is_fixed_point_of_original(self):
        space = make_search_space(3, {1})
        state = uniform_state(space)
        out = apply_diffusion(state, OriginalParams())
        assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-15

    def test_orthogonal_state_is_negated_by_original(self):
        space = make_search_space(2, {0})
        amps = np.array([1, -1, 0, 0], dtype=complex) / math.sqrt(2)
        out = apply_diffusion(StateVector(amps, space), OriginalParams())
        assert np.max(np.abs(out.amplitudes + amps)) < 1e-15

    def test_licm_with_equal_phases_is_global_factor(self):
        rng = np.random.default_rng(6)
        space = make_search_space(3, {2, 5})
        state = random_state(rng, space)
        out = apply_diffusion(state, LiCMParams(0.8, 0.8, 0.1, 0.2))
        assert np.max(np.abs(out.amplitudes - cmath.exp(0.8j) * state.amplitudes)) < 1e-14


class TestRunFull:
    def test_quarter_proportion_single_iteration_is_certain(self):
        space = make_search_space(2, {0})
        out = run_full(space, OriginalParams(), 1)
        assert target_probability(out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_iterations_is_uniform(self):
        space = make_search_space(3, {4})
        out = run_full(space, LongParams(1.1), 0)
        assert np.array_equal(out.amplitudes, uniform_state(space).amplitudes)

    @pytest.mark.parametrize("k", [0, 1, 3, 10])
    def test_full_target_space_always_succeeds(self, k):
        space = make_search_space(1, {0, 1})
        out = run_full(space, OriginalParams(), k)
        assert target_probability(out) == pytest.approx(1.0, abs=1e-12)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            run_full(make_search_space(1, {0}), OriginalParams(), -2)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_step_at_a_time_reference(self, data):
        # The one-buffer loop against k gather/scatter steps of the helpers.
        # Bit for bit, except where the reference scales a one-element
        # gather: numpy's length-1 loop rounds that complex product its own
        # way, by about two ulp per part of an amplitude of modulus <= 1.
        # The steps are unitary, so the gap grows at most linearly in k.
        n = data.draw(st.integers(1, 10), label="n")
        size = 2 ** n
        num_targets = data.draw(st.integers(1, size), label="M")
        seed = data.draw(st.integers(0, 2 ** 32 - 1), label="seed")
        targets = np.random.default_rng(seed).choice(size, size=num_targets, replace=False)
        space = make_search_space(n, targets)
        kind = data.draw(st.sampled_from(list(AlgorithmKind)), label="kind")
        phases = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=4, max_size=4), label="phases")
        params = params_from_phases(kind, phases)
        k = data.draw(st.integers(0, 25), label="k")
        reference = uniform_state(space)
        for _ in range(k):
            reference = apply_diffusion(apply_oracle(reference, params), params)
        amps = run_full(space, params, k).amplitudes
        one_element_gather = num_targets == 1 or (
            kind is AlgorithmKind.LI_CM and size - num_targets == 1)
        if one_element_gather:
            gap = np.max(np.abs(amps - reference.amplitudes))
            assert gap <= 3 * k * np.finfo(float).eps
        else:
            assert np.array_equal(amps, reference.amplitudes)

    @pytest.mark.parametrize("kind", [AlgorithmKind.LONG, AlgorithmKind.LI_CM])
    @pytest.mark.parametrize("num_targets", [1, 2 ** 16 // 3, 2 ** 16 - 1])
    def test_peak_memory_is_two_vectors(self, kind, num_targets):
        # The amplitude buffer and the oracle diagonal; no per-step copies.
        n, size = 16, 2 ** 16
        space = make_search_space(n, range(num_targets))
        params = random_params(np.random.default_rng(5), kind)
        tracemalloc.start()
        try:
            run_full(space, params, 25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * 16 * size

    def test_norm_preserved_through_hundred_iterations(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            space, params, _ = random_case(rng, 6)
            out = run_full(space, params, 100)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-9


class TestTargetProbability:
    def test_nan_amplitude_reads_nan(self):
        # The clamp into [0, 1] must not turn nan into 0.
        space = make_search_space(2, {1, 3})
        amps = uniform_state(space).amplitudes
        amps[3] = np.nan
        assert math.isnan(target_probability(StateVector(amps, space)))

    def test_uniform_single_target(self):
        assert target_probability(uniform_state(make_search_space(2, {1}))) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_uniform_two_of_eight(self):
        assert target_probability(uniform_state(make_search_space(3, {1, 2}))) == pytest.approx(
            0.25, abs=1e-15
        )


class TestProjectToSubspace:
    def test_uniform_state_projects_to_initial_pair(self):
        space = make_search_space(4, {3, 9, 10})
        s = initial_state(space.num_targets / space.size)
        state, residual = project_to_subspace(uniform_state(space))
        assert state[0] == pytest.approx(s[0], abs=1e-12)
        assert state[1] == pytest.approx(s[1], abs=1e-12)
        assert residual < 1e-12

    def test_pure_target_superposition(self):
        space = make_search_space(2, {1, 2})
        amps = np.zeros(4, dtype=complex)
        amps[[1, 2]] = 1 / math.sqrt(2)
        state, residual = project_to_subspace(StateVector(amps, space))
        assert state[0] == pytest.approx(1.0, abs=1e-15)
        assert state[1] == pytest.approx(0.0, abs=1e-15)
        assert residual < 1e-15

    def test_component_outside_span_shows_as_residual(self):
        space = make_search_space(2, {0})
        amps = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        state, residual = project_to_subspace(StateVector(amps, space))
        assert abs(state[0]) < 1e-15 and abs(state[1]) < 1e-15
        assert residual == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_full_target_space_has_no_beta_component(self, kind):
        # M = N: every amplitude is marked, so |beta> is absent and b = 0.
        space = make_search_space(3, range(8))
        assert not np.any(~space.marked)
        out = run_full(space, random_params(np.random.default_rng(11), kind), 4)
        state, residual = project_to_subspace(out)
        assert state[1] == 0
        assert residual < 1e-12
        assert target_probability(out) == pytest.approx(1.0, abs=1e-12)

    def test_runs_stay_in_the_subspace(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            space, params, k = random_case(rng, 5)
            _, residual = project_to_subspace(run_full(space, params, k))
            assert residual < 1e-10


class TestCrossEngineAgreement:
    def test_probabilities_match_across_engines(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            space, params, k = random_case(rng, n)
            full = run_full(space, params, k)
            s = initial_state(space.num_targets / space.size)
            sub = run(iteration_matrix(params, s), k, s)
            assert abs(target_probability(full) - success_probability(sub)) < 1e-10
            assert project_to_subspace(full)[1] < 1e-10

    def test_amplitudes_match_for_the_same_kind(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            space, params, k = random_case(rng, 6)
            projected, _ = project_to_subspace(run_full(space, params, k))
            s = initial_state(space.num_targets / space.size)
            direct = run(iteration_matrix(params, s), k, s)
            assert abs(projected[0] - direct[0]) < 1e-10
            assert abs(projected[1] - direct[1]) < 1e-10

    @pytest.mark.parametrize("to_kind", [AlgorithmKind.LI_CM, AlgorithmKind.LI_PC])
    def test_variant_amplitudes_differ_by_the_predicted_phase_per_step(self, to_kind):
        # statevector run of a matched variant vs subspace run of long:
        # after k steps the states differ by e^{-i k chi}.
        space = make_search_space(5, {4, 17, 23})
        s = initial_state(space.num_targets / space.size)
        params_long = LongParams(1.3)
        mapped = transform_phases(params_long, to_kind)
        if to_kind is AlgorithmKind.LI_CM:
            mapped = LiCMParams(mapped.gamma1 + 0.6, 0.6, mapped.eta1 - 0.2, -0.2)
        chi = predicted_global_phase(params_long, mapped)
        it_long = iteration_matrix(params_long, s)
        for k in range(0, 11):
            projected, residual = project_to_subspace(run_full(space, mapped, k))
            assert residual < 1e-10
            reference = run(it_long, k, s)
            factor = cmath.exp(-1j * k * chi)
            assert abs(projected[0] - factor * reference[0]) < 1e-10
            assert abs(projected[1] - factor * reference[1]) < 1e-10
