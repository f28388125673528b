"""Tests for the full N-dimensional engine and its agreement with the 2D engine."""
import ast
import cmath
import math
import tracemalloc
from pathlib import Path

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
from groverlab.statevector import project_to_subspace, run_full, target_probability
from groverlab.subspace import initial_state, run, success_probability

from helpers import apply_diffusion, apply_oracle, random_kind, random_params


def random_state(rng, space):
    raw = rng.normal(size=space.size) + 1j * rng.normal(size=space.size)
    return raw / np.linalg.norm(raw)


def uniform(space):
    """The uniform state that run_full starts from."""
    return run_full(space, OriginalParams(), 0)


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


# numpy functions that run on BLAS; np.linalg does too.
BLAS_FUNCTIONS = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum"}


def blas_uses(source):
    """(line, name) of each BLAS call, np.linalg use or @ product in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_FUNCTIONS | {"linalg"}:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in BLAS_FUNCTIONS:
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            found += [(node.lineno, name) for name in names
                      if "linalg" in name.split(".") or name in BLAS_FUNCTIONS]
    return found


def test_the_package_makes_no_blas_call():
    # An unpinned OpenBLAS spreads each call over every core and burns CPU
    # time for no wall time; neither engine needs it.
    package = Path(groverlab.__file__).parent
    found = {path.name: blas_uses(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}
    # The scan sees each form it forbids, one to a line.
    forms = ["import numpy.linalg", "from numpy import dot", "n = np.linalg.norm(v)", "w = a @ b",
             "w @= b", "x = np.einsum('i,i', a, b)", "y = v.vdot(w)", "z = inner(a, b)"]
    lines = {line for line, _ in blas_uses("\n".join(forms))}
    assert lines == set(range(1, len(forms) + 1))


class TestUniformState:
    @pytest.mark.parametrize("n,expected", [(1, math.sqrt(0.5)), (2, 0.5), (3, 0.5 / math.sqrt(2))])
    def test_amplitudes(self, n, expected):
        state = uniform(make_search_space(n, {0}))
        assert state.shape == (2 ** n,)
        assert np.allclose(state, expected, atol=1e-15)


class TestApplyOracle:
    def test_original_negates_target(self):
        space = make_search_space(2, {3})
        out = apply_oracle(space, uniform(space), OriginalParams())
        assert np.allclose(out, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_long_at_pi_matches_original(self):
        rng = np.random.default_rng(3)
        space = make_search_space(4, {2, 7, 11})
        state = random_state(rng, space)
        via_long = apply_oracle(space, state, LongParams(math.pi))
        via_original = apply_oracle(space, state, OriginalParams())
        assert np.max(np.abs(via_long - via_original)) < 1e-15

    def test_lipc_at_zero_is_identity(self):
        rng = np.random.default_rng(4)
        space = make_search_space(3, {0, 6})
        state = random_state(rng, space)
        out = apply_oracle(space, state, LiPCParams(0.0))
        assert np.array_equal(out, state)

    @pytest.mark.parametrize("targets", [{1}, [3, 0, 3], range(4)])
    def test_licm_scales_both_sectors(self, targets):
        space = make_search_space(2, targets)
        out = apply_oracle(space, uniform(space), LiCMParams(0, 0, 0.9, -0.4))
        for idx in range(4):
            eta = 0.9 if space.marked[idx] else -0.4
            assert out[idx] == pytest.approx(0.5 * -cmath.exp(1j * eta), abs=1e-15)


class TestApplyDiffusion:
    def test_uniform_state_is_fixed_point_of_original(self):
        space = make_search_space(3, {1})
        state = uniform(space)
        out = apply_diffusion(space, state, OriginalParams())
        assert np.max(np.abs(out - state)) < 1e-15

    def test_orthogonal_state_is_negated_by_original(self):
        space = make_search_space(2, {0})
        amps = np.array([1, -1, 0, 0], dtype=complex) / math.sqrt(2)
        out = apply_diffusion(space, amps, OriginalParams())
        assert np.max(np.abs(out + amps)) < 1e-15

    def test_licm_with_equal_phases_is_global_factor(self):
        rng = np.random.default_rng(6)
        space = make_search_space(3, {2, 5})
        state = random_state(rng, space)
        out = apply_diffusion(space, state, LiCMParams(0.8, 0.8, 0.1, 0.2))
        assert np.max(np.abs(out - cmath.exp(0.8j) * state)) < 1e-14


class TestRunFull:
    def test_quarter_proportion_single_iteration_is_certain(self):
        space = make_search_space(2, {0})
        out = run_full(space, OriginalParams(), 1)
        assert isinstance(out, np.ndarray) and out.shape == (space.size,)
        assert target_probability(space, out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_iterations_is_uniform(self):
        space = make_search_space(3, {4})
        out = run_full(space, LongParams(1.1), 0)
        assert np.array_equal(out, np.full(8, 1 / math.sqrt(8), dtype=complex))

    @pytest.mark.parametrize("k", [0, 1, 3, 10])
    def test_full_target_space_always_succeeds(self, k):
        space = make_search_space(1, {0, 1})
        out = run_full(space, OriginalParams(), k)
        assert target_probability(space, out) == pytest.approx(1.0, abs=1e-12)

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
        reference = uniform(space)
        for _ in range(k):
            reference = apply_diffusion(space, apply_oracle(space, reference, params), params)
        amps = run_full(space, params, k)
        one_element_gather = num_targets == 1 or (
            kind is AlgorithmKind.LI_CM and size - num_targets == 1)
        if one_element_gather:
            gap = np.max(np.abs(amps - reference))
            assert gap <= 3 * k * np.finfo(float).eps
        else:
            assert np.array_equal(amps, reference)

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
            assert abs(np.linalg.norm(out) - 1.0) < 1e-9


class TestTargetProbability:
    def test_nan_amplitude_reads_nan(self):
        # The clamp into [0, 1] must not turn nan into 0.
        space = make_search_space(2, {1, 3})
        amps = uniform(space)
        amps[3] = np.nan
        assert math.isnan(target_probability(space, amps))

    def test_uniform_single_target(self):
        space = make_search_space(2, {1})
        assert target_probability(space, uniform(space)) == pytest.approx(0.25, abs=1e-15)

    def test_uniform_two_of_eight(self):
        space = make_search_space(3, {1, 2})
        assert target_probability(space, uniform(space)) == pytest.approx(0.25, abs=1e-15)


class TestProjectToSubspace:
    def test_uniform_state_projects_to_initial_pair(self):
        space = make_search_space(4, {3, 9, 10})
        s = initial_state(space.num_targets / space.size)
        state, residual = project_to_subspace(space, uniform(space))
        assert state[0] == pytest.approx(s[0], abs=1e-12)
        assert state[1] == pytest.approx(s[1], abs=1e-12)
        assert residual < 1e-12

    def test_pure_target_superposition(self):
        space = make_search_space(2, {1, 2})
        amps = np.zeros(4, dtype=complex)
        amps[[1, 2]] = 1 / math.sqrt(2)
        state, residual = project_to_subspace(space, amps)
        assert state[0] == pytest.approx(1.0, abs=1e-15)
        assert state[1] == pytest.approx(0.0, abs=1e-15)
        assert residual < 1e-15

    def test_component_outside_span_shows_as_residual(self):
        space = make_search_space(2, {0})
        amps = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        state, residual = project_to_subspace(space, amps)
        assert abs(state[0]) < 1e-15 and abs(state[1]) < 1e-15
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_residual_equals_the_reference_norm(self):
        # Outside the span lies each amplitude minus its group's mean.  The
        # reference sums in another order; N * 2**-52 bounds either order's error.
        rng = np.random.default_rng(13)
        for n, targets in ((3, {0, 5}), (10, range(0, 1024, 3)), (4, range(16))):
            space = make_search_space(n, targets)
            amps = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
            _, residual = project_to_subspace(space, amps.copy())
            groups = [amps[mask] for mask in (space.marked, ~space.marked) if mask.any()]
            reference = math.hypot(*(np.linalg.norm(g - g.mean()) for g in groups))
            assert residual == pytest.approx(reference, rel=space.size * 2.0 ** -52)

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_full_target_space_has_no_beta_component(self, kind):
        # M = N: every amplitude is marked, so |beta> is absent and b = 0.
        space = make_search_space(3, range(8))
        assert not np.any(~space.marked)
        out = run_full(space, random_params(np.random.default_rng(11), kind), 4)
        state, residual = project_to_subspace(space, out)
        assert state[1] == 0
        assert residual < 1e-12
        assert target_probability(space, out) == pytest.approx(1.0, abs=1e-12)

    def test_runs_stay_in_the_subspace(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            space, params, k = random_case(rng, 5)
            _, residual = project_to_subspace(space, run_full(space, params, k))
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
            assert abs(target_probability(space, full) - success_probability(sub)) < 1e-10
            assert project_to_subspace(space, full)[1] < 1e-10

    def test_amplitudes_match_for_the_same_kind(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            space, params, k = random_case(rng, 6)
            projected, _ = project_to_subspace(space, run_full(space, params, k))
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
            projected, residual = project_to_subspace(space, run_full(space, mapped, k))
            assert residual < 1e-10
            reference = run(it_long, k, s)
            factor = cmath.exp(-1j * k * chi)
            assert abs(projected[0] - factor * reference[0]) < 1e-10
            assert abs(projected[1] - factor * reference[1]) < 1e-10
