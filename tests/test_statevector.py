"""Tests for the full N-dimensional engine and its agreement with the 2D engine."""
import ast
import cmath
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverlab.equivalence import transform_phases
from groverlab.model import (
    AlgorithmKind,
    LiCMParams,
    LiPCParams,
    LongParams,
    OriginalParams,
    make_search_space,
    params_from_phases,
)
import groverlab.statevector
from groverlab.statevector import _CHUNK, _coefficients, _select, measure, run_full
from groverlab.subspace import initial_state, success_probability

from helpers import (apply_diffusion, apply_oracle, iteration_matrix, predicted_global_phase,
                     random_kind, random_params, run_matrix)


def random_state(rng, marked):
    raw = rng.normal(size=marked.size) + 1j * rng.normal(size=marked.size)
    return raw / np.linalg.norm(raw)


def uniform(marked):
    """The uniform state that run_full starts from."""
    return run_full(marked, OriginalParams(), 0)


def random_case(rng, n):
    size = 2 ** n
    num_targets = int(rng.integers(1, size + 1))
    targets = rng.choice(size, size=num_targets, replace=False)
    params = random_params(rng, random_kind(rng))
    return make_search_space(n, targets), params, int(rng.integers(0, 26))


def test_engine_imports_nothing_of_the_package_but_the_model():
    # crosscheck means something only while this engine builds its own
    # coefficients: no table from subspace or equivalence may reach it.
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


def mask_calls(source):
    """(line, form) of each np.where call and each subscript by marked or ~marked in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
            if getattr(node.func, "attr", getattr(node.func, "id", None)) == "where":
                found.append((node.lineno, "where"))
        elif isinstance(node, ast.Subscript):
            index = node.slice.operand if isinstance(node.slice, ast.UnaryOp) else node.slice
            if isinstance(index, ast.Name) and index.id == "marked":
                found.append((node.lineno, "subscript"))
    return found


def test_the_engine_takes_no_branchy_mask_path():
    # np.where and a boolean subscript branch on every entry of the mask; the
    # engine gathers through an index and selects by table lookup instead.
    with open(groverlab.statevector.__file__, encoding="utf-8") as fh:
        assert mask_calls(fh.read()) == []
    forms = ["d = np.where(marked, t, r)", "g = amps[marked]", "h = amps[~marked]",
             "x = where(marked, 1, 0)", "amps[marked] = 0"]
    assert {line for line, _ in mask_calls("\n".join(forms))} == set(range(1, len(forms) + 1))
    # A slice of the mask is no boolean subscript.
    assert mask_calls("piece = marked[i:i + 4]\nq = marked[3]") == []


MEASUREMENTS = {
    "run_full": lambda marked: run_full(marked, OriginalParams(), 1),
    "measure": lambda marked: measure(marked, np.full(4, 0.5 + 0j)),
}
NOT_MASKS = {
    "index array": np.array([0, 3]),
    "float mask": np.array([0.0, 1.0, 0.0, 1.0]),
    "2-D mask": np.array([[False, True], [False, True]]),
    "bool list": [False, True, False, True],
    "all-False mask": np.zeros(4, dtype=bool),
}


@pytest.mark.parametrize("bad", NOT_MASKS.values(), ids=NOT_MASKS)
@pytest.mark.parametrize("function", MEASUREMENTS)
def test_each_function_takes_only_a_bool_mask_with_a_target(function, bad):
    # An index array would otherwise run or measure a database of its length.
    with pytest.raises((TypeError, ValueError), match="^marked must "):
        MEASUREMENTS[function](bad)


class TestUniformState:
    @pytest.mark.parametrize("n,expected", [(1, math.sqrt(0.5)), (2, 0.5), (3, 0.5 / math.sqrt(2))])
    def test_amplitudes(self, n, expected):
        state = uniform(make_search_space(n, {0}))
        assert state.shape == (2 ** n,)
        assert np.allclose(state, expected, atol=1e-15)


class TestApplyOracle:
    def test_original_negates_target(self):
        marked = make_search_space(2, {3})
        out = apply_oracle(marked, uniform(marked), OriginalParams())
        assert np.allclose(out, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_long_at_pi_matches_original(self):
        rng = np.random.default_rng(3)
        marked = make_search_space(4, {2, 7, 11})
        state = random_state(rng, marked)
        via_long = apply_oracle(marked, state, LongParams(math.pi))
        via_original = apply_oracle(marked, state, OriginalParams())
        assert np.max(np.abs(via_long - via_original)) < 1e-15

    def test_lipc_at_zero_is_identity(self):
        rng = np.random.default_rng(4)
        marked = make_search_space(3, {0, 6})
        state = random_state(rng, marked)
        out = apply_oracle(marked, state, LiPCParams(0.0))
        assert np.array_equal(out, state)

    @pytest.mark.parametrize("targets", [{1}, [3, 0, 3], range(4)])
    def test_licm_scales_both_sectors(self, targets):
        marked = make_search_space(2, targets)
        out = apply_oracle(marked, uniform(marked), LiCMParams(0, 0, 0.9, -0.4))
        for idx in range(4):
            eta = 0.9 if marked[idx] else -0.4
            assert out[idx] == pytest.approx(0.5 * -cmath.exp(1j * eta), abs=1e-15)


class TestApplyDiffusion:
    def test_uniform_state_is_fixed_point_of_original(self):
        marked = make_search_space(3, {1})
        state = uniform(marked)
        out = apply_diffusion(marked, state, OriginalParams())
        assert np.max(np.abs(out - state)) < 1e-15

    def test_orthogonal_state_is_negated_by_original(self):
        marked = make_search_space(2, {0})
        amps = np.array([1, -1, 0, 0], dtype=complex) / math.sqrt(2)
        out = apply_diffusion(marked, amps, OriginalParams())
        assert np.max(np.abs(out + amps)) < 1e-15

    def test_licm_with_equal_phases_is_global_factor(self):
        rng = np.random.default_rng(6)
        marked = make_search_space(3, {2, 5})
        state = random_state(rng, marked)
        out = apply_diffusion(marked, state, LiCMParams(0.8, 0.8, 0.1, 0.2))
        assert np.max(np.abs(out - cmath.exp(0.8j) * state)) < 1e-14


class TestRunFull:
    def test_quarter_proportion_single_iteration_is_certain(self):
        marked = make_search_space(2, {0})
        out = run_full(marked, OriginalParams(), 1)
        assert isinstance(out, np.ndarray) and out.shape == (marked.size,)
        assert measure(marked, out)[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_iterations_is_uniform(self):
        marked = make_search_space(3, {4})
        out = run_full(marked, LongParams(1.1), 0)
        assert np.array_equal(out, np.full(8, 1 / math.sqrt(8), dtype=complex))

    @pytest.mark.parametrize("k", [0, 1, 3, 10])
    def test_full_target_space_always_succeeds(self, k):
        marked = make_search_space(1, {0, 1})
        out = run_full(marked, OriginalParams(), k)
        assert measure(marked, out)[0] == pytest.approx(1.0, abs=1e-12)

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
        marked = make_search_space(n, targets)
        kind = data.draw(st.sampled_from(list(AlgorithmKind)), label="kind")
        phases = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                    min_size=4, max_size=4), label="phases")
        params = params_from_phases(kind, phases)
        k = data.draw(st.integers(0, 25), label="k")
        reference = uniform(marked)
        for _ in range(k):
            reference = apply_diffusion(marked, apply_oracle(marked, reference, params), params)
        amps = run_full(marked, params, k)
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
        # The amplitude buffer and the oracle diagonal; no per-step copies.  The
        # targets are scattered, so a select that branched or kept an index would show.
        n, size = 16, 2 ** 16
        targets = np.random.default_rng(num_targets).choice(size, num_targets, replace=False)
        marked = make_search_space(n, targets)
        params = random_params(np.random.default_rng(5), kind)

        def peak(out):
            tracemalloc.start()
            try:
                run_full(marked, params, 25, out=out)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(None) <= 2.1 * 16 * size
        # Into a caller's buffer: the diagonal beside one chunk's 8-byte index
        # (a whole index would add 8N).  The 4 KiB are small objects: about 830 B.
        assert peak(np.empty(size, complex)) <= 16 * size + 8 * _CHUNK + 4096

    @pytest.mark.parametrize("n", [3, 15])
    def test_out_receives_the_bits_of_a_new_array(self, n):
        # The buffer starts as nan, so an entry left unwritten would show; n = 15 spans two chunks.
        rng = np.random.default_rng(n)
        out = np.full(2 ** n, np.nan, complex)
        for _ in range(3):
            marked, params, k = random_case(rng, n)
            assert run_full(marked, params, k, out=out) is out
            assert np.array_equal(out, run_full(marked, params, k))

    @pytest.mark.parametrize("out", [
        np.empty(8, np.complex64), np.empty(8), np.empty(7, complex), np.empty(9, complex),
        np.empty((2, 4), complex), np.empty(16, complex)[::2], [0j] * 8,
    ], ids=["complex64", "float", "short", "long", "2-D", "strided", "list"])
    def test_out_must_be_a_contiguous_complex_vector_of_length_n(self, out):
        with pytest.raises(TypeError, match=r"^out must be a 1-D C-contiguous complex128 array "
                                            r"of length 8$"):
            run_full(make_search_space(3, [1]), OriginalParams(), 1, out=out)

    def test_norm_preserved_through_hundred_iterations(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            marked, params, _ = random_case(rng, 6)
            out = run_full(marked, params, 100)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-9


def branchy_measure(marked, amplitudes):
    """measure by the boolean-subscript and np.where expressions it replaced, for bit comparison."""
    num_targets, size = np.count_nonzero(marked), marked.size
    p = float(np.clip(float(np.sum(np.abs(amplitudes[marked]) ** 2)), 0.0, 1.0))
    a = complex(amplitudes[marked].sum() / math.sqrt(num_targets))
    if num_targets < size:
        b = complex(amplitudes[~marked].sum() / math.sqrt(size - num_targets))
        b_entry = b / math.sqrt(size - num_targets)
    else:
        b = b_entry = 0j
    residual = amplitudes - np.where(marked, a / math.sqrt(num_targets), b_entry)
    return p, np.array([a, b]), math.sqrt(np.square(residual.view(float)).sum())


class TestMeasure:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_branchy_expressions_bit_for_bit(self, data):
        # Scattered targets, and sometimes a strided view of a mask or state.
        # A small chunk puts boundaries of the gathers, the |on| pieces and the
        # selects inside the mask from n = 2 on; Hypothesis rejects monkeypatch.
        chunk = data.draw(st.sampled_from([2, 8, 64, _CHUNK]), label="chunk")
        with mock.patch.object(groverlab.statevector, "_CHUNK", chunk):
            self._check_against_branchy_measure(data)

    def _check_against_branchy_measure(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        size = 2 ** n
        num_targets = data.draw(st.sampled_from([1, 2, size // 2, size - 1, size]), label="M")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        targets = rng.choice(size, size=num_targets, replace=False)
        marked = make_search_space(n, targets)
        params = random_params(rng, data.draw(st.sampled_from(list(AlgorithmKind)), label="kind"))
        amplitudes = run_full(marked, params, data.draw(st.integers(0, 25), label="k"))
        if data.draw(st.booleans(), label="strided"):
            marked = np.repeat(marked, 2)[::2]
            amplitudes = np.repeat(amplitudes, 2)[1::2]
            assert not marked.flags.contiguous and not amplitudes.flags.contiguous
        p, pair, residual = measure(marked, amplitudes)
        p_ref, pair_ref, residual_ref = branchy_measure(marked, amplitudes)
        assert p == p_ref and residual == residual_ref
        assert np.array_equal(pair, pair_ref)
        # run_full's oracle diagonal: the select of np.where, rest eigenvalue not 1 for licm.
        target, rest, _, _ = _coefficients(params)
        diagonal = _select(marked, complex(rest), complex(target))
        assert np.array_equal(diagonal, np.where(marked, complex(target), complex(rest)))

    @pytest.mark.parametrize("amplitudes", [
        np.full(3, 0.5 + 0j), np.full(5, 0.5 + 0j), np.full(4, 0.5), np.full(4, 0.5, np.complex64),
        np.full((4, 1), 0.5 + 0j), [0.5 + 0j] * 4,
    ], ids=["short", "long", "float", "complex64", "column", "list"])
    def test_amplitudes_must_be_a_complex_vector_of_the_mask_length(self, amplitudes):
        # Else numpy fails on broadcasting, casting or a list's missing take, and a
        # short array's gather first reads clipped indices.
        with pytest.raises(TypeError, match=r"^amplitudes must be a 1-D complex128 array "
                                            r"of length 4$"):
            measure(make_search_space(2, [1]), amplitudes)

    def test_a_mask_byte_other_than_one_reads_as_a_target(self):
        # A bool array may hold any nonzero byte; a bare take by the bytes would
        # raise IndexError on 2, where np.where and a subscript read True.
        marked = np.array([0, 2, 0, 1], np.uint8).view(bool)
        clean = np.array([False, True, False, True])
        amplitudes = random_state(np.random.default_rng(21), clean)
        p, pair, residual = measure(marked, amplitudes)
        p_ref, pair_ref, residual_ref = branchy_measure(clean, amplitudes)
        assert p == p_ref and residual == residual_ref and np.array_equal(pair, pair_ref)
        assert np.array_equal(_select(marked, 1j, 2.0 + 0j), [1j, 2, 1j, 2])
        params = LiCMParams(0.3, -0.2, 0.9, -0.4)
        assert np.array_equal(run_full(marked, params, 3), run_full(clean, params, 3))

    @pytest.mark.parametrize("n", [12, 16])
    @pytest.mark.parametrize("count", [lambda size: 1, lambda size: size // 3,
                                       lambda size: size - 1, lambda size: size],
                             ids=["1", "N/3", "N-1", "N"])
    def test_peak_memory_above_the_state(self, n, count):
        # Each side's gather, then the residual, holds at most 16 bytes an entry,
        # beside one chunk's index (8 bytes an entry) and mask (1); |on| is
        # written over the target gather.  The 4 KiB are small objects.
        size = 2 ** n
        num_targets = count(size)
        targets = np.random.default_rng(num_targets).choice(size, num_targets, replace=False)
        marked = make_search_space(n, targets)
        amplitudes = random_state(np.random.default_rng(2), marked)
        tracemalloc.start()
        try:
            measure(marked, amplitudes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * size + 9 * min(size, _CHUNK) + 4096

    def test_nan_amplitude_reads_nan(self):
        # The clamp into [0, 1] must not turn nan into 0.
        marked = make_search_space(2, {1, 3})
        amps = uniform(marked)
        amps[3] = np.nan
        assert math.isnan(measure(marked, amps)[0])

    def test_uniform_single_target(self):
        marked = make_search_space(2, {1})
        assert measure(marked, uniform(marked))[0] == pytest.approx(0.25, abs=1e-15)

    def test_uniform_two_of_eight(self):
        marked = make_search_space(3, {1, 2})
        assert measure(marked, uniform(marked))[0] == pytest.approx(0.25, abs=1e-15)

    def test_uniform_state_projects_to_initial_pair(self):
        marked = make_search_space(4, {3, 9, 10})
        s = initial_state(np.count_nonzero(marked) / marked.size)
        _, state, residual = measure(marked, uniform(marked))
        assert state[0] == pytest.approx(s[0], abs=1e-12)
        assert state[1] == pytest.approx(s[1], abs=1e-12)
        assert residual < 1e-12

    def test_pure_target_superposition(self):
        marked = make_search_space(2, {1, 2})
        amps = np.zeros(4, dtype=complex)
        amps[[1, 2]] = 1 / math.sqrt(2)
        _, state, residual = measure(marked, amps)
        assert state[0] == pytest.approx(1.0, abs=1e-15)
        assert state[1] == pytest.approx(0.0, abs=1e-15)
        assert residual < 1e-15

    def test_component_outside_span_shows_as_residual(self):
        marked = make_search_space(2, {0})
        amps = np.array([0, 1, -1, 0], dtype=complex) / math.sqrt(2)
        _, state, residual = measure(marked, amps)
        assert abs(state[0]) < 1e-15 and abs(state[1]) < 1e-15
        assert residual == pytest.approx(1.0, abs=1e-12)

    def test_residual_equals_the_reference_norm(self):
        # Outside the span lies each amplitude minus its group's mean.  The
        # reference sums in another order; N * 2**-52 bounds either order's error.
        rng = np.random.default_rng(13)
        for n, targets in ((3, {0, 5}), (10, range(0, 1024, 3)), (4, range(16))):
            marked = make_search_space(n, targets)
            amps = rng.standard_normal(marked.size) + 1j * rng.standard_normal(marked.size)
            _, _, residual = measure(marked, amps.copy())
            groups = [amps[mask] for mask in (marked, ~marked) if mask.any()]
            reference = math.hypot(*(np.linalg.norm(g - g.mean()) for g in groups))
            assert residual == pytest.approx(reference, rel=marked.size * 2.0 ** -52)

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_full_target_space_has_no_beta_component(self, kind):
        # M = N: every amplitude is marked, so |beta> is absent and b = 0.
        marked = make_search_space(3, range(8))
        assert not np.any(~marked)
        out = run_full(marked, random_params(np.random.default_rng(11), kind), 4)
        p, state, residual = measure(marked, out)
        assert state[1] == 0
        assert residual < 1e-12
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_runs_stay_in_the_subspace(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            marked, params, k = random_case(rng, 5)
            assert measure(marked, run_full(marked, params, k))[2] < 1e-10


class TestCrossEngineAgreement:
    def test_probabilities_match_across_engines(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            marked, params, k = random_case(rng, n)
            full = run_full(marked, params, k)
            s = initial_state(np.count_nonzero(marked) / marked.size)
            sub = run_matrix(iteration_matrix(params, s), k, s)
            p, _, residual = measure(marked, full)
            assert abs(p - success_probability(sub)) < 1e-10
            assert residual < 1e-10

    def test_amplitudes_match_for_the_same_kind(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            marked, params, k = random_case(rng, 6)
            _, projected, _ = measure(marked, run_full(marked, params, k))
            s = initial_state(np.count_nonzero(marked) / marked.size)
            direct = run_matrix(iteration_matrix(params, s), k, s)
            assert abs(projected[0] - direct[0]) < 1e-10
            assert abs(projected[1] - direct[1]) < 1e-10

    @pytest.mark.parametrize("to_kind", [AlgorithmKind.LI_CM, AlgorithmKind.LI_PC])
    def test_variant_amplitudes_differ_by_the_predicted_phase_per_step(self, to_kind):
        # statevector run of a matched variant vs subspace run of long:
        # after k steps the states differ by e^{-i k chi}.
        marked = make_search_space(5, {4, 17, 23})
        s = initial_state(np.count_nonzero(marked) / marked.size)
        params_long = LongParams(1.3)
        mapped = transform_phases(params_long, to_kind)
        if to_kind is AlgorithmKind.LI_CM:
            mapped = LiCMParams(mapped.gamma1 + 0.6, 0.6, mapped.eta1 - 0.2, -0.2)
        chi = predicted_global_phase(params_long, mapped)
        it_long = iteration_matrix(params_long, s)
        for k in range(0, 11):
            _, projected, residual = measure(marked, run_full(marked, mapped, k))
            assert residual < 1e-10
            reference = run_matrix(it_long, k, s)
            factor = cmath.exp(-1j * k * chi)
            assert abs(projected[0] - factor * reference[0]) < 1e-10
            assert abs(projected[1] - factor * reference[1]) < 1e-10
