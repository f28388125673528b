"""Tests for the operator coefficient table and composed iterations."""
import cmath
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverlab.equivalence import transform_phases
from groverlab.model import (
    AlgorithmKind,
    LiCMParams,
    LiDFParams,
    LiPCParams,
    LongParams,
    OriginalParams,
    params_from_phases,
)
from groverlab.subspace import (
    UNITARITY_TOL,
    check_unitary,
    initial_state,
    iteration_planes,
    operator_coefficients,
)

from helpers import (KINDS, cmath_row, global_phase_align_reference, is_unitary, iteration_matrix,
                     long_iteration_closed_form, random_kind, random_params, unmatched_params)


def oracle(params):
    target, rest, _, _ = operator_coefficients(params)
    return np.diag([target, rest])


def diffusion(params, s):
    """c * |s><s| + d * I: the iteration's entries with the oracle set to the identity."""
    _, _, c, d = operator_coefficients(params)
    return np.reshape(iteration_planes((1.0, 1.0, c, d), s), (2, 2))


class TestOracleCoefficients:
    def test_original(self):
        assert np.array_equal(
            oracle(OriginalParams()), np.array([[-1, 0], [0, 1]])
        )

    def test_long_at_pi_reduces_to_original(self):
        assert np.allclose(oracle(LongParams(math.pi)), np.diag([-1, 1]),
                           atol=1e-12)

    def test_lidf_at_zero_reduces_to_original(self):
        assert np.allclose(oracle(LiDFParams(0.0)), np.diag([-1, 1]),
                           atol=1e-15)

    def test_lipc_at_zero_degenerates_to_identity(self):
        assert np.allclose(oracle(LiPCParams(0.0)), np.eye(2), atol=1e-15)

    def test_licm_phases_land_on_both_eigenvalues(self):
        target, rest, _, _ = operator_coefficients(LiCMParams(0, 0, 0.9, -0.4))
        assert target == pytest.approx(-cmath.exp(0.9j), abs=1e-15)
        assert rest == pytest.approx(-cmath.exp(-0.4j), abs=1e-15)


def bits(entries):
    """The table entries as bytes, so that a comparison also sees the sign of a zero."""
    return [np.asarray(x, dtype=complex).tobytes() for x in entries]


# The quarter turns, and phases up to +-1e9 whose reduction mod 2*pi is inexact.
TABLE_PHASES = np.concatenate([
    [0.0, -0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi, -math.pi / 2, -math.pi],
    np.random.default_rng(12).uniform(-7.0, 7.0, 200),
    np.random.default_rng(13).uniform(-1e9, 1e9, 200), [1e9, -1e9, 5e-324],
])


class TestArrayTable:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("matched", [False, True])
    def test_one_array_call_equals_the_per_phase_calls_bit_for_bit(self, kind, matched):
        matched = matched and kind is not AlgorithmKind.ORIGINAL
        if matched:
            array_params = transform_phases(LongParams(TABLE_PHASES), kind)
            scalar_params = [transform_phases(LongParams(p), kind) for p in TABLE_PHASES.tolist()]
        else:
            pin = 0.0 if kind is AlgorithmKind.LI_CM else TABLE_PHASES
            array_params = params_from_phases(kind, (TABLE_PHASES, pin, TABLE_PHASES, pin))
            scalar_params = [unmatched_params(kind, p) for p in TABLE_PHASES.tolist()]
        table = operator_coefficients(array_params)
        rows = [operator_coefficients(p) for p in scalar_params]
        for entry, column in zip(table, zip(*rows)):
            assert np.ndim(entry) == 0 or entry.shape == TABLE_PHASES.shape
            assert bits(np.broadcast_to(entry, TABLE_PHASES.shape)) == bits(column)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_row_is_four_complex_arrays_of_the_phases_shape(self, kind):
        column, row = TABLE_PHASES[:3, None], TABLE_PHASES[3:7]
        for phases in [(0.3, -1.1, 2.0, 0.5), (column, row, column, row), (column, 0.5, row, 1.0)]:
            params = params_from_phases(kind, phases)
            shape = np.broadcast_shapes(*[np.shape(phase) for phase in astuple(params)])
            table = operator_coefficients(params)
            assert len(table) == 4
            for entry in table:
                assert type(entry) is np.ndarray and entry.dtype == complex
                assert entry.shape == shape

    @pytest.mark.parametrize("kind", KINDS)
    def test_scalar_rows_equal_the_cmath_expressions(self, kind):
        for phases in zip(*[np.roll(TABLE_PHASES, shift).tolist() for shift in range(4)]):
            params = params_from_phases(kind, phases)
            assert bits(operator_coefficients(params)) == bits(cmath_row(params))

    def test_a_non_finite_or_complex_phase_is_rejected(self):
        with pytest.raises(ValueError, match="beta must be a finite angle"):
            LiPCParams(np.array([0.0, math.nan]))
        for phi in (1j, np.array([0.5, 1j])):
            with pytest.raises(ValueError, match="phi must be a finite angle"):
                LongParams(phi)
        with pytest.raises(ValueError, match="^lipc covers only the chain phi_o = phi_d"):
            transform_phases(LongParams(np.zeros(3), np.array([0.0, 1.0, 0.0])), AlgorithmKind.LI_PC)


class TestDiffusionCoefficients:
    def test_original_at_quarter_pi_is_swap(self):
        s = initial_state(0.5)
        assert np.allclose(diffusion(OriginalParams(), s),
                           np.array([[0, 1], [1, 0]]), atol=1e-12)

    def test_long_at_pi_reduces_to_original(self):
        s = initial_state(0.3)
        long_diff = diffusion(LongParams(math.pi), s)
        orig_diff = diffusion(OriginalParams(), s)
        assert np.allclose(long_diff, orig_diff, atol=1e-12)

    def test_licm_with_equal_phases_at_zero_is_identity(self):
        s = initial_state(0.3)
        assert np.allclose(diffusion(LiCMParams(0, 0, 0, 0), s),
                           np.eye(2), atol=1e-15)


# Relative errors put on the moduli of target, rest, d and c + d.
MODULUS_ERRORS = [0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6]


def off_modulus(kind, phases, errors):
    """A kind's table row with each of |target|, |rest|, |d|, |c + d| scaled by 1 + error."""
    target, rest, c, d = operator_coefficients(params_from_phases(kind, phases))
    e_target, e_rest, e_d, e_sum = errors
    d_off = d * (1.0 + e_d)
    return target * (1.0 + e_target), rest * (1.0 + e_rest), (c + d) * (1.0 + e_sum) - d_off, d_off


def reference_stack(coefficients, s):
    """diffusion @ oracle by explicit 2x2 matmuls, for the Gram check."""
    target, rest, c, d = coefficients
    diffusion = c[..., None, None] * (s[..., :, None] * s[..., None, :])
    diffusion += d[..., None, None] * np.eye(2)
    oracle = np.zeros(target.shape + (2, 2), dtype=complex)
    oracle[..., 0, 0], oracle[..., 1, 1] = target, rest
    return diffusion @ oracle


class TestIterationMatrices:
    def test_stack_equals_scalar_builds_exactly(self):
        rng = np.random.default_rng(11)
        for kind in AlgorithmKind:
            phases = rng.uniform(-2 * math.pi, 2 * math.pi, size=(4, 4))  # column j: cell j
            vectors = [initial_state(float(lam)) for lam in rng.uniform(1e-4, 1.0, size=3)]
            stack = iteration_matrix(params_from_phases(kind, phases), np.array(vectors)[:, None])
            # The phase-free original kind's stack broadcasts along the phase axis.
            assert stack.shape == (3, 1 if kind is AlgorithmKind.ORIGINAL else 4, 2, 2)
            stack = np.broadcast_to(stack, (3, 4, 2, 2))
            for i, s in enumerate(vectors):
                for j in range(4):
                    cell = iteration_matrix(params_from_phases(kind, phases[:, j]), s)
                    assert np.array_equal(stack[i, j], cell)

    def test_an_array_bundle_about_one_s(self):
        s = initial_state(0.3)
        stack = iteration_matrix(LongParams(np.array([0.1, 0.2])), s)
        assert stack.shape == (2, 2, 2)
        assert np.array_equal(stack[1], iteration_matrix(LongParams(0.2), s))

    def test_one_non_unitary_cell_fails_the_stack(self):
        rows = np.array([operator_coefficients(LiPCParams(b))
                         for b in (0.1, 0.2, 0.3)]).T
        rows[3, 1] = 0.0  # d = 0 leaves the middle diffusion rank one
        with pytest.raises(ValueError, match="lipc iteration matrix failed the unitarity"):
            check_unitary(AlgorithmKind.LI_PC, rows, np.tile([0.6, 0.8], (2, 1, 1)))

    def test_each_cell_is_held_to_its_own_bound(self):
        # Cell 0 errs in its oracle and cell 1 in its diffusion, each by 0.75
        # UNITARITY_TOL: each row passes alone, and so does the table.
        grow = math.sqrt(1.0 + 0.75 * UNITARITY_TOL)
        rows = np.array([operator_coefficients(LiPCParams(b)) for b in (0.1, 0.2)]).T
        rows[0, 0] *= grow
        rows[2:, 1] *= grow
        s = np.array([0.6, 0.8])
        for cell in range(2):
            check_unitary(AlgorithmKind.LI_PC, rows[:, cell], s)
        check_unitary(AlgorithmKind.LI_PC, rows, s)
        rows[0, 1] *= grow  # both errors in one cell fail it
        with pytest.raises(ValueError, match="lipc iteration matrix failed the unitarity"):
            check_unitary(AlgorithmKind.LI_PC, rows, s)

    def test_a_kind_per_cell_names_the_first_failing_cell(self):
        rows = np.array([operator_coefficients(LongParams(p)) for p in (0.1, 0.2, 0.3)]).T
        rows[3, 1:] = 0.0
        kinds = [AlgorithmKind.LONG, AlgorithmKind.LI_CM, AlgorithmKind.LI_PC]
        with pytest.raises(ValueError, match="licm iteration matrix failed the unitarity"):
            check_unitary(kinds, rows, np.array([0.6, 0.8]))

    def test_non_unitary_coefficients_name_the_kind(self):
        with pytest.raises(ValueError, match="lidf iteration matrix failed the unitarity"):
            check_unitary(AlgorithmKind.LI_DF, (1.0, 1.0, 1.0, 0.0), np.array([0.6, 0.8]))

    @pytest.mark.parametrize("s", [np.array([0.5, 0.5]), np.array([0.6, 0.8j]),
                                   np.array([0.6, 0.8 + 2e-10]), np.array([math.nan, 1.0]),
                                   np.array([[0.6, 0.8], [0.8, 0.5]])])
    def test_rejects_an_s_that_is_not_a_real_unit_vector(self, s):
        with pytest.raises(ValueError, match=r"s must be a real unit vector"):
            check_unitary(AlgorithmKind.LONG, operator_coefficients(LongParams(1.0)), s)
        with pytest.raises(ValueError, match=r"s must be a real unit vector"):
            iteration_matrix(LongParams(1.0), s)

    def test_accepts_a_real_unit_vector_not_from_initial_state(self):
        m = iteration_matrix(LongParams(1.0), np.array([0.6, 0.8]))
        assert is_unitary(m, UNITARITY_TOL)

    @given(
        kind=st.sampled_from(KINDS),
        rows=st.lists(st.tuples(st.tuples(*[st.floats(-1e3, 1e3)] * 4),
                                st.tuples(*[st.sampled_from(MODULUS_ERRORS)] * 4)),
                      min_size=1, max_size=3),
        sines=st.lists(st.one_of(st.just(1.0), st.floats(0.0, 1.0)), min_size=1, max_size=3),
    )
    @settings(max_examples=300, deadline=None)
    def test_table_check_rejects_every_stack_the_gram_check_rejects(self, kind, rows, sines):
        coefficients = np.array([off_modulus(kind, phases, errors)
                                 for phases, errors in rows]).T
        sin_theta = np.array(sines)[:, None]
        s = np.stack([sin_theta, np.sqrt(1.0 - sin_theta ** 2)], axis=-1)
        stack = reference_stack(coefficients, s)
        if not is_unitary(stack, UNITARITY_TOL):
            with pytest.raises(ValueError, match=f"{kind.value} iteration matrix failed the "
                                                 f"unitarity check at {UNITARITY_TOL}"):
                check_unitary(kind, coefficients, s)
        if all(errors == (0.0,) * 4 for _, errors in rows):  # the table itself passes
            check_unitary(kind, coefficients, s)
            built = np.stack(iteration_planes(coefficients, s), axis=-1)
            assert np.max(np.abs(built - stack.reshape(stack.shape[:-2] + (4,)))) < 1e-14


class TestIterationMatrix:
    def test_original_is_rotation_by_two_theta(self):
        m = iteration_matrix(OriginalParams(), initial_state(0.25))  # theta = pi/6
        c, s = math.cos(math.pi / 3), math.sin(math.pi / 3)
        assert np.allclose(m, np.array([[c, s], [-s, c]]), atol=1e-12)

    def test_long_at_pi_equals_original(self):
        s = initial_state(0.37)
        matched = iteration_matrix(LongParams(math.pi), s)
        original = iteration_matrix(OriginalParams(), s)
        assert np.max(np.abs(matched - original)) < 1e-12

    @pytest.mark.parametrize("offset", [0.37, -1.2, 2.0])
    def test_licm_is_scaled_copy_of_long(self, offset):
        s = initial_state(0.3)
        licm = iteration_matrix(
            LiCMParams(math.pi / 2 + offset, offset, math.pi / 2 + offset, offset), s
        )
        long_mat = iteration_matrix(LongParams(math.pi / 2), s)
        assert np.max(np.abs(licm - cmath.exp(2j * offset) * long_mat)) < 1e-12

    def test_closed_form_matches_product_at_matched_phases(self):
        for phi in np.linspace(0.0, 2 * math.pi, 50):
            for theta_frac in np.linspace(0.02, 1.0, 50):
                s = initial_state(theta_frac)
                built = iteration_matrix(LongParams(float(phi)), s)
                closed = long_iteration_closed_form(s, float(phi))
                assert np.max(np.abs(built - closed)) < 1e-12

    def test_closed_form_matches_product_with_two_phases(self):
        s = initial_state(0.09)  # theta = 0.3 to ~1e-3
        rng = np.random.default_rng(7)
        for phi, vphi in rng.uniform(-6, 6, size=(50, 2)):
            built = iteration_matrix(LongParams(phi, vphi), s)
            assert np.max(np.abs(built - long_iteration_closed_form(s, phi, vphi))) < 1e-12

    def test_closed_form_matrix_is_unitary(self):
        s = initial_state(math.sin(0.3) ** 2)  # theta = 0.3
        assert is_unitary(long_iteration_closed_form(s, 1.0, 1.0), 1e-12)

    def test_random_iterations_are_unitary_with_unit_determinant(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            kind = random_kind(rng)
            s = initial_state(float(rng.uniform(1e-4, 1.0)))
            m = iteration_matrix(random_params(rng, kind), s)
            assert is_unitary(m, 1e-10)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert abs(abs(det) - 1.0) < 1e-10


class TestOriginalIsASliceOfEveryVariant:
    @pytest.mark.parametrize("lam", [0.08, 0.25, 0.5, 0.9])
    def test_long_and_lidf_slices_match_entrywise(self, lam):
        s = initial_state(lam)
        original = iteration_matrix(OriginalParams(), s)
        long_slice = iteration_matrix(LongParams(math.pi), s)
        lidf_slice = iteration_matrix(LiDFParams(0.0), s)
        assert np.max(np.abs(long_slice - original)) < 1e-12
        assert np.max(np.abs(lidf_slice - original)) < 1e-12

    @pytest.mark.parametrize("lam", [0.08, 0.25, 0.5, 0.9])
    def test_licm_slice_matches_up_to_global_phase(self, lam):
        s = initial_state(lam)
        original = iteration_matrix(OriginalParams(), s)
        for gamma2, eta2 in [(0.0, 0.0), (0.8, -0.3)]:
            licm = iteration_matrix(
                LiCMParams(math.pi + gamma2, gamma2, math.pi + eta2, eta2), s
            )
            measured = global_phase_align_reference(original, licm, 1e-10)
            assert measured is not None
            expected = -(gamma2 + eta2)
            assert abs(math.remainder(measured - expected, 2 * math.pi)) < 1e-10

    @pytest.mark.parametrize("lam", [0.08, 0.25, 0.5, 0.9])
    def test_lipc_slice_matches_up_to_global_phase(self, lam):
        s = initial_state(lam)
        original = iteration_matrix(OriginalParams(), s)
        lipc = iteration_matrix(LiPCParams(-math.pi), s)
        measured = global_phase_align_reference(original, lipc, 1e-10)
        assert measured is not None
        assert abs(measured) < 1e-10  # -e^{-i beta} = 1 at beta = -pi
