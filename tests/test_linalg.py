"""Tests for angle wrapping, global-phase alignment and the tests' unitarity reference."""
import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverlab.equivalence import (
    angle_distance,
    global_phase_align,
    max_entry_deviation,
    wrap_angle,
)

from helpers import is_unitary

IDENTITY2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
SHEAR = np.array([[1, 1], [0, 1]], dtype=complex)

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]], dtype=complex)


def random_unitary(a, b, t):
    """diag-phase * rotation * diag-phase: dense in enough of U(2) for testing."""
    left = np.diag([cmath.exp(1j * a), cmath.exp(1j * b)])
    right = np.diag([cmath.exp(1j * (a - b)), 1.0])
    return left @ rotation(t) @ right


class TestWrapAngle:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi, math.pi),
            (2 * math.pi, 0.0),
            (-0.5, -0.5),
            (math.pi + 0.5, 0.5 - math.pi),
        ],
    )
    def test_values(self, raw, expected):
        assert wrap_angle(raw) == pytest.approx(expected, abs=1e-12)

    @given(angles)
    def test_range(self, x):
        wrapped = wrap_angle(x)
        assert -math.pi < wrapped <= math.pi
        assert angle_distance(wrapped, x) < 1e-9

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, max_value=1e300,
                              min_value=-1e300), min_size=2, max_size=40))
    def test_array_distance_has_the_scalar_bits(self, xs):
        a = np.array(xs)
        b = np.array([math.pi, -math.pi, 0.0, 3 * math.pi, *xs[::-1]])[:a.size]
        expected = [angle_distance(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert angle_distance(a, b).tolist() == expected
        assert angle_distance(a, 0.5).tolist() == [angle_distance(x, 0.5) for x in xs]

    @pytest.mark.parametrize("a, b", [(1e308, -1e308), (np.float64(-1e308), np.float64(1e308))])
    def test_finite_angles_whose_difference_overflows_are_reduced_first(self, a, b):
        d = angle_distance(a, b)
        assert isinstance(d, float) and 0.0 <= d <= math.pi
        assert d == angle_distance(wrap_angle(a), wrap_angle(b))


class TestIsUnitary:
    def test_identity(self):
        assert is_unitary(IDENTITY2, 1e-12)

    def test_shear_is_not(self):
        assert not is_unitary(SHEAR, 1e-12)

    def test_stack_fails_on_one_non_unitary_slice(self):
        assert is_unitary(np.stack([IDENTITY2, PAULI_X, rotation(0.7)]), 1e-12)
        assert not is_unitary(np.stack([IDENTITY2, SHEAR, PAULI_X]), 1e-12)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            is_unitary(IDENTITY2, 0.0)

    @given(angles, angles, angles, angles, angles, angles)
    @settings(max_examples=200)
    def test_product_of_unitaries_is_unitary(self, a1, b1, t1, a2, b2, t2):
        u = random_unitary(a1, b1, t1)
        v = random_unitary(a2, b2, t2)
        assert is_unitary(u, 1e-12) and is_unitary(v, 1e-12)
        assert is_unitary(u @ v, 1e-10)


class TestGlobalPhaseAlign:
    def test_self_alignment_is_zero(self):
        u = random_unitary(0.3, -1.1, 0.8)
        assert global_phase_align(u, u, 1e-10) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("chi", [math.pi / 3, -2.0, 3.0, 1e-4])
    def test_constructed_phase(self, chi):
        u = random_unitary(1.2, 0.4, -0.9)
        measured = global_phase_align(cmath.exp(1j * chi) * u, u, 1e-10)
        assert measured is not None
        assert angle_distance(measured, chi) < 1e-10

    @given(angles, angles, angles, angles)
    @settings(max_examples=300)
    def test_phase_recovery(self, a, b, t, chi):
        u = random_unitary(a, b, t)
        measured = global_phase_align(cmath.exp(1j * chi) * u, u, 1e-10)
        assert measured is not None
        assert angle_distance(measured, chi) < 1e-10

    @given(angles, angles, angles, angles)
    @settings(max_examples=200)
    def test_symmetry_negates_angle(self, a, b, t, chi):
        u = random_unitary(a, b, t)
        v = cmath.exp(1j * chi) * u
        forward = global_phase_align(v, u, 1e-10)
        backward = global_phase_align(u, v, 1e-10)
        assert forward is not None and backward is not None
        assert angle_distance(forward, -backward) < 1e-10

    def test_inequivalent_matrices_return_none(self):
        assert global_phase_align(IDENTITY2, np.diag([1, cmath.exp(0.5j)]), 1e-10) is None
        assert global_phase_align(IDENTITY2, rotation(0.3), 1e-6) is None

    def test_magnitude_mismatch_returns_none(self):
        assert global_phase_align(2.0 * IDENTITY2, IDENTITY2, 1e-10) is None

    @pytest.mark.parametrize("side,entry", [("a", (0, 0)), ("a", (1, 1)), ("b", (1, 1))])
    def test_nan_entry_returns_none(self, side, entry):
        # (0, 0) is the pivot against b = I; a nan elsewhere must fail the residual test.
        a, b = IDENTITY2.copy(), IDENTITY2.copy()
        (a if side == "a" else b)[entry] = np.nan
        assert global_phase_align(a, b, 1e-10) is None

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            global_phase_align(IDENTITY2, np.zeros((2, 2), dtype=complex), 1e-10)

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_rejects_nonpositive_tol(self, tol):
        with pytest.raises(ValueError, match=re.escape(f"tol must be positive, got {tol}")):
            global_phase_align(IDENTITY2, IDENTITY2, tol)


def test_max_entry_deviation_accounts_for_phase():
    u = random_unitary(0.2, 1.4, 0.6)
    shifted = cmath.exp(0.9j) * u
    assert max_entry_deviation(shifted, u, 0.9) < 1e-15
    assert max_entry_deviation(shifted, u) > 0.1
