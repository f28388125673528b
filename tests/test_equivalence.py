"""Tests for the phase-transform condition, its predictions, and verification."""
import math
import re
import warnings
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverlab.equivalence import (
    TRANSFORMABLE_KINDS,
    angle_distance,
    global_phase_align,
    predicted_global_phase,
    transform_phases,
    verify_phase_equivalence,
    wrap_angle,
)
from groverlab.model import (
    AlgorithmKind,
    LiCMParams,
    LiDFParams,
    LiPCParams,
    LongParams,
    OriginalParams,
)
from groverlab.operators import iteration_matrix
from groverlab.subspace import initial_state, run, success_probability


chain_kinds = st.sampled_from(TRANSFORMABLE_KINDS)
chain_values = st.floats(min_value=-1e3, max_value=1e3)
offsets = st.floats(min_value=-math.pi, max_value=math.pi)
lambdas = st.one_of(st.just(1.0), st.just(1e-14), st.floats(min_value=1e-14, max_value=1.0))


def on_chain(kind, phi, gamma2, eta2):
    """The kind's bundle at chain value phi; licm also carries the offsets gamma2, eta2."""
    if kind is AlgorithmKind.LI_CM:
        return LiCMParams(phi + gamma2, gamma2, phi + eta2, eta2)
    return transform_phases(LongParams(phi), kind)


class TestChainTable:
    @given(chain_kinds, chain_kinds, chain_values, offsets, offsets)
    @settings(max_examples=300)
    def test_round_trip_through_any_pair_recovers_phi(self, a, b, phi, gamma2, eta2):
        there = transform_phases(on_chain(a, phi, gamma2, eta2), b)
        back = transform_phases(there, AlgorithmKind.LONG)
        assert angle_distance(back.phi, phi) <= 1e-12 * max(1.0, abs(phi))

    @given(chain_kinds, chain_kinds, chain_values, offsets, offsets, lambdas)
    @settings(max_examples=300)
    def test_aligned_phase_equals_the_prediction(self, a, b, phi, gamma2, eta2, lam):
        s = initial_state(lam)
        params_a, params_b = on_chain(a, phi, gamma2, eta2), on_chain(b, phi, eta2, gamma2)
        measured = global_phase_align(iteration_matrix(params_a, s),
                                      iteration_matrix(params_b, s), 1e-10)
        assert measured is not None
        assert angle_distance(measured, predicted_global_phase(params_a, params_b)) <= 1e-10

    @given(chain_values, st.floats(min_value=-10.0, max_value=10.0), lambdas)
    @settings(max_examples=100)
    def test_perturb_shifts_only_the_leading_field(self, phi, delta, lam):
        reports = verify_phase_equivalence(LongParams(phi), initial_state(lam),
                                           perturb=delta)
        assert len(reports) == len(TRANSFORMABLE_KINDS[1:])
        for rep, to_kind in zip(reports, TRANSFORMABLE_KINDS[1:]):
            mapped = astuple(transform_phases(LongParams(phi), to_kind))
            assert rep.target_params.kind is to_kind
            assert astuple(rep.target_params) == (mapped[0] + delta, *mapped[1:])


class TestTransformPhases:
    def test_long_to_lipc(self):
        mapped = transform_phases(LongParams(math.pi / 2), AlgorithmKind.LI_PC)
        assert mapped == LiPCParams(-math.pi / 2)

    def test_long_to_lidf_original_limit(self):
        mapped = transform_phases(LongParams(math.pi), AlgorithmKind.LI_DF)
        assert mapped == LiDFParams(0.0)

    def test_lipc_to_licm_canonical_representative(self):
        mapped = transform_phases(LiPCParams(-0.7), AlgorithmKind.LI_CM)
        assert mapped == LiCMParams(0.7, 0.0, 0.7, 0.0)

    def test_identity_mapping(self):
        assert transform_phases(LongParams(1.1), AlgorithmKind.LONG) == LongParams(1.1)

    @pytest.mark.parametrize("to_kind", TRANSFORMABLE_KINDS)
    @pytest.mark.parametrize("phi", [-2.0, 0.4, math.pi, 5.0])
    def test_round_trip_recovers_phi(self, to_kind, phi):
        there = transform_phases(LongParams(phi), to_kind)
        back = transform_phases(there, AlgorithmKind.LONG)
        assert angle_distance(back.phi, phi) < 1e-12

    def test_licm_off_chain_rejected(self):
        with pytest.raises(ValueError):
            transform_phases(LiCMParams(1.0, 0.0, 1.2, 0.0), AlgorithmKind.LONG)

    def test_array_licm_maps_like_its_elements(self):
        phi = np.array([-2.0, 0.4, math.pi, 5.0])
        offset = np.array([0.3, -1.0, 0.0, 2.5])
        gamma1, gamma2, eta1, eta2 = phi + offset, offset, phi - offset, -offset
        for to_kind in TRANSFORMABLE_KINDS:
            mapped = astuple(transform_phases(LiCMParams(gamma1, gamma2, eta1, eta2), to_kind))
            for i in range(phi.size):
                single = LiCMParams(gamma1[i], gamma2[i], eta1[i], eta2[i])
                expected = astuple(transform_phases(single, to_kind))
                assert tuple(np.broadcast_to(x, phi.shape)[i] for x in mapped) == expected
        eta1[2] += 1e-6  # one element off the chain
        with pytest.raises(ValueError, match=re.escape("gamma1 - gamma2 = eta1 - eta2")):
            transform_phases(LiCMParams(gamma1, gamma2, eta1, eta2), AlgorithmKind.LONG)

    @pytest.mark.parametrize("params,named", [
        (LiCMParams(1e308, -1e308, 0.0, 0.0), "gamma1 - gamma2"),
        (LiCMParams(np.float64(1e308), np.float64(-1e308), 0.0, 0.0), "gamma1 - gamma2"),
        (LiCMParams(0.0, 0.0, -1e308, 1e308), "eta1 - eta2"),
        (LiCMParams(np.array([0.5, 1e308]), np.array([0.0, -1e308]), 0.5, 0.0), "gamma1 - gamma2"),
        (LiCMParams(0.5, 0.0, np.array([0.5, -1e308]), np.array([0.0, 1e308])), "eta1 - eta2"),
    ])
    def test_an_overflowing_licm_difference_is_named(self, params, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow must not warn either
            with pytest.raises(ValueError, match=f"^licm {named} must be a finite angle, got "):
                transform_phases(params, AlgorithmKind.LONG)

    @pytest.mark.parametrize("tau", [1e308, np.float64(-1e308), np.array([0.5, 1e308])])
    def test_an_overflowing_lidf_chain_value_is_named(self, tau):
        # tau is finite, but its chain value 2*tau + pi is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^lidf 2\*tau \+ pi must be a finite angle"):
                transform_phases(LiDFParams(tau), AlgorithmKind.LI_PC)

    def test_licm_differences_whose_difference_overflows_are_compared_reduced(self):
        with pytest.raises(ValueError, match="^licm parameters must satisfy"):
            transform_phases(LiCMParams(1e308, 0.0, -1e308, 0.0), AlgorithmKind.LONG)

    def test_a_large_finite_licm_difference_maps(self):
        assert transform_phases(LiCMParams(0.0, 1e308, 0.0, 1e308), AlgorithmKind.LONG) == (
            LongParams(-1e308))

    def test_original_rejected_both_ways(self):
        with pytest.raises(ValueError):
            transform_phases(OriginalParams(), AlgorithmKind.LONG)
        with pytest.raises(ValueError):
            transform_phases(LongParams(0.5), AlgorithmKind.ORIGINAL)

    def test_two_phase_long_rejected(self):
        with pytest.raises(ValueError):
            transform_phases(LongParams(0.5, 0.9), AlgorithmKind.LI_PC)


class TestPredictedGlobalPhase:
    def test_long_vs_lidf_is_zero(self):
        assert predicted_global_phase(LongParams(1.0), LiDFParams((1.0 - math.pi) / 2)) == 0.0

    def test_long_vs_canonical_licm_is_zero(self):
        assert predicted_global_phase(LongParams(1.0), LiCMParams(1.0, 0.0, 1.0, 0.0)) == 0.0

    def test_long_vs_licm_offsets(self):
        licm = LiCMParams(1.0 + 0.3, 0.3, 1.0 - 0.8, -0.8)
        chi = predicted_global_phase(LongParams(1.0), licm)
        assert chi == pytest.approx(wrap_angle(-(0.3 - 0.8)), abs=1e-12)

    def test_long_vs_lipc(self):
        # the phase of -e^{-i beta} at beta = -0.7, frozen
        chi = predicted_global_phase(LongParams(0.7), LiPCParams(-0.7))
        assert chi == pytest.approx(-2.441592653589793, abs=1e-12)

    def test_reversed_arguments_negate_the_phase(self):
        a, b = LongParams(0.7), LiPCParams(-0.7)
        assert angle_distance(
            predicted_global_phase(a, b), -predicted_global_phase(b, a)
        ) < 1e-12

    def test_pairs_compose_through_long(self):
        lidf = LiDFParams((0.9 - math.pi) / 2)
        lipc = LiPCParams(-0.9)
        chi = predicted_global_phase(lidf, lipc)
        assert chi == pytest.approx(wrap_angle(math.pi + 0.9), abs=1e-12)

    def test_condition_violation_rejected(self):
        with pytest.raises(ValueError):
            predicted_global_phase(LongParams(1.0), LiPCParams(-1.2))

    @pytest.mark.parametrize("offset", [1e308, np.float64(1e308)])
    def test_an_overflowing_licm_offset_sum_is_named(self, offset):
        # On the chain (phi = -1e308), but chi = -(gamma2 + eta2) overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match=r"^licm gamma2 \+ eta2 must be a finite angle, got inf$"):
                predicted_global_phase(LongParams(-1e308), LiCMParams(0.0, offset, 0.0, offset))

    def test_two_nonzero_relative_phases_are_subtracted_before_wrapping(self):
        # chi is -(gamma2 + eta2) = -3.5 for licm and pi - beta = pi + 2.5 for lipc.
        licm, lipc = LiCMParams(4.5, 2.0, 4.0, 1.5), LiPCParams(-2.5)
        assert predicted_global_phase(licm, lipc) == wrap_angle((math.pi + 2.5) - (-3.5))

    def test_chain_values_whose_difference_overflows_are_compared_reduced(self):
        with pytest.raises(ValueError, match="^parameters do not satisfy the phase-transform"):
            predicted_global_phase(LongParams(1e308), LongParams(-1e308))

    def test_chain_phases_whose_difference_overflows_give_a_wrapped_angle(self):
        # On the chain at phi = 1e308: chi is 1e308 for lipc and -1e308 for licm.
        lipc, licm = LiPCParams(-1e308), LiCMParams(1.5e308, 0.5e308, 1.5e308, 0.5e308)
        chi = predicted_global_phase(lipc, licm)
        assert isinstance(chi, float) and -math.pi < chi <= math.pi
        assert chi == wrap_angle(-2.0 * wrap_angle(1e308))
        assert angle_distance(predicted_global_phase(licm, lipc), -chi) < 1e-15


class TestVerifyPhaseEquivalence:
    @given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=1e-14, max_value=1.0),
           st.integers(min_value=0, max_value=300), st.sampled_from([0.0, 0.1]))
    @settings(max_examples=300)
    def test_reports_follow_the_chain_and_an_alignment_bounds_its_deviation(self, phi, lam, k,
                                                                             perturb):
        reports = verify_phase_equivalence(LongParams(phi), initial_state(lam), perturb=perturb, k=k)
        # lidf and canonical licm carry long's phase; lipc is off by pi - beta = pi + phi.
        assert [r.predicted_phase for r in reports] == [0.0, 0.0, wrap_angle(math.pi + phi)]
        for rep, kind in zip(reports, TRANSFORMABLE_KINDS[1:]):
            assert rep.target_params.kind == kind
            if not perturb:
                assert rep.target_params == transform_phases(LongParams(phi), kind)
            # holds has no deviation term: an alignment is already within tolerance.
            if rep.measured_phase is not None:
                assert rep.max_entry_deviation <= 1e-10

    def test_reference_point_holds(self):
        reports = verify_phase_equivalence(LongParams(math.pi / 2), initial_state(1 / 3))
        assert len(reports) == 3
        assert all(r.holds for r in reports)
        assert {r.target_params.kind for r in reports} == set(TRANSFORMABLE_KINDS[1:])

    def test_original_limit_holds_with_zero_phases(self):
        reports = verify_phase_equivalence(LongParams(math.pi), initial_state(0.42))
        for rep in reports:
            assert rep.holds
            assert angle_distance(rep.measured_phase, 0.0) < 1e-10

    def test_randomized_condition_always_holds(self):
        rng = np.random.default_rng(321)
        for _ in range(300):
            phi = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            lam = float(rng.uniform(1e-3, 1.0))
            reports = verify_phase_equivalence(LongParams(phi), initial_state(lam))
            assert all(r.holds for r in reports)

    def test_perturbed_mapping_fails_generically(self):
        reports = verify_phase_equivalence(
            LongParams(1.3), initial_state(0.37), tol=1e-6, perturb=0.1
        )
        for rep in reports:
            assert not rep.holds
            assert rep.measured_phase is None
            assert rep.max_entry_deviation > 1e-6

    def test_k_steps_fill_in_prob_deviation(self):
        s = initial_state(0.37)
        params_long = LongParams(1.3)
        for rep in verify_phase_equivalence(params_long, s):
            assert rep.prob_deviation == 0.0
        p_long = success_probability(
            run(iteration_matrix(params_long, s), 25, s)
        )
        for rep in verify_phase_equivalence(params_long, s, k=25):
            assert rep.holds
            p_other = success_probability(
                run(iteration_matrix(rep.target_params, s), 25, s)
            )
            assert abs(rep.prob_deviation - abs(p_other - p_long)) < 1e-15
            assert rep.prob_deviation < 1e-10

    def test_probability_drift_fails_where_one_step_aligns(self):
        # A 1e-12 offset keeps each matrix aligned within tol, but over
        # 10000 steps the success probabilities drift apart by > 1e-9.
        s = initial_state(0.37)
        one_step = verify_phase_equivalence(LongParams(1.3), s, perturb=1e-12)
        assert all(rep.holds for rep in one_step)
        for rep in verify_phase_equivalence(LongParams(1.3), s, perturb=1e-12, k=10000):
            assert rep.measured_phase is not None
            assert rep.max_entry_deviation <= 1e-10
            assert rep.prob_deviation > 1e-10
            assert not rep.holds

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_rejects_nonpositive_tolerance(self, tol):
        # Every comparison with a nan tol fails, so the reports would all read FAIL.
        with pytest.raises(ValueError, match=re.escape(f"tol must be positive, got {tol}")):
            verify_phase_equivalence(LongParams(1.0), initial_state(0.5), tol=tol)

    def test_rejects_a_non_integer_k(self):
        with pytest.raises(TypeError):
            verify_phase_equivalence(LongParams(1.0), initial_state(0.5), k=2.5)


class TestProbabilityEqualityAcrossVariants:
    def test_matched_variants_share_probabilities(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            phi = float(rng.uniform(-2 * math.pi, 2 * math.pi))
            lam = float(rng.uniform(1e-3, 1.0))
            s = initial_state(lam)
            params_long = LongParams(phi)
            reference = [
                success_probability(
                    run(iteration_matrix(params_long, s), k, s)
                )
                for k in range(26)
            ]
            for to_kind in TRANSFORMABLE_KINDS[1:]:
                mapped = transform_phases(params_long, to_kind)
                it = iteration_matrix(mapped, s)
                for k in range(26):
                    p = success_probability(run(it, k, s))
                    assert abs(p - reference[k]) < 1e-10
