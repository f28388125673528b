"""Tests for the phase-transform condition, its predictions, and verification."""
import math
import re
import warnings
from collections import Counter
from dataclasses import astuple, fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groverlab import equivalence
from groverlab.equivalence import (
    TRANSFORMABLE_KINDS,
    EquivalenceReport,
    angle_distance,
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
    params_from_phases,
)
from groverlab.subspace import (UNITARITY_TOL, initial_state, operator_coefficients, run,
                               success_probability)

from helpers import (global_phase_align_reference, iteration_matrix, predicted_global_phase,
                     run_matrix, verify_reference)


chain_kinds = st.sampled_from(TRANSFORMABLE_KINDS)
chain_values = st.floats(min_value=-1e3, max_value=1e3)
offsets = st.floats(min_value=-math.pi, max_value=math.pi)
lambdas = st.one_of(st.just(1.0), st.just(1e-14), st.floats(min_value=1e-14, max_value=1.0))
near_pi = st.builds(lambda sign, offset: sign * math.pi + offset,
                    st.sampled_from([-1.0, 1.0]), st.floats(min_value=-1e-6, max_value=1e-6))


def phase_lists(params):
    """A bundle's phases as lists (an array's) or floats, which compare with ==."""
    return [np.asarray(x).tolist() for x in astuple(params)]


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
        measured = global_phase_align_reference(iteration_matrix(params_a, s),
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

    def test_off_chain_licm_and_two_phase_long_map_both_ways(self):
        licm, long = LiCMParams(1.0, 0.0, 1.2, 0.0), LongParams(1.2, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert transform_phases(licm, AlgorithmKind.LONG) == long
            assert transform_phases(long, AlgorithmKind.LI_CM) == licm

    def test_a_point_within_the_condition_tolerance_is_on_the_chain(self):
        # It maps as (phi_d, phi_d): long gets its single-phase bundle.
        assert transform_phases(LiCMParams(1.0, 0.0, 1.0 + 1e-12, 0.0), AlgorithmKind.LONG) == (
            LongParams(1.0))
        assert transform_phases(LongParams(0.5, 0.5 + 1e-12), AlgorithmKind.LI_PC) == (
            LiPCParams(-(0.5 + 1e-12)))

    def test_array_licm_maps_like_its_elements(self):
        phi = np.array([-2.0, 0.4, math.pi, 5.0])
        offset = np.array([0.3, -1.0, 0.0, 2.5])
        gamma1, gamma2, eta1, eta2 = phi + offset, offset, phi - offset, -offset
        # On the diagonal too, a point whose two phases differ in shape keeps every cell.
        pair = np.array([1.0, 1.0])
        for bundle in [LiCMParams(gamma1, gamma2, eta1, eta2), LongParams(pair, 1.0),
                       LiCMParams(1.0, 0.0, pair, 0.0), LongParams(1.0, pair)]:
            fields = astuple(bundle)
            shape = np.broadcast_shapes(*map(np.shape, fields))
            for to_kind in TRANSFORMABLE_KINDS:
                mapped = astuple(transform_phases(bundle, to_kind))
                # Every field has the point's shape, but for long's None and licm's 0 offsets.
                arrays = [x for x in mapped if isinstance(x, np.ndarray)]
                assert arrays and all(x.shape == shape for x in arrays)
                assert all(x is None or x == 0.0 for x in mapped if not isinstance(x, np.ndarray))
                for i in range(shape[0]):
                    single = type(bundle)(*(np.broadcast_to(x, shape)[i] for x in fields))
                    expected = astuple(transform_phases(single, to_kind))
                    assert tuple(np.broadcast_to(x, shape)[i] for x in mapped) == expected
        eta1[2] += 1e-6  # one element off the chain, so the whole point is
        long = transform_phases(LiCMParams(gamma1, gamma2, eta1, eta2), AlgorithmKind.LONG)
        assert phase_lists(long) == [(eta1 - eta2).tolist(), (gamma1 - gamma2).tolist()]
        licm = transform_phases(long, AlgorithmKind.LI_CM)
        assert phase_lists(licm) == [(gamma1 - gamma2).tolist(), 0.0, (eta1 - eta2).tolist(), 0.0]

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
        # An array bundle goes element by element through the scalar rule, so
        # it reduces first too, and does not warn.  The point is off the chain.
        for gamma1, eta1 in [(1e308, -1e308), (np.array([1e308, 0.3]), np.array([-1e308, 0.3]))]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                long = transform_phases(LiCMParams(gamma1, 0.0, eta1, 0.0), AlgorithmKind.LONG)
                licm = transform_phases(long, AlgorithmKind.LI_CM)
            assert phase_lists(long) == phase_lists(LongParams(eta1, gamma1))
            assert phase_lists(licm) == phase_lists(LiCMParams(gamma1, 0.0, eta1, 0.0))

    def test_a_large_finite_licm_difference_maps(self):
        assert transform_phases(LiCMParams(0.0, 1e308, 0.0, 1e308), AlgorithmKind.LONG) == (
            LongParams(-1e308))

    def test_original_rejected_both_ways(self):
        with pytest.raises(ValueError):
            transform_phases(OriginalParams(), AlgorithmKind.LONG)
        with pytest.raises(ValueError):
            transform_phases(LongParams(0.5), AlgorithmKind.ORIGINAL)

    @pytest.mark.parametrize("to_kind", [AlgorithmKind.LI_DF, AlgorithmKind.LI_PC])
    @pytest.mark.parametrize("params", [
        LongParams(0.5, 0.9), LiCMParams(1.0, 0.0, 1.2, 0.0),
        LiCMParams(np.array([0.5, 1.0]), 0.0, np.array([0.5, 1.2]), 0.0),
    ])
    def test_lidf_and_lipc_reject_an_off_chain_point_by_name(self, params, to_kind):
        with pytest.raises(ValueError, match=f"^{to_kind.value} covers only the chain phi_o = "):
            transform_phases(params, to_kind)

    @given(st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=-10.0, max_value=10.0),
           offsets, offsets, lambdas)
    @settings(max_examples=200)
    @example(0.0, 1.4191377170254325e-10, 0.0, 0.0, 1.0)  # off the diagonal by more than 1e-10
    def test_any_licm_aligns_with_its_long_image_at_the_predicted_phase(self, phi_o, phi_d,
                                                                      gamma2, eta2, lam):
        s = initial_state(lam)
        licm = LiCMParams(phi_d + gamma2, gamma2, phi_o + eta2, eta2)
        long = transform_phases(licm, AlgorithmKind.LONG)
        measured = global_phase_align_reference(iteration_matrix(long, s),
                                                iteration_matrix(licm, s), 1e-10)
        assert measured is not None
        assert angle_distance(measured, predicted_global_phase(long, licm)) <= 1e-10


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
            run_matrix(iteration_matrix(params_long, s), 25, s)
        )
        for rep in verify_phase_equivalence(params_long, s, k=25):
            assert rep.holds
            p_other = success_probability(
                run_matrix(iteration_matrix(rep.target_params, s), 25, s)
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

    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=-14.0, max_value=0.0).map(lambda e: 10.0 ** e),
           st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=10.0)))
    @settings(max_examples=300)
    def test_the_table_stack_is_the_four_builds_bit_for_bit(self, phi, lam, perturb):
        s, calls = initial_state(lam), []

        def spy(planes, k, start):
            calls.append(planes)
            return run(planes, k, start)

        with mock.patch.object(equivalence, "run", spy):
            reports = verify_phase_equivalence(LongParams(phi), s, perturb=perturb)
        builds = np.stack([iteration_matrix(p, s)
                           for p in [LongParams(phi), *(r.target_params for r in reports)]])
        # Plane j holds entry j (m00, m01, m10, m11 in turn) of each of the four builds.
        entries = builds.reshape(4, 4).T
        assert len(calls) == 1 and len(calls[0]) == len(entries) == 4
        for plane, entry in zip(calls[0], entries):
            assert plane.shape == entry.shape == (4,)
            assert np.ascontiguousarray(plane).tobytes() == np.ascontiguousarray(entry).tobytes()

    @pytest.mark.parametrize("scaled, error, fails", [
        ({AlgorithmKind.LI_PC: "oracle"}, 2.0, True),
        # Each row alone is within UNITARITY_TOL; a check of the stack pairing
        # long's oracle error with lidf's diffusion error would not be.
        ({AlgorithmKind.LONG: "oracle", AlgorithmKind.LI_DF: "diffusion"}, 0.75, False),
    ])
    def test_a_non_unit_row_fails_as_four_builds_would(self, monkeypatch, scaled, error, fails):
        grow = math.sqrt(1.0 + error * UNITARITY_TOL)  # |x|^2 - 1 = error * UNITARITY_TOL

        def coefficients(params):
            target, rest, c, d = operator_coefficients(params)
            if scaled.get(params.kind) == "oracle":
                return target * grow, rest, c, d
            if scaled.get(params.kind) == "diffusion":
                return target, rest, c * grow, d * grow
            return target, rest, c, d

        monkeypatch.setattr(equivalence, "operator_coefficients", coefficients)
        if fails:
            message = "lipc iteration matrix failed the unitarity check"
            with pytest.raises(ValueError, match=message):
                verify_phase_equivalence(LongParams(1.3), initial_state(0.37))
        else:
            assert len(verify_phase_equivalence(LongParams(1.3), initial_state(0.37))) == 3

    @given(st.one_of(st.floats(min_value=-1e6, max_value=1e6), near_pi),
           st.floats(min_value=-14.0, max_value=0.0).map(lambda e: 10.0 ** e),
           st.integers(min_value=0, max_value=2 ** 53),
           st.sampled_from([0.0, 1e-12, 0.1, 3.0, 1e308]), st.sampled_from([1e-10, 1e-300]))
    # check-equivalence --phi 1e308 --perturb 1e308 (FAIL); the suite makes a RuntimeWarning
    # an error, so the one deviation table must warn no more than the loop did.
    @example(wrap_angle(1e308), 0.5, 1, 1e308, 1e-10)
    @settings(max_examples=300)
    def test_every_field_is_the_per_variant_loops(self, phi, lam, k, perturb, tol):
        # At tol = 1e-300 most alignments fail, at the ratio or at their own
        # deviation, and the deviation is then taken at the predicted phase.
        s = initial_state(lam)
        reports = verify_phase_equivalence(LongParams(phi), s, tol, perturb, k)
        expected = verify_reference(LongParams(phi), s, tol, perturb, k)
        assert len(reports) == len(expected) == 3
        for rep, ref in zip(reports, expected):
            for field in fields(EquivalenceReport):
                got, want = getattr(rep, field.name), getattr(ref, field.name)
                if want is None:
                    assert got is None
                else:
                    assert type(got) is type(want) and got == want

    def test_one_call_reads_each_chain_column_once_and_one_deviation_per_variant(
            self, monkeypatch):
        reads, deviation_rows = Counter(), []

        def counted(kind, column, read):
            def spy(*args):
                reads[kind, column] += 1
                return read(*args)
            return spy

        def deviations(a, rows, phases):
            deviation_rows.append(len(phases))
            return real_deviations(a, rows, phases)

        real_deviations = equivalence._deviations
        monkeypatch.setattr(equivalence, "_FORMS", {
            kind: form._replace(**{column: counted(kind, column, getattr(form, column))
                                   for column in form._fields})
            for kind, form in equivalence._FORMS.items()})
        monkeypatch.setattr(equivalence, "_deviations", deviations)
        reports = verify_phase_equivalence(LongParams(1.3), initial_state(0.37), k=25)
        assert all(rep.holds for rep in reports)
        # Long's point once, each mapped kind's bundle at it once, and each
        # bundle's chi once; no mapped bundle's point is read back.
        assert reads == Counter({(AlgorithmKind.LONG, "point"): 1,
                                 **{(kind, "at"): 1 for kind in TRANSFORMABLE_KINDS[1:]},
                                 **{(kind, "chi"): 1 for kind in TRANSFORMABLE_KINDS}})
        assert deviation_rows == [3]

    @pytest.mark.parametrize("phi,lidf_deviation", [(1e8, 2.3e-9), (1e15, 0.02)])
    def test_an_unwrapped_phi_is_rounded_at_its_own_scale(self, phi, lidf_deviation):
        # verify takes phi as given; check-equivalence wraps --phi first.
        s = initial_state(0.3)
        lidf, licm, lipc = verify_phase_equivalence(LongParams(phi), s, k=3)
        assert not lidf.holds and lidf.max_entry_deviation == pytest.approx(lidf_deviation,
                                                                            rel=0.05)
        assert licm.holds and not lipc.holds
        assert all(rep.holds for rep in verify_phase_equivalence(LongParams(wrap_angle(phi)), s,
                                                                 k=3))

    def test_a_two_phase_long_is_rejected_by_the_first_chain_only_kind(self):
        with pytest.raises(ValueError, match="^lidf covers only the chain phi_o = phi_d"):
            verify_phase_equivalence(LongParams(0.5, 0.9), initial_state(0.5))

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
                    run_matrix(iteration_matrix(params_long, s), k, s)
                )
                for k in range(26)
            ]
            for to_kind in TRANSFORMABLE_KINDS[1:]:
                mapped = transform_phases(params_long, to_kind)
                it = iteration_matrix(mapped, s)
                for k in range(26):
                    p = success_probability(run_matrix(it, k, s))
                    assert abs(p - reference[k]) < 1e-10


class TestCanonicalFormProof:
    """The module table, proved with symbolic phases against the subspace.py docstring table.

    s = (sin t, cos t), and a bundle's planes are (c s s^T + d I) diag(target, rest).
    """

    @pytest.fixture(scope="class")
    def sp(self):
        return pytest.importorskip("sympy", reason="the symbolic proof needs sympy (test extra)")

    @pytest.fixture(scope="class")
    def table(self, sp):
        t, phi, vphi, tau, g1, g2, e1, e2, beta = sp.symbols(
            "t phi vphi tau gamma1 gamma2 eta1 eta2 beta", real=True)

        def e(x):
            return sp.exp(sp.I * x)

        def planes(target, rest, c, d):
            s0, s1 = sp.sin(t), sp.cos(t)
            off = c * s0 * s1
            return sp.Matrix([(c * s0 * s0 + d) * target, off * rest, off * target,
                              (c * s1 * s1 + d) * rest])

        # Per kind: its symbols, its subspace.py row, its point (phi_o, phi_d) and chi.
        return planes, {
            AlgorithmKind.LONG: ((phi, vphi), (e(phi), 1, 1 - e(vphi), -1), (phi, vphi), 0),
            AlgorithmKind.LI_DF: ((tau,), (1 - 2 * sp.cos(tau) * e(tau), 1,
                                           2 * sp.cos(tau) * e(tau), -1),
                                  (2 * tau + sp.pi, 2 * tau + sp.pi), 0),
            AlgorithmKind.LI_CM: ((g1, g2, e1, e2), (-e(e1), -e(e2), e(g1) - e(g2), e(g2)),
                                  (e1 - e2, g1 - g2), -(g2 + e2)),
            AlgorithmKind.LI_PC: ((beta,), (e(-beta), 1, 1 - e(beta), e(beta)), (-beta, -beta),
                                  sp.pi - beta),
        }

    @pytest.mark.parametrize("kind", TRANSFORMABLE_KINDS[1:])
    def test_long_at_the_point_is_e_i_chi_times_the_kind(self, sp, table, kind):
        planes, forms = table
        (phi, vphi), long_row, _, _ = forms[AlgorithmKind.LONG]
        _, row, point, chi = forms[kind]
        long_planes = planes(*long_row).subs({phi: point[0], vphi: point[1]}, simultaneous=True)
        difference = long_planes - sp.exp(sp.I * chi) * planes(*row)
        assert sp.simplify(difference.applyfunc(lambda x: x.rewrite(sp.exp))) == sp.zeros(4, 1)

    def test_long_m10_over_m01_is_e_i_phi_o(self, sp, table):
        # The ratio does not change under a global phase, so two bundles at
        # different phi_o (mod 2 pi) are not equivalent, wherever m01 != 0.
        planes, forms = table
        (phi, _), long_row, _, _ = forms[AlgorithmKind.LONG]
        _, m01, m10, _ = planes(*long_row)
        assert sp.simplify(m10 / m01 - sp.exp(sp.I * phi)) == 0

    @pytest.mark.parametrize("kind", TRANSFORMABLE_KINDS)
    def test_the_transcription_is_the_module_table(self, sp, table, kind):
        symbols, _, point, chi = table[1][kind]
        rng = np.random.default_rng(7)
        for _ in range(20):
            phases = rng.uniform(-2 * math.pi, 2 * math.pi, size=len(symbols)).tolist()
            params = params_from_phases(kind, phases)
            values = dict(zip(symbols, phases))
            form = equivalence._FORMS[kind]
            expected = [float(x.subs(values)) for x in point]
            assert list(form.point(params)) == pytest.approx(expected, abs=1e-12)
            assert form.chi(params) == pytest.approx(float(sp.sympify(chi).subs(values)), abs=1e-12)
