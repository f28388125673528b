"""Tests for the search-space model and phase parameter bundles."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groverlab.model import (
    AlgorithmKind,
    LiCMParams,
    LiDFParams,
    LiPCParams,
    LongParams,
    OriginalParams,
    geometry_from_lambda,
    geometry_of,
    make_search_space,
    params_from_phases,
)


class TestMakeSearchSpace:
    def test_single_target(self):
        space = make_search_space(2, {3})
        assert space.size == 4
        assert space.num_targets == 1
        assert np.flatnonzero(space.marked).tolist() == [3]

    def test_deduplicates_and_sorts(self):
        space = make_search_space(3, [5, 1, 1])
        assert space.size == 8
        assert np.flatnonzero(space.marked).tolist() == [1, 5]

    def test_full_target_edge(self):
        space = make_search_space(1, {0, 1})
        assert space.size == 2
        assert space.num_targets == 2
        assert geometry_of(space).lambda_ == 1.0

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError):
            make_search_space(2, [])

    @pytest.mark.parametrize("bad", [[4], [-1], [0, 7], [2 ** 70], np.array([3, 4])])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            make_search_space(2, bad)

    @pytest.mark.parametrize("targets", [{1, 5}, [5, 1, 5, 1], range(1, 6, 4),
                                         np.array([5, 1, 1, 5]), (t for t in (1, 5))])
    def test_every_iterable_gives_the_same_mask(self, targets):
        space = make_search_space(3, targets)
        expected = np.array([False, True, False, False, False, True, False, False])
        assert space.marked.dtype == bool
        assert np.array_equal(space.marked, expected)
        assert space.num_targets == 2

    def test_mask_is_read_only(self):
        space = make_search_space(2, {1})
        with pytest.raises(ValueError):
            space.marked[0] = True
        assert np.flatnonzero(space.marked).tolist() == [1]

    def test_out_of_range_message_names_the_bounds_and_stays_short(self):
        bad = np.arange(-3, 2 ** 16 + 5)
        with pytest.raises(ValueError) as excinfo:
            make_search_space(16, bad)
        message = str(excinfo.value)
        assert message == "target indices must lie in [0, 65536), got min -3 and max 65540"

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            make_search_space(0, [0])


class TestGeometry:
    def test_quarter_proportion(self):
        g = geometry_of(make_search_space(2, {0}))
        assert g.lambda_ == 0.25
        assert g.theta == pytest.approx(math.pi / 6, abs=1e-15)

    def test_full_proportion(self):
        g = geometry_of(make_search_space(3, range(8)))
        assert g.lambda_ == 1.0
        assert g.theta == pytest.approx(math.pi / 2, abs=1e-15)

    def test_half_proportion(self):
        g = geometry_of(make_search_space(1, {0}))
        assert g.lambda_ == 0.5
        assert g.theta == pytest.approx(math.pi / 4, abs=1e-15)

    def test_from_lambda_full(self):
        assert geometry_from_lambda(1.0).theta == pytest.approx(math.pi / 2, abs=1e-15)

    def test_from_lambda_reference_point(self):
        # asin(sqrt(0.147)), frozen
        assert geometry_from_lambda(0.147).theta == pytest.approx(
            0.3934810829739611, abs=1e-14
        )

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0000001, float("nan"), float("inf")])
    def test_from_lambda_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            geometry_from_lambda(bad)

    def test_space_and_proportion_routes_agree(self):
        for n in range(1, 13):
            size = 2 ** n
            for num_targets in range(1, size + 1):
                via_space = geometry_of(make_search_space(n, range(num_targets)))
                via_lambda = geometry_from_lambda(num_targets / size)
                assert abs(via_space.theta - via_lambda.theta) <= 1e-15
                assert abs(via_space.lambda_ - via_lambda.lambda_) <= 1e-15

    def test_sin_squared_theta_equals_lambda(self):
        for n in range(1, 13):
            size = 2 ** n
            for num_targets in range(1, size + 1):
                g = geometry_of(make_search_space(n, range(num_targets)))
                assert abs(math.sin(g.theta) ** 2 - g.lambda_) <= 1e-15


def five_way_ladder(kind, a):
    """The per-kind constructor that params_from_phases replaced, kept as the reference."""
    if kind is AlgorithmKind.ORIGINAL:
        return OriginalParams()
    if kind is AlgorithmKind.LONG:
        return LongParams(a[0], a[1])
    if kind is AlgorithmKind.LI_DF:
        return LiDFParams(a[0])
    if kind is AlgorithmKind.LI_CM:
        return LiCMParams(*a)
    return LiPCParams(a[0])


class TestParamsFromPhases:
    @given(st.sampled_from(list(AlgorithmKind)),
           st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4))
    def test_equals_the_five_way_ladder(self, kind, phases):
        for a in (phases, np.array(phases)):
            params = params_from_phases(kind, a)
            assert params == five_way_ladder(kind, a)
            assert params.kind is kind

    def test_takes_only_the_leading_phases(self):
        assert params_from_phases(AlgorithmKind.LI_PC, (0.3,)) == LiPCParams(0.3)
        assert params_from_phases(AlgorithmKind.LONG, (0.3,)) == LongParams(0.3)
        assert params_from_phases(AlgorithmKind.ORIGINAL, ()) == OriginalParams()


class TestPhaseParams:
    def test_kinds_are_tagged(self):
        assert OriginalParams().kind is AlgorithmKind.ORIGINAL
        assert LongParams(0.5).kind is AlgorithmKind.LONG
        assert LiDFParams(0.5).kind is AlgorithmKind.LI_DF
        assert LiCMParams(1, 2, 3, 4).kind is AlgorithmKind.LI_CM
        assert LiPCParams(0.5).kind is AlgorithmKind.LI_PC

    def test_long_diffusion_defaults_to_phi(self):
        params = LongParams(0.7)
        assert params.oracle_phase == 0.7
        assert params.diffusion_phase == 0.7

    def test_long_distinct_diffusion_phase(self):
        params = LongParams(0.7, 1.9)
        assert params.oracle_phase == 0.7
        assert params.diffusion_phase == 1.9

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_angles(self, bad):
        with pytest.raises(ValueError):
            LongParams(bad)
        with pytest.raises(ValueError):
            LiDFParams(bad)
        with pytest.raises(ValueError):
            LiCMParams(0.0, bad, 0.0, 0.0)
        with pytest.raises(ValueError):
            LiPCParams(bad)
