"""Tests for the target-mask model and phase parameter bundles."""
from dataclasses import fields
from typing import get_args

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
    PhaseParams,
    make_search_space,
    params_from_phases,
)


class TestTargetMask:
    def test_single_target(self):
        marked = make_search_space(2, {3})
        assert marked.size == 4
        assert np.count_nonzero(marked) == 1
        assert np.flatnonzero(marked).tolist() == [3]

    def test_deduplicates_and_sorts(self):
        marked = make_search_space(3, [5, 1, 1])
        assert marked.size == 8
        assert np.flatnonzero(marked).tolist() == [1, 5]

    def test_full_target_edge(self):
        marked = make_search_space(1, {0, 1})
        assert marked.size == 2
        assert np.count_nonzero(marked) == 2

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
        marked = make_search_space(3, targets)
        expected = np.array([False, True, False, False, False, True, False, False])
        assert marked.dtype == bool
        assert np.array_equal(marked, expected)
        assert np.count_nonzero(marked) == 2

    def test_mask_is_read_only(self):
        marked = make_search_space(2, {1})
        with pytest.raises(ValueError):
            marked[0] = True
        assert np.flatnonzero(marked).tolist() == [1]

    def test_out_of_range_message_names_the_bounds_and_stays_short(self):
        bad = np.arange(-3, 2 ** 16 + 5)
        with pytest.raises(ValueError) as excinfo:
            make_search_space(16, bad)
        message = str(excinfo.value)
        assert message == "target indices must lie in [0, 65536), got min -3 and max 65540"

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            make_search_space(0, [0])

    @pytest.mark.parametrize("bad,named", [
        ([1.5], "1.5"), ([0.2, 0.7], "0.2"), ([1, 2.0], "2.0"), (np.array([1.0, 5.0]), "1.0"),
        ([True], "True"), ([1, False], "False"), (np.array([True, False]), "True"),
        (["1"], "'1'"), ("15", "'1'"),
    ])
    def test_rejects_non_integer_targets_naming_the_value(self, bad, named):
        with pytest.raises(ValueError, match="target indices must be integers") as excinfo:
            make_search_space(3, bad)
        assert named in str(excinfo.value)

    @pytest.mark.parametrize("targets", [
        [5, 1], (np.int32(5), 1), [np.uint64(5), np.int8(1)],
        np.array([5, 1], dtype=np.int8), np.array([5, 1], dtype=np.uint16),
        np.array([5, 1], dtype=np.int64), np.array([[5], [1]]),
    ])
    def test_accepts_python_and_numpy_integers(self, targets):
        assert np.flatnonzero(make_search_space(3, targets)).tolist() == [1, 5]


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
        assert params.diffusion_phase == 0.7

    def test_long_distinct_diffusion_phase(self):
        params = LongParams(0.7, 1.9)
        assert params.diffusion_phase == 1.9

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     np.float64("nan"), np.float64("-inf")])
    @pytest.mark.parametrize("cls", [cls for cls in get_args(PhaseParams) if fields(cls)],
                             ids=lambda cls: cls.__name__)
    def test_rejects_non_finite_angles(self, cls, bad):
        names = [field.name for field in fields(cls)]
        for name in names:
            with pytest.raises(ValueError, match=f"^{name} must be a finite angle, got {bad}$"):
                cls(**{**{other: 0.0 for other in names}, name: bad})
        # Several bad phases: the first in declaration order is named.
        with pytest.raises(ValueError, match=f"^{names[0]} must be a finite angle, got {bad}$"):
            cls(**{name: bad for name in names})
