"""Tests for closed-form probabilities and sweep tables."""
import dataclasses
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from groverlab import analysis
from groverlab.analysis import SweepGrid, closed_form_probability, optimal_iterations, sweep
from groverlab.equivalence import transform_phases
from groverlab.model import AlgorithmKind, LongParams, OriginalParams
from groverlab.subspace import initial_state, run, success_probability

from helpers import (cubic, iteration_matrix, one_step_at_half_pi, run_matrix,
                     single_iteration_amplitude_long, sweep_array, unmatched_params)


def cubic_exact(m: Fraction) -> Fraction:
    return 4 * m ** 3 - 8 * m ** 2 + 5 * m


class TestClosedFormProbability:
    def test_half_proportion_single_iteration(self):
        assert closed_form_probability(0.5, 1) == pytest.approx(0.5, abs=1e-12)

    def test_full_proportion_no_iterations(self):
        assert closed_form_probability(1.0, 0) == pytest.approx(1.0, abs=1e-15)

    def test_quarter_proportion_single_iteration(self):
        assert closed_form_probability(0.25, 1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            closed_form_probability(bad, 1)

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            closed_form_probability(0.5, -1)

    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(1.0)])
    def test_non_integer_iterations_are_rejected(self, k):
        with pytest.raises(TypeError):
            closed_form_probability(0.5, k)

    def test_numpy_integer_iterations_equal_a_python_int(self):
        assert closed_form_probability(0.3, np.int64(4)) == closed_form_probability(0.3, 4)

    def test_matches_engine_on_a_grid(self):
        for lam in np.linspace(0.01, 1.0, 60):
            s = initial_state(float(lam))
            it = iteration_matrix(OriginalParams(), s)
            for k in (0, 1, 2, 5, 9):
                engine = success_probability(run_matrix(it, k, s))
                assert abs(engine - closed_form_probability(float(lam), k)) < 1e-10


class TestOptimalIterations:
    @pytest.mark.parametrize("lam,expected", [(0.5, 1), (1.0, 0), (1 / 64, 6), (0.25, 1)])
    def test_values(self, lam, expected):
        assert optimal_iterations(lam) == expected

    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            optimal_iterations(0.0)


class TestSingleIterationAmplitude:
    def test_full_proportion_at_pi(self):
        a1 = single_iteration_amplitude_long(1.0, math.pi)
        assert a1 == pytest.approx(-1.0, abs=1e-12)

    def test_pi_phase_recovers_triple_angle_form(self):
        # at phi = pi the amplitude is sqrt(m) * (3 - 4m) = sin(3 theta)
        for m in np.linspace(0.01, 1.0, 40):
            expected = math.sqrt(m) * (3.0 - 4.0 * m)
            assert single_iteration_amplitude_long(float(m), math.pi) == pytest.approx(
                expected, abs=1e-12
            )

    def test_half_proportion_at_half_pi_is_certain(self):
        assert abs(single_iteration_amplitude_long(0.5, math.pi / 2)) ** 2 == pytest.approx(
            1.0, abs=1e-12
        )


class TestSingleIterationProbability:
    """The paper's cubic 4m^3 - 8m^2 + 5m, checked on the engines."""

    def test_agrees_with_exact_rational_cubic(self):
        for j in range(1, 25):
            m = Fraction(j, 24)
            assert one_step_at_half_pi(float(m))[0] == pytest.approx(
                float(cubic_exact(m)), abs=1e-13
            )

    @pytest.mark.parametrize("m", [5 / 6, 1 / 3])
    def test_floor_value_at_known_points(self, m):
        assert one_step_at_half_pi(m)[0] == pytest.approx(25 / 27, abs=1e-12)

    def test_full_proportion(self):
        assert one_step_at_half_pi(1.0)[0] == 1.0

    def test_matches_squared_amplitude_at_half_pi(self):
        for m in np.linspace(0.001, 1.0, 1000):
            amp = single_iteration_amplitude_long(float(m), math.pi / 2)
            assert abs(abs(amp) ** 2 - cubic(float(m))) < 1e-12

    def test_matches_statevector_engine_at_realizable_proportions(self):
        from groverlab.model import LongParams, make_search_space
        from groverlab.statevector import measure, run_full

        for n in range(1, 11):
            size = 2 ** n
            for num_targets in {1, max(1, size // 3), size // 2 or 1, size}:
                marked = make_search_space(n, range(num_targets))
                out = run_full(marked, LongParams(math.pi / 2), 1)
                expected = cubic(num_targets / size)
                assert abs(measure(marked, out)[0] - expected) < 1e-10


class TestProbabilityFloor:
    """The minimum of the one-step probability over [m_min, 1], scanned on the engine."""

    def test_third_proportion(self):
        floor = float(np.min(one_step_at_half_pi(np.linspace(1 / 3, 1.0, 100001))))
        assert floor == pytest.approx(25 / 27, abs=1e-12)

    def test_critical_point_endpoint(self):
        floor = float(np.min(one_step_at_half_pi(np.linspace(5 / 6, 1.0, 100001))))
        assert floor == pytest.approx(25 / 27, abs=1e-12)

    @pytest.mark.parametrize("m_min", [0.05, 1 / 3, 0.4, 0.6, 5 / 6, 0.95])
    def test_agrees_with_grid_scan(self, m_min):
        grid = np.linspace(m_min, 1.0, 100001)
        scan = float(np.min(cubic(grid)))
        assert float(np.min(one_step_at_half_pi(grid))) == pytest.approx(scan, abs=1e-8)

    def test_engine_never_dips_below_floor_on_third_interval(self):
        grid = np.linspace(1 / 3, 1.0, 100000)
        assert float(np.min(one_step_at_half_pi(grid))) >= 25 / 27 - 1e-9


class TestSweep:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepGrid(kind=AlgorithmKind.LONG, k=1, lambda_min=0.0)
        with pytest.raises(ValueError):
            SweepGrid(kind=AlgorithmKind.LONG, k=1, lambda_min=0.9, lambda_max=0.5)
        with pytest.raises(ValueError):
            SweepGrid(kind=AlgorithmKind.LONG, k=1, phase_steps=0)
        with pytest.raises(ValueError):
            SweepGrid(kind=AlgorithmKind.LONG, k=-1)
        finite = "endpoints and max - min must be finite, got "
        with pytest.raises(ValueError, match=re.escape(
                finite + "phase_min=0.0, phase_max=inf, phase_steps=101")):
            SweepGrid(kind=AlgorithmKind.LONG, k=1, phase_max=float("inf"))
        with pytest.raises(ValueError, match=re.escape(
                finite + "phase_min=nan, phase_max=6.283185307179586, phase_steps=101")):
            SweepGrid(kind=AlgorithmKind.LONG, k=1, phase_min=float("nan"))
        with pytest.raises(ValueError, match=re.escape(
                finite + "phase_min=-1.7e+308, phase_max=1.7e+308, phase_steps=101")):
            SweepGrid(kind=AlgorithmKind.LONG, k=1, phase_min=-1.7e308, phase_max=1.7e308)

    def test_iteration_count_is_bounded_by_float64_integers(self):
        SweepGrid(kind=AlgorithmKind.LONG, k=2 ** 53)
        with pytest.raises(ValueError, match=re.escape(
                "k must lie in [0, 2**53 = 9007199254740992], got 9007199254740993")):
            SweepGrid(kind=AlgorithmKind.LONG, k=2 ** 53 + 1)

    @pytest.mark.parametrize("k", [2.5, np.float64(3.0)])
    def test_non_integer_k_is_rejected(self, k):
        with pytest.raises(TypeError):
            SweepGrid(kind=AlgorithmKind.LONG, k=k)

    @pytest.mark.parametrize("field", ["lambda_steps", "phase_steps"])
    @pytest.mark.parametrize("steps", [2.5, 3.0, np.float64(3.0)])
    def test_non_integer_step_count_is_rejected(self, field, steps):
        with pytest.raises(TypeError):
            SweepGrid(kind=AlgorithmKind.LONG, k=1, **{field: steps})

    @pytest.mark.parametrize("field", ["lambda_steps", "phase_steps"])
    def test_numpy_integer_step_count_is_accepted(self, field):
        grid = SweepGrid(kind=AlgorithmKind.LONG, k=1, **{field: np.int64(3)})
        assert sweep_array(grid).shape == (grid.lambda_steps, grid.phase_steps)

    def test_numpy_integer_k_sweeps_like_a_python_int(self):
        grid = dict(kind=AlgorithmKind.LI_CM, lambda_steps=5, phase_steps=4)
        assert np.array_equal(sweep_array(SweepGrid(k=np.int64(7), **grid)),
                              sweep_array(SweepGrid(k=7, **grid)))

    def test_shape_is_lambda_by_phase(self):
        grid = SweepGrid(kind=AlgorithmKind.LONG, k=2, lambda_steps=4, phase_steps=3)
        probabilities = sweep_array(grid)
        assert probabilities.shape == (4, 3)  # lambda-major: one row per lambda
        assert np.all(np.diff(grid.lambdas()) > 0) and np.all(np.diff(grid.phases()) > 0)
        assert np.all((0.0 <= probabilities) & (probabilities <= 1.0))

    def test_yields_one_float64_row_per_lambda(self, monkeypatch):
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 6)  # blocks of two rows of three
        rows = sweep(SweepGrid(kind=AlgorithmKind.LONG, k=2, lambda_steps=5, phase_steps=3))
        assert not isinstance(rows, np.ndarray)
        rows = list(rows)
        assert len(rows) == 5
        assert all(row.shape == (3,) and row.dtype == np.float64 for row in rows)

    def test_rows_longer_than_a_block_join_their_pieces(self, monkeypatch):
        grid = SweepGrid(kind=AlgorithmKind.LI_PC, k=5, lambda_steps=3, phase_steps=7)
        whole = sweep_array(grid)
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 3)  # pieces of 3, 3 and 1 phases
        rows = list(sweep(grid))
        assert all(row.shape == (7,) and row.dtype == np.float64 for row in rows)
        assert not any(row.flags.writeable for row in rows)
        assert np.array_equal(np.array(rows), whole)

    def test_no_block_runs_more_cells_than_the_block_size(self, monkeypatch):
        cells = []

        def recording_run(planes, k, start):
            cells.append(planes[0].size)
            return run(planes, k, start)

        monkeypatch.setattr(analysis, "run", recording_run)
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 4)
        for kind in (AlgorithmKind.ORIGINAL, AlgorithmKind.LONG):
            for lambda_steps, phase_steps in ((9, 2), (2, 9), (1, 4), (3, 1)):
                grid = SweepGrid(kind=kind, k=3, lambda_steps=lambda_steps,
                                 phase_steps=phase_steps)
                assert sweep_array(grid).shape == (lambda_steps, phase_steps)
        assert cells and max(cells) <= 4

    def test_one_cell_grid_equals_its_scalar_run_exactly(self):
        # A (1,) table entry times a (1, 1) cell once lost numpy's FMA bits:
        # this cell printed 0.921985449683 alone and 0.92198545368 in a stack.
        grid = SweepGrid(kind=AlgorithmKind.LI_PC, k=2 ** 40, lambda_min=1e-8, lambda_max=1e-8,
                         lambda_steps=1, phase_min=1e6, phase_max=1e6, phase_steps=1)
        s = initial_state(1e-8)
        m = iteration_matrix(unmatched_params(grid.kind, 1e6), s)
        assert sweep_array(grid)[0, 0] == success_probability(run_matrix(m, grid.k, s))
        wider = dataclasses.replace(grid, phase_steps=2)
        assert sweep_array(grid)[0, 0] == sweep_array(wider)[0, 0]

    def test_wide_phase_axis_peaks_at_its_table(self):
        # 3 x 1e4 lipc phases peaked at 2.73 MB with the whole axis in one block
        # and one check; 1.01 MB in pieces of 1024 (the 0.64 MB table, the phase
        # axis and a joined row).
        grid = SweepGrid(kind=AlgorithmKind.LI_PC, k=3, lambda_min=0.1, lambda_max=0.2,
                         lambda_steps=3, phase_min=0.0, phase_max=6.3, phase_steps=10 ** 4)
        for _ in sweep(grid):  # fills the interpreter's free lists and caches first
            pass
        tracemalloc.start()
        try:
            for _ in sweep(grid):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2e6

    def test_deterministic_across_calls(self):
        grid = SweepGrid(kind=AlgorithmKind.LI_CM, k=5, lambda_steps=7, phase_steps=9)
        assert np.array_equal(sweep_array(grid), sweep_array(grid))

    def test_matches_per_cell_engine_runs(self):
        grid = SweepGrid(kind=AlgorithmKind.LI_PC, k=4, lambda_steps=5, phase_steps=6)
        for lam, row in zip(grid.lambdas().tolist(), sweep_array(grid).tolist()):
            for phase, prob in zip(grid.phases().tolist(), row):
                s = initial_state(lam)
                it = iteration_matrix(unmatched_params(grid.kind, phase), s)
                assert abs(prob - success_probability(run_matrix(it, grid.k, s))) < 1e-14

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    @pytest.mark.parametrize("matched", [False, True])
    def test_every_cell_equals_its_scalar_run_exactly(self, monkeypatch, kind, matched):
        matched = matched and kind is not AlgorithmKind.ORIGINAL
        for k, block in itertools.product((0, 1, 5, 17), (25, 5)):
            # 25: blocks of two of the 11 lambda rows, the last one short.  5: each
            # row in pieces of 5, 5 and 1 phases, the last a (1, 1) block.
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", block)
            grid = SweepGrid(kind=kind, k=k, lambda_min=0.003, lambda_steps=11,
                             phase_min=-0.05, phase_max=6.3, phase_steps=11)
            probabilities = sweep_array(grid, matched_from_long=matched).tolist()
            for lam, row in zip(grid.lambdas().tolist(), probabilities):
                for phase, prob in zip(grid.phases().tolist(), row):
                    params = (transform_phases(LongParams(phase), kind) if matched
                              else unmatched_params(kind, phase))
                    s = initial_state(lam)
                    m = iteration_matrix(params, s)
                    assert prob == success_probability(run_matrix(m, k, s))

    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    @pytest.mark.parametrize("matched", [False, True])
    @pytest.mark.parametrize("lam", [1e-14, 0.25, 1.0])
    def test_corner_cells_equal_their_scalar_runs_exactly(self, kind, matched, lam):
        # The phase axis lands on 0, pi/2, pi, 3pi/2 and 2pi: lidf tau = pi/2,
        # lipc beta = +-pi, long at 0 and pi (m = +-I up to a phase), and licm
        # at all-zero phases.
        matched = matched and kind is not AlgorithmKind.ORIGINAL
        for k in (0, 1, 3, 17, 2 ** 53):
            grid = SweepGrid(kind=kind, k=k, lambda_min=lam, lambda_max=lam, lambda_steps=1,
                             phase_min=0.0, phase_max=2 * math.pi, phase_steps=5)
            phases = grid.phases().tolist()
            assert phases == [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi]
            (row,) = sweep_array(grid, matched_from_long=matched).tolist()
            for phase, prob in zip(phases, row):
                params = (transform_phases(LongParams(phase), kind) if matched
                          else unmatched_params(kind, phase))
                s = initial_state(lam)
                assert prob == success_probability(run_matrix(iteration_matrix(params, s), k, s))

    def test_original_kind_ignores_phase_axis(self):
        grid = SweepGrid(
            kind=AlgorithmKind.ORIGINAL, k=1,
            lambda_min=0.5, lambda_max=0.5, lambda_steps=1, phase_steps=5,
        )
        probabilities = sweep_array(grid)
        assert probabilities.shape == (1, 5)
        assert all(p == pytest.approx(0.5, abs=1e-12) for p in probabilities.flat)

    def test_matched_sweeps_tabulate_one_field(self):
        fields = []
        for kind in (AlgorithmKind.LONG, AlgorithmKind.LI_DF, AlgorithmKind.LI_CM, AlgorithmKind.LI_PC):
            grid = SweepGrid(kind=kind, k=5, lambda_steps=11, phase_steps=13)
            fields.append(sweep_array(grid, matched_from_long=True))
        for other in fields[1:]:
            assert np.max(np.abs(fields[0] - other)) < 1e-10

    def test_long_surface_has_certainty_ridge_at_pi_for_quarter_proportion(self):
        grid = SweepGrid(
            kind=AlgorithmKind.LONG, k=1,
            lambda_min=0.25, lambda_max=0.25, lambda_steps=1,
            phase_min=math.pi, phase_max=math.pi, phase_steps=1,
        )
        assert sweep_array(grid)[0, 0] == pytest.approx(1.0, abs=1e-12)
