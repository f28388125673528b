"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on passing runs as well.
"""
import math

import numpy as np

from groverlab.analysis import SweepGrid, closed_form_probability, optimal_iterations
from groverlab.equivalence import transform_phases, verify_phase_equivalence
from groverlab.model import (
    AlgorithmKind,
    LiCMParams,
    LiDFParams,
    LiPCParams,
    LongParams,
    OriginalParams,
    make_search_space,
)
from groverlab.statevector import measure, run_full
from groverlab.subspace import initial_state, success_probability

from helpers import (cubic, global_phase_align_reference, is_unitary, iteration_matrix,
                     one_step_at_half_pi, random_kind, random_params, run_matrix, sweep_array)

VARIANTS = (AlgorithmKind.LONG, AlgorithmKind.LI_DF, AlgorithmKind.LI_CM, AlgorithmKind.LI_PC)


def report(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_1_reference_curve_spot_values():
    p_half = closed_form_probability(0.5, optimal_iterations(0.5))
    p_low = closed_form_probability(0.147, optimal_iterations(0.147))
    ok = abs(p_half - 0.5) < 1e-12 and 0.845 <= p_low <= 0.858
    report(1, "reference-curve spot values", ok,
           f"P(0.5)={p_half!r} P(0.147)={p_low!r}")


def test_criterion_2_randomized_global_phase_equivalence():
    rng = np.random.default_rng(20240501)
    failures = 0
    for _ in range(1000):
        phi = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        lam = float(rng.uniform(1e-3, 1.0))
        reports = verify_phase_equivalence(LongParams(phi), initial_state(lam), tol=1e-10)
        failures += sum(not r.holds for r in reports)
    report(2, "randomized phase-transform equivalence", failures == 0,
           f"failures={failures}/3000 alignments")


def test_criterion_3_one_iteration_probability_floor():
    # The engine's one step at LongParams(pi/2) against the paper's cubic,
    # whose minimum over [1/3, 1] is 25/27, taken at m = 1/3 and m = 5/6.
    grid = np.linspace(1 / 3, 1.0, 100001)
    engine = one_step_at_half_pi(grid)
    worst = float(np.max(np.abs(engine - cubic(grid))))
    floor = float(np.min(engine))
    at_boundary, at_interior = one_step_at_half_pi([1 / 3, 5 / 6]).tolist()
    ok = (
        worst < 1e-12
        and abs(floor - 25 / 27) < 1e-12
        and abs(at_boundary - 25 / 27) < 1e-12
        and abs(at_interior - 25 / 27) < 1e-12
    )
    report(3, "25/27 single-iteration floor", ok,
           f"floor={floor!r} max |P - cubic| = {worst:.3e}")


def test_criterion_4_single_iteration_equivalence_across_variants():
    matched = {
        AlgorithmKind.LONG: LongParams(math.pi / 2),
        AlgorithmKind.LI_DF: LiDFParams(-math.pi / 4),
        AlgorithmKind.LI_CM: LiCMParams(math.pi / 2, 0.0, math.pi / 2, 0.0),
        AlgorithmKind.LI_PC: LiPCParams(-math.pi / 2),
    }
    worst = 0.0
    for m in np.linspace(0.001, 1.0, 1000):
        s = initial_state(float(m))
        expected = cubic(float(m))
        for kind, params in matched.items():
            p = success_probability(run_matrix(iteration_matrix(params, s), 1, s))
            worst = max(worst, abs(p - expected))
    report(4, "single-iteration cubic across variants", worst < 1e-10,
           f"max |P - cubic| = {worst:.3e}")


def test_criterion_5_matched_sweep_identity():
    fields = [
        sweep_array(SweepGrid(kind=kind, k=5), matched_from_long=True)
        for kind in VARIANTS
    ]
    worst = max(float(np.max(np.abs(fields[0] - f))) for f in fields[1:])
    report(5, "matched 101x101 sweep identity", worst < 1e-10,
           f"max pairwise deviation = {worst:.3e}")


def test_criterion_6_engine_cross_validation():
    rng = np.random.default_rng(987654321)
    worst_prob = 0.0
    worst_residual = 0.0
    for n in range(1, 11):
        size = 2 ** n
        for _ in range(100):
            num_targets = int(rng.integers(1, size + 1))
            marked = make_search_space(n, rng.choice(size, size=num_targets, replace=False))
            kind = random_kind(rng)
            params = random_params(rng, kind)
            k = int(rng.integers(0, 26))
            full = run_full(marked, params, k)
            s = initial_state(np.count_nonzero(marked) / marked.size)
            sub = run_matrix(iteration_matrix(params, s), k, s)
            probability, _, residual = measure(marked, full)
            worst_prob = max(worst_prob, abs(probability - success_probability(sub)))
            worst_residual = max(worst_residual, residual)
    ok = worst_prob < 1e-10 and worst_residual < 1e-10
    report(6, "statevector vs subspace cross-validation", ok,
           f"max prob deviation = {worst_prob:.3e}, max residual = {worst_residual:.3e}")


def test_criterion_7_reduction_to_the_original_iteration():
    worst_entrywise = 0.0
    worst_aligned = 0.0
    for lam in np.linspace(0.01, 1.0, 50):
        s = initial_state(float(lam))
        original = iteration_matrix(OriginalParams(), s)
        long_slice = iteration_matrix(LongParams(math.pi), s)
        lidf_slice = iteration_matrix(LiDFParams(0.0), s)
        worst_entrywise = max(
            worst_entrywise,
            float(np.max(np.abs(long_slice - original))),
            float(np.max(np.abs(lidf_slice - original))),
        )
        for kind in (AlgorithmKind.LI_CM, AlgorithmKind.LI_PC):
            mapped = transform_phases(LongParams(math.pi), kind)
            variant = iteration_matrix(mapped, s)
            chi = global_phase_align_reference(original, variant, 1e-10)
            if chi is None:
                worst_aligned = math.inf
            else:
                worst_aligned = max(
                    worst_aligned,
                    float(np.max(np.abs(original - np.exp(1j * chi) * variant))),
                )
    ok = worst_entrywise < 1e-12 and worst_aligned < 1e-10
    report(7, "variant slices reduce to the original", ok,
           f"entrywise = {worst_entrywise:.3e}, aligned = {worst_aligned:.3e}")


def test_criterion_8_unitarity_and_norm_stability():
    rng = np.random.default_rng(13579)
    unitary_ok = True
    for _ in range(1000):
        kind = random_kind(rng)
        s = initial_state(float(rng.uniform(1e-4, 1.0)))
        m = iteration_matrix(random_params(rng, kind), s)
        unitary_ok = unitary_ok and is_unitary(m, 1e-10)
    worst_norm = 0.0
    for _ in range(20):
        kind = random_kind(rng)
        s = initial_state(float(rng.uniform(1e-4, 1.0)))
        m = iteration_matrix(random_params(rng, kind), s)
        v = s
        for _ in range(1000):
            v = m @ v
            worst_norm = max(worst_norm, abs(float(np.linalg.norm(v)) - 1.0))
    ok = unitary_ok and worst_norm < 1e-9
    report(8, "unitarity and norm stability", ok,
           f"all unitary = {unitary_ok}, max norm drift over 1000 steps = {worst_norm:.3e}")
