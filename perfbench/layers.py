"""The package's layers as seen by the tracer: hooks, counters and per-layer metrics.

The layers are the modules of ``groverlab``.  Each hook wraps one public
function (plus ``cli._write_csv``, the CSV writer) at every place it is
bound.  ``cli.main`` is the root span of every op, so the self times of all
spans together cover the op's wall time.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from tracer import Hook, SpanStats

COMPLEX_BYTES = 16

# Full-length complex vector passes (one read or one write of N amplitudes)
# that each statevector function makes, counted from its code.  Bytes are
# computed from these counts, not measured.
VECTOR_PASSES = {
    "apply_oracle": 2,         # copy: read + write (plus 2 per target index)
    "apply_diffusion": 5,      # sum, d * v, + uniform part
    "project_to_subspace": 6,  # gathers, residual copy and updates, norm
    "run_full": 1,             # the uniform initial state
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _state_bytes(function: str, space: Callable[[tuple, dict], object], targets: int = 0):
    def count(args, kwargs, result):
        s = space(args, kwargs)
        elements = VECTOR_PASSES.get(function, 0) * s.size + targets * s.num_targets
        return {"statevector.bytes_computed": COMPLEX_BYTES * elements}
    return count


def _vector_space(args, kwargs):
    return _arg(args, kwargs, 0, "v").space


def _csv_bytes(args, kwargs, result):
    return {"cli.bytes_out": os.path.getsize(_arg(args, kwargs, 0, "path")) if result == 0 else 0}


def _sweep_cells(args, kwargs, result):
    grid = _arg(args, kwargs, 0, "grid")
    return {"analysis.cells": grid.lambda_steps * grid.phase_steps}


def _run_iterations(args, kwargs, result):
    return {"subspace.run.iterations": _arg(args, kwargs, 1, "k")}


HOOKS = [
    Hook("cli.main", "cli"),
    Hook("cli._write_csv", "cli.write_csv", _csv_bytes),
    Hook("analysis.sweep", "analysis.sweep", _sweep_cells),
    Hook("analysis.closed_form_probability", "analysis.closed_form"),
    Hook("analysis.optimal_iterations", "analysis.closed_form"),
    Hook("equivalence.transform_phases", "equivalence.transform_phases"),
    Hook("equivalence.verify_phase_equivalence", "equivalence.verify"),
    Hook("operators.iteration_matrix", "operators.iteration_matrix"),
    Hook("linalg.is_unitary", "linalg.is_unitary"),
    Hook("linalg.global_phase_align", "linalg.phase_align"),
    Hook("model.geometry_from_lambda", "model.geometry"),
    Hook("model.geometry_of", "model.geometry"),
    Hook("model.make_search_space", "model.make_search_space"),
    Hook("subspace.run", "subspace.run", _run_iterations),
    Hook("subspace.success_probability", "subspace.success_probability"),
    Hook("statevector.run_full", "statevector.run_full",
         _state_bytes("run_full", lambda a, k: _arg(a, k, 0, "space"))),
    Hook("statevector.apply_oracle", "statevector.apply_oracle",
         _state_bytes("apply_oracle", _vector_space, targets=2)),
    Hook("statevector.apply_diffusion", "statevector.apply_diffusion",
         _state_bytes("apply_diffusion", _vector_space)),
    Hook("statevector.project_to_subspace", "statevector.project",
         _state_bytes("project_to_subspace", _vector_space)),
    Hook("statevector.target_probability", "statevector.target_probability",
         _state_bytes("target_probability", _vector_space, targets=1)),
]


@dataclass(frozen=True)
class TracedPass:
    """One traced pass: span stats, counters, and its wall time against the untraced pass."""

    spans: dict[str, SpanStats]
    counters: dict[str, float]
    traced_s: float
    untraced_s: float

    def calls(self, span: str) -> int:
        s = self.spans.get(span)
        return s.calls if s else 0

    def self_s(self, span: str) -> float:
        s = self.spans.get(span)
        return s.self_s if s else 0.0

    def count(self, name: str) -> float:
        return self.counters.get(name, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable[[TracedPass], float]
    timed: bool  # a time (median over passes) rather than a count


def _calls(span):
    return lambda p: p.calls(span)


def _self(span):
    return lambda p: p.self_s(span)


def _count(name):
    return lambda p: p.count(name)


# Each metric's comment names the end-to-end metric it should move.
PER_LAYER = [
    # work_per_s (cells) on surface
    LayerMetric("operators.iteration_matrix.calls", "count", "lower",
                _calls("operators.iteration_matrix"), False),
    LayerMetric("operators.iteration_matrix.self_s", "s", "lower",
                _self("operators.iteration_matrix"), True),
    LayerMetric("operators.matrices_per_cell", "ratio", "lower",
                lambda p: _ratio(p.calls("operators.iteration_matrix"),
                                 p.count("analysis.cells")), False),
    LayerMetric("linalg.is_unitary.calls", "count", "lower", _calls("linalg.is_unitary"), False),
    LayerMetric("linalg.is_unitary.self_s", "s", "lower", _self("linalg.is_unitary"), True),
    # surface (matched sweeps); should stay near 0 on deep-k
    LayerMetric("equivalence.transform_phases.calls", "count", "lower",
                _calls("equivalence.transform_phases"), False),
    LayerMetric("equivalence.transform_phases.self_s", "s", "lower",
                _self("equivalence.transform_phases"), True),
    LayerMetric("equivalence.verify.self_s", "s", "lower", _self("equivalence.verify"), True),
    # work_per_s and peak_mem_mb on surface
    LayerMetric("analysis.sweep.self_s", "s", "lower", _self("analysis.sweep"), True),
    LayerMetric("analysis.cells", "count", "higher", _count("analysis.cells"), False),
    LayerMetric("cli.self_s", "s", "lower", _self("cli"), True),
    LayerMetric("cli.write_csv_s", "s", "lower", _self("cli.write_csv"), True),
    LayerMetric("cli.bytes_out", "B", "lower", _count("cli.bytes_out"), False),
    # work_per_s (iterations) on deep-k; small on crosscheck
    LayerMetric("subspace.run.calls", "count", "lower", _calls("subspace.run"), False),
    LayerMetric("subspace.run.iterations", "count", "higher",
                _count("subspace.run.iterations"), False),
    LayerMetric("subspace.run.self_s", "s", "lower", _self("subspace.run"), True),
    LayerMetric("subspace.run.ns_per_iter", "ns", "lower",
                lambda p: 1e9 * _ratio(p.self_s("subspace.run"),
                                       p.count("subspace.run.iterations")), True),
    # work_per_s (samples) on crosscheck
    LayerMetric("model.geometry.calls", "count", "lower", _calls("model.geometry"), False),
    LayerMetric("model.geometry.self_s", "s", "lower", _self("model.geometry"), True),
    LayerMetric("model.make_search_space.self_s", "s", "lower",
                _self("model.make_search_space"), True),
    # work_per_s and peak_mem_mb on crosscheck
    LayerMetric("statevector.run_full.self_s", "s", "lower", _self("statevector.run_full"), True),
    LayerMetric("statevector.apply_oracle.calls", "count", "lower",
                _calls("statevector.apply_oracle"), False),
    LayerMetric("statevector.apply_oracle.self_s", "s", "lower",
                _self("statevector.apply_oracle"), True),
    LayerMetric("statevector.apply_diffusion.self_s", "s", "lower",
                _self("statevector.apply_diffusion"), True),
    LayerMetric("statevector.project.self_s", "s", "lower", _self("statevector.project"), True),
    LayerMetric("statevector.target_probability.self_s", "s", "lower",
                _self("statevector.target_probability"), True),
    LayerMetric("statevector.bytes_computed", "B", "lower",
                _count("statevector.bytes_computed"), False),
    # the tracer itself
    LayerMetric("trace.overhead_ratio", "ratio", "lower",
                lambda p: _ratio(p.traced_s, p.untraced_s), True),
    LayerMetric("trace.coverage", "ratio", "higher",
                lambda p: _ratio(sum(s.self_s for s in p.spans.values()), p.traced_s), True),
]
