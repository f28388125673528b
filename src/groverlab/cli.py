"""Command-line front end.

Subcommands:
  figure             bundled CSV datasets 1-5 (probability curves/surfaces)
  sweep              explicit (lambda, phase) probability sweep to CSV
  check-equivalence  global-phase equivalence of the variants at one (phi, lambda)
  crosscheck         randomized subspace vs statevector engine comparison

Exit codes: 0 success, 1 usage or I/O error, 2 verification failure.
CSV output is UTF-8 with a header row, 12 significant digits, and LF line
endings; identical invocations produce byte-identical files.
"""
from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .analysis import SweepGrid, check_axis, closed_form_probability, optimal_iterations, sweep
from .equivalence import (TRANSFORMABLE_KINDS, check_tolerance, verify_phase_equivalence,
                          wrap_angle)
from .model import (AlgorithmKind, LongParams, check_iterations, make_search_space,
                    params_from_phases)
from .statevector import measure, run_full
from .subspace import (BLOCK_CELLS, check_proportion, check_unitary, initial_state,
                       iteration_planes, operator_coefficients, run, success_probability)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # No option of this CLI starts with a digit, nor with a single -i or -n, so
        # "-0.05:6.3:201", "-1e-3" and "-inf" are values.  Subparsers inherit this class.
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    # Usage errors exit 1; the default argparse status of 2 is reserved
    # for verification failures.
    def error(self, message: str) -> None:
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return format(value, ".12g")


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _axis(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected min:max:steps, got {text!r}")
    if not re.fullmatch(r"\s*[-+]?\d+\s*", parts[2]):  # int() would quote only the part
        raise argparse.ArgumentTypeError(f"steps must be an integer, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
        check_axis(lo, hi, steps, repr(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return lo, hi, steps


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process with the cmd_* functions bound at that call."""
    parser = _Parser(prog="groverlab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="write one of the bundled CSV datasets")
    fig.add_argument("index", type=int, choices=range(1, 6), help="dataset 1-5")
    fig.add_argument("--out", required=True, help="output CSV path")
    fig.set_defaults(func=cmd_figure)

    sw = sub.add_parser("sweep", help="explicit probability sweep to CSV")
    sw.add_argument("--kind", required=True, choices=sorted(kind.value for kind in AlgorithmKind))
    sw.add_argument("--k", required=True, type=int, help="iterations per cell")
    sw.add_argument("--lambda", dest="lam", required=True, type=_axis,
                    metavar="MIN:MAX:STEPS", help="target proportion axis")
    sw.add_argument("--phase", required=True, type=_axis,
                    metavar="MIN:MAX:STEPS", help="phase axis, radians")
    sw.add_argument("--matched", action="store_true",
                    help="read the phase axis as the long oracle phase and map "
                         "it to --kind through the transform condition")
    sw.add_argument("--out", required=True, help="output CSV path")
    sw.set_defaults(func=cmd_sweep)

    chk = sub.add_parser("check-equivalence",
                         help="verify the variants coincide up to a global phase")
    chk.add_argument("--phi", required=True, type=_finite,
                     help="long oracle phase, radians, read mod 2*pi")
    chk.add_argument("--lambda", dest="lam", required=True, type=float,
                     help="target proportion in (0, 1]")
    chk.add_argument("--k", required=True, type=int,
                     help="iterations for the probability comparison")
    chk.add_argument("--tol", type=_finite, default=1e-10)
    chk.add_argument("--perturb", type=_finite, default=0.0,
                     help="offset each mapped variant's phase off the condition")
    chk.set_defaults(func=cmd_check_equivalence)

    cc = sub.add_parser("crosscheck",
                        help="randomized comparison of the two engines")
    cc.add_argument("--n", required=True, type=int, help="qubit count, 1-20")
    cc.add_argument("--seed", required=True, type=int)
    cc.add_argument("--samples", required=True, type=int)
    cc.add_argument("--tol", type=_finite, default=1e-10)
    cc.set_defaults(func=cmd_crosscheck)

    return parser


def _write_csv(path: str, header: Sequence[str], lines: Iterable[str]) -> int:
    """Write the header and then each text of lines, which ends in its own newline."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(lines)
    except OSError as exc:
        print(f"groverlab: error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _write_sweep(path: str, phase_column: str, grid: SweepGrid, matched: bool) -> int:
    rows = sweep(grid, matched_from_long=matched)
    first = next(rows)  # a rejected sweep raises here, before --out is opened
    # One % per lambda row on the formatted columns; "%.12g" % p is _fmt(p).
    columns = [f",{_fmt(phase)},{grid.k},%.12g\n" for phase in grid.phases().tolist()]
    lines = ((lam + lam.join(columns)) % tuple(row.tolist())
             for lam, row in zip(map(_fmt, grid.lambdas().tolist()), chain([first], rows)))
    return _write_csv(path, ("lambda", phase_column, "k", "probability"), lines)


def cmd_figure(args: argparse.Namespace) -> int:
    if args.index == 1:
        # 200 uniform proportions j/200 ending at 1; the grid contains the
        # reference points 0.25, 0.5, and 1 exactly.
        lines = []
        for j in range(1, 201):
            lam = j / 200.0
            k = optimal_iterations(lam)
            lines.append(f"{_fmt(lam)},{k},{_fmt(closed_form_probability(lam, k))}\n")
        return _write_csv(args.out, ("lambda", "k", "probability"), lines)
    # Figures 2-5 are long, lidf, licm and lipc: the chain order.
    kind = TRANSFORMABLE_KINDS[args.index - 2]
    return _write_sweep(args.out, "phi", SweepGrid(kind=kind, k=5), True)


def cmd_sweep(args: argparse.Namespace) -> int:
    check_iterations("--k", args.k)
    for endpoint in args.lam[:2]:
        check_proportion("--lambda", endpoint)
    # Each axis is (min, max, steps), the order of SweepGrid's fields.
    grid = SweepGrid(AlgorithmKind(args.kind), args.k, *args.lam, *args.phase)
    return _write_sweep(args.out, "phase", grid, args.matched)


def cmd_check_equivalence(args: argparse.Namespace) -> int:
    check_proportion("--lambda", args.lam)
    check_tolerance("--tol", args.tol)
    check_iterations("--k", args.k)
    # In [-pi, pi] the transforms are exact, and a mapped phase plus --perturb is finite.
    phi = wrap_angle(args.phi)
    reports = verify_phase_equivalence(LongParams(phi), initial_state(args.lam),
                                       tol=args.tol, perturb=args.perturb, k=args.k)
    for rep in reports:
        measured = "none" if rep.measured_phase is None else _fmt(rep.measured_phase)
        print(
            f"long->{rep.target_params.kind.value}: predicted_phase={_fmt(rep.predicted_phase)} "
            f"measured_phase={measured} max_entry_deviation={rep.max_entry_deviation:.3e} "
            f"prob_deviation_k{args.k}={rep.prob_deviation:.3e} {'HOLD' if rep.holds else 'FAIL'}"
        )
    return EXIT_OK if all(rep.holds for rep in reports) else EXIT_VERIFICATION


def _random_case(rng: np.random.Generator, n: int):
    """A crosscheck sample: target mask, bundle of a drawn kind (from four drawn phases), k."""
    size = 2 ** n
    num_targets = int(rng.integers(1, size + 1))
    targets = rng.choice(size, size=num_targets, replace=False)
    kind = list(AlgorithmKind)[int(rng.integers(0, len(AlgorithmKind)))]
    params = params_from_phases(kind, rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=4))
    k = int(rng.integers(0, 26))
    return make_search_space(n, targets), params, k


def _subspace_states(kinds, table, starts, ks) -> np.ndarray:
    """Each sample's (2,) state after its k steps on the 2x2 engine, from stacked passes.

    kinds, starts and ks hold one entry per sample and table one column of
    (target, rest, c, d), each sample's own operator_coefficients row.  The
    table is checked once and its planes run once per k, so every cell gets
    the bits of its own single run.
    """
    check_unitary(kinds, table, starts)
    planes = iteration_planes(table, starts)
    states = np.empty((len(kinds), 2), complex)
    for k in np.unique(ks).tolist():  # run takes one int k per stack
        rows = ks == k
        states[rows] = run([p[rows] for p in planes], k, starts[rows])
    return states


def cmd_crosscheck(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= 20:
        raise ValueError(f"--n must lie in [1, 20], got {args.n}")
    if args.samples < 0:
        raise ValueError(f"--samples must be >= 0, got {args.samples}")
    check_tolerance("--tol", args.tol)
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    print(f"rng={type(rng.bit_generator).__name__} seed={args.seed} "
          f"n={args.n} samples={args.samples}")
    if args.samples == 0:
        print("0 cases checked; nothing to compare")
        return EXIT_OK
    maxima = np.full(3, -np.inf)  # worst probability deviation, residual and amplitude gap
    # Every sample's state goes into one buffer, faulted in once, on a 64-byte
    # line: at n = 12 the steps run ~8% slower on a state 16 bytes off a 32-byte
    # boundary, where malloc (16-byte aligned) puts about a quarter of them.
    raw = np.empty(2 ** args.n + 3, complex)
    skip = -raw.__array_interface__["data"][0] % 64 // 16
    full = raw[skip:skip + 2 ** args.n]
    for first in range(0, args.samples, BLOCK_CELLS):
        size = min(BLOCK_CELLS, args.samples - first)
        kinds, table, ks = np.empty(size, object), np.empty((4, size), complex), np.empty(size, int)
        starts, p_full, residuals = np.empty((size, 2)), np.empty(size), np.empty(size)
        projected = np.empty((size, 2), complex)
        for j in range(size):
            marked, params, ks[j] = _random_case(rng, args.n)
            kinds[j], table[:, j] = params.kind, operator_coefficients(params)
            run_full(marked, params, ks[j], out=full)
            starts[j] = initial_state(np.count_nonzero(marked) / marked.size)
            p_full[j], projected[j], residuals[j] = measure(marked, full)
        states = _subspace_states(kinds, table, starts, ks)
        deviations = np.abs(p_full - success_probability(states))
        gaps = np.abs(projected - states).max(axis=1)  # the phases too, not only |a|^2
        # np.maximum, unlike max, keeps a nan sample: it prints as nan and fails the run.
        maxima = np.maximum(maxima, [deviations.max(), residuals.max(), gaps.max()])
    max_prob_dev, max_residual, max_gap = maxima.tolist()
    print(f"max probability deviation: {max_prob_dev:.3e}")
    print(f"max subspace residual: {max_residual:.3e}")
    if not max_gap < args.tol:
        print(f"groverlab: max amplitude gap: {max_gap:.3e}", file=sys.stderr)
    return EXIT_OK if (maxima < args.tol).all() else EXIT_VERIFICATION


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)  # a ValueError is a usage error, flag checks included
    except ValueError as exc:
        print(f"groverlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
