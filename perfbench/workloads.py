"""Seeded workloads for the groverlab benchmark and the checks of their outputs.

A workload is an endless, seeded sequence of CLI invocations (ops).  The
same seed always yields the same argv sequence; the program receives only
the generated argv.  Every op is checked against a reference written here,
independently of the package: the 2x2 operators are rebuilt from the
oracle/diffusion table in the docstring of ``groverlab/operators.py``.

Variance control: the per-op cost depends strongly on the drawn inputs
(``k``, kind, ``lambda``), so every draw is stratified within a cycle of ops
(each kind and each matched flag once per surface cycle, one ``k`` from each
of ten strata, one ``log lambda`` from each of 32 strata), and the op
order interleaves the op classes so that any prefix of the sequence has
nearly the same mix.  The values still cover the whole stated ranges.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

KINDS = ("original", "long", "lidf", "licm", "lipc")
TAU = 2.0 * math.pi

# Tolerances of the reference checks.
CELL_TOL = 1e-9       # CSV probabilities and axes vs the reference
FIGURE_TOL = 1e-10    # figure 2-5 probability columns vs each other
CROSSCHECK_TOL = 1e-10  # the CLI's own default for the probability deviation
RESIDUAL_TOL = 1e-9   # state must stay in span{|alpha>, |beta>}; seen ~1e-15


@dataclass(frozen=True)
class Op:
    """One CLI invocation, the work it performs, and what its check needs."""

    argv: tuple[str, ...]
    work: int              # CSV data rows, crosscheck samples, or 4*k iterations
    check: Callable[["Outcome", "CheckState"], str | None] = field(compare=False)


@dataclass(frozen=True)
class Outcome:
    """What one op returned: exit code and captured streams, or the exception."""

    rc: int | None
    stdout: str
    stderr: str
    error: str | None = None


@dataclass
class CheckState:
    """Cross-op state: the figure 2-5 probability columns of the current cycle."""

    figures: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named, seeded op sequence.

    ``block`` is the number of consecutive ops that carry the workload's
    whole mix; throughput is taken per block and the traced pass is one
    block.  The memory pass re-runs the sequence's first ``memory_ops`` ops.
    """

    name: str
    why: str
    ops: Callable[[int], Iterator[Op]]
    block: int
    memory_ops: int
    largest_statevector: int = 0   # amplitudes


def check_op(op: Op, outcome: Outcome, state: CheckState) -> str | None:
    """None when the op succeeded and its output matches the reference, else the reason."""
    if outcome.error is not None:
        return outcome.error
    if outcome.rc != 0:
        tail = (outcome.stderr or outcome.stdout).strip().splitlines()[-1:]
        return f"exit code {outcome.rc}: {' '.join(tail)}"
    try:
        return op.check(outcome, state)
    except (OSError, ValueError, IndexError) as exc:
        return f"unparseable output: {exc}"


# ---------------------------------------------------------------------------
# Reference: the operator table, vectorised over a grid.

def kind_phases(kind: str, phase: np.ndarray, matched: bool) -> dict[str, np.ndarray]:
    """Phase parameters of ``kind`` for a scalar phase axis.

    Unmatched, the axis is the kind's own single phase (licm pins
    gamma2 = eta2 = 0).  Matched, the axis is the long phase phi and the
    kind's phases follow phi = 2*tau + pi = gamma1 - gamma2 = -beta.
    """
    zero = np.zeros_like(phase)
    if kind == "long":
        return {"phi": phase}
    if kind == "lidf":
        return {"tau": (phase - math.pi) / 2.0 if matched else phase}
    if kind == "licm":
        return {"gamma1": phase, "gamma2": zero, "eta1": phase, "eta2": zero}
    if kind == "lipc":
        return {"beta": -phase if matched else phase}
    return {}


def operator_table(kind: str, p: dict[str, np.ndarray], shape) -> tuple[np.ndarray, ...]:
    """Oracle eigenvalues (target, rest) and diffusion coefficients (c, d)."""
    one = np.ones(shape, dtype=complex)
    e = lambda a: np.exp(1j * a)  # noqa: E731
    if kind == "original":
        return -one, one, 2.0 * one, -one
    if kind == "long":
        return e(p["phi"]) * one, one, (1.0 - e(p["phi"])) * one, -one
    if kind == "lidf":
        w = 2.0 * np.cos(p["tau"]) * e(p["tau"])
        return (1.0 - w) * one, one, w * one, -one
    if kind == "licm":
        return (-e(p["eta1"]) * one, -e(p["eta2"]) * one,
                (e(p["gamma1"]) - e(p["gamma2"])) * one, e(p["gamma2"]) * one)
    if kind == "lipc":
        return e(-p["beta"]) * one, one, (1.0 - e(p["beta"])) * one, e(p["beta"]) * one
    raise ValueError(f"unknown kind {kind!r}")


def reference_grid(kind: str, matched: bool, k: int,
                   lambdas: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Success probability after k iterations on every (lambda, phase) cell."""
    shape = (lambdas.size, phases.size)
    s = np.sqrt(lambdas)[:, None]          # sin(theta)
    c = np.sqrt(1.0 - lambdas)[:, None]    # cos(theta)
    ot, orr, cc, d = operator_table(kind, kind_phases(kind, phases[None, :], matched), shape)
    # One iteration: (cc |s><s| + d I) @ diag(ot, orr), |s> = (sin, cos).
    g00, g01 = (cc * s * s + d) * ot, cc * s * c * orr
    g10, g11 = cc * s * c * ot, (cc * c * c + d) * orr
    a = np.broadcast_to(s, shape).astype(complex)
    b = np.broadcast_to(c, shape).astype(complex)
    for _ in range(k):
        a, b = g00 * a + g01 * b, g10 * a + g11 * b
    return np.clip(np.abs(a) ** 2, 0.0, 1.0)


def _read_csv(path: Path, header: str, rows: int, cols: int) -> np.ndarray:
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if first != header + "\n":
            raise ValueError(f"header {first.strip()!r}, expected {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(f"shape {data.shape}, expected {(rows, cols)}")
    return data


def _compare(what: str, got: np.ndarray, want: np.ndarray, tol: float) -> str | None:
    if not np.all(np.isfinite(got)):
        return f"{what}: non-finite value"
    dev = float(np.max(np.abs(got - want))) if got.size else 0.0
    return None if dev <= tol else f"{what}: deviation {dev:.3e} > {tol:.0e}"


def _check_grid(csv: Path, header: str, kind: str, matched: bool, k: int,
                lambdas: np.ndarray, phases: np.ndarray) -> tuple[str | None, np.ndarray]:
    data = _read_csv(csv, header, lambdas.size * phases.size, 4)
    lam_col = np.repeat(lambdas, phases.size)
    phase_col = np.tile(phases, lambdas.size)
    want = reference_grid(kind, matched, k, lambdas, phases).ravel()
    for what, got, ref, tol in (("lambda", data[:, 0], lam_col, CELL_TOL),
                                ("phase", data[:, 1], phase_col, CELL_TOL),
                                ("k", data[:, 2], np.full(lam_col.size, k), 0.0),
                                ("probability", data[:, 3], want, CELL_TOL)):
        problem = _compare(what, got, ref, tol)
        if problem:
            return problem, data[:, 3]
    return None, data[:, 3]


# ---------------------------------------------------------------------------
# surface: figures 1-5 and 201x201 sweeps.

FIGURE_KINDS = {2: "long", 3: "lidf", 4: "licm", 5: "lipc"}


def figure_op(index: int, csv: Path) -> Op:
    def check(outcome: Outcome, state: CheckState) -> str | None:
        if index == 1:
            data = _read_csv(csv, "lambda,k,probability", 200, 3)
            lam = np.arange(1, 201) / 200.0
            k = np.floor(math.pi / (4.0 * np.sqrt(lam)))
            p = np.sin((2.0 * k + 1.0) * np.arcsin(np.sqrt(lam))) ** 2
            for what, got, want in (("lambda", data[:, 0], lam), ("k", data[:, 1], k),
                                    ("probability", data[:, 2], p)):
                problem = _compare(f"figure 1 {what}", got, want, CELL_TOL)
                if problem:
                    return problem
            return None
        problem, probs = _check_grid(csv, "lambda,phi,k,probability", FIGURE_KINDS[index],
                                     True, 5, np.linspace(0.01, 1.0, 101),
                                     np.linspace(0.0, TAU, 101))
        if problem:
            return f"figure {index} {problem}"
        state.figures[index] = probs
        if len(state.figures) == len(FIGURE_KINDS):
            # Acceptance criterion 5: the matched datasets tabulate one field.
            base = state.figures[2]
            problems = [_compare(f"figure {i} vs figure 2", state.figures[i], base, FIGURE_TOL)
                        for i in sorted(state.figures)]
            state.figures.clear()
            return next((p for p in problems if p), None)
        return None

    work = 200 if index == 1 else 101 * 101
    return Op(("figure", str(index), "--out", str(csv)), work, check)


def sweep_op(kind: str, matched: bool, k: int, lam_axis: tuple[float, float, int],
             phase_axis: tuple[float, float, int], csv: Path) -> Op:
    def axis(a: tuple[float, float, int]) -> str:
        return f"{a[0]!r}:{a[1]!r}:{a[2]}"

    def check(outcome: Outcome, state: CheckState) -> str | None:
        problem, _ = _check_grid(csv, "lambda,phase,k,probability", kind, matched, k,
                                 np.linspace(*lam_axis), np.linspace(*phase_axis))
        return problem and f"sweep {problem}"

    # "--phase=" form: argparse reads a separate "-0.05:6.3:201" as an option.
    argv = ("sweep", "--kind", kind, "--k", str(k), f"--lambda={axis(lam_axis)}",
            f"--phase={axis(phase_axis)}", "--out", str(csv))
    return Op(argv + (("--matched",) if matched else ()), lam_axis[2] * phase_axis[2], check)


def surface_ops(seed: int, csv: Path, steps: int = 201) -> Iterator[Op]:
    """Cycles of 15 ops: five units of (figure, sweep, sweep).

    Each cycle writes figures 1-5 in a seeded order and ten sweeps that
    cover every (kind, matched) pair once; each unit has one matched and
    one unmatched sweep, in seeded order.  k in [1, 64] is drawn once from
    each of ten strata, and the axis endpoints are jittered.
    """
    rng = np.random.default_rng(seed)
    while True:
        figures = rng.permutation(5) + 1
        kinds = {matched: rng.permutation(KINDS) for matched in (False, True)}
        ks = 1 + np.floor((rng.permutation(10) + rng.random(10)) * 6.4).astype(int)
        for i in range(5):
            yield figure_op(int(figures[i]), csv)
            for j, matched in enumerate(rng.permutation([False, True])):
                kind, matched = str(kinds[bool(matched)][i]), bool(matched)
                lo, hi = rng.uniform(0.01, 0.05), rng.uniform(0.95, 1.0)
                plo, phi = rng.uniform(-0.1, 0.1), rng.uniform(TAU - 0.1, TAU + 0.1)
                yield sweep_op(kind, matched, int(ks[2 * i + j]), (lo, hi, steps),
                               (plo, phi, steps), csv)


# ---------------------------------------------------------------------------
# crosscheck: randomized engine comparison at N = 2**12 and 2**16.

_CROSSCHECK_HEAD = re.compile(r"rng=\w+ seed=(\d+) n=(\d+) samples=(\d+)")


def crosscheck_op(n: int, seed: int, samples: int) -> Op:
    def check(outcome: Outcome, state: CheckState) -> str | None:
        lines = outcome.stdout.splitlines()
        head = _CROSSCHECK_HEAD.fullmatch(lines[0])
        if not head or tuple(map(int, head.groups())) != (seed, n, samples):
            return f"crosscheck header {lines[0]!r}"
        prefix = ("max probability deviation: ", "max subspace residual: ")
        if len(lines) != 3 or not all(l.startswith(p) for l, p in zip(lines[1:], prefix)):
            return f"crosscheck output {lines[1:]!r}"
        dev, residual = (float(l[len(p):]) for l, p in zip(lines[1:], prefix))
        if not dev < CROSSCHECK_TOL:
            return f"crosscheck probability deviation {dev:.3e}"
        if not residual <= RESIDUAL_TOL:
            return f"crosscheck subspace residual {residual:.3e}"
        return None

    return Op(("crosscheck", "--n", str(n), "--seed", str(seed), "--samples", str(samples)),
              samples, check)


# (n, samples) of the ops of one block.  The CLI draws M uniformly in [1, N]
# and k in [0, 25] per sample, so one sample's cost varies about tenfold and
# its memory peak with M; many samples per op average that out.  Two of the
# three ops are n = 12, so the median op sits inside that group.
# n = 20 (16 MiB) is left out: at ~1.5 s per sample a run holds one or two
# of them, which moved samples_per_s by 25% and peak_mem_mb by 20% between
# seeds.
CROSSCHECK_OPS = ((12, 128), (12, 128), (16, 16))


def crosscheck_ops(seed: int, sizes=CROSSCHECK_OPS) -> Iterator[Op]:
    rng = np.random.default_rng(seed)
    while True:
        for n, samples in sizes:
            yield crosscheck_op(n, int(rng.integers(2 ** 31)), samples)


# ---------------------------------------------------------------------------
# deep-k: check-equivalence at the optimal iteration count for small lambda.

_EQUIV_LINE = r"long->{kind}: predicted_phase=\S+ measured_phase=\S+ " \
              r"max_entry_deviation=\S+ prob_deviation_k{k}=\S+ HOLD"


def deep_k_op(phi: float, lam: float) -> Op:
    k = math.floor(math.pi / (4.0 * math.sqrt(lam)))

    def check(outcome: Outcome, state: CheckState) -> str | None:
        lines = outcome.stdout.splitlines()
        kinds = ("lidf", "licm", "lipc")
        if len(lines) != len(kinds):
            return f"check-equivalence printed {len(lines)} lines"
        for kind, line in zip(kinds, lines):
            if not re.fullmatch(_EQUIV_LINE.format(kind=kind, k=k), line):
                return f"check-equivalence line {line!r}"
        return None

    argv = ("check-equivalence", "--phi", repr(phi), "--lambda", repr(lam), "--k", str(k))
    # The CLI runs the long iteration and the three mapped variants k times each.
    return Op(argv, 4 * k, check)


DEEP_K_STRATA = 32


def deep_k_ops(seed: int, log10_range=(-10.0, -6.0)) -> Iterator[Op]:
    """Cycles of 32 ops, log10(lambda) drawn once from each of 32 strata."""
    rng = np.random.default_rng(seed)
    lo, hi = log10_range
    width = (hi - lo) / DEEP_K_STRATA
    while True:
        for stratum in rng.permutation(DEEP_K_STRATA):
            lam = 10.0 ** (lo + (stratum + rng.random()) * width)
            yield deep_k_op(float(rng.uniform(-math.pi, math.pi)), float(lam))


def workloads(out_dir: Path) -> dict[str, Workload]:
    """The benchmark's workloads; CSV outputs go under ``out_dir``."""
    csv = out_dir / "surface.csv"
    return {
        # The memory pass is a figure and a sweep: every sweep has the same
        # 201x201 grid, whose rows set the workload's peak.
        "surface": Workload(
            "surface",
            "figures 1-5 and 201x201 sweeps: per-cell operator construction, "
            "propagation and CSV output; no statevector work",
            lambda seed: surface_ops(seed, csv), block=3, memory_ops=2),
        # The peak follows the largest target count M among the n = 16
        # samples; the memory pass covers 64 of them (four blocks), so that
        # the largest M lies near N for every seed.
        "crosscheck": Workload(
            "crosscheck",
            "statevector engine and search-space set-up at N = 2**12 and 2**16 "
            "(64 KiB and 1 MiB statevectors); little 2x2 work",
            crosscheck_ops, block=len(CROSSCHECK_OPS), memory_ops=12,
            largest_statevector=2 ** max(n for n, _ in CROSSCHECK_OPS)),
        "deep-k": Workload(
            "deep-k",
            "k = floor(pi/(4 sqrt(lambda))) up to 78539 for lambda in [1e-10, 1e-6]: "
            "few matrices, long k-step propagation",
            deep_k_ops, block=DEEP_K_STRATA, memory_ops=8),
    }
