"""groverlab benchmark: drives ``groverlab.cli.main(argv)`` in process.

Run from the repository root:

    python3 perfbench/run.py --workload surface --seed 1 --seconds 20 --trace 0

Each workload is a closed loop of CLI invocations (ops) generated from
``--seed``: the next op starts when the previous one returns, in one process
and one thread.  Every op's output is checked against the benchmark's own
reference (see ``workloads.py``); a failed op is reported with its argv.

``--trace 0`` prints the end-to-end metrics, measured with tracing off after
one warm-up op.  Op and set-up times are process CPU time, which other
tenants of a shared machine do not inflate; wall times are printed beside
them.  ``--trace 1`` runs a fixed list of ops untraced and then
traced, in pairs, and prints the per-layer metrics (see ``layers.py``).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Results with provenance and the traced spans go to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from typing import NamedTuple

# One thread of load: BLAS pools would add threads (and CPU time) to the
# process, so they are pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from layers import HOOKS, PER_LAYER, TracedPass  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CheckState, Op, Outcome, Workload, check_op, workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PACKAGE = "groverlab"

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_p90", "s", "lower"),
    ("peak_mem_mb", "MB", "lower"),
]
# What one unit of work_per_s is on each workload.
WORK_UNITS = {"surface": ("cells_per_s", "CSV data rows"),
              "crosscheck": ("samples_per_s", "crosscheck samples"),
              "deep-k": ("iters_per_s", "iterations (4 k per op)")}
SETUP_REPEATS = 15


class Timing(NamedTuple):
    """One op's process CPU time and wall time, in seconds, and its check."""

    cpu: float
    wall: float
    ok: bool


class Runner:
    """Runs ops through the CLI, checks each, and keeps the failure tally."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.state = CheckState()
        self.attempted = 0
        self.failures: list[dict] = []

    def execute(self, op: Op) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crashing op is a failed op; the run goes on
            return Outcome(None, out.getvalue(), err.getvalue(),
                           traceback.format_exc().strip().splitlines()[-1])
        return Outcome(rc, out.getvalue(), err.getvalue())

    def check(self, op: Op, outcome: Outcome) -> bool:
        problem = check_op(op, outcome, self.state)
        self.attempted += 1
        if problem:
            self.failures.append({"argv": list(op.argv), "reason": problem})
        return problem is None

    def run(self, op: Op) -> Timing:
        """The op's times (the check is not timed) and whether it passed."""
        c0, t0 = time.process_time(), time.perf_counter()
        outcome = self.execute(op)
        cpu, wall = time.process_time() - c0, time.perf_counter() - t0
        return Timing(cpu, wall, self.check(op, outcome))


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup() -> float:
    """CPU time (user + system) of a fresh interpreter importing the CLI module."""
    before = _children_cpu_s()
    subprocess.run([sys.executable, "-c", f"import {PACKAGE}.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   check=True, timeout=60, stdout=subprocess.DEVNULL)
    return _children_cpu_s() - before


@dataclasses.dataclass
class TimedPass:
    """Per-op CPU and wall times of whole blocks, the work of passed ops, and
    the set-up times measured between the blocks."""

    cpu: list[float] = dataclasses.field(default_factory=list)
    wall: list[float] = dataclasses.field(default_factory=list)
    work: int = 0
    blocks: int = 0
    setup: list[float] = dataclasses.field(default_factory=list)


def timed_pass(runner: Runner, ops, block: int, seconds: float) -> TimedPass:
    """Whole blocks of ops until ``seconds`` of wall time have passed.

    The host's speed changes over seconds, so the ``SETUP_REPEATS``
    interpreter starts are spread over the pass, between blocks, rather than
    taken in one burst; their time counts towards ``seconds``.
    """
    timed = TimedPass()
    start = time.perf_counter()
    while not timed.blocks or time.perf_counter() < start + seconds:
        elapsed = time.perf_counter() - start
        while (len(timed.setup) < SETUP_REPEATS
               and len(timed.setup) * seconds < SETUP_REPEATS * elapsed):
            timed.setup.append(measure_setup())
        for op in itertools.islice(ops, block):
            timing = runner.run(op)
            timed.cpu.append(timing.cpu)
            timed.wall.append(timing.wall)
            timed.work += op.work if timing.ok else 0
        timed.blocks += 1
    while len(timed.setup) < SETUP_REPEATS:
        timed.setup.append(measure_setup())
    return timed


def memory_pass(runner: Runner, ops: list[Op]) -> float:
    """Largest tracemalloc peak of any op above what was live before it, in bytes.

    Garbage of earlier ops (argparse leaves reference cycles) is collected
    first, and checks run after the reading.
    """
    peak = 0
    tracemalloc.start()
    try:
        for op in ops:
            gc.collect()
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            outcome = runner.execute(op)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - live)
            runner.check(op, outcome)
    finally:
        tracemalloc.stop()
    return float(peak)


def traced_passes(runner: Runner, ops: list[Op], seconds: float,
                  tracer: Tracer) -> list[TracedPass]:
    """Pairs of untraced and traced passes over ``ops`` until ``seconds`` of op time.

    The first pass only warms up (allocator, caches); the pairs alternate
    which side runs first.
    """
    def run_pass() -> float:
        return sum(runner.run(op).wall for op in ops)

    def run_traced() -> TracedPass:
        mark, before = tracer.mark(), dict(tracer.counters)
        tracer.install(PACKAGE, HOOKS)
        try:
            elapsed = run_pass()
        finally:
            tracer.uninstall()
        counters = {k: v - before.get(k, 0.0) for k, v in tracer.counters.items()}
        return TracedPass(tracer.stats(mark, tracer.mark()), counters, elapsed, 0.0)

    run_pass()
    passes, total = [], 0.0
    while not passes or total < seconds:
        if len(passes) % 2:
            traced = run_traced()
            untraced = run_pass()
        else:
            untraced = run_pass()
            traced = run_traced()
        passes.append(dataclasses.replace(traced, untraced_s=untraced))
        total += untraced + traced.traced_s
    return passes


def end_to_end(workload: Workload, runner: Runner, seed: int, seconds: float) -> dict:
    ops = workload.ops(seed)
    runner.run(next(ops))  # warm-up
    timed = timed_pass(runner, ops, workload.block, seconds)
    peak = memory_pass(runner, list(itertools.islice(workload.ops(seed), workload.memory_ops)))
    n, cpu_s, wall_s = len(timed.cpu), sum(timed.cpu), sum(timed.wall)
    alias, unit_of_work = WORK_UNITS[workload.name]
    return {
        "setup_s": (statistics.median(timed.setup),
                    f"median of {len(timed.setup)} interpreter starts, CPU time"),
        "work_per_s": (timed.work / cpu_s,
                       f"{alias}: {timed.work} {unit_of_work} of passed ops over "
                       f"{cpu_s:.3f} s CPU time, n={n} ops in {timed.blocks} blocks of "
                       f"{workload.block}; {timed.work / wall_s:.6g} per wall second"),
        "op_s_p50": (statistics.median(timed.cpu),
                     f"n={n} ops, CPU time; wall {statistics.median(timed.wall):.6g} s"),
        "op_s_p90": (_p90(timed.cpu), f"n={n} ops, CPU time; wall {_p90(timed.wall):.6g} s"),
        "peak_mem_mb": (peak / 1e6, f"max over the first {workload.memory_ops} ops, "
                                    f"rerun in an untimed tracemalloc pass"),
    }


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def per_layer(workload: Workload, runner: Runner, seed: int, seconds: float,
              tracer: Tracer) -> dict:
    ops = workload.ops(seed)
    trace_ops = list(itertools.islice(ops, workload.block))
    passes = traced_passes(runner, trace_ops, seconds, tracer)
    metrics = {}
    for m in PER_LAYER:
        if m.timed:
            value = statistics.median(m.value(p) for p in passes)
            note = f"median of {len(passes)} traced passes of {len(trace_ops)} ops"
        else:
            value = m.value(passes[0])
            note = f"one traced pass of {len(trace_ops)} ops"
        metrics[m.name] = (value, note)
    return metrics


def _read(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _size_bytes(text: str) -> int:
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    return int(text[:-1]) * scale[text[-1]] if text and text[-1] in scale else int(text or 0)


def provenance(workload: Workload, seed: int, trace: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = {"Data": "d", "Instruction": "i"}.get(_read(index / "type").strip(), "")
        caches[f"L{_read(index / 'level').strip()}{kind}"] = _read(index / "size").strip()
    llc = max((_size_bytes(s) for s in caches.values()), default=0)
    statevector_bytes = 16 * workload.largest_statevector
    return {
        "workload": workload.name, "seed": seed, "trace": trace,
        "commit": commit or "unknown (not a git checkout)",
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "caches": caches,
        "largest_statevector_bytes": statevector_bytes, "llc_bytes": llc,
        "bandwidth_note": (
            "statevector.bytes_computed is computed from array sizes, not measured; "
            + ("the largest statevector fits in the last-level cache, so it supports "
               "no memory-bandwidth claim" if statevector_bytes <= llc else
               "compare it with a measured bandwidth before any claim")),
    }


def load_cli():
    """Import the CLI from this checkout's ``src``; never from an installed copy."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no {PACKAGE} sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import groverlab.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / PACKAGE:
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's sources")
    return cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads(OUT)))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    cli = load_cli()
    OUT.mkdir(exist_ok=True)
    workload = workloads(OUT)[args.workload]
    runner = Runner(cli)
    prov = provenance(workload, args.seed, args.trace)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(prov))
    tracer = Tracer()
    if args.trace:
        measured = per_layer(workload, runner, args.seed, args.seconds, tracer)
        units = {m.name: m.unit for m in PER_LAYER}
        tracer.save(OUT / f"spans-{args.workload}.npz")
    else:
        measured = end_to_end(workload, runner, args.seed, args.seconds)
        units = {name: unit for name, unit, _ in END_TO_END}

    for name, (value, note) in measured.items():
        print(f"metric {name} = {value!r} {units[name]} ({note})")
        if name == "work_per_s":
            print(f"metric {WORK_UNITS[args.workload][0]} = {value!r} {units[name]} "
                  f"(work_per_s on {args.workload})")
    failed = len(runner.failures)
    print(f"metric failed_ratio = {failed / runner.attempted!r} ratio "
          f"({failed} failed of {runner.attempted} attempted ops)")
    for failure in runner.failures:
        print(f"failed op: argv={json.dumps(failure['argv'])} reason={failure['reason']}")
    for target in tracer.absent:
        print(f"absent hook: {target}")
    for target in sorted(tracer.broken):
        print(f"counter unavailable: {target}")

    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, (value, _) in measured.items()}}
    record = dict(result, provenance=prov, notes={n: note for n, (_, note) in measured.items()},
                  failures=runner.failures, absent_hooks=tracer.absent)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
