"""Self-tests of the benchmark, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import itertools
import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from tracer import Hook, Tracer  # noqa: E402

CLI = run.load_cli()
METRIC_LINE = re.compile(r"metric (\S+) = (\S+) (\S+) \((.+)\)")


def tiny_ops(tmp_path: Path) -> list[wl.Op]:
    """One whole surface cycle on 11x11 grids, small crosschecks and a short deep-k cycle."""
    csv = tmp_path / "tiny.csv"
    return (list(itertools.islice(wl.surface_ops(5, csv, steps=11), 15))
            + list(itertools.islice(wl.crosscheck_ops(5, sizes=((3, 4), (6, 2))), 4))
            + list(itertools.islice(wl.deep_k_ops(5, log10_range=(-4.0, -2.0)), 16)))


def test_same_seed_yields_identical_argv(tmp_path):
    for workload in wl.workloads(tmp_path).values():
        first = [op.argv for op in itertools.islice(workload.ops(11), 40)]
        again = [op.argv for op in itertools.islice(workload.ops(11), 40)]
        other = [op.argv for op in itertools.islice(workload.ops(12), 40)]
        assert first == again and first != other


def test_every_tiny_op_passes_its_reference_check(tmp_path):
    runner = run.Runner(CLI)
    ops = tiny_ops(tmp_path)
    for op in ops:
        runner.run(op)
    assert runner.failures == []
    assert runner.attempted == len(ops)
    # The cycle covered every kind with and without --matched, and figures 1-5.
    sweeps = {(op.argv[2], "--matched" in op.argv) for op in ops if op.argv[0] == "sweep"}
    assert len(sweeps) == 10
    assert sorted(op.argv[1] for op in ops if op.argv[0] == "figure") == list("12345")


def test_one_corrupted_csv_value_is_a_failed_op(tmp_path):
    runner = run.Runner(CLI)
    sweep = next(op for op in tiny_ops(tmp_path) if op.argv[0] == "sweep")
    csv = Path(sweep.argv[sweep.argv.index("--out") + 1])
    assert runner.run(sweep).ok
    outcome = runner.execute(sweep)
    lines = csv.read_text().splitlines()
    row = lines[7].split(",")
    row[3] = repr(float(row[3]) + 1e-6)
    lines[7] = ",".join(row)
    csv.write_text("\n".join(lines) + "\n")
    assert not runner.check(sweep, outcome)
    assert runner.failures[0]["argv"] == list(sweep.argv)
    assert "probability" in runner.failures[0]["reason"]
    assert len(runner.failures) / runner.attempted == 0.5


def test_nonzero_exit_is_a_failed_op():
    runner = run.Runner(CLI)
    assert not runner.run(wl.crosscheck_op(0, 1, 1)).ok
    assert runner.failures[0]["reason"].startswith("exit code 1")


def test_figures_that_disagree_are_a_failed_op(tmp_path):
    state = wl.CheckState()
    state.figures = {i: np.full(101 * 101, 0.5) for i in (2, 3, 4)}
    op = wl.figure_op(5, tmp_path / "f.csv")
    runner = run.Runner(CLI)
    runner.state = state
    outcome = runner.execute(op)
    assert not runner.check(op, outcome)
    assert "vs figure 2" in runner.failures[0]["reason"]


def test_benchmark_json_lists_the_metrics_and_workloads(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(wl.workloads(tmp_path))
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(capsys, trace):
    assert run.main(["--workload", "deep-k", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = {m.group(1): m.group(3) for m in map(METRIC_LINE.fullmatch, lines) if m}
    expected = ({m.name: m.unit for m in PER_LAYER} if trace
                else {name: unit for name, unit, _ in run.END_TO_END})
    assert printed.pop("failed_ratio") == "ratio"
    if not trace:
        assert printed.pop("iters_per_s") == "1/s"
    assert printed == expected
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1


def test_without_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deep-k",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_self_times_nest_and_absent_hooks_are_reported(monkeypatch):
    inner_mod = types.ModuleType("fakepkg.inner")
    outer_mod = types.ModuleType("fakepkg.outer")

    def work(seconds):
        time.sleep(seconds)
        return seconds

    def top():
        outer_mod.work(0.02)
        outer_mod.work(0.01)
        time.sleep(0.01)

    inner_mod.work = work
    outer_mod.work = work      # the binding an import creates
    outer_mod.top = top
    for name, module in (("fakepkg", types.ModuleType("fakepkg")),
                         ("fakepkg.inner", inner_mod), ("fakepkg.outer", outer_mod)):
        monkeypatch.setitem(sys.modules, name, module)

    tracer = Tracer()
    tracer.install("fakepkg", [
        Hook("outer.top", "top"),
        Hook("inner.work", "work", lambda args, kwargs, result: {"slept": result}),
        Hook("inner.gone", "gone"),
    ])
    t0 = time.perf_counter()
    outer_mod.top()
    total = time.perf_counter() - t0
    tracer.uninstall()

    assert outer_mod.work is work and outer_mod.top is top
    assert tracer.absent == ["inner.gone"]
    stats = tracer.stats(0, tracer.mark())
    assert stats["top"].calls == 1 and stats["work"].calls == 2
    assert tracer.counters == {"slept": pytest.approx(0.03)}
    assert stats["work"].self_s >= 0.03
    assert 0.01 <= stats["top"].self_s < 0.02
    assert stats["top"].self_s + stats["work"].self_s == pytest.approx(total, rel=0.05)
