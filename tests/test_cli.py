"""End-to-end tests of the command-line interface (exit codes, CSV contracts)."""
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import groverlab
from groverlab import analysis, cli, statevector
from groverlab.analysis import SweepGrid
from groverlab.cli import main
from groverlab.model import AlgorithmKind
from groverlab.statevector import run_full
from groverlab.subspace import UNITARITY_TOL

from helpers import crosscheck_reference, sweep_array


# The child interpreter imports the same package as this test process.
PACKAGE_ROOT = str(Path(groverlab.__file__).resolve().parents[1])


def run_python(*args):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def run_cli(*args):
    return run_python("-m", "groverlab", *args)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFigureCommand:
    def test_figure_one_contract(self, tmp_path):
        out = tmp_path / "fig1.csv"
        proc = run_cli("figure", "1", "--out", str(out))
        assert proc.returncode == 0
        header, rows = read_csv(out)
        assert header == ["lambda", "k", "probability"]
        assert len(rows) == 200
        by_lambda = {row[0]: row for row in rows}
        assert by_lambda["0.5"][1] == "1"
        assert abs(float(by_lambda["0.5"][2]) - 0.5) < 1e-9
        assert abs(float(by_lambda["1"][2]) - 1.0) < 1e-9

    def test_figure_two_contract(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli("figure", "2", "--out", str(out)).returncode == 0
        header, rows = read_csv(out)
        assert header == ["lambda", "phi", "k", "probability"]
        assert len(rows) == 101 * 101
        assert all(row[2] == "5" for row in rows[:50])

    def test_matched_figures_share_probability_columns(self, tmp_path):
        paths = {}
        for index in (2, 3, 4, 5):
            paths[index] = tmp_path / f"fig{index}.csv"
            assert run_cli("figure", str(index), "--out", str(paths[index])).returncode == 0
        reference = [float(r[3]) for r in read_csv(paths[2])[1]]
        for index in (3, 4, 5):
            probs = [float(r[3]) for r in read_csv(paths[index])[1]]
            assert max(abs(a - b) for a, b in zip(reference, probs)) < 1e-10

    def test_output_is_byte_identical_across_runs(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli("figure", "2", "--out", str(first)).returncode == 0
        assert run_cli("figure", "2", "--out", str(second)).returncode == 0
        assert first.read_bytes() == second.read_bytes()

    def test_invalid_index_is_usage_error(self, tmp_path):
        proc = run_cli("figure", "7", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_unwritable_path_is_io_error(self, tmp_path):
        proc = run_cli("figure", "1", "--out", str(tmp_path / "missing" / "x.csv"))
        assert proc.returncode == 1
        assert "cannot write" in proc.stderr


class TestSweepCommand:
    def test_basic_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(
            "sweep", "--kind", "lidf", "--k", "3",
            "--lambda", "0.1:0.9:5", "--phase", "0:6.28:7", "--out", str(out),
        )
        assert proc.returncode == 0
        header, rows = read_csv(out)
        assert header == ["lambda", "phase", "k", "probability"]
        assert len(rows) == 35

    def test_matched_sweep_equals_long_sweep(self, tmp_path):
        out_long = tmp_path / "long.csv"
        out_matched = tmp_path / "licm.csv"
        common = ["--k", "5", "--lambda", "0.05:1:6", "--phase", "0:6.2:9"]
        assert run_cli("sweep", "--kind", "long", *common, "--out", str(out_long)).returncode == 0
        assert run_cli("sweep", "--kind", "licm", "--matched", *common,
                       "--out", str(out_matched)).returncode == 0
        long_probs = [float(r[3]) for r in read_csv(out_long)[1]]
        licm_probs = [float(r[3]) for r in read_csv(out_matched)[1]]
        assert max(abs(a - b) for a, b in zip(long_probs, licm_probs)) < 1e-10

    def test_malformed_axis_is_usage_error(self, tmp_path):
        proc = run_cli("sweep", "--kind", "long", "--k", "1",
                       "--lambda", "0.1-0.9-5", "--phase", "0:1:2",
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1

    def test_out_of_domain_grid_is_usage_error(self, tmp_path):
        proc = run_cli("sweep", "--kind", "long", "--k", "1",
                       "--lambda", "0:1:5", "--phase", "0:1:2",
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1
        assert proc.stderr == "groverlab: error: --lambda must lie in (0, 1], got 0.0\n"

    @pytest.mark.parametrize("flag", ["--lambda", "--phase"])
    @pytest.mark.parametrize("steps,rule", [("0", ">= 1"), ("-3", ">= 1"), ("1e3", "an integer"),
                                            ("2.5", "an integer"), ("", "an integer")])
    def test_step_count_below_one_names_the_flag(self, flag, steps, rule, tmp_path, capsys):
        axes = {"--lambda": "0.1:1:3", "--phase": "0:1:3"}
        axes[flag] = axes[flag][:-1] + steps
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--kind", "long", "--k", "1", f"--lambda={axes['--lambda']}",
                  f"--phase={axes['--phase']}", "--out", str(out)])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: steps must be {rule}, got '{axes[flag]}'" in err
        assert not out.exists()

    @pytest.mark.parametrize("k,lam,phase", [(3, (0.3, 0.3, 1), (-0.05, -0.05, 1)),
                                             (0, (0.003, 1.0, 4), (-0.05, 6.3, 5)),
                                             # two blocks of 20 rows and 10 rows
                                             (5, (0.003, 1.0, 30), (-0.05, 6.3, 100)),
                                             # one row per block, wider than a block
                                             (17, (1e-14, 1.0, 2), (-1e9, 1e9, 2100))])
    @pytest.mark.parametrize("matched", [False, True])
    def test_csv_text_is_the_formatted_array(self, k, lam, phase, matched, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--kind", "licm", "--k", str(k), "--lambda=%r:%r:%d" % lam,
                "--phase=%r:%r:%d" % phase, "--out", str(out)]
        assert main(argv + ["--matched"] * matched) == 0
        grid = SweepGrid(kind=AlgorithmKind.LI_CM, k=k, lambda_min=lam[0], lambda_max=lam[1],
                         lambda_steps=lam[2], phase_min=phase[0], phase_max=phase[1],
                         phase_steps=phase[2])
        probabilities = sweep_array(grid, matched_from_long=matched)
        expected = ["lambda,phase,k,probability"] + [
            f"{format(x, '.12g')},{format(p, '.12g')},{k},{format(probabilities[i, j], '.12g')}"
            for i, x in enumerate(grid.lambdas()) for j, p in enumerate(grid.phases())
        ]
        assert out.read_bytes() == ("\n".join(expected) + "\n").encode()

    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_percent_template_formats_like_format(self, x):
        assert "%.12g" % x == format(x, ".12g")

    def test_rejected_sweep_leaves_out_untouched(self, monkeypatch, tmp_path, capsys):
        def reject(*args, **kwargs):
            raise ValueError("rejected")

        out = tmp_path / "x.csv"
        out.write_bytes(b"known bytes\n")
        monkeypatch.setattr(analysis, "check_unitary", reject)
        assert main(["sweep", "--kind", "lipc", "--k", "5", "--lambda=0.1:1:30",
                     "--phase=0:1:100", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "groverlab: error: rejected\n"
        assert out.read_bytes() == b"known bytes\n"

    def test_a_rejected_later_piece_leaves_out_untouched(self, monkeypatch, tmp_path, capsys):
        check_unitary = analysis.check_unitary
        pieces = []

        def reject_the_third_piece(kind, coefficients, s):
            pieces.append(coefficients[0].size)
            if len(pieces) == 3:
                raise ValueError("rejected")
            check_unitary(kind, coefficients, s)

        out = tmp_path / "x.csv"
        out.write_bytes(b"known bytes\n")
        monkeypatch.setattr(analysis, "check_unitary", reject_the_third_piece)
        assert main(["sweep", "--kind", "lidf", "--k", "5", "--lambda=0.1:1:3",
                     "--phase=0:1:2500", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "groverlab: error: rejected\n"
        assert out.read_bytes() == b"known bytes\n"
        assert pieces == [1024, 1024, 452]

    def test_one_cell_sweep_prints_the_bits_of_a_wider_sweep(self, tmp_path):
        # It printed 0.921985449683 when its (1, 1) block lost numpy's FMA bits.
        out = tmp_path / "x.csv"
        for steps in (1, 2):
            assert main(["sweep", "--kind", "lipc", "--k", str(2 ** 40), "--lambda=1e-8:1e-8:1",
                         f"--phase=1000000:1000000:{steps}", "--out", str(out)]) == 0
            rows = out.read_text().splitlines()[1:]
            assert rows == ["1e-08,1000000,1099511627776,0.92198545368"] * steps

    @pytest.mark.parametrize("kind, bound", [
        # With blocks of 2048 cells these peaked at 0.509 MB (lipc) and 0.063 MB
        # (original, which runs one cell per row); 0.285 and 0.064 MB in 1024.
        ("lipc", 0.32e6), ("original", 0.085e6)])
    def test_a_201x201_sweep_peaks_within_its_blocks(self, kind, bound, tmp_path):
        argv = ["sweep", "--kind", kind, "--k", "17", "--lambda=0.001:1:201", "--phase=0:6.3:201",
                "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 0  # fills the interpreter's free lists and caches first
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_memory_does_not_grow_with_the_grid(self, tmp_path):
        def peak(lambda_steps):
            tracemalloc.start()
            try:
                assert main(["sweep", "--kind", "lipc", "--k", "5",
                             f"--lambda=0.001:1:{lambda_steps}", "--phase=0:6.3:201",
                             "--out", str(tmp_path / "x.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 2001x201 probabilities alone would take 3.2 MB.
        assert peak(2001) - peak(51) < 0.5e6


class TestCheckEquivalenceCommand:
    def test_reference_point_holds(self):
        proc = run_cli("check-equivalence", "--phi", str(math.pi / 2),
                       "--lambda", str(1 / 3), "--k", "5")
        assert proc.returncode == 0
        assert proc.stdout.count("HOLD") == 3
        assert "FAIL" not in proc.stdout

    def test_original_limit_holds(self):
        proc = run_cli("check-equivalence", "--phi", str(math.pi),
                       "--lambda", "0.25", "--k", "3")
        assert proc.returncode == 0

    def test_perturbed_mapping_fails(self):
        proc = run_cli("check-equivalence", "--phi", "1.3", "--lambda", "0.37",
                       "--k", "5", "--perturb", "0.1")
        assert proc.returncode == 2
        assert proc.stdout.count("FAIL") == 3

    @pytest.mark.parametrize("phi", ["1e9", "-1e12"])
    def test_large_phase_is_read_mod_two_pi(self, phi, capsys):
        # Unreduced, |phi| * 2.2e-16 error in the phase transforms failed lidf and lipc.
        assert main(["check-equivalence", "--phi", phi, "--lambda", "0.5", "--k", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("HOLD") == 3
        assert "FAIL" not in out

    @pytest.mark.parametrize("phi", ["100000000", "1e15"])
    def test_phi_is_wrapped_before_the_library_call(self, phi, capsys):
        # verify_phase_equivalence(LongParams(phi), ...) itself FAILs lidf and
        # lipc here (tests/test_equivalence.py); the command wraps --phi first.
        assert main(["check-equivalence", "--phi", phi, "--lambda", "0.3", "--k", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.count("HOLD") == 3 and captured.err == ""

    def test_bad_lambda_is_usage_error(self):
        proc = run_cli("check-equivalence", "--phi", "1.0", "--lambda", "1.5", "--k", "1")
        assert proc.returncode == 1


class TestCrosscheckCommand:
    def test_agreement_at_eight_qubits(self):
        proc = run_cli("crosscheck", "--n", "8", "--seed", "42", "--samples", "100")
        assert proc.returncode == 0
        assert "max probability deviation" in proc.stdout
        assert "rng=" in proc.stdout

    def test_smallest_space(self):
        proc = run_cli("crosscheck", "--n", "1", "--seed", "7", "--samples", "50")
        assert proc.returncode == 0

    def test_zero_samples_is_vacuous_success(self):
        proc = run_cli("crosscheck", "--n", "4", "--seed", "1", "--samples", "0")
        assert proc.returncode == 0
        assert "0 cases" in proc.stdout

    def test_out_of_range_n_is_usage_error(self):
        proc = run_cli("crosscheck", "--n", "25", "--seed", "1", "--samples", "10")
        assert proc.returncode == 1

    @staticmethod
    def _poison(monkeypatch, sector, bad_calls):
        """Make run_full put nan on the first index of ``sector`` in the chosen calls."""
        calls = []

        def run_full_with_nan(marked, params, k, out=None):
            amplitudes = run_full(marked, params, k, out=out)
            indices = np.flatnonzero(marked if sector == "marked" else ~marked)
            if len(calls) in bad_calls and indices.size:
                amplitudes[indices[0]] = np.nan
            calls.append(k)
            return amplitudes

        monkeypatch.setattr(cli, "run_full", run_full_with_nan)

    @pytest.mark.parametrize("bad_call", [0, 1, 2])
    def test_nan_sample_is_reported_and_fails(self, monkeypatch, capsys, bad_call):
        # A nan target amplitude makes the sample's deviation and residual
        # nan; the maxima keep it wherever it falls among the samples.
        self._poison(monkeypatch, "marked", {bad_call})
        assert main(["crosscheck", "--n", "4", "--seed", "3", "--samples", "3"]) == 2
        assert capsys.readouterr().out.splitlines()[1:] == [
            "max probability deviation: nan",
            "max subspace residual: nan",
        ]

    def test_conjugated_statevector_phases_fail(self, monkeypatch, capsys):
        # Conjugating the engine's coefficients conjugates every amplitude, so
        # |a|^2 and the residual keep their bits; only the amplitude gap sees it.
        argv = ["crosscheck", "--n", "4", "--seed", "1", "--samples", "40"]
        assert main(argv) == 0
        honest = capsys.readouterr()
        assert honest.err == ""
        coefficients = statevector._coefficients
        monkeypatch.setattr(statevector, "_coefficients", lambda params: tuple(
            complex(x).conjugate() for x in coefficients(params)))
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == honest.out
        assert re.fullmatch(r"groverlab: max amplitude gap: \d\.\d{3}e[+-]\d+\n", err)
        assert float(err.rsplit(" ", 1)[1]) > 0.1

    def test_nan_residual_alone_fails(self, monkeypatch, capsys):
        # nan on a non-target index leaves the target probability finite.
        self._poison(monkeypatch, "unmarked", {0, 1, 2})
        assert main(["crosscheck", "--n", "4", "--seed", "3", "--samples", "3"]) == 2
        deviation, residual = capsys.readouterr().out.splitlines()[1:]
        assert float(deviation.rsplit(" ", 1)[1]) < 1e-10
        assert residual == "max subspace residual: nan"


    @pytest.mark.parametrize("kind", list(AlgorithmKind))
    def test_a_non_unit_row_of_one_kind_fails_naming_it(self, monkeypatch, capsys, kind):
        # Seed 3 draws all five kinds in its first 11 samples, so the block's
        # one table mixes them and the check must name the bad rows' kind.
        grow = math.sqrt(1.0 + 2.0 * UNITARITY_TOL)  # |target|^2 - 1 = 2 * UNITARITY_TOL
        coefficients = cli.operator_coefficients

        def scaled(params):
            target, rest, c, d = coefficients(params)
            return (target * grow if params.kind is kind else target), rest, c, d

        monkeypatch.setattr(cli, "operator_coefficients", scaled)
        assert main(["crosscheck", "--n", "4", "--seed", "3", "--samples", "11"]) == 1
        assert capsys.readouterr().err == (f"groverlab: error: {kind.value} iteration matrix failed "
                                           f"the unitarity check at {UNITARITY_TOL}\n")


class TestCrosscheckBlocks:
    # Between them these seeds draw every kind and k = 0 (checked below).
    SEEDS = (3, 5)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_output_equals_the_per_sample_path(self, monkeypatch, capsys, n):
        # With blocks of 3, 1, 4 and 7 samples end in a partial block, one
        # full block and a partial one, and two full blocks and a partial one.
        monkeypatch.setattr(cli, "BLOCK_CELLS", 3)
        drawn = []
        for seed in self.SEEDS:
            for samples in (1, 7, cli.BLOCK_CELLS + 1):
                lines, code, cases = crosscheck_reference(n, seed, samples)
                argv = ["crosscheck", "--n", str(n), "--seed", str(seed), "--samples", str(samples)]
                assert main(argv) == code
                assert capsys.readouterr().out.splitlines() == lines
                drawn += cases
        assert {kind for kind, _ in drawn} == set(AlgorithmKind)
        assert 0 in {k for _, k in drawn}

    def test_a_full_block_equals_the_per_sample_path(self, capsys):
        # 1025 samples: every (kind, k) pair shares its stacks with others.
        samples = cli.BLOCK_CELLS + 1
        lines, code, _ = crosscheck_reference(1, 3, samples)
        assert main(["crosscheck", "--n", "1", "--seed", "3", "--samples", str(samples)]) == code
        assert capsys.readouterr().out.splitlines() == lines

    def test_memory_does_not_grow_with_samples(self, monkeypatch):
        argv = ["crosscheck", "--n", "4", "--seed", "5", "--samples"]

        def peak(samples):
            tracemalloc.start()
            try:
                assert main([*argv, str(samples)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # Blocks of 64 samples: 2560 samples run 40 blocks, so a block's
        # records cannot hide growth across blocks.
        monkeypatch.setattr(cli, "BLOCK_CELLS", 64)
        # An untraced run of the same draws first fills the interpreter's
        # free lists and caches, which tracemalloc would count as growth.
        assert main([*argv, "2560"]) == 0
        small = peak(256)
        # A per-sample list of (deviation, residual) pairs adds ~150 kB here.
        assert peak(2560) <= small + 64 * 1024

    def test_every_sample_runs_in_one_aligned_buffer(self, monkeypatch):
        # One buffer across blocks too, starting on a 64-byte line.
        buffers = []

        def recording_run_full(marked, params, k, out=None):
            buffers.append(out)
            return run_full(marked, params, k, out=out)

        monkeypatch.setattr(cli, "run_full", recording_run_full)
        monkeypatch.setattr(cli, "BLOCK_CELLS", 3)
        assert main(["crosscheck", "--n", "4", "--seed", "3", "--samples", "7"]) == 0
        assert len(buffers) == 7 and all(out is buffers[0] for out in buffers)
        assert buffers[0].__array_interface__["data"][0] % 64 == 0

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux page faults")
    def test_samples_do_not_fault_their_state_in_again(self):
        # A fresh 512 KiB state per sample at n = 15 went back to the OS when
        # freed and was faulted in again: 288 faults a sample.  The run's one
        # buffer leaves about 18, from measure's own arrays.
        import resource

        argv = ["crosscheck", "--n", "15", "--seed", "1", "--samples", "16"]
        assert main(argv) == 0  # the first run faults the buffer and the heap in
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 64 * 16

    def test_n16_peaks_at_the_state_and_one_measure(self):
        # The state buffer lives for the whole run, so nothing may peak beside
        # it but measure: its documented bound, the same for any drawn M.
        n, size, seed, samples = 16, 2 ** 16, 4, 16
        argv = ["crosscheck", "--n", str(n), "--seed", str(seed), "--samples", str(samples)]
        assert main(argv) == 0  # fills the interpreter's free lists and caches first
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        measure_bound = 16 * size + 9 * statevector._CHUNK
        # Beside it the state (16N), the mask (N) and 16 KiB of parser, records
        # and small objects (6-8 KiB measured).  A second live state would add 1 MiB.
        assert peak <= 17 * size + measure_bound + 16384

    def test_a_full_block_peaks_below_400_bytes_a_sample(self):
        # One block of 1024 samples peaks at about 260 B a sample, 144 of
        # them its records.  Keeping each sample's bundle until the block's
        # table is built instead triples that.
        samples = cli.BLOCK_CELLS
        argv = ["crosscheck", "--n", "1", "--seed", "5", "--samples", str(samples)]
        assert main(argv) == 0  # fills the interpreter's free lists and caches first
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 400 * samples


class TestMainEntryPoint:
    def test_main_returns_exit_code_directly(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["figure", "1", "--out", str(out)]) == 0
        assert out.exists()

    def test_domain_errors_become_usage_errors(self, capsys):
        # A ValueError raised inside the command, not by argparse.
        code = main(["crosscheck", "--n", "21", "--seed", "1", "--samples", "1"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure"])
        assert excinfo.value.code == 1

    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1


class TestParserCache:
    # Two usage errors (one in a subparser), then each subcommand; {out} is the CSV path.
    ARGVS = (
        ["sweep", "--kind", "lipc", "--k", "2", "--lambda", "0.1:1:3", "--out", "{out}"],
        ["no-such-command"],
        ["figure", "1", "--out", "{out}"],
        ["sweep", "--kind", "lipc", "--k", "3", "--lambda", "0.1:1:4", "--phase", "-1:2:5",
         "--matched", "--out", "{out}"],
        ["check-equivalence", "--phi", "-1.3", "--lambda", "0.37", "--k", "5", "--perturb", "0.1"],
        ["crosscheck", "--n", "3", "--seed", "7", "--samples", "5"],
    )

    def test_import_builds_no_parser(self):
        proc = run_python("-c", "import groverlab.cli as cli; "
                                "print(cli.build_parser.cache_info().currsize)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    def test_main_calls_share_one_parser(self, capsys):
        cli.build_parser.cache_clear()
        argv = ["check-equivalence", "--phi", "1.3", "--lambda", "0.37", "--k", "5"]
        assert main(argv) == 0 and main(argv) == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def outcomes(self, out, capsys):
        """(rc, stdout, stderr, CSV bytes or None) of each argv, in order, in this process."""
        results = []
        for argv in self.ARGVS:
            try:
                rc = main([arg.replace("{out}", str(out)) for arg in argv])
            except SystemExit as exc:
                rc = exc.code
            csv = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            results.append((rc, *capsys.readouterr(), csv))
        return results

    def test_usage_errors_leave_the_cached_parser_as_a_fresh_one(self, monkeypatch, tmp_path,
                                                                 capsys):
        cli.build_parser()  # the errors below hit the cached tree
        cached = self.outcomes(tmp_path / "out.csv", capsys)
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = self.outcomes(tmp_path / "out.csv", capsys)
        assert [r[0] for r in cached] == [1, 1, 0, 0, 2, 0]
        assert cached == fresh


class TestNegativeValues:
    def test_negative_axis_reads_as_a_value(self, tmp_path):
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        common = ["sweep", "--kind", "lipc", "--k", "3", "--lambda", "0.1:0.9:4"]
        assert main([*common, "--phase", "-0.05:6.3:5", "--out", str(spaced)]) == 0
        assert main([*common, "--phase=-0.05:6.3:5", "--out", str(joined)]) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert spaced.read_text().splitlines()[1].split(",")[1] == "-0.05"

    @pytest.mark.parametrize("phi", ["-1e-3", "-.5"])
    def test_negative_scalar_reads_as_a_value(self, phi, capsys):
        assert main(["check-equivalence", "--phi", phi, "--lambda", "0.3", "--k", "2"]) == 0
        assert capsys.readouterr().out.count("HOLD") == 3

    @pytest.mark.parametrize("argv,message", [
        (["crosscheck", "--n", "3", "--seed", "1", "--samples", "2", "--tol", "-1e-3"],
         "--tol must be positive, got -0.001"),
        (["check-equivalence", "--phi", "1", "--lambda", "-5e-1", "--k", "1"],
         "--lambda must lie in (0, 1]"),
        (["sweep", "--kind", "long", "--k", "1", "--lambda", "-0.1:1:3", "--phase", "0:1:2"],
         "--lambda must lie in (0, 1], got -0.1"),
    ])
    def test_negative_value_reaches_the_domain_check(self, argv, message, tmp_path, capsys):
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(tmp_path / "x.csv")]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    def test_negative_perturb_reads_as_a_value(self, capsys):
        code = main(["check-equivalence", "--phi", "1.3", "--lambda", "0.37", "--k", "5",
                     "--perturb", "-1e-1"])
        assert code == 2
        assert capsys.readouterr().out.count("FAIL") == 3


class TestNonFiniteInput:
    @pytest.mark.parametrize("flag,argv", [
        ("--phase", ["sweep", "--kind", "long", "--k", "1", "--lambda", "0.1:1:3",
                     "--phase", "0:inf:3"]),
        ("--lambda", ["sweep", "--kind", "long", "--k", "1", "--lambda", "nan:1:3",
                      "--phase", "0:1:3"]),
        ("--phi", ["check-equivalence", "--phi", "nan", "--lambda", "0.5", "--k", "1"]),
        ("--tol", ["check-equivalence", "--phi", "1", "--lambda", "0.5", "--k", "1",
                   "--tol", "nan"]),
        ("--perturb", ["check-equivalence", "--phi", "1", "--lambda", "0.5", "--k", "1",
                       "--perturb", "inf"]),
        ("--tol", ["crosscheck", "--n", "3", "--seed", "1", "--samples", "2", "--tol", "nan"]),
        # finite endpoints whose span overflows; np.linspace would warn and fill nan
        ("--phase", ["sweep", "--kind", "long", "--k", "1", "--lambda=0.5:1:2",
                     "--phase=-1.7e308:1.7e308:3"]),
        # a leading minus sign: a value for the flag's own check, not an option
        ("--phi", ["check-equivalence", "--phi", "-inf", "--lambda", "0.5", "--k", "1"]),
        ("--perturb", ["check-equivalence", "--phi", "1", "--lambda", "0.5", "--k", "1",
                       "--perturb", "-nan"]),
        ("--phase", ["sweep", "--kind", "long", "--k", "1", "--lambda", "0.1:1:3",
                     "--phase", "-Infinity:1:3"]),
    ])
    def test_rejected_at_the_boundary_naming_the_flag(self, flag, argv, tmp_path, capsys,
                                                      recwarn):
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "finite" in err
        assert not recwarn.list
        assert not (tmp_path / "x.csv").exists()

    def test_non_numeric_float_keeps_the_argparse_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["check-equivalence", "--phi", "abc", "--lambda", "0.5", "--k", "1"])
        assert "argument --phi: invalid float value: 'abc'" in capsys.readouterr().err


class TestFlagNamedDomainErrors:
    @pytest.mark.parametrize("perturb,verdict", [
        ("0", "HOLD"), ("7e307", "FAIL"), ("1e308", "FAIL"), ("-1e308", "FAIL")])
    def test_huge_phi_and_perturb_run_to_a_verdict(self, perturb, verdict, capsys, recwarn):
        # --phi is wrapped into [-pi, pi] first, so adding any finite --perturb
        # to a mapped phase stays finite: an off-chain run fails the claim, not
        # the input.
        code = main(["check-equivalence", "--phi", "1e308", "--lambda", "0.5", "--k", "1",
                     "--perturb", perturb])
        captured = capsys.readouterr()
        assert code == (0 if verdict == "HOLD" else 2)
        assert [line.rsplit(" ", 1)[1] for line in captured.out.splitlines()] == [verdict] * 3
        assert captured.err == ""
        assert not recwarn.list

    @pytest.mark.parametrize("argv,message", [
        (["check-equivalence", "--phi", "1", "--lambda", "0.5", "--k", "1", "--tol", "0"],
         "--tol must be positive, got 0.0"),
        (["crosscheck", "--n", "3", "--seed", "1", "--samples", "-1"],
         "--samples must be >= 0, got -1"),
        (["crosscheck", "--n", "3", "--seed", "1", "--samples", "2", "--tol", "0"],
         "--tol must be positive, got 0.0"),
    ])
    def test_each_message_names_only_the_bad_flag(self, argv, message, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"groverlab: error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag,axis", [("--lambda", "0:1:5"), ("--lambda", "0.5:0.1:5"),
                                           ("--phase", "3:1:3")])
    def test_bad_sweep_axis_names_the_flag(self, flag, axis, tmp_path, capsys):
        axes = {"--lambda": "0.1:1:3", "--phase": "0:1:3", flag: axis}
        out = tmp_path / "x.csv"
        try:
            code = main(["sweep", "--kind", "long", "--k", "1", f"--lambda={axes['--lambda']}",
                         f"--phase={axes['--phase']}", "--out", str(out)])
        except SystemExit as exc:  # argparse rejects an axis with min > max
            code = exc.code
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_names_the_flag(self, capsys):
        assert main(["crosscheck", "--n", "4", "--seed", "-1", "--samples", "2"]) == 1
        captured = capsys.readouterr()
        assert "--seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("k,accepted", [(2 ** 53, True), (2 ** 53 + 1, False),
                                            (10 ** 30, False), (-1, False)])
    def test_huge_k_is_rejected_naming_the_bound(self, k, accepted, tmp_path, capsys):
        # Above 2**53 a float64 cannot hold k, so a result would mean nothing.
        code = main(["check-equivalence", "--phi", "1", "--lambda", "0.25", "--k", str(k)])
        captured = capsys.readouterr()
        if accepted:
            assert code != 1 and captured.err == ""
            assert len(captured.out.splitlines()) == 3
        else:
            assert code == 1 and captured.out == ""
            assert captured.err == ("groverlab: error: --k must lie in "
                                    f"[0, 2**53 = 9007199254740992], got {k}\n")
        out = tmp_path / "x.csv"
        code = main(["sweep", "--kind", "long", "--k", str(k), "--lambda=0.1:1:3",
                     "--phase=0:1:3", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == (0 if accepted else 1) and out.exists() is accepted
        if not accepted:
            assert captured.err == ("groverlab: error: --k must lie in "
                                    f"[0, 2**53 = 9007199254740992], got {k}\n")
