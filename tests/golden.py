"""Print one sha256 per CLI command over its exit code, stdout, stderr and CSV bytes.

Two trees whose outputs should be byte-identical print the same lines:

    python tests/golden.py > change.txt
    python tests/golden.py OTHER_CHECKOUT/src > parent.txt
    diff parent.txt change.txt

The optional argument is the src directory to import groverlab from; it
defaults to this checkout's.  The commands come from a fixed seed and cover
figures 1-5, sweeps of every kind with and without --matched (among them
phase axes of 1025 and 2500 steps, whose rows run in pieces of the phase
table, and a one-cell sweep), check-equivalence (with --perturb, --tol and bad
values), crosscheck up to n = 12 and at n = 15 and 16 (several statevector
chunks a gather), --samples 0, and usage errors.  Every
command runs in process, in a scratch directory, writing any CSV to out.csv.
pytest does not collect this file.
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

KINDS = ("original", "long", "lidf", "licm", "lipc")
SWEEP_KS = (0, 1, 5, 17, 1000, 2 ** 40, 2 ** 53)
SWEEP_GRIDS = (("0.1:1:3", "0:1:4"), ("1e-14:1:7", "-0.05:6.3:9"),
               ("0.25:0.25:1", "3.14:3.15:2"), ("0.5:1:21", "-1e6:1e6:11"),
               ("1e-8:1e-6:5", "-3.2:3.2:33"))


def commands():
    """The argv list, the same on every run."""
    rng = np.random.default_rng(20230)
    out = [["figure", str(i), "--out", "out.csv"] for i in range(1, 6)]
    for kind in KINDS:
        for matched in (False, True):
            for k in SWEEP_KS:
                for lam, phase in SWEEP_GRIDS:
                    out.append(["sweep", "--kind", kind, "--k", str(k), f"--lambda={lam}",
                                f"--phase={phase}", "--out", "out.csv"]
                               + ["--matched"] * matched)
            for k in (5, 2 ** 40):  # rows of two and three pieces of the phase table
                for steps in (1025, 2500):
                    out.append(["sweep", "--kind", kind, "--k", str(k), "--lambda=0.01:1:3",
                                f"--phase=-1e6:1e6:{steps}", "--out", "out.csv"]
                               + ["--matched"] * matched)
    # A one-cell sweep: its (1, 1) block gets the bits of the same cell in a wider one.
    out.append(["sweep", "--kind", "lipc", "--k", str(2 ** 40), "--lambda=1e-8:1e-8:1",
                "--phase=1000000:1000000:1", "--out", "out.csv"])
    phis = ["0", "1.3", "3.141592653589793", "-3.141592653589793", "1e8", "1e15", "1e308",
            "-1e308", "1e-300"]
    lambdas = ["1", "0.5", "0.3", "0.25", "1e-14", "1e-8"]
    perturbs = [None] * 4 + ["0", "1e-12", "0.1", "3", "7e307", "1e308", "-1e308"]
    tols = [None, "1e-6", "1e-300"]
    for _ in range(900):
        argv = ["check-equivalence",
                "--phi", phis[rng.integers(len(phis))] if rng.random() < 0.4
                else repr(float(rng.uniform(-10, 10))),
                "--lambda", lambdas[rng.integers(len(lambdas))] if rng.random() < 0.5
                else repr(float(10 ** rng.uniform(-14, 0))),
                "--k", str(int(rng.choice([0, 1, 5, 25, int(rng.integers(0, 1000)),
                                           int(rng.integers(0, 10 ** 6)),
                                           int(rng.integers(0, 2 ** 53 + 1))])))]
        perturb, tol = perturbs[rng.integers(len(perturbs))], tols[rng.integers(len(tols))]
        out.append(argv + (["--perturb", perturb] if perturb else [])
                   + (["--tol", tol] if tol else []))
    for n in range(1, 13):
        for seed in (0, 11, 2 ** 32 + 5):
            out.append(["crosscheck", "--n", str(n), "--seed", str(seed),
                        "--samples", str(int(rng.integers(0, 300)))])
    out.append(["crosscheck", "--n", "12", "--seed", "3", "--samples", "3000"])
    for n in (15, 16):  # several _CHUNK pieces of every gather, select and |on| write
        out += [["crosscheck", "--n", str(n), "--seed", str(seed), "--samples", "8"]
                for seed in range(3)]
    sweep = ["sweep", "--kind", "long", "--out", "out.csv"]
    axes = ["--lambda=0.1:1:3", "--phase=0:1:3"]
    check = ["check-equivalence", "--phi", "1", "--lambda", "0.5", "--k", "1"]
    out += [
        [], ["figure"], ["figure", "6", "--out", "out.csv"], ["bogus"],
        sweep + ["--k", "1", "--lambda=0:1:5", "--phase=0:1:3"],
        sweep + ["--k", "1", "--lambda=0.5:0.1:5", "--phase=0:1:3"],
        sweep + ["--k", "-1", *axes], sweep + ["--k", str(2 ** 53 + 1), *axes],
        sweep + ["--k", "1", "--lambda=0.1:1:3", "--phase=-1.7e308:1.7e308:3"],
        sweep + ["--k", "1", "--lambda=0.1:1", "--phase=0:1:3"],
        sweep + ["--k", "1", "--lambda=0.1:1:3", "--phase=0:1:0"],
        sweep + ["--k", "1", "--lambda=0.1:1:3", "--phase=0:1:2.5"],
        ["sweep", "--kind", "nope", "--k", "1", *axes, "--out", "out.csv"],
        ["sweep", "--kind", "long", "--k", "1", *axes, "--out", "missing-dir/out.csv"],
        ["check-equivalence", "--phi", "nan", "--lambda", "0.5", "--k", "1"],
        ["check-equivalence", "--phi", "-inf", "--lambda", "0.5", "--k", "1"],
        ["check-equivalence", "--phi", "abc", "--lambda", "0.5", "--k", "1"],
        ["check-equivalence", "--phi", "1", "--lambda", "0", "--k", "1"],
        ["check-equivalence", "--phi", "1", "--lambda", "1.5", "--k", "1"],
        ["check-equivalence", "--phi", "1", "--lambda", "nan", "--k", "1"],
        ["check-equivalence", "--phi", "1", "--lambda", "0.5", "--k", "2.5"],
        ["check-equivalence", "--phi", "1", "--lambda", "0.5", "--k", str(2 ** 53 + 1)],
        ["check-equivalence", "--phi", "1", "--lambda", "0.5"],
        check + ["--tol", "0"], check + ["--tol", "-1"], check + ["--tol", "nan"],
        check + ["--perturb", "inf"], check + ["--perturb", "-nan"],
        ["crosscheck", "--n", "0", "--seed", "1", "--samples", "2"],
        ["crosscheck", "--n", "25", "--seed", "1", "--samples", "2"],
        ["crosscheck", "--n", "3", "--seed", "-1", "--samples", "2"],
        ["crosscheck", "--n", "3", "--seed", "1", "--samples", "-1"],
        ["crosscheck", "--n", "3", "--seed", "1", "--samples", "0"],
        ["crosscheck", "--n", "3", "--seed", "1", "--samples", "2", "--tol", "0"],
        ["crosscheck", "--n", "3", "--seed", "1", "--samples", "2", "--tol", "nan"],
    ]
    return out


def digest(main, argv):
    """sha256 over the command's exit code, stdout, stderr and out.csv (or its absence)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    csv = Path("out.csv")
    data = csv.read_bytes() if csv.exists() else b"no csv"
    csv.unlink(missing_ok=True)
    h = hashlib.sha256()
    for part in (repr(rc).encode(), out.getvalue().encode(), err.getvalue().encode(), data):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def main():
    src = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parents[1] / "src")
    sys.path.insert(0, str(src.resolve()))
    from groverlab.cli import main as cli_main
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        for argv in commands():
            print(digest(cli_main, argv), " ".join(argv))


if __name__ == "__main__":
    main()
