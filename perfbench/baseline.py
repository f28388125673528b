"""Summarise result files in perfbench/out/ into a baseline JSON.

Run the benchmark over several seeds first, then, from the repository root:

    python3 perfbench/baseline.py perfbench/baseline.json

For every (metric, workload) pair the baseline holds the median, the
quartiles, their spread as a share of the median, the number of runs and
each run's sample count; traced runs add the per-layer values and the
tracing overhead.  Failed ops are listed with their argv.
"""
from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
SAMPLES = re.compile(r"n=(\d+) ops|over (\d+) blocks|median of (\d+) interpreter|"
                     r"first (\d+) ops|(?:median of|one) (\d+)? ?traced pass")


def sample_count(note: str) -> int | None:
    match = SAMPLES.search(note)
    if not match:
        return None
    found = [g for g in match.groups() if g]
    return int(found[0]) if found else 1


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], median, values[0]))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "runs": len(values)}


def main(target: str) -> int:
    baseline: dict = {"workloads": {}, "failed_ops": []}
    for path in sorted(OUT.glob("result-*.json")):
        result = json.loads(path.read_text())
        prov = result["provenance"]
        baseline.setdefault("provenance", {
            k: prov[k] for k in ("commit", "src_sha256", "python", "numpy", "nproc",
                                 "cpu_model", "caches", "llc_bytes", "bandwidth_note")})
        runs = baseline["workloads"].setdefault(prov["workload"], {}).setdefault(
            f"trace{prov['trace']}", {"seeds": [], "attempted": 0, "failed": 0, "metrics": {}})
        runs["seeds"].append(prov["seed"])
        runs["attempted"] += result["attempted"]
        runs["failed"] += result["failed"]
        baseline["failed_ops"].extend(dict(f, workload=prov["workload"], seed=prov["seed"])
                                      for f in result["failures"])
        for name, metric in result["metrics"].items():
            entry = runs["metrics"].setdefault(name, {"unit": metric["unit"], "values": [],
                                                      "samples_per_run": []})
            entry["values"].append(metric["value"])
            entry["samples_per_run"].append(sample_count(result["notes"][name]))
    for workload in baseline["workloads"].values():
        for runs in workload.values():
            for entry in runs["metrics"].values():
                entry.update(summarise(entry["values"]))
    Path(target).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
