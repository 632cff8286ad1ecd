"""Measure the benchmark's spread and record its baseline.

Usage (from the repository root)::

    python3 perfbench/make_baseline.py [--runs 10] [--workload NAME ...]

Runs ``perfbench/run.py`` the way BENCHMARK.json says: ``--runs`` times
per workload with seeds 1, 2, ..., then once traced with seed 1.  For
each end-to-end metric it reports the median and the spread (distance
between the first and third quartile over the runs, as a share of the
median) next to a third of the metric's bound, and it writes everything
to ``perfbench/baseline.json``: per-workload medians and quartiles, the
seed-1 virtual digest, and the seed-1 per-layer table.  Exits 1 if a
run fails or is incorrect, if the traced seed-1 run's virtual digest
differs from the untraced one's, or if a spread other than
``setup_s`` reaches a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def _run(spec: dict, workload: str, seed: int, trace: int) -> List[dict]:
    """One benchmark run; returns its (provenance, result) lines."""
    done = subprocess.run(
        [*spec["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{done.returncode}:\n{done.stderr[-3000:]}")
    provenance, result = (json.loads(line)
                          for line in done.stdout.splitlines()[-2:])
    return [provenance["provenance"], result]


def _summary(values: List[float]) -> Dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    baseline: Dict[str, object] = {}
    for name in names:
        values: Dict[str, List[float]] = {}
        runs = []
        for seed in range(1, args.runs + 1):
            provenance, result = _run(spec, name, seed, trace=0)
            runs.append(provenance)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
            ok &= result["correct"] and result["failed"] == 0
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        trace_provenance, traced = _run(spec, name, 1, trace=1)
        ok &= traced["correct"] and traced["failed"] == 0
        # Same seed, another process, traced: the model must not move.
        ok &= trace_provenance["virtual_digest"] == runs[0]["virtual_digest"]
        end_to_end = {}
        for metric, series in values.items():
            summary = _summary(series)
            end_to_end[metric] = summary
            limit = bounds[metric] / 3
            steady = metric == "setup_s" or summary["spread"] < limit
            ok &= steady
            print(f"  {metric:<22} median {summary['median']:<14.6g} "
                  f"spread {summary['spread']:.4f} (a third of the bound: "
                  f"{limit:.4f}){'' if steady else '  NOT STEADY'}")
        baseline[name] = {
            "why": runs[0]["why"],
            "sizes": runs[0]["sizes"],
            "seeds": list(range(1, args.runs + 1)),
            "virtual_digest_seed1": runs[0]["virtual_digest"],
            "end_to_end": end_to_end,
            "per_layer_seed1": {
                metric: entry["value"]
                for metric, entry in traced["metrics"].items()},
            "traced_repetitions": trace_provenance["traced_repetitions"],
        }
    first = runs[0]
    document = {
        "note": ("medians and quartiles over the seeds; host figures in "
                 "reference seconds (see hostspeed.py)"),
        "git_sha": first["git_sha"],
        "git_dirty": first["git_dirty"],
        "python": first["python"],
        "nproc": first["nproc"],
        "run_seconds": spec["run_seconds"],
        "workloads": baseline,
    }
    out = ROOT / "perfbench" / "baseline.json"
    if out.exists():  # keep the workloads this call did not measure
        document["workloads"] = {
            **json.loads(out.read_text())["workloads"], **baseline}
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.relative_to(ROOT)}; steady and correct: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
