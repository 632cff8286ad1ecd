"""Dual-clock benchmark of the repro simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ycsb-a-sync-ss --seed 1 \\
        --seconds 30 --trace 0

One run repeats the workload (fresh engine, load, warm-up, measured
window) until ``--seconds`` of host time are used, at least
``MIN_REPETITIONS`` times, and reports medians over the repetitions.
Host figures are ``perf_counter`` time normalized for host speed
(:mod:`hostspeed`); the ``sim_*`` figures are the modelled hardware's
virtual clock and must repeat bit for bit across repetitions, which the
run checks.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's provenance.  Both, and a traced run's spans, are
also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

try:
    import repro
    from layers import CATEGORY_LAYER, LAYERS, TARGETS
    from scenarios import WORKLOADS, Repetition, Workload, digest, run_once
    from tracer import LayerTracer
except ImportError as error:  # a checkout without the program
    print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
          f"{error}", file=sys.stderr)
    sys.exit(2)
if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"perfbench: imported {repro.__file__}, not the program in "
          f"{ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)

#: Fewest repetitions per run, so a median and a repeat check exist.
MIN_REPETITIONS = 3

#: End-to-end metric -> unit.  Host figures are medians over repetitions;
#: units of the modelled hardware's clock say ``virtual``.
END_TO_END = {
    "host_ops_per_s": "ops/s",
    "setup_s": "s",
    "host_peak_rss_mb": "MiB",
    "sim_ops_per_s": "ops/virtual_s",
    "sim_core_us_per_op": "virtual_us/op",
    "sim_dollars_per_op": "USD/op",
    "sim_p50_latency_us": "virtual_us",
    "sim_p99_latency_us": "virtual_us",
    "sim_write_amp": "ratio",
}

#: Virtual per-layer counts -> unit, read off the simulated machines.
LAYER_COUNTS = {
    "mvcc.keys_end": "count",
    "tc.hit_rate": "ratio",
    "read_cache.hit_rate": "ratio",
    "record_cache.hit_rate": "ratio",
    "record_cache.gc_relocations": "count",
    "page_cache.hit_rate": "ratio",
    "page_cache.fetches": "count",
    "tier_cache.promotions": "count",
    "tier_cache.demotions": "count",
    "recovery_log.flushes": "count",
    "commit_pipeline.epochs": "count",
    "commit_pipeline.wait_us_per_op": "virtual_us/op",
    "log_store.bytes_appended": "B",
    "ssd.ios": "count",
    "ssd.busy_s": "virtual_s",
    "sharding.balance": "ratio",
}

#: Per-layer metric -> unit, in the order a traced run prints them.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.{kind}": unit for layer in LAYERS
       for kind, unit in (("self_s", "s"), ("calls", "count"))},
    **{f"{layer}.sim_core_us_per_op": "virtual_us/op"
       for layer in [*dict.fromkeys(CATEGORY_LAYER.values()), "other"]},
    **LAYER_COUNTS,
    "mvcc.versions_removed_per_key_scanned": "ratio",
    "unattributed.self_s": "s",
    "trace.window_s": "s",
    "trace.host_ops_per_s": "ops/s",
    "trace.untraced_host_ops_per_s": "ops/s",
    "trace.overhead": "ratio",
}

Traced = Tuple[Repetition, LayerTracer]


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _git() -> Dict[str, object]:
    """Commit and dirty flag, or 'unavailable' outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True,
                                  timeout=30, env=env, check=False)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return {"git_sha": "unavailable", "git_dirty": None}
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": sha, "git_dirty": bool(status)}


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _repeat(workload: Workload, seed: int, seconds: float,
            trace: bool) -> Tuple[List[Repetition], List[Traced]]:
    """Run repetitions until the host-time budget is used.

    Returns the untraced repetitions and the traced ones with their
    tracers (``trace``: every other repetition is traced).  A repetition
    starts only if the mean repetition so far still fits the budget.
    """
    untraced: List[Repetition] = []
    traced: List[Traced] = []
    started = time.perf_counter()
    count = 0
    while True:
        elapsed = time.perf_counter() - started
        if (count >= MIN_REPETITIONS and (not trace or traced)
                and elapsed + elapsed / count > seconds):
            break
        gc.collect()
        if trace and count % 2 == 1:
            tracer = LayerTracer(TARGETS)
            _count_version_sweep(tracer)
            traced.append((run_once(workload, seed, tracer), tracer))
        else:
            untraced.append(run_once(workload, seed))
        count += 1
    return untraced, traced


def _count_version_sweep(tracer: LayerTracer) -> None:
    """Count the useful and the attempted work of
    ``VersionStore.truncate``: versions it removed, and the keys its
    sweep visited to find them."""
    counts = tracer.counts
    counts["mvcc.versions_removed"] = 0
    counts["mvcc.keys_scanned"] = 0

    def before(store, horizon: int) -> int:
        del horizon
        return store.key_count()

    def after(scanned: int, removed: int) -> None:
        counts["mvcc.versions_removed"] += removed
        counts["mvcc.keys_scanned"] += scanned

    tracer.before_hooks["VersionStore.truncate"] = before
    tracer.after_hooks["VersionStore.truncate"] = after


def _end_to_end(untraced: List[Repetition]) -> Dict[str, float]:
    virtual = untraced[0].virtual
    metrics = {
        "host_ops_per_s": statistics.median(
            rep.host_ops_per_s for rep in untraced),
        "setup_s": statistics.median(rep.setup_s for rep in untraced),
        "host_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update({name: virtual[name] for name in END_TO_END
                    if name.startswith("sim_")})
    return metrics


def _per_layer(untraced: List[Repetition],
               traced: List[Traced]) -> Dict[str, float]:
    """Per-layer metrics of the traced repetition with the median
    window.  Layer times are reference seconds, like ``setup_s``."""
    by_window = sorted(traced, key=lambda pair: pair[1].window_ns)
    rep, tracer = by_window[(len(by_window) - 1) // 2]
    speed = rep.speed
    self_s = tracer.self_seconds()
    calls = tracer.call_counts()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0) * speed
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
    metrics.update({name: rep.virtual[name] for name in PER_LAYER
                    if name in rep.virtual})
    scanned = tracer.counts["mvcc.keys_scanned"]
    untraced_rate = statistics.median(r.host_ops_per_s for r in untraced)
    traced_rate = statistics.median(r.host_ops_per_s for r, __ in traced)
    metrics.update({
        "mvcc.versions_removed_per_key_scanned": (
            tracer.counts["mvcc.versions_removed"] / scanned
            if scanned else 0.0),
        "unattributed.self_s": tracer.unattributed_ns() * 1e-9 * speed,
        "trace.window_s": tracer.window_ns * 1e-9 * speed,
        "trace.host_ops_per_s": traced_rate,
        "trace.untraced_host_ops_per_s": untraced_rate,
        "trace.overhead": untraced_rate / traced_rate,
    })
    return {name: metrics[name] for name in PER_LAYER}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    workload = WORKLOADS[args.workload]
    untraced, traced = _repeat(workload, args.seed, args.seconds,
                               trace=bool(args.trace))
    reps = untraced + [rep for rep, __ in traced]
    digests = sorted({digest(rep.virtual) for rep in reps})
    failed = sum(rep.failed for rep in reps)
    for rep in reps:
        for error in rep.errors:
            _log(error)
    correct = failed == 0 and len(digests) == 1
    if len(digests) != 1:
        _log(f"virtual figures differ between repetitions: {digests}")
    if args.trace:
        metrics, units = _per_layer(untraced, traced), PER_LAYER
        if any(tracer.unattributed_ns() < 0 for __, tracer in traced):
            _log("layer self times exceed the traced window")
            correct = False
    else:
        metrics, units = _end_to_end(untraced), END_TO_END
    provenance = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **_git(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repetitions": len(untraced),
        "traced_repetitions": len(traced),
        "sizes": workload.sizes(),
        "virtual_digest": digests[0] if len(digests) == 1 else digests,
        "host_ops_per_s_each": [rep.host_ops_per_s for rep in untraced],
        "setup_s_each": [rep.setup_s for rep in untraced],
        "raw_host_ops_per_s_each": [rep.raw_host_ops_per_s
                                    for rep in untraced],
        "raw_setup_s_each": [rep.setup.raw_s for rep in untraced],
        "host_speed_each": [rep.speed for rep in reps],
    }
    result = {
        "correct": correct,
        "attempted": sum(rep.attempted for rep in reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"provenance": provenance, "virtual": reps[0].virtual,
         "result": result}, indent=1, sort_keys=True))
    if traced:
        traced[-1][1].write(OUT / f"{stem}.spans",
                            {"workload": workload.name, "seed": args.seed})
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
