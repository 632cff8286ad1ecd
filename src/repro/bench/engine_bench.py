"""Engine throughput benchmark: per-op vs batched (group-commit) paths.

``python -m repro bench-engine`` drives the assembled
:class:`DeuteronomyEngine` with YCSB mixes through two request paths:

* **per-op** — one autocommitted ``get``/``put`` per operation, the way
  the rest of the repo's experiments drive stores;
* **batched** — operations grouped into fixed-size batches submitted via
  ``apply_batch``: one dispatch, one timestamp allocation, one log append
  and one flush decision per batch (Section 6.3's group commit).

Both paths run the *same* generated operation stream against freshly
loaded engines on identical simulated machines, so the reported speedup
isolates the batching effect.  Throughput is virtual-time ops/sec
(``ops / max(cpu_busy/cores, ssd_busy)``); latency percentiles come from
per-request simulated execution + device service time — for the batched
path every operation in a batch is charged the whole batch's latency,
which is the honest group-commit trade-off (throughput up, individual
latency up).

Results are written as JSON (default ``BENCH_engine.json`` in the
working directory) so the numbers can be tracked in-repo over time.
Every figure is on the virtual clock, so the file is a pure function of
the code: regenerating it on an unchanged tree reproduces it byte for
byte.  Host time (how long the simulator takes) is perfbench's job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..bwtree.tree import BwTreeConfig
from ..core.catalog import CostCatalog
from ..deuteronomy.engine import DeuteronomyEngine
from ..deuteronomy.tc import TcConfig
from ..hardware.machine import Machine
from ..hardware.metrics import Histogram
from ..hardware.tiers import StorageHierarchy
from ..sharding import ShardedEngine
from ..sharding.engine import LOG_TOPOLOGIES
from ..storage.cache import EvictionPolicy
from ..workloads.ycsb import (
    OpKind,
    Operation,
    WorkloadGenerator,
    WorkloadSpec,
    partition_operations,
    shard_balance,
)

# v8: drops every host wall-time field (``wall_seconds`` and the
# ``trace`` block's overhead timing); the file holds virtual figures
# only.  v7 added the ``whatif`` block (the causal profiler's ranked
# "top causal bottlenecks" per tracked workload — YCSB A/B/C at 1
# shard, 1-vs-8-shard and sync-vs-async ycsb-a — each scenario swept
# at 2x with the winner's prediction validated by an actual re-run;
# see docs/PROFILING.md).  v6 added the ``tiered`` block
# (drop-vs-demote eviction on skewed YCSB-B at equal DRAM, $-per-op
# broken down by tier with far-memory rent priced at the tier's own
# $/byte).  v5 added the ``record_cache`` block (record-granularity vs
# page-granularity caching at equal DRAM on read-hot YCSB-C, latch-free
# vs latched costing, and the re-derived Figure-3 MM crossover with the
# record-cache engine standing in for the caching system).
SCHEMA_VERSION = 8
DEFAULT_OUT = "BENCH_engine.json"
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)
# ``--smoke`` sizing: ycsb-a only, 500 records / 2000 ops, 1 and 4 shards.
SMOKE_RECORDS, SMOKE_OPS = 500, 2000
SMOKE_SHARD_COUNTS = (1, 4)
# YCSB-A 4-shard scaling at the v3 seed (sync commit): the WAL-bound
# wall the async pipeline exists to break.  Every run asserts the async
# 4-shard path never regresses below this.
SEED_SCALING_FLOOR = 1.73
# Acceptance floor for the full async run at 8 shards.
ASYNC_SCALING_FLOOR_8 = 3.0
# Acceptance floor for record-cache v2: at equal cache DRAM the
# latch-free record heap must cut MM-op core-us on read-hot YCSB-C by at
# least this fraction vs the page-granularity path (measured ~0.37 at
# the default sizing, ~0.40 at the smoke sizing).
RECORD_CACHE_FLOOR = 0.20
# Acceptance ceiling for tiered eviction (schema v6): at equal DRAM on
# skewed YCSB-B, demote-not-drop must land at no more than this fraction
# of the drop baseline's $-per-op (measured ~0.63 at the default sizing,
# ~0.67 at the smoke sizing — the saved SSD I/O dwarfs the CXL rent).
TIERED_DOLLARS_CEILING = 0.90

MIX_BUILDERS = {
    "a": WorkloadSpec.ycsb_a,   # 50/50 read/update — the group-commit case
    "b": WorkloadSpec.ycsb_b,   # 95/5 read-mostly
    "c": WorkloadSpec.ycsb_c,   # 100% reads
}


def _fresh_engine(
    spec: WorkloadSpec,
    cores: int,
    sync_commit: bool,
    policy: EvictionPolicy = EvictionPolicy.LRU,
    cache_capacity_bytes: Optional[int] = None,
) -> Tuple[Machine, DeuteronomyEngine, WorkloadGenerator]:
    """A loaded engine plus the generator that produced its load.

    Generators are deterministic per spec, so two engines built from equal
    specs hold identical data and then see identical operation streams.
    """
    machine = Machine.paper_default(cores=cores)
    engine = DeuteronomyEngine(
        machine,
        tree_config=BwTreeConfig(
            eviction_policy=policy,
            cache_capacity_bytes=cache_capacity_bytes,
        ),
        tc_config=TcConfig(sync_commit=sync_commit),
    )
    generator = WorkloadGenerator(spec)
    engine.dc.bulk_load(generator.load_items())
    machine.reset_accounting()
    return machine, engine, generator


def _path_stats(
    machine: Machine,
    engine: DeuteronomyEngine,
    latencies: Histogram,
    n_ops: int,
) -> Dict[str, float]:
    summary = machine.summary()
    elapsed = max(summary.cpu_elapsed_seconds, summary.ssd_busy_seconds)
    return {
        "operations": n_ops,
        "ops_per_sec": (n_ops / elapsed) if elapsed else 0.0,
        "core_us_per_op": (summary.cpu_busy_seconds * 1e6 / n_ops)
        if n_ops else 0.0,
        "p50_latency_us": latencies.percentile(50),
        "p99_latency_us": latencies.percentile(99),
        "cache_hit_rate": engine.dc.cache.hit_rate(),
        "tc_hit_rate": engine.tc.tc_hit_rate(),
        "log_flushes": engine.tc.log.flushes,
        "log_batch_appends": engine.tc.log.batch_appends,
        "ssd_ios": summary.ssd_ios,
        "io_bound": summary.io_bound,
    }


def _run_per_op(
    machine: Machine,
    engine: DeuteronomyEngine,
    ops: List[Operation],
) -> Dict[str, float]:
    latencies = Histogram("per_op_latency_us")
    for op in ops:
        cpu0, svc0 = machine.latency_window()
        if op.kind is OpKind.READ:
            engine.get(op.key)
        else:
            engine.put(op.key, op.value)
        cpu1, svc1 = machine.latency_window()
        latencies.observe((cpu1 - cpu0) + (svc1 - svc0))
    return _path_stats(machine, engine, latencies, len(ops))


def _run_batched(
    machine: Machine,
    engine: DeuteronomyEngine,
    ops: List[Operation],
    batch_size: int,
) -> Dict[str, float]:
    latencies = Histogram("batched_latency_us")
    for start in range(0, len(ops), batch_size):
        chunk = ops[start:start + batch_size]
        batch = [
            ("get", op.key, None) if op.kind is OpKind.READ
            else ("put", op.key, op.value)
            for op in chunk
        ]
        cpu0, svc0 = machine.latency_window()
        engine.apply_batch(batch)
        cpu1, svc1 = machine.latency_window()
        # Group commit holds every request until the batch commits: each
        # op in the batch observes the whole batch's latency.
        batch_latency = (cpu1 - cpu0) + (svc1 - svc0)
        for __ in chunk:
            latencies.observe(batch_latency)
    return _path_stats(machine, engine, latencies, len(ops))


def _run_mix(
    mix: str,
    record_count: int,
    op_count: int,
    batch_size: int,
    cores: int,
    value_bytes: int,
    sync_commit: bool,
) -> Dict[str, object]:
    spec_kwargs = dict(record_count=record_count, value_bytes=value_bytes)
    builder = MIX_BUILDERS[mix]

    machine, engine, generator = _fresh_engine(
        builder(**spec_kwargs), cores, sync_commit)
    ops = list(generator.operations(op_count))
    per_op = _run_per_op(machine, engine, ops)

    machine, engine, generator = _fresh_engine(
        builder(**spec_kwargs), cores, sync_commit)
    ops = list(generator.operations(op_count))
    batched = _run_batched(machine, engine, ops, batch_size)

    speedup = (batched["ops_per_sec"] / per_op["ops_per_sec"]
               if per_op["ops_per_sec"] else 0.0)
    return {"per_op": per_op, "batched": batched, "speedup": speedup}


def _run_sharded_mix(
    mix: str,
    record_count: int,
    op_count: int,
    batch_size: int,
    shard_counts: Iterable[int],
    cores_per_shard: int,
    value_bytes: int,
    sync_commit: bool,
    commit_pipeline: bool = False,
    log_topology: str = "colocated",
) -> Dict[str, object]:
    """One mix's scaling curve: batched scatter/gather at each shard count.

    Every shard count drives the *same* generated operation stream (the
    generator is deterministic per spec) with identical per-shard
    machines, so per-shard simulated core-seconds per op are held
    constant and the curve isolates cross-shard routing overhead vs. the
    per-shard batching win.  Fleet throughput uses the slowest shard's
    virtual elapsed time — shards run in parallel.

    With ``commit_pipeline=True`` every shard runs the asynchronous
    epoch-based commit path (``sync_commit`` is ignored): batches leave
    epoch flushes in flight across batch boundaries, and the run ends
    with one fleet-wide ``drain_commits()`` so every commit future is
    resolved before throughput is read.
    """
    builder = MIX_BUILDERS[mix]
    spec_kwargs = dict(record_count=record_count, value_bytes=value_bytes)
    tc_config = (TcConfig(commit_pipeline=True) if commit_pipeline
                 else TcConfig(sync_commit=sync_commit))
    curve: Dict[str, object] = {}
    for num_shards in shard_counts:
        engine = ShardedEngine(
            num_shards,
            cores_per_shard=cores_per_shard,
            tc_config=tc_config,
            log_topology=log_topology,
        )
        generator = WorkloadGenerator(builder(**spec_kwargs))
        engine.bulk_load(generator.load_items())
        engine.reset_accounting()
        ops = list(generator.operations(op_count))
        balance = shard_balance(partition_operations(
            iter(ops), num_shards,
            lambda key, __n: engine.shard_for(key)))
        for start in range(0, len(ops), batch_size):
            batch = [
                ("get", op.key, None) if op.kind is OpKind.READ
                else ("put", op.key, op.value)
                for op in ops[start:start + batch_size]
            ]
            engine.apply_batch(batch)
        # Resolve every in-flight epoch before reading throughput: the
        # asynchronous numbers must describe *durable* commits (no-op
        # for sync shards).
        engine.drain_commits()
        stats = engine.stats()
        fleet = stats["fleet"]
        elapsed = fleet["elapsed_seconds"]
        curve[str(num_shards)] = {
            "shards": num_shards,
            "operations": op_count,
            "ops_per_sec": (op_count / elapsed) if elapsed else 0.0,
            "core_us_per_op": (fleet["core_seconds"] * 1e6 / op_count)
            if op_count else 0.0,
            "fleet_core_seconds": fleet["core_seconds"],
            "fleet_elapsed_seconds": elapsed,
            "fleet_dram_bytes": fleet["dram_bytes"],
            "tc_hit_rate": fleet["tc_hit_rate"],
            "read_cache_hit_rate": fleet["read_cache_hit_rate"],
            "page_cache_hit_rate": fleet["page_cache_hit_rate"],
            "log_flushes": fleet["log_flushes"],
            "ssd_ios": fleet["ssd_ios"],
            "shard_balance": balance,
            "commit_epochs": fleet["commit_epochs"],
            "commit_wait_us": fleet["commit_wait_us"],
            "log_device_writes": fleet["log_device_writes"],
        }
        if commit_pipeline:
            pipelines = [shard.tc.pipeline for shard in engine.shards
                         if shard.tc.pipeline is not None]
            sizes_count = sum(p.group_sizes.count for p in pipelines)
            sizes_total = sum(p.group_sizes.total for p in pipelines)
            curve[str(num_shards)].update({
                "commit_group_mean": (sizes_total / sizes_count
                                      if sizes_count else 0.0),
                "commit_group_max": max(
                    (p.group_sizes.maximum for p in pipelines),
                    default=0.0),
            })
    baseline = curve.get("1")
    if baseline is not None:
        base_rate = baseline["ops_per_sec"]
        for entry in curve.values():
            entry["scaling_vs_1"] = (
                entry["ops_per_sec"] / base_rate if base_rate else 0.0
            )
    return curve


def _run_commit_pipeline_block(
    record_count: int,
    op_count: int,
    batch_size: int,
    shard_counts: Tuple[int, ...],
    cores_per_shard: int,
    value_bytes: int,
    sync_curve: Optional[Dict[str, object]],
) -> Dict[str, object]:
    """The schema-v4 ``commit_pipeline`` block (YCSB-A, batched path).

    Three studies:

    * **async_scaling** — the shard-scaling curve with the epoch-based
      commit pipeline on (the sync curve lives in ``sharded`` as
      before), with per-entry epoch counts, commit-wait time and group
      sizes;
    * **ablation** — sync vs async at the largest shard count: the
      direct measurement of what decoupling append from ack buys;
    * **topologies** — $-per-op at the largest shard count for each log
      placement, priced in the paper's own terms: the execution term is
      ``$P * core_s / (cores * ops)`` and every device I/O costs
      ``$I / IOPS`` (data SSD and, when not colocated, the log device's
      own writes).  ``log_capital_dollars`` reports the provisioned
      I/O-capability capital each topology adds — 0 for colocated,
      ``N * $I`` for per-shard drives, ``$I`` for one shared drive — so
      the utilization-priced $/op and the capital bill can be traded
      explicitly (the five-minute-rule revisit's axis).
    """
    defaults = TcConfig(commit_pipeline=True)
    async_curve = _run_sharded_mix(
        "a", record_count, op_count, batch_size, shard_counts,
        cores_per_shard, value_bytes, sync_commit=False,
        commit_pipeline=True)
    block: Dict[str, object] = {
        "workload": "ycsb-a",
        "commit_interval_us": defaults.commit_interval_us,
        "commit_epoch_bytes": defaults.commit_epoch_bytes,
        "log_ack_latency_us": defaults.log_ack_latency_us,
        "async_scaling": async_curve,
    }
    top = str(max(shard_counts))
    async_entry = async_curve.get(top)
    sync_entry = (sync_curve or {}).get(top)
    if async_entry is not None and sync_entry is not None:
        sync_rate = sync_entry["ops_per_sec"]
        block["ablation"] = {
            "shards": int(top),
            "sync_ops_per_sec": sync_rate,
            "async_ops_per_sec": async_entry["ops_per_sec"],
            "async_speedup": (async_entry["ops_per_sec"] / sync_rate
                              if sync_rate else 0.0),
            "sync_scaling_vs_1": sync_entry.get("scaling_vs_1"),
            "async_scaling_vs_1": async_entry.get("scaling_vs_1"),
            "sync_log_flushes": sync_entry["log_flushes"],
            "async_log_flushes": async_entry["log_flushes"],
        }
    catalog = CostCatalog()
    n_shards = int(top)
    topologies: Dict[str, object] = {}
    for topology in LOG_TOPOLOGIES:
        curve = _run_sharded_mix(
            "a", record_count, op_count, batch_size, (n_shards,),
            cores_per_shard, value_bytes, sync_commit=False,
            commit_pipeline=True, log_topology=topology)
        entry = curve[top]
        ops = entry["operations"]
        exec_dollars = (catalog.processor_dollars * entry["fleet_core_seconds"]
                        / (cores_per_shard * ops)) if ops else 0.0
        io_dollars = (catalog.ssd_io_dollars * entry["ssd_ios"]
                      / (catalog.iops * ops)) if ops else 0.0
        # Colocated log writes already land on the data SSD (counted in
        # ssd_ios); dedicated/shared devices bill their own writes.
        log_io_dollars = 0.0
        if topology != "colocated" and ops:
            log_io_dollars = (catalog.ssd_io_dollars
                              * entry["log_device_writes"]
                              / (catalog.iops * ops))
        capital = {
            "colocated": 0.0,
            "per-shard": n_shards * catalog.ssd_io_dollars,
            "shared": catalog.ssd_io_dollars,
        }[topology]
        topologies[topology] = {
            "shards": n_shards,
            "ops_per_sec": entry["ops_per_sec"],
            "exec_dollars_per_op": exec_dollars,
            "io_dollars_per_op": io_dollars,
            "log_io_dollars_per_op": log_io_dollars,
            "dollars_per_op": exec_dollars + io_dollars + log_io_dollars,
            "log_capital_dollars": capital,
            "log_device_writes": entry["log_device_writes"],
            "commit_wait_us": entry["commit_wait_us"],
        }
    block["topologies"] = topologies
    return block


def _run_read_only_variant(
    tc_config: TcConfig,
    page_cache_bytes: Optional[int],
    spec: WorkloadSpec,
    op_count: int,
    cores: int,
    warmup: int = 0,
) -> Dict[str, float]:
    """One read-only YCSB-C run: fresh engine, capped page cache.

    The engine is checkpointed after loading so evicted pages really live
    on flash; accounting resets after the (optional) warmup, so every
    variant's window starts from the same state.
    """
    machine = Machine.paper_default(cores=cores)
    engine = DeuteronomyEngine(
        machine,
        tree_config=BwTreeConfig(cache_capacity_bytes=page_cache_bytes),
        tc_config=tc_config,
    )
    generator = WorkloadGenerator(spec)
    engine.dc.bulk_load(generator.load_items())
    engine.checkpoint()
    if warmup:
        for op in generator.operations(warmup):
            engine.get(op.key)
    machine.reset_accounting()
    for op in generator.operations(op_count):
        engine.get(op.key)
    summary = machine.summary()
    stats = engine.stats()
    return {
        "core_us_per_op": (summary.cpu_busy_seconds * 1e6 / op_count)
        if op_count else 0.0,
        "ops_per_sec": summary.throughput_ops_per_sec,
        "tc_hit_rate": stats["tc_hit_rate"],
        "read_cache_hit_rate": stats["read_cache_hit_rate"],
        "record_cache_hit_rate": stats["record_cache_hit_rate"],
        "page_cache_hit_rate": stats["page_cache_hit_rate"],
        "record_cache_gc_relocations": stats["record_cache_gc_relocations"],
        "record_heap_bytes": stats["record_heap_bytes"],
        "ssd_ios": summary.ssd_ios,
        "dram_bytes": machine.dram.current_bytes,
    }


def _figure3_side(px: float, mx: float, rops: float,
                  database_bytes: int) -> Optional[Dict[str, float]]:
    """Eq-7 breakeven numbers, or ``None`` when the comparison collapses.

    ``MainMemoryComparison`` requires Px > 1 and Mx > 1 (MassTree must be
    the faster *and* bigger system).  A record-cache engine that matches
    MassTree's speed or footprint makes the trade-off one-sided — there
    is no crossover to report.
    """
    from dataclasses import replace

    from ..core.mainmemory import MainMemoryComparison

    if px <= 1.0 or mx <= 1.0:
        return None
    comparison = MainMemoryComparison(
        px=px, mx=mx, catalog=replace(CostCatalog(), rops=rops))
    return {
        "breakeven_constant": comparison.breakeven_constant,
        "breakeven_rate_ops_per_sec":
            comparison.breakeven_rate_ops_per_sec(database_bytes),
    }


def _run_figure3_rederivation(
    spec: WorkloadSpec,
    op_count: int,
    cores: int,
    heap_bytes: int,
    arena_bytes: int,
) -> Dict[str, object]:
    """Figure 3 with the record-cache engine as the caching system.

    Reproduces the Section 5.1 point experiment at the engine level: the
    fully resident engine (page-granularity TC path vs the record heap)
    against MassTree on the same data, using ``measure_px_mx``'s
    warm/reset/measure protocol.  Px and Mx shrink together — the record
    heap buys back most of the MM system's per-op advantage by spending
    DRAM on a second copy of the hot set — and Eq 7 turns both into a
    moved crossover.
    """
    from ..masstree.tree import MassTree

    warmup = 2_000

    def engine_side(tc_config: TcConfig) -> Tuple[float, float, int]:
        result = _run_read_only_variant(
            tc_config, None, spec, op_count, cores, warmup=warmup)
        return (result["core_us_per_op"], result["ops_per_sec"],
                result["dram_bytes"])

    page_us, page_rops, page_bytes = engine_side(
        TcConfig(read_cache_bytes=1))
    rc_us, rc_rops, rc_bytes = engine_side(TcConfig(
        record_cache=True,
        record_cache_bytes=max(heap_bytes,
                               spec.record_count * spec.value_bytes * 2),
        record_arena_bytes=arena_bytes,
    ))

    mt_machine = Machine.paper_default(cores=cores)
    masstree = MassTree(mt_machine)
    for key, value in WorkloadGenerator(spec).load_items():
        masstree.upsert(key, value)
    reader = WorkloadGenerator(spec)
    for op in reader.operations(warmup):
        masstree.get(op.key)
    mt_machine.reset_accounting()
    for op in reader.operations(op_count):
        masstree.get(op.key)
    mt_us = mt_machine.summary().cpu_busy_seconds * 1e6 / op_count
    mt_bytes = masstree.dram_footprint_bytes()

    sides: Dict[str, object] = {}
    for name, us, rops, resident in (
        ("before", page_us, page_rops, page_bytes),
        ("after", rc_us, rc_rops, rc_bytes),
    ):
        px, mx = us / mt_us, mt_bytes / resident
        side: Dict[str, object] = {
            "px": px,
            "mx": mx,
            "core_us_per_op": us,
            "dram_bytes": resident,
            "rops": rops,
        }
        # S: the caching system's fully resident footprint (same DB for
        # both sides, so the page engine's bytes anchor the rate axis).
        breakeven = _figure3_side(px, mx, rops, page_bytes)
        if breakeven is None:
            side["breakeven_rate_ops_per_sec"] = None
            side["note"] = (
                "px or mx <= 1: the record-cache engine matches the MM "
                "system; no crossover exists"
            )
        else:
            side.update(breakeven)
        sides[name] = side

    before = sides["before"].get("breakeven_rate_ops_per_sec")
    after = sides["after"].get("breakeven_rate_ops_per_sec")
    return {
        "masstree_core_us_per_op": mt_us,
        "masstree_dram_bytes": mt_bytes,
        "database_bytes": page_bytes,
        "before": sides["before"],
        "after": sides["after"],
        "crossover_rate_shift": (after / before
                                 if before and after is not None else None),
    }


def _run_record_cache_block(
    record_count: int,
    op_count: int,
    cores: int,
    value_bytes: int,
    smoke: bool = False,
) -> Dict[str, object]:
    """The schema-v5 ``record_cache`` block (read-hot YCSB-C).

    Every variant gets the *same* total cache DRAM budget M (about half
    the loaded data) and the same cold start; what differs is the
    granularity it is spent at:

    * **page** — all of M on the DC page cache, no TC record caching:
      4 KB pages drag cold neighbours into DRAM alongside each hot
      record (the paper's page-granularity caching penalty);
    * **read_cache_v4** — M split between page cache and the v4 FIFO
      :class:`~repro.deuteronomy.read_cache.ReadCache`;
    * **latch_free** / **latched** — M split between page cache and the
      v2 record heap, costed with epoch-protect+CAS vs latch
      acquire+convoy.

    ``mm_core_us_drop`` (latch-free vs page) is the acceptance metric
    behind ``RECORD_CACHE_FLOOR``.  The full block also re-derives
    Figure 3 with the record-cache engine as the caching system
    (``figure3``).
    """
    spec = WorkloadSpec.ycsb_c(record_count=record_count,
                               value_bytes=value_bytes)
    # ~30 bytes of key + header alongside each value; budget half of it.
    budget = max(32 << 10, record_count * (value_bytes + 30) // 2)
    heap = budget // 2
    arena = max(1 << 10, heap // 16)
    variants: Dict[str, Dict[str, float]] = {}
    runs: List[Tuple[str, TcConfig, Optional[int]]] = [
        ("page", TcConfig(read_cache_bytes=1), budget),
        ("latch_free", TcConfig(
            record_cache=True, record_cache_bytes=heap,
            record_arena_bytes=arena), budget - heap),
    ]
    if not smoke:
        runs[1:1] = [("read_cache_v4", TcConfig(read_cache_bytes=heap),
                      budget - heap)]
        runs.append(("latched", TcConfig(
            record_cache=True, record_cache_bytes=heap,
            record_arena_bytes=arena, concurrency_mode="latched"),
            budget - heap))
    for name, tc_config, page_cache_bytes in runs:
        variants[name] = _run_read_only_variant(
            tc_config, page_cache_bytes, spec, op_count, cores)

    page_us = variants["page"]["core_us_per_op"]
    latch_free_us = variants["latch_free"]["core_us_per_op"]
    block: Dict[str, object] = {
        "workload": "ycsb-c",
        "cache_budget_bytes": budget,
        "record_heap_budget_bytes": heap,
        "record_arena_bytes": arena,
        "variants": variants,
        "mm_core_us_drop": (1.0 - latch_free_us / page_us)
        if page_us else 0.0,
    }
    if not smoke:
        latched_us = variants["latched"]["core_us_per_op"]
        block["latched_core_us_drop"] = (1.0 - latched_us / page_us
                                         if page_us else 0.0)
        block["latch_free_vs_latched_speedup"] = (
            latched_us / latch_free_us if latch_free_us else 0.0)
        block["figure3"] = _run_figure3_rederivation(
            spec, op_count, cores, heap, max(arena, 16 << 10))
    return block


def _run_eviction_comparison(
    record_count: int,
    op_count: int,
    cores: int,
    value_bytes: int,
) -> Dict[str, object]:
    """LRU vs CLOCK page-cache hit rates on the same capped-cache trace."""
    spec_kwargs = dict(record_count=record_count, value_bytes=value_bytes)
    # Size the cache well under the loaded leaf footprint so eviction
    # actually runs (roughly a quarter of the loaded bytes).
    capacity = max(1 << 14, (record_count * value_bytes) // 4)
    rates = {}
    for policy in (EvictionPolicy.LRU, EvictionPolicy.CLOCK):
        machine, engine, generator = _fresh_engine(
            WorkloadSpec.ycsb_b(**spec_kwargs), cores, sync_commit=False,
            policy=policy, cache_capacity_bytes=capacity)
        for op in generator.operations(op_count):
            if op.kind is OpKind.READ:
                engine.get(op.key)
            else:
                engine.put(op.key, op.value)
        rates[policy.value] = engine.dc.cache.hit_rate()
    return {
        "workload": "ycsb-b",
        "cache_capacity_bytes": capacity,
        "lru_hit_rate": rates["lru"],
        "clock_hit_rate": rates["clock"],
    }


def _run_tiered_variant(
    demote: bool,
    spec: WorkloadSpec,
    op_count: int,
    cores: int,
    capacity: int,
    hierarchy: StorageHierarchy,
) -> Dict[str, float]:
    """One tiered-eviction run: same trace, drop or demote on eviction.

    The engine is checkpointed after loading so evicted pages really
    live on flash; $-per-op follows the ``topologies`` convention
    (each term is capital $ x busy-seconds per op): execution is
    ``$P * core_s / (cores * ops)``, every SSD I/O costs ``$I / IOPS``,
    and DRAM / far-memory residency bill their end-of-run bytes at the
    respective tier's $/byte over the run's virtual elapsed time.
    """
    catalog = CostCatalog()
    machine = Machine.paper_default(cores=cores)
    engine = DeuteronomyEngine(
        machine,
        tree_config=BwTreeConfig(
            cache_capacity_bytes=capacity,
            demote_to_tiers=demote,
            demote_budget_bytes=4 * capacity if demote else None,
        ),
        tc_config=TcConfig(sync_commit=False, read_cache_demote=demote),
    )
    generator = WorkloadGenerator(spec)
    engine.dc.bulk_load(generator.load_items())
    engine.checkpoint()
    machine.reset_accounting()
    for op in generator.operations(op_count):
        if op.kind is OpKind.READ:
            engine.get(op.key)
        else:
            engine.put(op.key, op.value)
    stats = engine.stats()
    elapsed = stats["elapsed_seconds"]
    ops = op_count
    far = hierarchy[1]  # the tier demotion parks victims in
    exec_dollars = (catalog.processor_dollars * stats["core_seconds"]
                    / (cores * ops)) if ops else 0.0
    io_dollars = (catalog.ssd_io_dollars * stats["ssd_ios"]
                  / (catalog.iops * ops)) if ops else 0.0
    dram_dollars = (catalog.dram_per_byte * stats["dram_bytes"]
                    * elapsed / ops) if ops else 0.0
    tier_dollars = (far.dollars_per_byte * stats["tier_resident_bytes"]
                    * elapsed / ops) if ops else 0.0
    return {
        "ops_per_sec": (ops / elapsed) if elapsed else 0.0,
        "page_cache_hit_rate": stats["page_cache_hit_rate"],
        "ssd_ios": stats["ssd_ios"],
        "demotions": (stats["page_cache_demotions"]
                      + stats["read_cache_demotions"]),
        "promotions": (stats["page_cache_promotions"]
                       + stats["read_cache_promotions"]),
        "tier_resident_bytes": stats["tier_resident_bytes"],
        "dram_bytes": stats["dram_bytes"],
        "exec_dollars_per_op": exec_dollars,
        "io_dollars_per_op": io_dollars,
        "dram_dollars_per_op": dram_dollars,
        "tier_dollars_per_op": tier_dollars,
        "dollars_per_op": (exec_dollars + io_dollars + dram_dollars
                           + tier_dollars),
    }


def _run_tiered_block(
    record_count: int,
    op_count: int,
    cores: int,
    value_bytes: int,
) -> Dict[str, object]:
    """The schema-v6 ``tiered`` block: drop vs demote at equal DRAM.

    Skewed YCSB-B (95/5 zipfian) on a page cache sized well under the
    loaded data, so eviction runs constantly.  The ``drop`` variant
    evicts to flash and re-reads misses from the SSD; the ``demote``
    variant parks clean victims in the :meth:`~repro.hardware.tiers.
    StorageHierarchy.cxl_2026` far-memory tier when their observed
    access rate clears the DRAM/CXL pair breakeven, and promotes on
    re-access.  Both see the identical generated stream at identical
    DRAM capacity; ``dollars_ratio`` (demote / drop $-per-op, far-memory
    rent included) is the acceptance metric behind
    ``TIERED_DOLLARS_CEILING``.
    """
    hierarchy = StorageHierarchy.cxl_2026()
    spec = WorkloadSpec.ycsb_b(record_count=record_count,
                               value_bytes=value_bytes)
    capacity = max(1 << 14, (record_count * value_bytes) // 4)
    variants = {
        name: _run_tiered_variant(demote, spec, op_count, cores,
                                  capacity, hierarchy)
        for name, demote in (("drop", False), ("demote", True))
    }
    drop_dollars = variants["drop"]["dollars_per_op"]
    return {
        "workload": "ycsb-b",
        "cache_capacity_bytes": capacity,
        "hierarchy": [tier.name for tier in hierarchy],
        "far_tier": hierarchy[1].name,
        "far_tier_dollars_per_byte": hierarchy[1].dollars_per_byte,
        "demote_budget_bytes": 4 * capacity,
        "variants": variants,
        "dollars_ratio": (variants["demote"]["dollars_per_op"]
                          / drop_dollars) if drop_dollars else 0.0,
    }


def _run_trace_block(
    record_count: int,
    op_count: int,
    batch_size: int,
    cores: int,
    value_bytes: int,
    sync_commit: bool,
) -> Dict[str, object]:
    """Batched ycsb-a cost attribution (the ``trace`` block).

    One untraced and one traced run drive the identical ``3 * op_count``
    operation stream on identical fresh engines.  Tracing charges
    nothing, so the two runs' path stats must be equal field for field;
    the traced run also records the per-component cost breakdown and
    the metrics registry's window delta, making the benchmark file a
    one-stop cost-attribution record.
    """
    from ..observability.registry import engine_registry
    from ..observability.spans import Tracer

    spec = MIX_BUILDERS["a"](record_count=record_count,
                             value_bytes=value_bytes)
    trace_ops = 3 * op_count

    machine, engine, generator = _fresh_engine(spec, cores, sync_commit)
    untraced = _run_batched(machine, engine,
                            list(generator.operations(trace_ops)),
                            batch_size)

    machine, engine, generator = _fresh_engine(spec, cores, sync_commit)
    tracer = Tracer(machine)
    machine.attach_tracer(tracer)
    registry = engine_registry(engine)
    before = registry.snapshot()
    traced = _run_batched(machine, engine,
                          list(generator.operations(trace_ops)), batch_size)
    delta = registry.delta(before)

    assert traced == untraced, "tracing changed simulated costs"
    return {
        "workload": "ycsb-a",
        "path": "batched",
        "operations": trace_ops,
        "cpu_us_by_component": tracer.cpu_us_by_component(),
        "ssd_ios_by_component": tracer.ssd_ios_by_component(),
        "unattributed_cpu_us": tracer.unattributed_us(),
        "metrics_delta_counters": delta["counters"],
    }


#: The speedup factor the tracked whatif sweeps use.
WHATIF_SPEEDUP = 2.0


def _run_whatif_block(
    record_count: int,
    op_count: int,
    batch_size: int,
    cores: int,
) -> Dict[str, object]:
    """Causal-profiler sweeps per tracked workload (schema v7 ``whatif``
    block; methodology in docs/PROFILING.md).

    For each scenario the what-if engine records the baseline charge
    stream once, predicts every component's 2x-speedup effect on
    Eq. (4)-(5) $-per-op by folding that stream, ranks the predictions,
    and validates the winner with an actual scaled re-run — so every
    BENCH update names the next component worth optimizing, with the
    prediction-vs-actual agreement errors recorded under the scenario's
    contract (bit-exact where linear, bounded where shared-log-device
    queueing is not).
    """
    from ..observability.whatif import WhatifConfig, run_whatif

    scenario_configs = [
        ("ycsb-a/1shard/sync", WhatifConfig(
            mix="a", record_count=record_count, op_count=op_count,
            shards=1, batch_size=batch_size, cores=cores)),
        ("ycsb-b/1shard/sync", WhatifConfig(
            mix="b", record_count=record_count, op_count=op_count,
            shards=1, batch_size=batch_size, cores=cores)),
        ("ycsb-c/1shard/sync", WhatifConfig(
            mix="c", record_count=record_count, op_count=op_count,
            shards=1, batch_size=batch_size, cores=cores)),
        ("ycsb-a/8shard/sync", WhatifConfig(
            mix="a", record_count=record_count, op_count=op_count,
            shards=8, batch_size=batch_size, cores=cores)),
        ("ycsb-a/8shard/async-shared-log", WhatifConfig(
            mix="a", record_count=record_count, op_count=op_count,
            shards=8, batch_size=batch_size, cores=cores,
            commit="async", log_topology="shared")),
    ]
    scenarios: Dict[str, object] = {}
    for label, config in scenario_configs:
        result = run_whatif(config, speedup=WHATIF_SPEEDUP,
                            validate="top")
        top = result["components"][0]
        validation = result["validated"][0]
        scenarios[label] = {
            "config": result["config"],
            "baseline": result["baseline"],
            "top_bottleneck": top["component"],
            "top_savings_pct": top["savings_pct"],
            "top_ops_per_sec_gain_pct": top["ops_per_sec_gain_pct"],
            "ranking": result["components"],
            "validated": validation,
        }
    return {"speedup": WHATIF_SPEEDUP, "scenarios": scenarios}


def run_bench(
    mixes: Iterable[str] = ("a", "b", "c"),
    record_count: int = 4000,
    op_count: int = 10_000,
    batch_size: int = 64,
    cores: int = 4,
    value_bytes: int = 100,
    sync_commit: bool = True,
    eviction_comparison: bool = True,
    shard_counts: Iterable[int] = DEFAULT_SHARD_COUNTS,
    per_path_comparison: bool = True,
    trace: bool = False,
    record_cache_comparison: bool = True,
    tiered_comparison: bool = True,
    whatif_comparison: bool = True,
    smoke: bool = False,
) -> Dict[str, object]:
    """Run the benchmark and return the report dict (see module doc).

    ``shard_counts`` drives the sharded scatter/gather sweep (empty
    disables it); ``per_path_comparison`` toggles the original per-op vs
    batched single-engine comparison; ``smoke`` trims the record-cache
    block to its two gated variants.
    """
    shard_counts = tuple(shard_counts)
    report: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "engine-throughput",
        "config": {
            "record_count": record_count,
            "op_count": op_count,
            "batch_size": batch_size,
            "cores": cores,
            "value_bytes": value_bytes,
            "sync_commit": sync_commit,
            "shard_counts": list(shard_counts),
        },
        "mixes": {},
    }
    for mix in mixes:
        if mix not in MIX_BUILDERS:
            raise ValueError(f"unknown mix {mix!r}; choose from a, b, c")
        if per_path_comparison:
            report["mixes"][f"ycsb-{mix}"] = _run_mix(
                mix, record_count, op_count, batch_size, cores,
                value_bytes, sync_commit)
    sharded: Dict[str, object] = {}
    if shard_counts:
        for mix in mixes:
            sharded[f"ycsb-{mix}"] = _run_sharded_mix(
                mix, record_count, op_count, batch_size, shard_counts,
                cores, value_bytes, sync_commit)
    report["sharded"] = sharded
    if shard_counts and "a" in mixes:
        report["commit_pipeline"] = _run_commit_pipeline_block(
            record_count, op_count, batch_size, shard_counts, cores,
            value_bytes, sharded.get("ycsb-a"))
    if record_cache_comparison:
        report["record_cache"] = _run_record_cache_block(
            record_count, op_count, cores, value_bytes, smoke=smoke)
    if eviction_comparison:
        report["eviction"] = _run_eviction_comparison(
            record_count, op_count, cores, value_bytes)
    if tiered_comparison:
        report["tiered"] = _run_tiered_block(
            record_count, op_count, cores, value_bytes)
    if whatif_comparison:
        report["whatif"] = _run_whatif_block(
            record_count, op_count, batch_size, cores)
    if trace:
        report["trace"] = _run_trace_block(
            record_count, op_count, batch_size, cores, value_bytes,
            sync_commit)
    return report


def render(report: Dict[str, object]) -> str:
    """Human-readable summary of a report dict."""
    lines = []
    config = report["config"]
    lines.append(
        f"engine benchmark: {config['op_count']} ops over "
        f"{config['record_count']} records, batch={config['batch_size']}, "
        f"cores={config['cores']}, sync_commit={config['sync_commit']}"
    )
    if report["mixes"]:
        lines.append(
            f"{'mix':8s} {'path':8s} {'ops/sec':>12s} "
            f"{'core us/op':>11s} {'p50 us':>8s} {'p99 us':>8s} "
            f"{'cache hit':>10s} {'flushes':>8s}"
        )
    for mix, result in report["mixes"].items():
        for path in ("per_op", "batched"):
            stats = result[path]
            lines.append(
                f"{mix:8s} {path:8s} {stats['ops_per_sec']:12,.0f} "
                f"{stats['core_us_per_op']:11.3f} "
                f"{stats['p50_latency_us']:8.2f} "
                f"{stats['p99_latency_us']:8.2f} "
                f"{stats['cache_hit_rate']:10.4f} "
                f"{stats['log_flushes']:8d}"
            )
        lines.append(f"{mix:8s} speedup  {result['speedup']:.2f}x")
    sharded = report.get("sharded")
    if sharded:
        lines.append("")
        lines.append(
            f"sharded scatter/gather (batched, "
            f"{config['cores']} cores/shard):"
        )
        lines.append(
            f"{'mix':8s} {'shards':>6s} {'ops/sec':>12s} "
            f"{'core us/op':>11s} {'scaling':>8s} {'balance':>8s} "
            f"{'tc hit':>7s} {'flushes':>8s}"
        )
        for mix, curve in sharded.items():
            for __, entry in sorted(curve.items(),
                                    key=lambda kv: kv[1]["shards"]):
                scaling = entry.get("scaling_vs_1")
                lines.append(
                    f"{mix:8s} {entry['shards']:6d} "
                    f"{entry['ops_per_sec']:12,.0f} "
                    f"{entry['core_us_per_op']:11.3f} "
                    f"{(f'{scaling:.2f}x' if scaling else '-'):>8s} "
                    f"{entry['shard_balance']:8.2f} "
                    f"{entry['tc_hit_rate']:7.3f} "
                    f"{entry['log_flushes']:8d}"
                )
    pipeline = report.get("commit_pipeline")
    if pipeline:
        lines.append("")
        lines.append(
            f"commit pipeline ({pipeline['workload']}, async epochs: "
            f"{pipeline['commit_interval_us']:.0f}us window / "
            f"{pipeline['commit_epoch_bytes']}B threshold):"
        )
        lines.append(
            f"{'shards':>6s} {'ops/sec':>12s} {'scaling':>8s} "
            f"{'epochs':>7s} {'group':>7s} {'wait us':>9s}"
        )
        for __, entry in sorted(pipeline["async_scaling"].items(),
                                key=lambda kv: kv[1]["shards"]):
            scaling = entry.get("scaling_vs_1")
            lines.append(
                f"{entry['shards']:6d} {entry['ops_per_sec']:12,.0f} "
                f"{(f'{scaling:.2f}x' if scaling else '-'):>8s} "
                f"{entry['commit_epochs']:7d} "
                f"{entry.get('commit_group_mean', 0.0):7.1f} "
                f"{entry['commit_wait_us']:9.1f}"
            )
        ablation = pipeline.get("ablation")
        if ablation:
            lines.append(
                f"  ablation at {ablation['shards']} shards: sync "
                f"{ablation['sync_ops_per_sec']:,.0f} ops/sec -> async "
                f"{ablation['async_ops_per_sec']:,.0f} ops/sec "
                f"({ablation['async_speedup']:.2f}x; flushes "
                f"{ablation['sync_log_flushes']} -> "
                f"{ablation['async_log_flushes']})"
            )
        lines.append(
            f"  {'topology':<10s} {'ops/sec':>12s} {'$/op':>11s} "
            f"{'log io $/op':>12s} {'capital $':>10s}"
        )
        for topology, entry in pipeline["topologies"].items():
            lines.append(
                f"  {topology:<10s} {entry['ops_per_sec']:>12,.0f} "
                f"{entry['dollars_per_op']:>11.3e} "
                f"{entry['log_io_dollars_per_op']:>12.3e} "
                f"{entry['log_capital_dollars']:>10.0f}"
            )
    record_cache = report.get("record_cache")
    if record_cache:
        lines.append("")
        lines.append(
            f"record cache v2 ({record_cache['workload']}, "
            f"{record_cache['cache_budget_bytes']}B cache DRAM, heap "
            f"{record_cache['record_heap_budget_bytes']}B / arena "
            f"{record_cache['record_arena_bytes']}B):"
        )
        lines.append(
            f"  {'variant':<14s} {'core us/op':>11s} {'tc hit':>7s} "
            f"{'page hit':>9s} {'ssd ios':>8s} {'gc reloc':>9s}"
        )
        for name, entry in record_cache["variants"].items():
            tc_hit = max(entry["read_cache_hit_rate"],
                         entry["record_cache_hit_rate"])
            lines.append(
                f"  {name:<14s} {entry['core_us_per_op']:>11.3f} "
                f"{tc_hit:>7.3f} {entry['page_cache_hit_rate']:>9.3f} "
                f"{entry['ssd_ios']:>8d} "
                f"{entry['record_cache_gc_relocations']:>9d}"
            )
        lines.append(
            f"  MM-op core-us drop vs page path: "
            f"{record_cache['mm_core_us_drop'] * 100:.1f}% "
            f"(floor {RECORD_CACHE_FLOOR * 100:.0f}%)"
        )
        figure3 = record_cache.get("figure3")
        if figure3:
            for side in ("before", "after"):
                entry = figure3[side]
                rate = entry.get("breakeven_rate_ops_per_sec")
                crossover = (f"{rate:,.0f} ops/sec" if rate is not None
                             else "none (caching engine dominates)")
                lines.append(
                    f"  figure-3 {side:<7s} Px={entry['px']:.2f} "
                    f"Mx={entry['mx']:.2f} -> MassTree wins above "
                    f"{crossover}"
                )
            shift = figure3.get("crossover_rate_shift")
            if shift is not None:
                lines.append(
                    f"  crossover rate shift (after/before): {shift:.2f}x"
                )
    tiered = report.get("tiered")
    if tiered:
        lines.append("")
        lines.append(
            f"tiered eviction ({tiered['workload']}, "
            f"{tiered['cache_capacity_bytes']}B DRAM cache, far tier "
            f"{tiered['far_tier']}):"
        )
        lines.append(
            f"  {'variant':<8s} {'page hit':>9s} {'ssd ios':>8s} "
            f"{'demote':>7s} {'promote':>8s} {'tier B':>8s} {'$/op':>11s}"
        )
        for name, entry in tiered["variants"].items():
            lines.append(
                f"  {name:<8s} {entry['page_cache_hit_rate']:>9.4f} "
                f"{entry['ssd_ios']:>8d} {entry['demotions']:>7d} "
                f"{entry['promotions']:>8d} "
                f"{entry['tier_resident_bytes']:>8d} "
                f"{entry['dollars_per_op']:>11.3e}"
            )
        lines.append(
            f"  demote/drop $-per-op ratio: "
            f"{tiered['dollars_ratio']:.3f} "
            f"(ceiling {TIERED_DOLLARS_CEILING:.2f})"
        )
    eviction = report.get("eviction")
    if eviction:
        lines.append(
            f"eviction ({eviction['workload']}, "
            f"{eviction['cache_capacity_bytes']}B cache): "
            f"LRU hit {eviction['lru_hit_rate']:.4f} vs "
            f"CLOCK hit {eviction['clock_hit_rate']:.4f}"
        )
    whatif = report.get("whatif")
    if whatif:
        lines.append("")
        lines.append(
            f"what-if causal bottlenecks (speedup "
            f"{whatif['speedup']:.0f}x, winner validated):"
        )
        lines.append(
            f"{'scenario':32s} {'top bottleneck':16s} "
            f"{'saved $/op %':>12s} {'ops/s gain':>10s} {'contract':>11s} "
            f"{'rel err':>10s}"
        )
        for label, scenario in whatif["scenarios"].items():
            validated = scenario["validated"]
            rel_err = validated["agreement"]["dollars_rel_err"]
            lines.append(
                f"{label:32s} {scenario['top_bottleneck']:16s} "
                f"{scenario['top_savings_pct']:11.2f}% "
                f"{scenario['top_ops_per_sec_gain_pct']:9.2f}% "
                f"{validated['contract']:>11s} "
                f"{rel_err:10.3e}"
            )
    trace = report.get("trace")
    if trace:
        lines.append("")
        lines.append(
            f"cost attribution ({trace['workload']}, {trace['path']}, "
            f"{trace['operations']} ops, traced == untraced):"
        )
        breakdown = trace["cpu_us_by_component"]
        total = sum(breakdown.values()) or 1.0
        parts = ", ".join(
            f"{component} {us / total * 100:.0f}%"
            for component, us in sorted(
                breakdown.items(), key=lambda kv: -kv[1])
        )
        lines.append(f"  cpu by component: {parts}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench-engine",
        description="Per-op vs batched engine throughput benchmark.",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run (CI): ycsb-a at "
                             f"{SMOKE_RECORDS} records / {SMOKE_OPS} ops "
                             f"on {list(SMOKE_SHARD_COUNTS)} shards, plus "
                             "the record-cache and tiered blocks; checks "
                             "every floor and ceiling")
    parser.add_argument("--mixes", default="a,b,c",
                        help="comma-separated YCSB mixes (default a,b,c)")
    parser.add_argument("--records", type=int, default=4000)
    parser.add_argument("--ops", type=int, default=10_000)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--cores", type=int, default=4,
                        help="cores per machine (per shard in sharded "
                             "runs)")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT}); "
                             "'-' skips writing")
    args = parser.parse_args(argv)

    if args.smoke:
        mixes = ["a"]
        record_count, op_count = SMOKE_RECORDS, SMOKE_OPS
        shard_counts: Tuple[int, ...] = SMOKE_SHARD_COUNTS
    else:
        mixes = [m.strip() for m in args.mixes.split(",") if m.strip()]
        record_count, op_count = args.records, args.ops
        shard_counts = DEFAULT_SHARD_COUNTS

    report = run_bench(
        mixes=mixes,
        record_count=record_count,
        op_count=op_count,
        batch_size=args.batch_size,
        cores=args.cores,
        eviction_comparison=not args.smoke,
        shard_counts=shard_counts,
        trace=not args.smoke,
        whatif_comparison=not args.smoke,
        smoke=args.smoke,
    )
    print(render(report))
    if args.out != "-":
        out_path = Path(args.out)
        out_path.write_text(json.dumps(report, indent=2, sort_keys=True)
                            + "\n")
        print(f"\nwrote {out_path}")

    failures = []
    # The batched path exists to be faster on the update-heavy mix; fail
    # loudly if a change regresses it below the tracked floor.
    ycsb_a = report["mixes"].get("ycsb-a")
    if ycsb_a is not None and ycsb_a["speedup"] < 1.3:
        failures.append(
            f"ycsb-a batched speedup {ycsb_a['speedup']:.2f}x < 1.3x floor"
        )
    # Sharding exists to scale aggregate throughput; with per-shard
    # core-seconds per op held constant, 4 shards must at least match
    # the 1-shard batched number on the update-heavy mix.
    sharded_a = report.get("sharded", {}).get("ycsb-a", {})
    if "1" in sharded_a and "4" in sharded_a:
        one, four = sharded_a["1"], sharded_a["4"]
        if four["ops_per_sec"] < one["ops_per_sec"]:
            failures.append(
                f"4-shard ycsb-a aggregate {four['ops_per_sec']:,.0f} "
                f"ops/sec below 1-shard {one['ops_per_sec']:,.0f}"
            )
    # The async pipeline exists to break the WAL-bound scaling wall:
    # 4-shard async scaling must never fall back to the seed's sync
    # value, and 8-shard async scaling must clear the acceptance floor.
    async_scaling = report.get("commit_pipeline", {}).get("async_scaling", {})
    for shards, floor in (("4", SEED_SCALING_FLOOR),
                          ("8", ASYNC_SCALING_FLOOR_8)):
        entry = async_scaling.get(shards)
        if entry is not None and entry["scaling_vs_1"] < floor:
            failures.append(
                f"{shards}-shard async ycsb-a scaling "
                f"{entry['scaling_vs_1']:.2f}x < {floor}x floor"
            )
    # Record-cache v2 exists to cut the MM-op cost of the TC-hit path;
    # at equal cache DRAM the latch-free heap must clear the floor.
    record_cache = report.get("record_cache")
    if record_cache is not None:
        drop = record_cache["mm_core_us_drop"]
        if drop < RECORD_CACHE_FLOOR:
            failures.append(
                f"ycsb-c record-cache MM-op core-us drop {drop:.1%} < "
                f"{RECORD_CACHE_FLOOR:.0%} floor"
            )
    # Demote-not-drop exists to buy back SSD I/O with cheap far memory;
    # at equal DRAM it must undercut the drop baseline's $-per-op.
    tiered = report.get("tiered")
    if tiered is not None:
        ratio = tiered["dollars_ratio"]
        if ratio > TIERED_DOLLARS_CEILING:
            failures.append(
                f"ycsb-b demote/drop $-per-op ratio {ratio:.3f} > "
                f"{TIERED_DOLLARS_CEILING} ceiling"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    sys.exit(main())
