"""The benchmark's workloads, and one measured repetition of a workload.

A repetition builds a fresh engine, loads it, generates the operation
stream and warms it up (the *set-up*), then drives the stream as a closed
loop with one client in this process (the *window*).  Every read is
checked against a dict model of the acknowledged writes, and after the
window a seeded sample of keys is read back through the public ``get``.

Host time is ``perf_counter``, normalized for the host's speed by
:mod:`hostspeed`; everything else a repetition reports is read off the
simulated machines and repeats exactly for a seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import random
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import DeuteronomyEngine, Machine, WorkloadGenerator, WorkloadSpec
from repro.bwtree.tree import BwTreeConfig
from repro.deuteronomy.tc import TcConfig
from repro.hardware.metrics import Histogram
from repro.observability.whatif import RunView, ShardView, summarize
from repro.sharding.engine import ShardedEngine
from repro.workloads.ycsb import OpKind

from hostspeed import HostClock
from layers import CATEGORY_LAYER
from tracer import LayerTracer

MIXES = {"a": WorkloadSpec.ycsb_a, "b": WorkloadSpec.ycsb_b,
         "c": WorkloadSpec.ycsb_c}

#: Keys read back through ``get`` after the window.
VERIFY_SAMPLE = 1000

#: Segments the warm-up and the window are cut into; a host-speed
#: calibration slice runs between segments (see hostspeed).
WARMUP_SEGMENTS = 4
WINDOW_SEGMENTS = 20

Op = Tuple[str, bytes, Optional[bytes]]


@dataclass(frozen=True)
class Workload:
    """One workload: its data, its mix, and the engine it runs on."""

    name: str
    why: str
    mix: str
    distribution: str
    records: int
    ops: int
    warmup_ops: int
    shards: int = 1              # 1: one DeuteronomyEngine
    batch: int = 1               # 1: per-op get/put, else apply_batch
    sync_commit: bool = False
    commit_pipeline: bool = False
    demote_to_tiers: bool = False
    #: Page cache capacity as a share of the loaded bytes (None: uncapped).
    page_cache_share: Optional[float] = None
    #: Record heap as a share of the loaded bytes (None: no record cache,
    #: the TC's read cache instead).
    record_heap_share: Optional[float] = None
    value_bytes: int = 100

    @property
    def loop(self) -> str:
        mode = ("per-op get/put" if self.batch == 1
                else f"apply_batch of {self.batch}")
        target = ("one engine" if self.shards == 1 else
                  f"{self.shards}-shard fleet, sequential dispatch")
        return f"closed loop, 1 client, {mode}, {target}"

    def spec(self, seed: int) -> WorkloadSpec:
        return MIXES[self.mix](record_count=self.records,
                               value_bytes=self.value_bytes,
                               distribution=self.distribution, seed=seed)

    def sizes(self) -> Dict[str, object]:
        """Data and cache sizes, in bytes across the whole fleet."""
        loaded = self.loaded_bytes
        page_cache = self.page_cache_bytes_per_shard
        heap = self.record_heap_bytes_per_shard
        return {
            "records": self.records,
            "ops": self.ops,
            "warmup_ops": self.warmup_ops,
            "loaded_bytes": loaded,
            "page_cache_bytes": (None if page_cache is None
                                 else page_cache * self.shards),
            "read_cache_bytes": (None if heap is not None
                                 else TcConfig().read_cache_bytes
                                 * self.shards),
            "record_heap_bytes": (None if heap is None
                                  else heap * self.shards),
            "shards": self.shards,
            "loop": self.loop,
        }

    @functools.cached_property
    def loaded_bytes(self) -> int:
        key_bytes = len(WorkloadGenerator(self.spec(0)).key_for(0))
        return self.records * (key_bytes + self.value_bytes)

    @property
    def page_cache_bytes_per_shard(self) -> Optional[int]:
        if self.page_cache_share is None:
            return None
        return int(self.loaded_bytes * self.page_cache_share) // self.shards

    @property
    def record_heap_bytes_per_shard(self) -> Optional[int]:
        if self.record_heap_share is None:
            return None
        return int(self.loaded_bytes * self.record_heap_share) // self.shards

    def tc_config(self) -> TcConfig:
        heap = self.record_heap_bytes_per_shard
        if heap is None:
            return TcConfig(sync_commit=self.sync_commit,
                            commit_pipeline=self.commit_pipeline)
        return TcConfig(sync_commit=self.sync_commit,
                        commit_pipeline=self.commit_pipeline,
                        record_cache=True, record_cache_bytes=heap,
                        record_arena_bytes=max(4 << 10, heap // 16),
                        record_dirty_flush_bytes=heap // 4)

    def tree_config(self) -> BwTreeConfig:
        return BwTreeConfig(
            cache_capacity_bytes=self.page_cache_bytes_per_shard,
            demote_to_tiers=self.demote_to_tiers)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ycsb-a-sync-ss",
        why=("SS regime with writes: per-op YCSB-A with a log force per "
             "commit and a page cache a quarter of the data, so mvcc, "
             "recovery_log, page eviction and the SSD carry the work"),
        mix="a", distribution="scrambled",
        records=10_000, ops=5_000, warmup_ops=1_000,
        sync_commit=True, page_cache_share=0.25),
    Workload(
        name="ycsb-c-mm",
        why=("MM regime: per-op YCSB-C over an all-resident page cache "
             "and the 4 MiB read cache, no SSD I/O, no log, empty "
             "version store; bypasses every write and I/O path"),
        mix="c", distribution="scrambled",
        records=50_000, ops=100_000, warmup_ops=10_000),
    Workload(
        name="ycsb-b-fleet4",
        why=("4-shard fleet, YCSB-B hotspot in batches of 64 with the "
             "commit pipeline, record heap and tier demotion on: the only "
             "workload through the router, record-heap GC and tiers"),
        mix="b", distribution="hotspot",
        records=20_000, ops=64_000, warmup_ops=16_000,
        shards=4, batch=64, commit_pipeline=True, demote_to_tiers=True,
        page_cache_share=0.5, record_heap_share=0.1),
)}


@dataclass
class Repetition:
    """What one repetition measured."""

    setup: HostClock
    window: HostClock
    attempted: int
    failed: int
    #: Every virtual-clock figure, end to end and per layer.
    virtual: Dict[str, float]
    errors: List[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        """Set-up time in reference seconds."""
        return self.setup.reference_s

    @property
    def host_ops_per_s(self) -> float:
        """User ops per reference second of the window."""
        return self.virtual["ops"] / self.window.reference_s

    @property
    def raw_host_ops_per_s(self) -> float:
        """User ops per ``perf_counter`` second of the window."""
        return self.virtual["ops"] / self.window.raw_s

    @property
    def speed(self) -> float:
        """Reference seconds per host second over set-up and window."""
        return ((self.setup.reference_s + self.window.reference_s)
                / (self.setup.raw_s + self.window.raw_s))


class _Checker:
    """Counts operations and compares reads against a dict model."""

    def __init__(self, model: Dict[bytes, bytes]) -> None:
        self.model = model
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def read(self, key: bytes, got: Optional[bytes]) -> None:
        if got != self.model.get(key):
            self.fail(f"read {key!r}: got {got!r:.40}, "
                      f"want {self.model.get(key)!r:.40}")


def _to_ops(generator: WorkloadGenerator, count: int) -> List[Op]:
    return [("get", op.key, None) if op.kind is OpKind.READ
            else ("put", op.key, op.value)
            for op in generator.operations(count)]


def _drive_per_op(engine: DeuteronomyEngine, ops: Sequence[Op],
                  checker: _Checker, latencies: Histogram) -> int:
    """Per-op closed loop; returns user bytes written."""
    machine = engine.machine
    model = checker.model
    written = 0
    for kind, key, value in ops:
        checker.attempted += 1
        cpu0, svc0 = machine.latency_window()
        try:
            if kind == "get":
                checker.read(key, engine.get(key))
            else:
                engine.put(key, value)
                model[key] = value
                written += len(key) + len(value)
        except Exception:  # one failed op must not end the run
            checker.fail(traceback.format_exc(limit=3))
        cpu1, svc1 = machine.latency_window()
        latencies.observe((cpu1 - cpu0) + (svc1 - svc0))
    return written


def _drive_batched(fleet: ShardedEngine, ops: Sequence[Op], batch: int,
                   checker: _Checker, latencies: Histogram) -> int:
    """Batched closed loop over a fleet; returns user bytes written.

    A batch's latency is its slowest shard's, charged to every op in it.
    """
    machines = [shard.machine for shard in fleet.shards]
    model = checker.model
    written = 0
    for start in range(0, len(ops), batch):
        chunk = ops[start:start + batch]
        checker.attempted += len(chunk)
        before = [m.latency_window() for m in machines]
        try:
            results = fleet.apply_batch(chunk)
        except Exception:  # one failed batch must not end the run
            checker.fail(traceback.format_exc(limit=3))
            checker.failed += len(chunk) - 1
            results = None
        if results is not None:
            for (kind, key, value), got in zip(chunk, results):
                if kind == "get":
                    checker.read(key, got)
                else:
                    model[key] = value
                    written += len(key) + len(value)
        slowest = max(
            (cpu1 - cpu0) + (svc1 - svc0)
            for (cpu0, svc0), (cpu1, svc1) in zip(
                before, (m.latency_window() for m in machines)))
        for __ in chunk:
            latencies.observe(slowest)
    return written


def _snapshot(engines: Sequence[DeuteronomyEngine]) -> Dict[str, float]:
    """Cumulative counters the machines' ``reset_accounting`` keeps."""
    totals: Dict[str, float] = {}
    for engine in engines:
        stats = engine.stats()
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not key.endswith("rate"):
                totals[key] = totals.get(key, 0) + value
        totals["log_store_bytes_appended"] = (
            totals.get("log_store_bytes_appended", 0)
            + engine.dc.store.bytes_appended)
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _virtual(engines: Sequence[DeuteronomyEngine],
             fleet: Optional[ShardedEngine], ops: Sequence[Op],
             before: Dict[str, float], latencies: Histogram,
             user_bytes: int) -> Dict[str, float]:
    """Every virtual-clock figure of the window."""
    n = len(ops)
    after = _snapshot(engines)
    delta = {key: after[key] - before.get(key, 0) for key in after}
    stats = fleet.stats()["fleet"] if fleet is not None else engines[0].stats()
    view = RunView(
        config=None, ops=n,  # type: ignore[arg-type]
        shards=[ShardView(
            cores=e.machine.cpu.cores, busy_us=e.machine.cpu.busy_us,
            ssd_busy_seconds=e.machine.ssd.busy_seconds,
            ssd_ios=e.machine.ssd.total_ios, log_busy_seconds=0.0,
            categories={}) for e in engines],
        shared_log_busy_seconds=0.0,
        dram_bytes=sum(e.machine.dram.current_bytes for e in engines))
    priced = summarize(view)
    if priced.elapsed_seconds != stats["elapsed_seconds"]:
        raise RuntimeError("priced elapsed time disagrees with stats()")
    device_written = sum(e.machine.ssd.counters.get("ssd.write_bytes")
                         for e in engines)
    if user_bytes:
        write_amp = device_written / user_bytes
    elif device_written:
        raise RuntimeError(
            f"{device_written} device bytes written by a read-only window")
    else:
        write_amp = 1.0   # nothing written, nothing amplified
    virtual: Dict[str, float] = {
        "ops": n,
        "sim_ops_per_s": _ratio(n, stats["elapsed_seconds"]),
        "sim_core_us_per_op": stats["core_seconds"] * 1e6 / n,
        "sim_dollars_per_op": priced.dollars_per_op,
        "sim_p50_latency_us": latencies.percentile(50),
        "sim_p99_latency_us": latencies.percentile(99),
        "sim_write_amp": write_amp,
        "sim_latency_samples": latencies.count,
        "user_bytes_written": user_bytes,
        "device_bytes_written": device_written,
    }
    categories: Dict[str, float] = {}
    for engine in engines:
        for name, value in engine.machine.cpu.counters.snapshot().items():
            if name.startswith("cpu_us."):
                category = name[len("cpu_us."):]
                layer = CATEGORY_LAYER.get(category, "other")
                categories[layer] = categories.get(layer, 0.0) + value
    for layer in [*dict.fromkeys(CATEGORY_LAYER.values()), "other"]:
        virtual[f"{layer}.sim_core_us_per_op"] = categories.get(layer, 0.0) / n
    touches = delta["page_cache_touches"]
    virtual.update({
        "mvcc.keys_end": sum(e.tc.versions.key_count() for e in engines),
        "tc.hit_rate": 1.0 - _ratio(delta["dc_reads"], delta["reads"]),
        "read_cache.hit_rate": _ratio(
            delta["read_cache_hits"],
            delta["read_cache_hits"] + delta["read_cache_misses"]),
        "record_cache.hit_rate": _ratio(
            delta["record_cache_hits"],
            delta["record_cache_hits"] + delta["record_cache_misses"]),
        "record_cache.gc_relocations": delta["record_cache_gc_relocations"],
        "page_cache.hit_rate": (1.0 - _ratio(delta["page_cache_fetches"],
                                             touches)) if touches else 0.0,
        "page_cache.fetches": delta["page_cache_fetches"],
        "tier_cache.promotions": (delta["page_cache_promotions"]
                                  + delta["read_cache_promotions"]),
        "tier_cache.demotions": (delta["page_cache_demotions"]
                                 + delta["read_cache_demotions"]),
        "recovery_log.flushes": delta["log_flushes"],
        "commit_pipeline.epochs": delta["commit_epochs"],
        "commit_pipeline.wait_us_per_op": delta["commit_wait_us"] / n,
        "log_store.bytes_appended": delta["log_store_bytes_appended"],
        "ssd.ios": stats["ssd_ios"],
        "ssd.busy_s": sum(e.machine.ssd.busy_seconds for e in engines),
        "sharding.balance": _balance([e.machine.operations
                                      for e in engines]),
    })
    return virtual


def _balance(counts: Sequence[int]) -> float:
    """Max/mean work per shard (1.0 is perfectly even)."""
    mean = sum(counts) / len(counts)
    return max(counts) / mean if mean else 1.0


def digest(virtual: Dict[str, float]) -> str:
    """A short hash over every virtual figure, exact to the last bit."""
    exact = {key: float(value).hex() for key, value in sorted(virtual.items())}
    return hashlib.sha256(json.dumps(exact).encode()).hexdigest()[:16]


def run_once(workload: Workload, seed: int,
             tracer: Optional[LayerTracer] = None) -> Repetition:
    """Set up and run one repetition.

    With a ``tracer``, its wrappers are installed for set-up and window
    only (not for the checks after), and the measured segments of both
    are its traced window.
    """
    on_segment = tracer.extend_window if tracer is not None else None
    with contextlib.ExitStack() as traced:
        region = _no_region
        if tracer is not None:
            traced.enter_context(tracer)
            region = tracer.region
        setup = HostClock(on_segment)
        with region("workloads"):
            generator = WorkloadGenerator(workload.spec(seed))
            items = list(generator.load_items())
            ops = _to_ops(generator, workload.warmup_ops + workload.ops)
        setup.split()
        fleet: Optional[ShardedEngine] = None
        if workload.shards > 1:
            fleet = ShardedEngine(workload.shards,
                                  tree_config=workload.tree_config(),
                                  tc_config=workload.tc_config())
            fleet.bulk_load(items)
            fleet.checkpoint()
            engines = list(fleet.shards)
        else:
            engine = DeuteronomyEngine(Machine.paper_default(),
                                       tree_config=workload.tree_config(),
                                       tc_config=workload.tc_config())
            engine.dc.bulk_load(items)
            engine.checkpoint()
            engines = [engine]
        checker = _Checker(dict(items))
        del items
        setup.split()
        warmup, measured = (ops[:workload.warmup_ops],
                            ops[workload.warmup_ops:])
        for chunk in _chunks(warmup, WARMUP_SEGMENTS, workload.batch):
            _drive(workload, engines, fleet, chunk, checker, Histogram())
            setup.split()
        if fleet is not None:
            fleet.drain_commits()
            fleet.reset_accounting()
        else:
            engines[0].machine.reset_accounting()
        before = _snapshot(engines)
        latencies = Histogram("request_latency_us")
        user_bytes = 0
        setup.split()
        window = HostClock(on_segment)
        for chunk in _chunks(measured, WINDOW_SEGMENTS, workload.batch):
            user_bytes += _drive(workload, engines, fleet, chunk, checker,
                                 latencies)
            window.split()
        if fleet is not None:
            fleet.drain_commits()
        window.split()
    virtual = _virtual(engines, fleet, measured, before,
                       latencies, user_bytes)
    _verify_sample(fleet if fleet is not None else engines[0], checker, seed)
    return Repetition(setup=setup, window=window,
                      attempted=checker.attempted, failed=checker.failed,
                      virtual=virtual, errors=checker.errors)


def _chunks(ops: Sequence[Op], segments: int,
            batch: int) -> List[Sequence[Op]]:
    """``ops`` cut into about ``segments`` pieces of whole batches."""
    size = max(batch, -(-len(ops) // segments // batch) * batch)
    return [ops[start:start + size] for start in range(0, len(ops), size)]


def _no_region(layer: str) -> contextlib.nullcontext:
    del layer
    return contextlib.nullcontext()


def _drive(workload: Workload, engines: Sequence[DeuteronomyEngine],
           fleet: Optional[ShardedEngine], ops: Sequence[Op],
           checker: _Checker, latencies: Histogram) -> int:
    if fleet is not None:
        return _drive_batched(fleet, ops, workload.batch, checker, latencies)
    return _drive_per_op(engines[0], ops, checker, latencies)


def _verify_sample(store: object, checker: _Checker, seed: int) -> None:
    """Read a seeded sample of keys back through the public ``get``."""
    keys = sorted(checker.model)
    sample = random.Random(seed ^ 0x5A3F).sample(
        keys, min(VERIFY_SAMPLE, len(keys)))
    for key in sample:
        checker.attempted += 1
        try:
            checker.read(key, store.get(key))  # type: ignore[attr-defined]
        except Exception:  # count it and keep checking the rest
            checker.fail(traceback.format_exc(limit=3))
