"""``DeuteronomyEngine.stats()`` is derived from the ``STATS`` declaration.

The hand-built dict the declaration replaced is kept below as the
oracle: the derived ``stats()`` must match it key for key, in order,
with bit-identical values, on every TC configuration that switches a
figure's source (record store, commit pipeline, tier demotion).
"""

from __future__ import annotations

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy.engine import STATS, DeuteronomyEngine
from repro.deuteronomy.tc import TcConfig
from repro.hardware import Machine


def reference_stats(engine: DeuteronomyEngine) -> dict:
    """The hand-built ``stats()`` body, kept as the declaration's oracle."""
    summary = engine.machine.summary()
    read_cache = engine.tc.read_cache
    records = engine.tc.records
    page_cache = engine.dc.cache
    pipeline = engine.tc.pipeline
    device = pipeline.device if pipeline is not None else None
    elapsed = summary.elapsed_seconds
    if device is not None:
        elapsed = max(elapsed, device.elapsed_contribution())
    return {
        "operations": summary.operations,
        "core_seconds": summary.cpu_busy_seconds,
        "elapsed_seconds": elapsed,
        "ssd_busy_seconds": summary.ssd_busy_seconds,
        "ssd_ios": summary.ssd_ios,
        "dram_bytes": engine.machine.dram.current_bytes,
        "tc_dram_bytes": engine.tc.dram_footprint_bytes(),
        "commits": engine.tc.counters.get("tc.commits"),
        "aborts": engine.tc.counters.get("tc.aborts"),
        "reads": engine.tc.counters.get("tc.reads"),
        "dc_reads": engine.tc.counters.get("tc.dc_reads"),
        "tc_hit_rate": engine.tc.tc_hit_rate(),
        "read_cache_hits": read_cache.hits,
        "read_cache_misses": read_cache.misses,
        "read_cache_hit_rate": read_cache.hit_rate(),
        "record_cache_hits": (
            records.hits if records is not None else 0),
        "record_cache_misses": (
            records.misses if records is not None else 0),
        "record_cache_hit_rate": (
            records.hit_rate() if records is not None else 0.0),
        "record_cache_gc_relocations": (
            records.gc_relocations if records is not None else 0),
        "record_heap_bytes": (
            records.physical_bytes if records is not None else 0),
        "page_cache_touches": page_cache.stats.touches,
        "page_cache_fetches": page_cache.stats.fetches,
        "page_cache_hit_rate": page_cache.hit_rate(),
        "page_cache_demotions": page_cache.stats.demotions,
        "page_cache_promotions": page_cache.stats.promotions,
        "read_cache_demotions": read_cache.demotions,
        "read_cache_promotions": read_cache.promotions,
        "tier_resident_bytes": (
            (page_cache.tiers.resident_bytes
             if page_cache.tiers is not None else 0)
            + read_cache.tier_resident_bytes),
        "log_flushes": engine.tc.log.flushes,
        "log_batch_appends": engine.tc.log.batch_appends,
        "log_device_writes": (
            device.submitted_writes if device is not None else 0),
        "log_device_bytes": (
            device.submitted_bytes if device is not None else 0),
        "commit_epochs": (
            pipeline.epochs_closed if pipeline is not None else 0),
        "commit_wait_us": (
            pipeline.commit_wait_us if pipeline is not None else 0.0),
        "commit_futures_resolved": (
            pipeline.futures_resolved if pipeline is not None else 0),
    }


def exact(stats: dict) -> list:
    """(key, type, bit pattern) triples: ``==`` would let 0 equal 0.0."""
    return [
        (key, type(value).__name__,
         value.hex() if isinstance(value, float) else value)
        for key, value in stats.items()
    ]


# name -> (tree config, TC config).  The small page cache and record
# heap make fetches, demotions and record-heap GC actually happen.
SMALL_CACHE = BwTreeConfig(segment_bytes=1 << 16, max_page_bytes=1024,
                           cache_capacity_bytes=6 << 10)
CONFIGS = {
    "default": (SMALL_CACHE, TcConfig()),
    "sync-commit": (SMALL_CACHE, TcConfig(sync_commit=True)),
    "record-cache": (SMALL_CACHE, TcConfig(
        record_cache=True, record_cache_bytes=12 << 10,
        record_arena_bytes=2 << 10, record_dirty_flush_bytes=4 << 10)),
    "commit-pipeline": (SMALL_CACHE, TcConfig(commit_pipeline=True)),
    "read-cache-demote": (
        BwTreeConfig(segment_bytes=1 << 16, max_page_bytes=1024,
                     cache_capacity_bytes=6 << 10, demote_to_tiers=True),
        TcConfig(read_cache_bytes=2 << 10, read_cache_demote=True)),
}


def drive(engine: DeuteronomyEngine) -> None:
    """Mixed traffic touching every figure's source."""
    engine.dc.bulk_load(
        [(b"user%04d" % index, b"v" * 64) for index in range(240)])
    for step in range(400):
        key = b"user%04d" % (step * 37 % 300)
        if step % 5 == 0:
            engine.put(key, b"w%d" % step * 16)
        elif step % 11 == 0:
            engine.delete(key)
        else:
            engine.get(key)
        if step % 40 == 39:
            engine.apply_batch([
                ("get", b"user%04d" % index, None) if index % 3
                else ("put", b"user%04d" % index, b"b" * 32)
                for index in range(step % 50, step % 50 + 24)
            ])
        if step == 200:
            engine.checkpoint()
            engine.tc.abort(engine.tc.begin())
    engine.checkpoint()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stats_match_hand_built_reference(name):
    tree_config, tc_config = CONFIGS[name]
    engine = DeuteronomyEngine(Machine.paper_default(), tree_config,
                               tc_config=tc_config)
    assert exact(engine.stats()) == exact(reference_stats(engine))
    drive(engine)
    stats = engine.stats()
    assert list(stats) == [stat.name for stat in STATS]
    assert exact(stats) == exact(reference_stats(engine))
