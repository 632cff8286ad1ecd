"""Metrics registry: validation, snapshot/delta, fleet sums of ``STATS``."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy.engine import STATS, DeuteronomyEngine
from repro.deuteronomy.tc import TcConfig
from repro.hardware.machine import Machine
from repro.hardware.metrics import Histogram
from repro.observability.registry import (
    MetricsRegistry,
    engine_registry,
    fleet_registry,
)
from repro.sharding.engine import ShardedEngine


def _items(count: int, width: int = 16):
    return [(b"k%04d" % index, b"v" * width) for index in range(count)]


def _small_engine(ops: int = 48) -> DeuteronomyEngine:
    machine = Machine.paper_default(cores=2)
    engine = DeuteronomyEngine(
        machine, tc_config=TcConfig(sync_commit=True))
    engine.dc.bulk_load(_items(32))
    machine.reset_accounting()
    for index in range(ops):
        key = b"k%04d" % (index % 32)
        if index % 3:
            engine.get(key)
        else:
            engine.put(key, b"w" * 16)
    return engine


class TestMetricsRegistry:
    def test_names_must_be_component_dotted(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="component.metric"):
            registry.register_counter("ops", lambda: 0.0)
        with pytest.raises(ValueError, match="component.metric"):
            registry.register_gauge("", lambda: 0.0)

    def test_duplicates_rejected_across_kinds(self):
        registry = MetricsRegistry()
        registry.register_counter("tc.commits", lambda: 1.0)
        with pytest.raises(ValueError, match="already registered"):
            registry.register_gauge("tc.commits", lambda: 0.0)
        with pytest.raises(ValueError, match="already registered"):
            registry.register_histogram(
                "tc.commits", lambda: Histogram("x"))

    def test_names_lists_every_kind_sorted(self):
        registry = MetricsRegistry()
        registry.register_gauge("b.level", lambda: 0.0)
        registry.register_counter("a.count", lambda: 0.0)
        registry.register_histogram("c.lat", lambda: Histogram("x"))
        assert registry.names == ["a.count", "b.level", "c.lat"]

    def test_snapshot_and_delta(self):
        state = {"count": 2.0, "level": 7.0}
        hist = Histogram("lat")
        hist.observe_many([1.0, 3.0])
        registry = MetricsRegistry()
        registry.register_counter("c.count", lambda: state["count"])
        registry.register_gauge("c.level", lambda: state["level"])
        registry.register_histogram("c.lat", lambda: hist)

        before = registry.snapshot()
        assert before["counters"] == {"c.count": 2.0}
        assert before["gauges"] == {"c.level": 7.0}
        lat = before["histograms"]["c.lat"]
        assert lat["count"] == 2.0 and lat["mean"] == 2.0

        state["count"] = 5.0
        state["level"] = 1.0
        delta = registry.delta(before)
        # Counters difference; gauges read at the end of the window.
        assert delta["counters"] == {"c.count": 3.0}
        assert delta["gauges"] == {"c.level": 1.0}

    def test_delta_tolerates_new_counters(self):
        registry = MetricsRegistry()
        registry.register_counter("c.count", lambda: 4.0)
        delta = registry.delta({"counters": {}})
        assert delta["counters"] == {"c.count": 4.0}


class TestEngineRegistry:
    def test_counters_read_live_engine_accounting(self):
        engine = _small_engine()
        registry = engine_registry(engine)
        stats = engine.stats()
        snapshot = registry.snapshot()
        counters = snapshot["counters"]
        assert counters["machine.operations"] == stats["operations"]
        assert counters["machine.ssd_ios"] == stats["ssd_ios"]
        assert counters["tc.commits"] == stats["commits"]
        assert counters["tc.reads"] == stats["reads"]
        assert counters["page_cache.fetches"] == \
            stats["page_cache_fetches"]
        assert counters["recovery_log.flushes"] == stats["log_flushes"]
        latency = snapshot["histograms"]["machine.op_latency_us"]
        assert latency["count"] == \
            float(engine.machine.op_latencies.count)
        assert latency["count"] > 0.0
        assert 0.0 <= snapshot["gauges"]["tc.hit_rate"] <= 1.0

    def test_delta_over_a_measured_window(self):
        engine = _small_engine(ops=12)
        registry = engine_registry(engine)
        before = registry.snapshot()
        for index in range(10):
            engine.get(b"k%04d" % (index % 32))
        delta = registry.delta(before)
        assert delta["counters"]["machine.operations"] == 10.0
        assert delta["counters"]["tc.reads"] == 10.0


def _fleet_after_traffic(
        tc_config: TcConfig,
        tree_config: Optional[BwTreeConfig] = None) -> ShardedEngine:
    fleet = ShardedEngine(2, cores_per_shard=2, tree_config=tree_config,
                          tc_config=tc_config)
    fleet.bulk_load(_items(160, width=64))
    fleet.reset_accounting()
    for round_ in range(3):
        fleet.apply_batch([
            ("put", key, b"w" * 64) if (index + round_) % 4 == 0
            else ("get", key, None)
            for index, (key, __) in enumerate(_items(160))
        ])
    fleet.checkpoint()
    return fleet


def _registered(snapshot: dict, kind: str, name: str) -> float:
    table = snapshot["counters"] if kind == "counter" else snapshot["gauges"]
    return table[f"fleet.{name}"]


#: TC/tree configurations between them giving every ``STATS`` figure a
#: live source: record heap, commit pipeline, read-cache and page tiers.
FLEET_CONFIGS = {
    "record-cache": (TcConfig(record_cache=True,
                              record_cache_bytes=6 << 10,
                              record_arena_bytes=1 << 10,
                              record_dirty_flush_bytes=2 << 10), None),
    "commit-pipeline": (TcConfig(commit_pipeline=True), None),
    "tiers": (TcConfig(read_cache_bytes=1 << 10, read_cache_demote=True),
              BwTreeConfig(max_page_bytes=1024, cache_capacity_bytes=2 << 10,
                           demote_to_tiers=True)),
}


class TestFleetRegistry:
    def test_sums_match_per_shard_stats(self):
        fleet = _fleet_after_traffic(TcConfig(sync_commit=True))
        snapshot = fleet_registry(fleet).snapshot()
        fleet_stats = fleet.stats()
        for stat in STATS:
            if stat.kind not in ("counter", "level"):
                continue
            expected = sum(stat.read(shard) for shard in fleet.shards)
            registered = _registered(snapshot, stat.kind, stat.name)
            assert registered == float(expected), stat.name
            assert registered == \
                float(fleet_stats["fleet"][stat.name]), stat.name
        counters = snapshot["counters"]
        assert counters["fleet.routed_ops"] == \
            float(fleet_stats["routed_ops"])
        assert counters["fleet.routed_batches"] == \
            float(fleet_stats["routed_batches"])

    @pytest.mark.parametrize("config", sorted(FLEET_CONFIGS))
    def test_every_stats_figure_is_registered(self, config):
        """Counters register as counters, levels and ratios as gauges,
        each equal to the fleet's ``stats()`` figure."""
        fleet = _fleet_after_traffic(*FLEET_CONFIGS[config])
        registry = fleet_registry(fleet)
        snapshot = registry.snapshot()
        combined = fleet.stats()["fleet"]
        for stat in STATS:
            if stat.kind == "max":
                assert f"fleet.{stat.name}" not in registry.names
                continue
            assert _registered(snapshot, stat.kind, stat.name) == \
                float(combined[stat.name]), stat.name

    def test_sources_are_live(self):
        """The configurations above leave no summed figure at zero in
        every one of them, so the equalities are not vacuous."""
        live = set()
        for tc_config, tree_config in FLEET_CONFIGS.values():
            combined = _fleet_after_traffic(tc_config, tree_config).stats()
            live.update(name for name, value in combined["fleet"].items()
                        if value)
        assert live >= {
            "record_cache_hits", "record_cache_misses",
            "record_cache_gc_relocations", "record_heap_bytes",
            "ssd_busy_seconds", "tier_resident_bytes",
        }

    def test_fleet_hit_rate_rederived_from_sums(self):
        fleet = ShardedEngine(
            2, cores_per_shard=2,
            tc_config=TcConfig(sync_commit=True))
        registry = fleet_registry(fleet)
        # Empty fleet: 0.0, never a ZeroDivisionError.
        assert registry.snapshot()["gauges"]["fleet.tc_hit_rate"] == 0.0
        fleet.bulk_load(_items(32))
        fleet.reset_accounting()
        fleet.apply_batch([("get", key, None) for key, __ in _items(32)])
        rate = registry.snapshot()["gauges"]["fleet.tc_hit_rate"]
        assert rate == fleet.stats()["fleet"]["tc_hit_rate"]
