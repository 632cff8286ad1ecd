"""The engine throughput benchmark: report shape and the batching win."""

import json

import pytest

from repro.__main__ import main as cli_main
from repro.bench.engine_bench import SCHEMA_VERSION, render, run_bench

PATH_KEYS = {
    "operations", "ops_per_sec", "core_us_per_op", "p50_latency_us",
    "p99_latency_us", "cache_hit_rate", "tc_hit_rate", "log_flushes",
    "log_batch_appends", "ssd_ios", "io_bound",
}


class TestRunBench:
    def test_report_shape_and_speedup(self):
        report = run_bench(mixes=["a"], record_count=300, op_count=600,
                           batch_size=32, eviction_comparison=False,
                           record_cache_comparison=False,
                           tiered_comparison=False,
                           whatif_comparison=False)
        assert report["schema_version"] == SCHEMA_VERSION
        mix = report["mixes"]["ycsb-a"]
        assert PATH_KEYS <= set(mix["per_op"])
        assert PATH_KEYS <= set(mix["batched"])
        assert mix["per_op"]["operations"] == 600
        assert mix["batched"]["operations"] == 600
        # The point of the batched path: it must beat per-op on the
        # update-heavy mix by a clear margin.
        assert mix["speedup"] >= 1.3
        # Group commit trades per-request latency for throughput.
        assert (mix["batched"]["p50_latency_us"]
                >= mix["per_op"]["p50_latency_us"])
        # One flush decision per batch, not per commit.
        assert mix["batched"]["log_flushes"] < mix["per_op"]["log_flushes"]

    def test_eviction_comparison_parity(self):
        report = run_bench(mixes=[], record_count=800, op_count=1500,
                           eviction_comparison=True,
                           record_cache_comparison=False,
                           tiered_comparison=False,
                           whatif_comparison=False)
        eviction = report["eviction"]
        assert abs(eviction["clock_hit_rate"]
                   - eviction["lru_hit_rate"]) <= 0.02

    def test_render_is_textual(self):
        report = run_bench(mixes=["c"], record_count=200, op_count=300,
                           eviction_comparison=False,
                           record_cache_comparison=False,
                           tiered_comparison=False,
                           whatif_comparison=False)
        text = render(report)
        assert "ycsb-c" in text
        assert "speedup" in text

    def test_report_is_virtual_only_and_deterministic(self):
        def tiny():
            return run_bench(mixes=["a"], record_count=200, op_count=300,
                             shard_counts=(1, 2), eviction_comparison=False,
                             record_cache_comparison=False,
                             tiered_comparison=False,
                             whatif_comparison=False, trace=True)

        first = json.dumps(tiny(), sort_keys=True)
        assert "wall" not in first
        assert first == json.dumps(tiny(), sort_keys=True)

    def test_unknown_mix_rejected(self):
        try:
            run_bench(mixes=["z"], record_count=100, op_count=100)
        except ValueError as exc:
            assert "unknown mix" in str(exc)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


SHARDED_KEYS = {
    "shards", "operations", "ops_per_sec", "core_us_per_op",
    "fleet_core_seconds", "fleet_elapsed_seconds", "fleet_dram_bytes",
    "tc_hit_rate", "read_cache_hit_rate", "page_cache_hit_rate",
    "log_flushes", "ssd_ios", "shard_balance",
}


class TestShardedSweep:
    def test_sharded_section_shape(self):
        report = run_bench(mixes=["a"], record_count=300, op_count=600,
                           batch_size=32, eviction_comparison=False,
                           record_cache_comparison=False,
                           shard_counts=(1, 2), per_path_comparison=False,
                           tiered_comparison=False,
                           whatif_comparison=False)
        assert report["mixes"] == {}
        assert report["config"]["shard_counts"] == [1, 2]
        curve = report["sharded"]["ycsb-a"]
        for count in ("1", "2"):
            entry = curve[count]
            assert SHARDED_KEYS <= set(entry)
            assert entry["shards"] == int(count)
            assert entry["operations"] == 600
            assert entry["shard_balance"] >= 1.0
            # Scaling is normalised against the single-shard run.
            assert entry["scaling_vs_1"] == pytest.approx(
                entry["ops_per_sec"] / curve["1"]["ops_per_sec"])
        assert curve["1"]["scaling_vs_1"] == pytest.approx(1.0)

    def test_empty_shard_counts_disable_sweep(self):
        report = run_bench(mixes=["c"], record_count=200, op_count=300,
                           eviction_comparison=False, shard_counts=(),
                           record_cache_comparison=False,
                           tiered_comparison=False,
                           whatif_comparison=False)
        assert report["sharded"] == {}

    def test_render_includes_sharded_table(self):
        report = run_bench(mixes=["c"], record_count=200, op_count=300,
                           eviction_comparison=False, shard_counts=(1, 2),
                           per_path_comparison=False,
                           record_cache_comparison=False,
                           tiered_comparison=False,
                           whatif_comparison=False)
        text = render(report)
        assert "sharded" in text
        assert "scaling" in text


class TestRecordCacheBlock:
    """Schema-v5 record-granularity vs page-granularity comparison."""

    VARIANT_KEYS = {
        "core_us_per_op", "ops_per_sec", "tc_hit_rate",
        "read_cache_hit_rate", "record_cache_hit_rate",
        "page_cache_hit_rate", "record_cache_gc_relocations",
        "record_heap_bytes", "ssd_ios", "dram_bytes",
    }

    def test_smoke_block_shape_and_floor(self):
        from repro.bench.engine_bench import (
            RECORD_CACHE_FLOOR,
            _run_record_cache_block,
        )
        block = _run_record_cache_block(500, 2000, cores=4,
                                        value_bytes=100, smoke=True)
        assert set(block["variants"]) == {"page", "latch_free"}
        for variant in block["variants"].values():
            assert self.VARIANT_KEYS <= set(variant)
        assert block.get("figure3") is None
        # The acceptance metric: at equal cache DRAM, record-granularity
        # caching beats page-granularity caching by the CI floor.
        assert block["mm_core_us_drop"] >= RECORD_CACHE_FLOOR
        page = block["variants"]["page"]
        latch_free = block["variants"]["latch_free"]
        # The page variant spends the whole budget at page granularity:
        # no TC record caching, more device reads.
        assert page["record_heap_bytes"] == 0
        assert latch_free["record_cache_hit_rate"] > 0.5
        assert latch_free["ssd_ios"] < page["ssd_ios"]

    def test_full_block_figure3_and_latched_costing(self):
        from repro.bench.engine_bench import _run_record_cache_block
        block = _run_record_cache_block(300, 600, cores=4,
                                        value_bytes=100)
        assert set(block["variants"]) == {
            "page", "read_cache_v4", "latch_free", "latched"}
        # Latched mode pays acquire+convoy where latch-free pays
        # epoch-protect+CAS on the identical trace.
        assert block["latch_free_vs_latched_speedup"] > 1.0
        figure3 = block["figure3"]
        for side in ("before", "after"):
            entry = figure3[side]
            assert entry["px"] > 0 and entry["mx"] > 0
            assert entry["core_us_per_op"] > 0
        # The record heap narrows the gap to the MM system on both axes.
        assert figure3["after"]["px"] < figure3["before"]["px"]
        assert figure3["after"]["mx"] < figure3["before"]["mx"]
        assert figure3["database_bytes"] > 0

    def test_figure3_guard_rejects_degenerate_comparison(self):
        from repro.bench.engine_bench import _figure3_side
        # MassTree must be strictly faster AND bigger, else Eq 7 has no
        # crossover to report.
        assert _figure3_side(0.9, 2.0, 1e6, 1 << 20) is None
        assert _figure3_side(2.0, 1.0, 1e6, 1 << 20) is None
        side = _figure3_side(2.6, 2.1, 1e6, 1 << 20)
        assert side["breakeven_constant"] > 0
        assert side["breakeven_rate_ops_per_sec"] > 0

    def test_render_includes_record_cache_section(self):
        report = run_bench(mixes=[], record_count=300, op_count=400,
                           eviction_comparison=False, shard_counts=(),
                           record_cache_comparison=True,
                           tiered_comparison=False,
                           whatif_comparison=False)
        text = render(report)
        assert "record cache v2" in text
        assert "figure-3" in text
        assert "MM-op core-us drop" in text


class TestCli:
    def test_bench_engine_subcommand_writes_json(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = cli_main(["bench-engine", "--smoke", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["benchmark"] == "engine-throughput"
        assert set(report["mixes"]) == {"ycsb-a"}
        assert set(report["sharded"]["ycsb-a"]) == {"1", "4"}
        assert set(report["commit_pipeline"]["async_scaling"]) == {"1", "4"}
        assert set(report["record_cache"]["variants"]) == {
            "page", "latch_free"}
        assert set(report["tiered"]["variants"]) == {"drop", "demote"}
        assert not {"eviction", "whatif", "trace"} & set(report)
        captured = capsys.readouterr()
        assert "speedup" in captured.out
        assert "MM-op core-us drop" in captured.out
        assert "demote/drop $-per-op ratio" in captured.out

    def test_record_cache_smoke_flag_checks_floor(self, tmp_path, capsys):
        """``--smoke`` runs the record-cache block and checks its floor."""
        from repro.bench.engine_bench import RECORD_CACHE_FLOOR
        out = tmp_path / "bench.json"
        rc = cli_main(["bench-engine", "--smoke", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["record_cache"]["mm_core_us_drop"] >= RECORD_CACHE_FLOOR
        captured = capsys.readouterr()
        assert "MM-op core-us drop" in captured.out
        assert "floor" in captured.out

    def test_bench_engine_shards_flag_runs_sharded_only(self, tmp_path,
                                                        capsys):
        """The sharded sweep rides on ``--smoke`` at 1 and 4 shards."""
        out = tmp_path / "bench.json"
        rc = cli_main(["bench-engine", "--smoke", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert set(report["sharded"]) == {"ycsb-a"}
        assert report["sharded"]["ycsb-a"]["4"]["shards"] == 4
        assert report["sharded"]["ycsb-a"]["4"]["scaling_vs_1"] >= 1.0
        captured = capsys.readouterr()
        assert "sharded" in captured.out


class TestTieredBlock:
    """Schema-v6 drop-vs-demote comparison over the CXL hierarchy."""

    VARIANT_KEYS = {
        "ops_per_sec", "page_cache_hit_rate", "ssd_ios", "demotions",
        "promotions", "tier_resident_bytes", "dram_bytes",
        "exec_dollars_per_op", "io_dollars_per_op", "dram_dollars_per_op",
        "tier_dollars_per_op", "dollars_per_op",
    }

    def test_block_shape_and_dollar_ceiling(self):
        from repro.bench.engine_bench import (
            TIERED_DOLLARS_CEILING,
            _run_tiered_block,
        )
        block = _run_tiered_block(500, 2000, cores=4, value_bytes=100)
        assert block["workload"] == "ycsb-b"
        assert set(block["variants"]) == {"drop", "demote"}
        for variant in block["variants"].values():
            assert self.VARIANT_KEYS <= set(variant)
        assert block["far_tier"] == "cxl-far-memory"
        assert block["hierarchy"] == ["dram", "cxl-far-memory", "nvme-ssd"]
        drop = block["variants"]["drop"]
        demote = block["variants"]["demote"]
        # The drop variant never touches the victim tier.
        assert drop["demotions"] == 0
        assert drop["tier_resident_bytes"] == 0
        assert drop["tier_dollars_per_op"] == 0.0
        # Demote-not-drop actually runs and pays far-memory rent.
        assert demote["demotions"] > 0
        assert demote["promotions"] > 0
        assert demote["tier_dollars_per_op"] > 0.0
        # Promotions replace device reads on the skewed mix.
        assert demote["ssd_ios"] < drop["ssd_ios"]
        # The acceptance metric: demote wins on $-per-op with rent billed.
        assert block["dollars_ratio"] <= TIERED_DOLLARS_CEILING

    def test_run_bench_attaches_tiered_block(self):
        report = run_bench(mixes=[], record_count=300, op_count=600,
                           eviction_comparison=False, shard_counts=(),
                           record_cache_comparison=False,
                           tiered_comparison=True,
                           whatif_comparison=False)
        assert "tiered" in report
        assert report["tiered"]["workload"] == "ycsb-b"

    def test_render_includes_tiered_table(self):
        report = run_bench(mixes=[], record_count=300, op_count=600,
                           eviction_comparison=False, shard_counts=(),
                           record_cache_comparison=False,
                           tiered_comparison=True,
                           whatif_comparison=False)
        text = render(report)
        assert "tiered eviction" in text
        assert "demote" in text and "drop" in text

    def test_tiered_smoke_flag(self, tmp_path, capsys):
        """``--smoke`` runs the tiered block and checks its ceiling."""
        from repro.bench.engine_bench import TIERED_DOLLARS_CEILING
        out = tmp_path / "bench.json"
        rc = cli_main(["bench-engine", "--smoke", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["tiered"]["dollars_ratio"] <= TIERED_DOLLARS_CEILING
        captured = capsys.readouterr()
        assert "tiered eviction" in captured.out
        assert "ceiling" in captured.out


class TestWhatifBlock:
    """The schema v7 ``whatif`` block: ranked bottlenecks, validated."""

    def _report(self):
        return run_bench(mixes=[], record_count=300, op_count=600,
                         eviction_comparison=False, shard_counts=(),
                         record_cache_comparison=False,
                         tiered_comparison=False,
                         whatif_comparison=True)

    def test_block_shape_and_agreement(self):
        block = self._report()["whatif"]
        assert block["speedup"] == 2.0
        scenarios = block["scenarios"]
        # The tracked matrix: YCSB A/B/C single-shard, 1-vs-8 shards,
        # sync-vs-async commit.
        assert set(scenarios) == {
            "ycsb-a/1shard/sync", "ycsb-b/1shard/sync",
            "ycsb-c/1shard/sync", "ycsb-a/8shard/sync",
            "ycsb-a/8shard/async-shared-log",
        }
        for scenario in scenarios.values():
            ranking = scenario["ranking"]
            savings = [e["savings_dollars_per_op"] for e in ranking]
            assert savings == sorted(savings, reverse=True)
            assert scenario["top_bottleneck"] == ranking[0]["component"]
            validated = scenario["validated"]
            assert validated["component"] == scenario["top_bottleneck"]
            # check_agreement already asserted the contract; sync
            # scenarios must additionally read exactly zero error.
            if scenario["config"]["commit"] == "sync":
                assert validated["agreement"]["dollars_rel_err"] == 0.0
        shared = scenarios["ycsb-a/8shard/async-shared-log"]
        assert shared["validated"]["contract"] == "queueing"

    def test_render_includes_whatif_table(self):
        text = render(self._report())
        assert "what-if causal bottlenecks" in text
        assert "top bottleneck" in text
