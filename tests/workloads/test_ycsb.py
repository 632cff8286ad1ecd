"""YCSB-style workload specs, generation and application to stores."""

import hashlib
import random

import pytest

from repro.bwtree import BwTree, BwTreeConfig
from repro.hardware import Machine
from repro.workloads import (
    OpKind,
    WorkloadGenerator,
    WorkloadSpec,
    apply_operations,
)


class TestSpec:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WorkloadSpec(read_fraction=0.5, update_fraction=0.6)

    def test_standard_mixes(self):
        assert WorkloadSpec.ycsb_a().update_fraction == 0.5
        assert WorkloadSpec.ycsb_b().read_fraction == 0.95
        assert WorkloadSpec.ycsb_c().read_fraction == 1.0
        assert WorkloadSpec.ycsb_d().insert_fraction == 0.05
        assert WorkloadSpec.ycsb_d().distribution == "latest"
        assert WorkloadSpec.ycsb_e().scan_fraction == 0.95
        assert WorkloadSpec.ycsb_f().rmw_fraction == 0.5

    def test_record_count_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(record_count=0)


class TestGenerator:
    def test_load_items_count_and_keys(self):
        spec = WorkloadSpec(record_count=100, value_bytes=50)
        items = list(WorkloadGenerator(spec).load_items())
        assert len(items) == 100
        assert items[0][0] == b"user0000000000"
        assert all(len(value) == 50 for __, value in items)

    def test_values_deterministic_per_seed(self):
        spec = WorkloadSpec(record_count=10, seed=3)
        a = list(WorkloadGenerator(spec).load_items())
        b = list(WorkloadGenerator(spec).load_items())
        assert a == b

    def test_values_compressible(self):
        import zlib
        spec = WorkloadSpec(record_count=20, value_bytes=500)
        generator = WorkloadGenerator(spec)
        raw = b"".join(v for __, v in generator.load_items())
        assert len(zlib.compress(raw)) < len(raw) * 0.8

    @staticmethod
    def reference_value(rng: random.Random, n: int) -> bytes:
        """The stdlib-draw value loop ``make_value`` must reproduce."""
        if n == 0:
            return b""
        out = bytearray()
        while len(out) < n:
            run = rng.randint(1, 8)
            byte = rng.randrange(16) + 0x61
            out.extend(bytes([byte]) * run)
        return bytes(out[:n])

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("value_bytes", [0, 1, 7, 100, 1000])
    def test_make_value_matches_stdlib_draws(self, seed, value_bytes):
        spec = WorkloadSpec(seed=seed, value_bytes=value_bytes)
        generator = WorkloadGenerator(spec)
        rng = random.Random(seed ^ 0x5EED)
        for __ in range(200):
            assert generator.make_value() \
                == self.reference_value(rng, value_bytes)

    def test_make_value_golden_digest(self):
        generator = WorkloadGenerator(WorkloadSpec(seed=1))
        digest = hashlib.sha256()
        for __ in range(1000):
            digest.update(generator.make_value())
        assert digest.hexdigest() == (
            "2e1d8e411a8ce9c75dfb5e4d9551374b"
            "2261ebc0485c324cb8ddca91c20f0529")

    def test_operation_mix_matches_fractions(self):
        spec = WorkloadSpec(record_count=1000, read_fraction=0.7,
                            update_fraction=0.3, seed=5)
        ops = list(WorkloadGenerator(spec).operations(5000))
        reads = sum(1 for op in ops if op.kind is OpKind.READ)
        assert 0.65 < reads / 5000 < 0.75
        assert all(op.kind in (OpKind.READ, OpKind.UPDATE) for op in ops)

    def test_inserts_extend_keyspace(self):
        spec = WorkloadSpec(record_count=100, read_fraction=0.0,
                            insert_fraction=1.0)
        generator = WorkloadGenerator(spec)
        ops = list(generator.operations(10))
        assert [op.key for op in ops] == [
            b"user%010d" % (100 + i) for i in range(10)
        ]

    def test_scan_ops_have_length(self):
        spec = WorkloadSpec(record_count=100, read_fraction=0.0,
                            scan_fraction=1.0, max_scan_length=7)
        ops = list(WorkloadGenerator(spec).operations(20))
        assert all(1 <= op.scan_length <= 7 for op in ops)

    def test_generated_keys_within_inserted_range(self):
        spec = WorkloadSpec(record_count=50, distribution="uniform")
        generator = WorkloadGenerator(spec)
        for op in generator.operations(500):
            index = int(op.key[len(spec.key_prefix):])
            assert index < 50


class TestApplyOperations:
    @pytest.fixture
    def loaded(self, machine: Machine):
        spec = WorkloadSpec(record_count=500, value_bytes=60, seed=11)
        tree = BwTree(machine, BwTreeConfig(segment_bytes=1 << 16))
        generator = WorkloadGenerator(spec)
        for key, value in generator.load_items():
            tree.upsert(key, value)
        return tree, spec

    def test_reads_all_found(self, loaded):
        tree, spec = loaded
        generator = WorkloadGenerator(spec)
        stats = apply_operations(tree, generator.operations(500))
        assert stats.operations == 500
        assert stats.not_found == 0
        assert stats.reads == 500   # ycsb-c default: all reads

    def test_mixed_stats_counted(self, loaded):
        tree, __ = loaded
        spec = WorkloadSpec(record_count=500, read_fraction=0.4,
                            update_fraction=0.3, insert_fraction=0.1,
                            scan_fraction=0.1, rmw_fraction=0.1, seed=11)
        generator = WorkloadGenerator(spec)
        stats = apply_operations(tree, generator.operations(400))
        assert stats.operations == 400
        assert (stats.reads + stats.updates + stats.inserts
                + stats.scans + stats.rmws) == 400
        assert stats.scanned_records > 0

    def test_ss_fraction_zero_when_cached(self, loaded):
        tree, spec = loaded
        generator = WorkloadGenerator(spec)
        stats = apply_operations(tree, generator.operations(300))
        assert stats.ss_fraction == 0.0

    def test_ss_fraction_positive_when_cold(self, machine):
        spec = WorkloadSpec(record_count=1000, value_bytes=100, seed=11)
        tree = BwTree(machine, BwTreeConfig(
            cache_capacity_bytes=16 * 1024, segment_bytes=1 << 16,
        ))
        generator = WorkloadGenerator(spec)
        for key, value in generator.load_items():
            tree.upsert(key, value)
        tree.checkpoint()
        tree.store.flush()
        stats = apply_operations(tree, generator.operations(300))
        assert stats.ss_fraction > 0.3
        assert stats.ios >= stats.ss_operations
