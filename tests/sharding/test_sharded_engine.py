"""ShardedEngine semantics: equivalence with a single engine, per-shard
group commit, fleet recovery, and aggregated accounting."""

import contextlib
import random

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine, TcConfig
from repro.deuteronomy.engine import STATS, SUMMED_STATS
from repro.faults import CrashError, FaultInjector, FaultPlan
from repro.hardware import Machine
from repro.sharding import ShardedEngine

TREE_CONFIG = BwTreeConfig(segment_bytes=1 << 14)
TC_CONFIG = TcConfig(log_buffer_bytes=1 << 12)


def make_sharded(num_shards: int, sync: bool = False,
                 faults=None) -> ShardedEngine:
    return ShardedEngine(
        num_shards,
        cores_per_shard=1,
        tree_config=TREE_CONFIG,
        tc_config=TcConfig(log_buffer_bytes=1 << 12, sync_commit=sync),
        faults=faults,
    )


def key_on(sharded: ShardedEngine, shard_id: int) -> bytes:
    """The first ``user%06d`` key the router places on ``shard_id``."""
    index = 0
    while sharded.shard_for(b"user%06d" % index) != shard_id:
        index += 1
    return b"user%06d" % index


def make_single() -> DeuteronomyEngine:
    return DeuteronomyEngine(
        Machine.paper_default(cores=1), TREE_CONFIG, TC_CONFIG,
    )


def random_ops(count: int, key_space: int, seed: int):
    """A deterministic mixed op stream over a small keyspace."""
    rng = random.Random(seed)
    ops = []
    for index in range(count):
        key = b"user%06d" % rng.randrange(key_space)
        roll = rng.random()
        if roll < 0.45:
            ops.append(("get", key, None))
        elif roll < 0.85:
            ops.append(("put", key, b"v%d" % index))
        else:
            ops.append(("delete", key, None))
    return ops


def run_stream(engine, ops, batch_size=16):
    results = []
    for start in range(0, len(ops), batch_size):
        results.extend(engine.apply_batch(ops[start:start + batch_size]))
    return results


class TestEquivalence:
    """For any op stream, the sharded fleet must match one engine."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_batched_stream_matches_single_engine(self, num_shards):
        ops = random_ops(400, key_space=60, seed=num_shards)
        single, sharded = make_single(), make_sharded(num_shards)
        single_results = run_stream(single, ops)
        sharded_results = run_stream(sharded, ops)
        assert sharded_results == single_results
        for index in range(60):
            key = b"user%06d" % index
            assert sharded.get(key) == single.get(key)

    def test_multi_api_matches_single_engine(self):
        items = [(b"k%03d" % (i % 40), b"v%d" % i) for i in range(120)]
        keys = [key for key, __ in items]
        single, sharded = make_single(), make_sharded(4)
        single.multi_put(items)
        sharded.multi_put(items)
        assert sharded.multi_get(keys) == single.multi_get(keys)
        dropped = keys[::3]
        single.multi_delete(dropped)
        sharded.multi_delete(dropped)
        assert sharded.multi_get(keys) == single.multi_get(keys)

    def test_duplicate_keys_in_one_batch_last_wins(self):
        sharded = make_sharded(4)
        sharded.multi_put([(b"k", b"first"), (b"k", b"second"),
                           (b"other", b"x"), (b"k", b"third")])
        assert sharded.get(b"k") == b"third"

    def test_single_key_ops_route_consistently(self):
        sharded = make_sharded(4)
        sharded.put(b"k", b"v")
        assert sharded.get(b"k") == b"v"
        sharded.delete(b"k")
        assert sharded.get(b"k") is None

    def test_results_gather_in_input_order(self):
        sharded = make_sharded(8)
        items = [(b"key%04d" % index, b"v%d" % index)
                 for index in range(64)]
        sharded.multi_put(items)
        values = sharded.multi_get([key for key, __ in items])
        assert values == [value for __, value in items]


class TestShardIndependence:
    def test_ops_land_on_owning_shard_only(self):
        sharded = make_sharded(4)
        items = [(b"user%06d" % index, b"v") for index in range(200)]
        sharded.multi_put(items)
        for shard_id, shard in enumerate(sharded.shards):
            for key, __ in items:
                owner = sharded.shard_for(key)
                found = shard.get(key) is not None
                assert found == (owner == shard_id)

    def test_each_involved_shard_group_commits_once(self):
        sharded = make_sharded(4, sync=True)
        items = [(b"user%06d" % index, b"v" * 10) for index in range(64)]
        sharded.multi_put(items)
        for shard in sharded.shards:
            commits = shard.tc.counters.get("tc.commits")
            if commits:
                # One grouped append + one flush for the whole sub-batch.
                assert shard.tc.log.batch_appends == 1
                assert shard.tc.log.flushes == 1

    def test_redo_records_stay_on_owning_shards_log(self):
        sharded = make_sharded(4, sync=True)
        items = [(b"user%06d" % index, b"v") for index in range(80)]
        sharded.multi_put(items)
        for shard_id, shard in enumerate(sharded.shards):
            for record in shard.tc.log.durable_records:
                assert sharded.shard_for(record.key) == shard_id


class TestScatterOrder:
    """Sub-batches run in shard order, each right after its boundary
    hit; a crash at the k-th hit leaves only earlier shards applied."""

    INVOLVED = (0, 1, 3)

    @pytest.mark.parametrize("crash_hit", [1, 2, 3, 4])
    def test_boundary_hits_follow_shard_order(self, crash_hit):
        injector = FaultInjector(
            FaultPlan.crash_at("sharded.apply_batch.boundary", crash_hit))
        sharded = make_sharded(4, faults=injector)
        # Listed out of shard order: the scatter must still run shard 0,
        # then 1, then 3.  Shard 2's sub-batch is empty.
        ops = [("put", key_on(sharded, shard_id), b"new")
               for shard_id in reversed(self.INVOLVED)]
        crashes = crash_hit <= len(self.INVOLVED)
        with (pytest.raises(CrashError) if crashes
              else contextlib.nullcontext()):
            sharded.apply_batch(ops)
        # One hit per non-empty sub-batch, up to the crash.
        assert injector.hits("sharded.apply_batch.boundary") == min(
            crash_hit, len(self.INVOLVED))
        for position, shard_id in enumerate(self.INVOLVED):
            shard = sharded.shards[shard_id]
            applied = position < crash_hit - 1
            expected = b"new" if applied else None
            assert shard.get(key_on(sharded, shard_id)) == expected
            # The router hash is charged just before the boundary hit,
            # so shards past the crash were never charged either.
            router_us = shard.machine.cpu.counters.get("cpu_us.router")
            assert (router_us > 0) == (position < crash_hit)


class TestBatchRejection:
    """A batch with one bad item is rejected whole, on every shard,
    with the bare engine's exception type and message."""

    CASES = pytest.mark.parametrize("method,build,error,message", [
        pytest.param(
            "apply_batch",
            lambda good, bad: [("put", good, b"new"), ("bogus", bad, None)],
            ValueError, "unknown batch op kind 'bogus'", id="apply-kind"),
        pytest.param(
            "apply_batch",
            lambda good, bad: [("put", good, b"new"), ("put", bad, 5)],
            TypeError, "values must be bytes, got int", id="apply-value"),
        pytest.param(
            "apply_batch",
            lambda good, bad: [("put", good, b"new"), ("put", bad, None)],
            ValueError, "put requires a value", id="apply-no-value"),
        pytest.param(
            "apply_batch",
            lambda good, bad: [("delete", good, None), ("get", b"", None)],
            ValueError, "keys must be non-empty", id="apply-empty-key"),
        pytest.param(
            "multi_put",
            lambda good, bad: [(good, b"new"), (bad, None)],
            TypeError, "values must be bytes, got NoneType", id="put-value"),
        pytest.param(
            "multi_put",
            lambda good, bad: [(good, b"new"), (b"", b"v")],
            ValueError, "keys must be non-empty", id="put-empty-key"),
        pytest.param(
            "multi_delete",
            lambda good, bad: [good, b""],
            ValueError, "keys must be non-empty", id="delete-empty-key"),
        pytest.param(
            "multi_get",
            lambda good, bad: [good, b""],
            ValueError, "keys must be non-empty", id="get-empty-key"),
    ])

    @staticmethod
    def snapshot(sharded: ShardedEngine):
        return [
            (shard.tc.counters.get("tc.commits"), shard.tc.log.last_lsn,
             shard.machine.cpu.busy_us)
            for shard in sharded.shards
        ]

    @CASES
    def test_rejected_batch_changes_no_shard(self, method, build, error,
                                             message):
        sharded = make_sharded(4)
        good, bad = key_on(sharded, 0), key_on(sharded, 3)
        # The bad item sits on a later shard than the good one; the
        # empty key routes to shard 1.
        assert sharded.shard_for(bad) > sharded.shard_for(good)
        assert sharded.shard_for(b"") > sharded.shard_for(good)
        keys = [key_on(sharded, shard_id) for shard_id in range(4)]
        sharded.multi_put([(key, b"old") for key in keys])
        before = self.snapshot(sharded)
        with pytest.raises(error, match=f"^{message}$"):
            getattr(sharded, method)(build(good, bad))
        assert self.snapshot(sharded) == before
        assert [sharded.get(key) for key in keys] == [b"old"] * 4

    @CASES
    def test_bare_engine_raises_the_same(self, method, build, error,
                                         message):
        single = make_single()
        with pytest.raises(error, match=f"^{message}$"):
            getattr(single, method)(build(b"good", b"bad"))


class TestFleetRecovery:
    def test_recover_matches_single_engine_recovery(self):
        ops = random_ops(300, key_space=40, seed=7)
        single, sharded = make_single(), make_sharded(4)
        run_stream(single, ops)
        run_stream(sharded, ops)
        single.checkpoint()
        sharded.checkpoint()
        single_recovered = DeuteronomyEngine.recover(single)
        sharded_recovered = ShardedEngine.recover(sharded)
        for index in range(40):
            key = b"user%06d" % index
            assert sharded_recovered.get(key) == single_recovered.get(key)

    def test_post_checkpoint_writes_lost_consistently(self):
        sharded = make_sharded(4)
        sharded.multi_put([(b"user%06d" % i, b"kept") for i in range(40)])
        sharded.checkpoint()
        sharded.multi_put([(b"user%06d" % i, b"lost") for i in range(40)])
        recovered = ShardedEngine.recover(sharded)
        for index in range(40):
            assert recovered.get(b"user%06d" % index) == b"kept"

    def test_recovered_fleet_routes_identically(self):
        sharded = make_sharded(8)
        keys = [b"user%06d" % index for index in range(100)]
        sharded.multi_put([(key, b"v") for key in keys])
        sharded.checkpoint()
        recovered = ShardedEngine.recover(sharded)
        for key in keys:
            assert recovered.shard_for(key) == sharded.shard_for(key)
            assert recovered.get(key) == b"v"

    def test_double_fleet_recovery_is_idempotent(self):
        sharded = make_sharded(2)
        sharded.put(b"k", b"v")
        sharded.checkpoint()
        first = ShardedEngine.recover(sharded)
        first.put(b"new", b"resident")
        again = ShardedEngine.recover(sharded)
        assert again is first
        assert first.get(b"new") == b"resident"

    def test_recovered_fleet_accepts_new_batches(self):
        sharded = make_sharded(4)
        sharded.multi_put([(b"user%06d" % i, b"old") for i in range(30)])
        sharded.checkpoint()
        recovered = ShardedEngine.recover(sharded)
        recovered.multi_put([(b"user%06d" % i, b"new") for i in range(30)])
        assert all(recovered.get(b"user%06d" % i) == b"new"
                   for i in range(30))


class TestAggregatedStats:
    def test_fleet_sums_additive_counters(self):
        sharded = make_sharded(4)
        ops = random_ops(200, key_space=30, seed=3)
        run_stream(sharded, ops)
        stats = sharded.stats()
        fleet, per_shard = stats["fleet"], stats["per_shard"]
        assert len(per_shard) == 4
        assert set(fleet) == {stat.name for stat in STATS}
        for name in SUMMED_STATS:
            assert fleet[name] == sum(shard[name] for shard in per_shard), name

    def test_fleet_elapsed_is_slowest_shard(self):
        sharded = make_sharded(4)
        run_stream(sharded, random_ops(200, key_space=30, seed=4))
        stats = sharded.stats()
        assert stats["fleet"]["elapsed_seconds"] == pytest.approx(
            max(s["elapsed_seconds"] for s in stats["per_shard"]))

    def test_rates_rederived_from_sums(self):
        sharded = make_sharded(2)
        keys = [b"user%06d" % index for index in range(20)]
        sharded.multi_put([(key, b"v") for key in keys])
        for __ in range(3):
            sharded.multi_get(keys)
        stats = sharded.stats()
        fleet = stats["fleet"]
        probes = fleet["read_cache_hits"] + fleet["read_cache_misses"]
        if probes:
            assert fleet["read_cache_hit_rate"] == pytest.approx(
                fleet["read_cache_hits"] / probes)
        assert 0.0 <= fleet["tc_hit_rate"] <= 1.0
        assert stats["routed_ops"] > 0
        assert stats["routed_batches"] > 0

    def test_every_shard_read_cache_earns_hits(self):
        """The router must not bypass any shard's read cache.

        Bulk-loaded keys are in the DC only (no versions), so a first
        read populates each shard's read cache and a re-read must hit it
        — on *every* shard, not just in the fleet aggregate (BENCH v4
        showed a fleet hit rate frozen across shard counts, which a
        single hot shard could fake).
        """
        sharded = make_sharded(4)
        keys = [b"user%06d" % index for index in range(64)]
        sharded.bulk_load([(key, b"v") for key in keys])
        for __ in range(2):
            sharded.multi_get(keys)
        stats = sharded.stats()
        for index, shard in enumerate(stats["per_shard"]):
            assert shard["read_cache_hits"] > 0, f"shard {index} never hit"
            assert shard["read_cache_hit_rate"] > 0.0

    def test_router_work_charged_to_shard_machines(self):
        sharded = make_sharded(2)
        sharded.multi_put([(b"user%06d" % i, b"v") for i in range(50)])
        total_router_us = sum(
            shard.machine.cpu.counters.get("cpu_us.router")
            for shard in sharded.shards
        )
        assert total_router_us > 0


class TestConstruction:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedEngine(0)

    def test_bulk_load_partitions_and_counts(self):
        sharded = make_sharded(4)
        items = [(b"user%06d" % index, b"v%d" % index)
                 for index in range(200)]
        assert sharded.bulk_load(items) == 200
        for key, value in items:
            assert sharded.get(key) == value

    def test_shard_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ShardedEngine(3, _shards=[make_single()])


class TestKeyValidation:
    """Non-bytes keys fail with the single engine's TypeError, before
    the router hashes or counts them."""

    BAD_KEYS = pytest.mark.parametrize("key", ["k", 5])

    def assert_rejected(self, call, key):
        sharded = make_sharded(2)
        with pytest.raises(TypeError, match=(
                f"^keys must be bytes, got {type(key).__name__}$")):
            call(sharded)
        assert sharded.counters.get("router.routed_ops") == 0

    @BAD_KEYS
    def test_get(self, key):
        self.assert_rejected(lambda fleet: fleet.get(key), key)

    @BAD_KEYS
    def test_put(self, key):
        self.assert_rejected(lambda fleet: fleet.put(key, b"v"), key)

    @BAD_KEYS
    def test_delete(self, key):
        self.assert_rejected(lambda fleet: fleet.delete(key), key)

    @BAD_KEYS
    def test_apply_batch(self, key):
        self.assert_rejected(lambda fleet: fleet.apply_batch(
            [("put", b"ok", b"v"), ("put", key, b"v")]), key)

    def test_bare_engine_message_matches(self):
        with pytest.raises(TypeError, match="^keys must be bytes, got str$"):
            make_single().put("k", b"v")
