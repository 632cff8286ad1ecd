"""DeuteronomyEngine: the assembled TC + DC system.

Convenience facade wiring a :class:`TransactionComponent` over a
:class:`BwTree` (itself over LLAMA and the simulated machine), with a
context-manager transaction API.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..bwtree.tree import BwTree, BwTreeConfig, validate_value
from ..hardware.logdevice import LogDevice
from ..hardware.machine import Machine
from .tc import (
    TcConfig,
    Transaction,
    TransactionAborted,
    TransactionComponent,
    TxnStatus,
    check_batch,
)


@dataclass(frozen=True, slots=True)
class Stat:
    """One ``stats()`` figure: its name, how a fleet combines it, and
    how to read it off one engine.

    ``kind`` is ``"counter"`` (monotone within a measured window, summed
    over shards), ``"level"`` (a resident amount that can fall, summed),
    ``"max"`` (the slowest shard's) or ``"ratio"``.  A ratio has no
    reader: it is re-derived from already-combined figures by
    :func:`ratio`, so a fleet rate weights every shard's traffic.
    """

    name: str
    kind: str
    read: Optional[Callable[["DeuteronomyEngine"], float]] = None
    part: str = ""
    whole: Tuple[str, ...] = ()
    complement: bool = False


def ratio(stat: Stat, values: Mapping[str, float]) -> float:
    """``part / sum(whole)`` over ``values`` (one minus that for a
    complement ratio); 0.0 while the whole is still zero."""
    whole = sum(values[name] for name in stat.whole)
    if not whole:
        return 0.0
    share = values[stat.part] / whole
    return 1.0 - share if stat.complement else share


def _elapsed_seconds(engine: "DeuteronomyEngine") -> float:
    elapsed = engine.machine.summary().elapsed_seconds
    pipeline = engine.tc.pipeline
    if pipeline is not None:
        # A dedicated (non-colocated) log device adds its own busy time
        # as an elapsed floor; a colocated device contributes 0 here
        # (already in the machine's SSD busy seconds).
        elapsed = max(elapsed, pipeline.device.elapsed_contribution())
    return elapsed


def _tier_resident_bytes(engine: "DeuteronomyEngine") -> int:
    tiers = engine.dc.cache.tiers
    return ((tiers.resident_bytes if tiers is not None else 0)
            + engine.tc.read_cache.tier_resident_bytes)


def _tc_count(counter: str) -> Callable[["DeuteronomyEngine"], float]:
    return lambda engine: engine.tc.counters.get(counter)


def _records(attr: str) -> Callable[["DeuteronomyEngine"], float]:
    """Record-store figure; 0 when the record store is off."""
    def read(engine: "DeuteronomyEngine") -> float:
        records = engine.tc.records
        return getattr(records, attr) if records is not None else 0
    return read


def _pipeline(attr: str,
              absent: float = 0) -> Callable[["DeuteronomyEngine"], float]:
    """Commit-pipeline figure; ``absent`` when the pipeline is off."""
    def read(engine: "DeuteronomyEngine") -> float:
        pipeline = engine.tc.pipeline
        return getattr(pipeline, attr) if pipeline is not None else absent
    return read


def _log_device(attr: str) -> Callable[["DeuteronomyEngine"], float]:
    """Commit-log device figure; 0 when the pipeline is off."""
    def read(engine: "DeuteronomyEngine") -> float:
        pipeline = engine.tc.pipeline
        return getattr(pipeline.device, attr) if pipeline is not None else 0
    return read


#: Every figure of :meth:`DeuteronomyEngine.stats`, in output order —
#: the one declaration the engine's dict, the fleet's sums and rates
#: (:meth:`repro.sharding.ShardedEngine.stats`), the fleet metrics
#: registry and the crash matrix's sum-of-shards check derive from.
#: Core-seconds, I/Os and resident DRAM bytes price an operation
#: (the paper's Eqs. 4-5); summing them prices a fleet.  A ratio comes
#: after the figures it divides.
STATS: Tuple[Stat, ...] = (
    Stat("operations", "counter", lambda engine: engine.machine.operations),
    Stat("core_seconds", "counter",
         lambda engine: engine.machine.cpu.busy_seconds),
    Stat("elapsed_seconds", "max", _elapsed_seconds),
    Stat("ssd_busy_seconds", "counter",
         lambda engine: engine.machine.ssd.busy_seconds),
    Stat("ssd_ios", "counter", lambda engine: engine.machine.ssd.total_ios),
    Stat("dram_bytes", "level",
         lambda engine: engine.machine.dram.current_bytes),
    Stat("tc_dram_bytes", "level",
         lambda engine: engine.tc.dram_footprint_bytes()),
    Stat("commits", "counter", _tc_count("tc.commits")),
    Stat("aborts", "counter", _tc_count("tc.aborts")),
    Stat("reads", "counter", _tc_count("tc.reads")),
    Stat("dc_reads", "counter", _tc_count("tc.dc_reads")),
    Stat("tc_hit_rate", "ratio", part="dc_reads", whole=("reads",),
         complement=True),
    Stat("read_cache_hits", "counter",
         lambda engine: engine.tc.read_cache.hits),
    Stat("read_cache_misses", "counter",
         lambda engine: engine.tc.read_cache.misses),
    Stat("read_cache_hit_rate", "ratio", part="read_cache_hits",
         whole=("read_cache_hits", "read_cache_misses")),
    Stat("record_cache_hits", "counter", _records("hits")),
    Stat("record_cache_misses", "counter", _records("misses")),
    Stat("record_cache_hit_rate", "ratio", part="record_cache_hits",
         whole=("record_cache_hits", "record_cache_misses")),
    Stat("record_cache_gc_relocations", "counter",
         _records("gc_relocations")),
    Stat("record_heap_bytes", "level", _records("physical_bytes")),
    Stat("page_cache_touches", "counter",
         lambda engine: engine.dc.cache.stats.touches),
    Stat("page_cache_fetches", "counter",
         lambda engine: engine.dc.cache.stats.fetches),
    Stat("page_cache_hit_rate", "ratio", part="page_cache_fetches",
         whole=("page_cache_touches",), complement=True),
    Stat("page_cache_demotions", "counter",
         lambda engine: engine.dc.cache.stats.demotions),
    Stat("page_cache_promotions", "counter",
         lambda engine: engine.dc.cache.stats.promotions),
    Stat("read_cache_demotions", "counter",
         lambda engine: engine.tc.read_cache.demotions),
    Stat("read_cache_promotions", "counter",
         lambda engine: engine.tc.read_cache.promotions),
    Stat("tier_resident_bytes", "level", _tier_resident_bytes),
    Stat("log_flushes", "counter", lambda engine: engine.tc.log.flushes),
    Stat("log_batch_appends", "counter",
         lambda engine: engine.tc.log.batch_appends),
    Stat("log_device_writes", "counter", _log_device("submitted_writes")),
    Stat("log_device_bytes", "counter", _log_device("submitted_bytes")),
    Stat("commit_epochs", "counter", _pipeline("epochs_closed")),
    Stat("commit_wait_us", "counter", _pipeline("commit_wait_us", 0.0)),
    Stat("commit_futures_resolved", "counter",
         _pipeline("futures_resolved")),
)

#: Names of the figures a fleet sums over its shards (counters and
#: levels), in :data:`STATS` order.
SUMMED_STATS: Tuple[str, ...] = tuple(
    stat.name for stat in STATS if stat.kind in ("counter", "level"))


class DeuteronomyEngine:
    """Transactional key/value engine: TC over Bw-tree over LLAMA."""

    def __init__(
        self,
        machine: Machine,
        tree_config: Optional[BwTreeConfig] = None,
        tc_config: Optional[TcConfig] = None,
        data_component: Optional[BwTree] = None,
        log_device: Optional[LogDevice] = None,
    ) -> None:
        self.machine = machine
        self.dc = (data_component if data_component is not None
                   else BwTree(machine, tree_config))
        self.tc = TransactionComponent(machine, self.dc, tc_config,
                                       log_device=log_device)
        # Set once this engine has been crashed-and-recovered: the engine
        # that replaced it.  Guards double recovery (see :meth:`recover`).
        self._recovered_into: Optional["DeuteronomyEngine"] = None

    @classmethod
    def recover(cls, crashed: "DeuteronomyEngine",
                tc_config: Optional[TcConfig] = None) -> "DeuteronomyEngine":
        """Rebuild the engine after a power loss.

        DRAM and the stores' open write buffers are lost; the data
        component is rebuilt from its last checkpoint, then every durable
        redo record is replayed through the normal blind-update path.
        Transactions whose redo records had not reached flash are lost —
        the standard write-ahead-logging contract (``checkpoint()`` forces
        the log).

        Recovery is idempotent per crashed engine: the replacement shares
        the crashed engine's machine and flash store, so running the crash
        simulation a second time would wipe the replacement's DRAM and
        open write buffer out from under it.  Repeat calls (recovering
        shards in a loop, retry logic) return the engine the first call
        built instead of re-crashing.
        """
        if crashed._recovered_into is not None:
            return crashed._recovered_into
        machine = crashed.machine
        durable = list(crashed.tc.log.durable_records)
        crashed.dc.store.simulate_crash()
        machine.dram.wipe()
        dc = BwTree.recover(machine, crashed.dc.store, crashed.dc.config)
        engine = cls(
            machine,
            tc_config=tc_config if tc_config is not None
            else crashed.tc.config,
            data_component=dc,
        )
        engine.tc.replay_redo(durable)
        crashed._recovered_into = engine
        return engine

    @contextlib.contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """``with engine.transaction() as txn:`` — commits on success,
        aborts if the body raises."""
        txn = self.tc.begin()
        try:
            yield txn
        except BaseException:
            if txn.status is TxnStatus.ACTIVE:
                self.tc.abort(txn)
            raise
        else:
            if txn.status is TxnStatus.ACTIVE:
                self.tc.commit(txn)

    # --- autocommit conveniences -------------------------------------
    #
    # Every one of these rejects a bad key, value or op kind before
    # anything is charged, counted or run.

    def get(self, key: bytes) -> Optional[bytes]:
        """Autocommitted snapshot read."""
        with self.machine.trace_span("engine.get", "engine"):
            return self.tc.run_read(key)

    def put(self, key: bytes, value: bytes) -> None:
        """Autocommitted single-key update (``None`` is rejected: the
        transaction component would take it as a delete)."""
        validate_value(value)
        with self.machine.trace_span("engine.put", "engine"):
            self.tc.run_update(key, value)

    def delete(self, key: bytes) -> None:
        """Autocommitted single-key delete."""
        with self.machine.trace_span("engine.delete", "engine"):
            self.tc.run_update(key, None)

    # --- batched (multi-op) conveniences ------------------------------

    def multi_put(self, items: Iterable[Tuple[bytes, bytes]]) -> List[int]:
        """Group-committed autocommit updates: one log append and one
        flush decision for the whole batch.  Items are applied in order
        (a later write to the same key wins, exactly like sequential
        ``put`` calls).  Returns one commit timestamp per item.  A
        ``None`` value is rejected, as in :meth:`put`."""
        items = list(items)
        check_batch(items, "put")
        with self.machine.trace_span("engine.multi_put", "engine"):
            timestamps = self.tc.run_update_batch(items)
            assert all(ts is not None for ts in timestamps)
            return timestamps  # type: ignore[return-value]

    def multi_delete(self, keys: Iterable[bytes]) -> List[int]:
        """Group-committed autocommit deletes (see :meth:`multi_put`)."""
        keys = list(keys)
        check_batch(keys, "delete")
        with self.machine.trace_span("engine.multi_delete", "engine"):
            timestamps = self.tc.run_update_batch(
                (key, None) for key in keys
            )
            assert all(ts is not None for ts in timestamps)
            return timestamps  # type: ignore[return-value]

    def multi_get(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Batched autocommitted snapshot reads: one transaction and one
        request dispatch amortized across the whole batch."""
        check_batch(keys, "get")
        with self.machine.trace_span("engine.multi_get", "engine"):
            txn = self.tc.begin()
            try:
                values = self.tc.read_batch(txn, keys)
            except BaseException:
                self.tc.abort(txn)
                raise
            self.tc.commit(txn)
            return values

    def apply_batch(
        self, ops: Sequence[Tuple[str, bytes, Optional[bytes]]]
    ) -> List[Optional[bytes]]:
        """Run a mixed batch of ops as one transaction via group commit.

        ``ops`` items are ``(kind, key, value)`` with kind ``"get"``,
        ``"put"`` or ``"delete"`` (value ignored for gets/deletes).  Reads
        see the batch's earlier writes.  Returns one entry per op: the
        value for gets, ``None`` for writes.
        """
        check_batch(ops)
        with self.machine.trace_span("engine.apply_batch", "engine"):
            txn = self.tc.begin()
            try:
                results = self.tc.execute_batch(txn, ops)
            except BaseException:
                self.tc.abort(txn)
                raise
            committed = self.tc.commit_batch([txn])[0]
            if committed is None:  # pragma: no cover - single-txn batch
                raise TransactionAborted(
                    f"txn {txn.txn_id}: batch conflict")
            return results

    def checkpoint(self) -> None:
        """Flush the log and every dirty data page.

        With the record store on, committed deltas parked in the record
        heap are drained into the DC first (after the log force — WAL
        ordering) so the checkpoint image covers them.
        """
        with self.machine.trace_span("engine.checkpoint", "engine"):
            self.tc.sync_log()
            self.tc.flush_record_cache()
            self.dc.checkpoint()

    def collect_garbage(self, target_utilization: float = 0.8) -> int:
        """Run segment GC with write-ahead ordering preserved.

        ``BwTree.collect_garbage`` checkpoints the mapping table before
        and after cleaning; the recovery contract (checkpoint image +
        durable-redo replay lands exactly on the durable prefix)
        requires every checkpoint image's contents to be covered by the
        durable log.  Forcing the log first keeps that true — calling
        ``dc.collect_garbage`` directly would let a checkpoint publish
        page states whose redo records are still buffered, and recovery
        would then serve writes the log never made durable (the WAL
        inversion the crash matrix's GC sites catch).
        """
        with self.machine.trace_span("engine.collect_garbage", "engine"):
            self.tc.sync_log()
            return self.dc.collect_garbage(target_utilization)

    def stats(self) -> dict:
        """One engine's cost/cache accounting as a flat dict, one entry
        per :data:`STATS` figure in declaration order."""
        values: Dict[str, float] = {}
        for stat in STATS:
            values[stat.name] = (ratio(stat, values) if stat.read is None
                                 else stat.read(self))
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeuteronomyEngine(dc={self.dc!r})"
