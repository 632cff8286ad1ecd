"""YCSB-style workload specifications and operation streams.

The paper's experiments are read and read/update mixes over a loaded store;
we generate them YCSB-style: a keyspace of ``user########``-shaped keys,
fixed-size values, a popularity distribution, and an operation mix.  The
standard A-F mixes are provided as constructors.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from .distributions import KeyChooser, make_chooser

# _VALUE_RUNS[symbol][draw] is the run make_value emits: ``draw + 1``
# copies of ``0x61 + symbol`` (16 symbols, run lengths 1..8).
_VALUE_RUNS = [[bytes([0x61 + symbol]) * (draw + 1) for draw in range(8)]
               for symbol in range(16)]


class OpKind(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    SCAN = "scan"
    READ_MODIFY_WRITE = "rmw"


@dataclass(frozen=True, slots=True)
class Operation:
    """One generated operation."""

    kind: OpKind
    key: bytes
    value: Optional[bytes] = None
    scan_length: int = 0


@dataclass
class WorkloadSpec:
    """A YCSB-like workload definition."""

    record_count: int = 10_000
    key_prefix: bytes = b"user"
    value_bytes: int = 100
    distribution: str = "scrambled"
    theta: float = 0.99
    hot_fraction: float = 0.2
    hot_access_fraction: float = 0.8
    read_fraction: float = 1.0
    update_fraction: float = 0.0
    insert_fraction: float = 0.0
    scan_fraction: float = 0.0
    rmw_fraction: float = 0.0
    max_scan_length: int = 100
    seed: int = 42
    name: str = "custom"

    def __post_init__(self) -> None:
        total = (self.read_fraction + self.update_fraction
                 + self.insert_fraction + self.scan_fraction
                 + self.rmw_fraction)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"operation fractions must sum to 1, got {total}")
        if self.record_count <= 0:
            raise ValueError("record_count must be positive")
        if self.value_bytes < 0:
            raise ValueError("value_bytes cannot be negative")

    # --- the standard mixes ------------------------------------------------

    @classmethod
    def ycsb_a(cls, **overrides) -> "WorkloadSpec":
        """50/50 read/update, zipfian — the update-heavy mix."""
        return cls(read_fraction=0.5, update_fraction=0.5,
                   name="ycsb-a", **overrides)

    @classmethod
    def ycsb_b(cls, **overrides) -> "WorkloadSpec":
        """95/5 read/update — the read-mostly mix."""
        return cls(read_fraction=0.95, update_fraction=0.05,
                   name="ycsb-b", **overrides)

    @classmethod
    def ycsb_c(cls, **overrides) -> "WorkloadSpec":
        """100% reads — the paper's read-only experiments."""
        return cls(read_fraction=1.0, name="ycsb-c", **overrides)

    @classmethod
    def ycsb_d(cls, **overrides) -> "WorkloadSpec":
        """95/5 read/insert, skewed to recent inserts."""
        overrides.setdefault("distribution", "latest")
        return cls(read_fraction=0.95, insert_fraction=0.05,
                   name="ycsb-d", **overrides)

    @classmethod
    def ycsb_e(cls, **overrides) -> "WorkloadSpec":
        """95/5 scan/insert — the range-scan mix."""
        return cls(read_fraction=0.0, scan_fraction=0.95,
                   insert_fraction=0.05, name="ycsb-e", **overrides)

    @classmethod
    def ycsb_f(cls, **overrides) -> "WorkloadSpec":
        """50/50 read/read-modify-write."""
        return cls(read_fraction=0.5, rmw_fraction=0.5,
                   name="ycsb-f", **overrides)


class WorkloadGenerator:
    """Generates the load phase and an operation stream for a spec."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._value_rng = random.Random(spec.seed ^ 0x5EED)
        self._op_rng = random.Random(spec.seed ^ 0x0B5)
        self._chooser: KeyChooser = make_chooser(
            spec.distribution,
            spec.record_count,
            seed=spec.seed,
            theta=spec.theta,
            hot_fraction=spec.hot_fraction,
            hot_access_fraction=spec.hot_access_fraction,
        )
        self._inserted = spec.record_count

    def key_for(self, index: int) -> bytes:
        return self.spec.key_prefix + b"%010d" % index

    def make_value(self) -> bytes:
        """A pseudorandom-but-compressible value of the configured size.

        Values are built from a small alphabet with runs, so the
        compression experiments (paper Section 7.2) operate on data a real
        codec can shrink.
        """
        n = self.spec.value_bytes
        if n == 0:
            return b""
        # Draws exactly what ``randint(1, 8)`` and ``randrange(16)`` would:
        # the stdlib rejection loop over ``getrandbits(n.bit_length())``.
        getrandbits = self._value_rng.getrandbits
        out = bytearray()
        while len(out) < n:
            draw = getrandbits(4)
            while draw >= 8:
                draw = getrandbits(4)
            symbol = getrandbits(5)
            while symbol >= 16:
                symbol = getrandbits(5)
            out += _VALUE_RUNS[symbol][draw]
        return bytes(out[:n])

    def load_items(self) -> Iterator[Tuple[bytes, bytes]]:
        """The (key, value) pairs of the load phase, in key order."""
        for index in range(self.spec.record_count):
            yield self.key_for(index), self.make_value()

    def operations(self, count: int) -> Iterator[Operation]:
        """An operation stream of ``count`` ops following the mix."""
        spec = self.spec
        thresholds = [
            (spec.read_fraction, OpKind.READ),
            (spec.read_fraction + spec.update_fraction, OpKind.UPDATE),
            (spec.read_fraction + spec.update_fraction
             + spec.insert_fraction, OpKind.INSERT),
            (spec.read_fraction + spec.update_fraction
             + spec.insert_fraction + spec.scan_fraction, OpKind.SCAN),
        ]
        for __ in range(count):
            roll = self._op_rng.random()
            kind = OpKind.READ_MODIFY_WRITE
            for threshold, candidate in thresholds:
                if roll < threshold:
                    kind = candidate
                    break
            if kind is OpKind.INSERT:
                key = self.key_for(self._inserted)
                self._inserted += 1
                grow = getattr(self._chooser, "grow", None)
                if grow is not None:
                    grow()
                yield Operation(OpKind.INSERT, key, self.make_value())
            elif kind is OpKind.READ:
                yield Operation(OpKind.READ, self._next_key())
            elif kind is OpKind.UPDATE:
                yield Operation(OpKind.UPDATE, self._next_key(),
                                self.make_value())
            elif kind is OpKind.SCAN:
                yield Operation(
                    OpKind.SCAN, self._next_key(),
                    scan_length=self._op_rng.randint(
                        1, spec.max_scan_length
                    ),
                )
            else:
                yield Operation(OpKind.READ_MODIFY_WRITE, self._next_key(),
                                self.make_value())

    def _next_key(self) -> bytes:
        index = self._chooser.next_index()
        if index >= self._inserted:
            index = index % self._inserted
        return self.key_for(index)


def partition_operations(
    operations: Iterator[Operation],
    num_shards: int,
    shard_for,
) -> List[List[Operation]]:
    """Split an operation stream into per-shard streams, order preserved.

    ``shard_for(key, num_shards)`` (or any ``(bytes, int) -> int``) picks
    the owning shard.  Each shard's stream is the subsequence of the
    input it owns, which is exactly what a scatter router delivers —
    useful for shard-balance reporting and for driving shards
    independently in benchmarks.
    """
    if num_shards <= 0:
        raise ValueError(f"need at least one shard, got {num_shards}")
    per_shard: List[List[Operation]] = [[] for __ in range(num_shards)]
    for op in operations:
        per_shard[shard_for(op.key, num_shards)].append(op)
    return per_shard


def shard_balance(per_shard: List[List[Operation]]) -> float:
    """Max/mean shard load ratio (1.0 = perfectly even, higher = skewed)."""
    counts = [len(ops) for ops in per_shard]
    total = sum(counts)
    if total == 0 or not counts:
        return 1.0
    mean = total / len(counts)
    return max(counts) / mean


@dataclass
class RunStats:
    """What happened when a stream was applied to a store."""

    operations: int = 0
    reads: int = 0
    updates: int = 0
    inserts: int = 0
    scans: int = 0
    rmws: int = 0
    ss_operations: int = 0
    ios: int = 0
    record_cache_hits: int = 0
    scanned_records: int = 0
    not_found: int = 0
    per_op_kinds: List[OpKind] = field(default_factory=list, repr=False)

    @property
    def ss_fraction(self) -> float:
        """The paper's F: fraction of operations that touched the SSD."""
        if self.operations == 0:
            return 0.0
        return self.ss_operations / self.operations


def apply_operations(store, operations: Iterator[Operation],
                     track_kinds: bool = False) -> RunStats:
    """Drive a store (BwTree-compatible API) with an operation stream.

    The store must expose ``get_with_stats``, ``upsert`` and ``scan``;
    ``upsert`` must return an object with ``ios`` (BwTree and LsmTree both
    qualify).  Returns per-run statistics including the paper's F.
    """
    stats = RunStats()
    for op in operations:
        stats.operations += 1
        ios = 0
        if op.kind is OpKind.READ:
            stats.reads += 1
            result = store.get_with_stats(op.key)
            ios = result.ios
            if not result.found:
                stats.not_found += 1
            if getattr(result, "record_cache_hit", False):
                stats.record_cache_hits += 1
        elif op.kind is OpKind.UPDATE:
            stats.updates += 1
            ios = store.upsert(op.key, op.value).ios
        elif op.kind is OpKind.INSERT:
            stats.inserts += 1
            ios = store.upsert(op.key, op.value).ios
        elif op.kind is OpKind.SCAN:
            stats.scans += 1
            before = store.counters.get(_io_counter_name(store))
            for __ in store.scan(op.key, limit=op.scan_length):
                stats.scanned_records += 1
            ios = int(
                store.counters.get(_io_counter_name(store)) - before
            )
        else:
            stats.rmws += 1
            result = store.get_with_stats(op.key)
            ios = result.ios
            ios += store.upsert(op.key, op.value).ios
        stats.ios += ios
        if ios > 0:
            stats.ss_operations += 1
        if track_kinds:
            stats.per_op_kinds.append(op.kind)
    return stats


def _io_counter_name(store) -> str:
    module = type(store).__module__
    if "lsm" in module:
        return "lsm.ios"
    return "bwtree.ios"
