"""The program's layers, as the benchmark sees them from outside.

Each layer is one module of ``repro``; :data:`TARGETS` lists the public
entry methods the traced run wraps for it.  Per-charge hot paths
(``CpuModel.charge``, ``Page.base_size_bytes`` and the like) are left
unwrapped on purpose, so their time counts toward whichever layer
called them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bwtree.tree import BwTree
from repro.deuteronomy.commit_pipeline import CommitPipeline
from repro.deuteronomy.engine import DeuteronomyEngine
from repro.deuteronomy.mvcc import VersionStore
from repro.deuteronomy.read_cache import ReadCache
from repro.deuteronomy.record_cache import RecordStore
from repro.deuteronomy.recovery_log import RecoveryLog
from repro.deuteronomy.tc import TransactionComponent
from repro.hardware.logdevice import LogDevice
from repro.hardware.ssd import SimulatedSsd
from repro.sharding.engine import ShardedEngine
from repro.sharding.router import ShardRouter
from repro.storage.cache import PageCache, TierCache
from repro.storage.log_store import LogStructuredStore
from repro.workloads.distributions import (
    HotspotChooser,
    ScrambledZipfianChooser,
    ZipfianChooser,
)
from repro.workloads.ycsb import WorkloadGenerator

from tracer import Target

#: Layer order, outermost first; also the order of the per-layer table.
LAYERS: List[str] = [
    "workloads", "sharding", "engine", "tc", "mvcc", "read_cache",
    "record_cache", "recovery_log", "commit_pipeline", "bwtree",
    "page_cache", "tier_cache", "log_store", "ssd",
]

TARGETS: List[Target] = [
    ("workloads", WorkloadGenerator, ["make_value"]),
    ("workloads", ScrambledZipfianChooser, ["next_index"]),
    ("workloads", ZipfianChooser, ["next_index"]),
    ("workloads", HotspotChooser, ["next_index"]),
    ("sharding", ShardedEngine,
     ["get", "put", "apply_batch", "bulk_load", "checkpoint",
      "drain_commits"]),
    ("sharding", ShardRouter, ["scatter", "gather"]),
    ("engine", DeuteronomyEngine, ["get", "put", "apply_batch",
                                   "checkpoint"]),
    ("tc", TransactionComponent,
     ["begin", "read", "execute_batch", "run_update", "commit",
      "commit_batch", "abort", "sync_log", "flush_record_cache"]),
    ("mvcc", VersionStore, ["add", "visible", "newest_timestamp",
                            "truncate"]),
    ("read_cache", ReadCache, ["lookup", "insert", "invalidate"]),
    ("record_cache", RecordStore,
     ["lookup", "append_record", "invalidate", "seal_arena",
      "collect_garbage", "drain_dirty"]),
    ("recovery_log", RecoveryLog,
     ["append", "append_batch", "flush", "seal", "submit_sealed",
      "mark_durable"]),
    ("commit_pipeline", CommitPipeline,
     ["enqueue_epoch", "maybe_close", "ack", "force"]),
    ("bwtree", BwTree,
     ["get", "get_with_stats", "upsert", "delete", "apply_blind_batch",
      "bulk_load", "checkpoint"]),
    ("page_cache", PageCache,
     ["touch", "fetch", "ensure_capacity", "evict", "flush_page",
      "register", "resize", "forget"]),
    ("tier_cache", TierCache, ["demote", "promote", "discard"]),
    ("log_store", LogStructuredStore,
     ["append", "flush", "read", "invalidate"]),
    ("ssd", SimulatedSsd, ["read", "write"]),
    ("ssd", LogDevice, ["submit_write"]),
]

#: Virtual CPU charge category -> the layer whose work it prices.
CATEGORY_LAYER: Dict[str, str] = {
    "tc": "tc",
    "tc_mvcc": "mvcc",
    "tc_read_cache": "read_cache",
    "tc_record_cache": "record_cache",
    "tc_log": "recovery_log",
    "commit_pipeline": "commit_pipeline",
    "bwtree": "bwtree",
    "cache": "page_cache",
    "tier_cache": "tier_cache",
    "log_store": "log_store",
    "io_path": "ssd",
    "router": "sharding",
}
