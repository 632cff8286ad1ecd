"""``TransactionComponent.run_read`` against the chain it replaces.

``run_read`` bills a one-shot snapshot read without building a
:class:`Transaction`.  ``chain_read`` below is the ``begin`` / ``read`` /
``commit`` sequence it stands for (aborting if the lookup raises).  Twin
engines run the same op stream, one reading through each; after every
op their results, charges, clocks, counters, transaction ids, version
stores and TC caches must be bit-identical.
"""

from __future__ import annotations

from typing import Optional

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine
from repro.deuteronomy.tc import (
    TcConfig,
    TransactionAborted,
    TransactionComponent,
)
from repro.faults import FaultInjector, FaultPlan, IoError
from repro.hardware import Machine

# Small caches and a short GC lag, so log-cache staleness, read-cache
# eviction and demotion, record-heap GC and drains, and version GC all
# happen within a short op stream.
_SMALL = dict(
    log_buffer_bytes=1 << 8,
    log_retain_budget_bytes=1 << 9,
    read_cache_bytes=1 << 9,
    version_gc_horizon_lag=2,
)

CONFIGS = {
    "default": TcConfig(**_SMALL),
    "record_cache": TcConfig(
        **_SMALL, record_cache=True, record_cache_bytes=1 << 12,
        record_arena_bytes=1 << 9, record_dirty_flush_bytes=1 << 9),
    "read_cache_demote": TcConfig(**_SMALL, read_cache_demote=True),
    "sync_commit": TcConfig(**_SMALL, sync_commit=True),
    "commit_pipeline": TcConfig(**_SMALL, commit_pipeline=True),
}

# Preloaded into the DC; more than the read cache holds.
BASE = [(b"k%02d" % index, b"base%02d" % index * 5) for index in range(24)]
KEYS = st.sampled_from([key for key, __ in BASE])
VALUES = st.binary(min_size=1, max_size=40)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), KEYS),
        st.tuples(st.just("put"), KEYS, VALUES),
        st.tuples(st.just("delete"), KEYS),
        st.tuples(st.just("open")),
        st.tuples(st.just("close"), KEYS, VALUES),
    ),
    min_size=10,
    max_size=80,
)


def chain_read(tc: TransactionComponent, key: bytes) -> Optional[bytes]:
    """The transaction chain ``run_read`` must bill bit-for-bit."""
    txn = tc.begin()
    try:
        value = tc.read(txn, key)
    except BaseException:
        tc.abort(txn)
        raise
    tc.commit(txn)
    return value


def _scalars(obj) -> dict:
    return {name: value for name, value in vars(obj).items()
            if type(value) in (int, float, bool)}


def state(engine: DeuteronomyEngine) -> tuple:
    """Everything a read could touch, in exactly comparable form."""
    machine, tc = engine.machine, engine.tc
    versions = tc.versions
    records = tc.records
    record_state = None
    if records is not None:
        record_state = (
            [(key, rec.value, rec.arena_id, rec.nbytes, rec.dirty,
              rec.referenced) for key, rec in records._index.items()],
            list(records._dirty),
            _scalars(records),
        )
    return (
        machine.cpu.busy_us.hex(),
        machine.clock.now.hex(),
        machine.operations,
        machine.cpu.counters.snapshot(),
        tc.counters.snapshot(),
        tc._next_txn_id,
        tc._clock,
        sorted(tc._active),
        {key: [(v.timestamp, v.value, v.log_buffer_id) for v in chain]
         for key, chain in versions._versions.items()},
        sorted(versions._reclaim),
        versions._bytes,
        list(tc.read_cache._entries.items()),
        list(tc.read_cache._tier_entries.items()),
        _scalars(tc.read_cache),
        record_state,
        machine.dram.current_bytes,
        engine.stats(),
    )


def make_engine(config: TcConfig,
                tree_config: Optional[BwTreeConfig] = None
                ) -> DeuteronomyEngine:
    return DeuteronomyEngine(
        Machine.paper_default(cores=2),
        tree_config if tree_config is not None
        else BwTreeConfig(segment_bytes=1 << 14),
        config,
    )


class Twins:
    """Two engines fed the same ops; reads go the two different ways."""

    def __init__(self, config: TcConfig) -> None:
        self.chain = make_engine(config)
        self.one_shot = make_engine(config)
        for engine in (self.chain, self.one_shot):
            engine.dc.bulk_load(BASE)
            engine.checkpoint()
        self.long_txns: list = []

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "read":
            assert (chain_read(self.chain.tc, op[1])
                    == self.one_shot.tc.run_read(op[1]))
        elif kind == "put":
            for engine in (self.chain, self.one_shot):
                engine.tc.run_update(op[1], op[2])
        elif kind == "delete":
            for engine in (self.chain, self.one_shot):
                engine.tc.run_update(op[1], None)
        elif kind == "open":
            # A long-open transaction pins the version-GC horizon.
            if not self.long_txns:
                self.long_txns = [self.chain.tc.begin(),
                                  self.one_shot.tc.begin()]
        elif self.long_txns:
            outcomes = []
            for engine, txn in zip((self.chain, self.one_shot),
                                   self.long_txns):
                engine.tc.write(txn, op[1], op[2])
                try:
                    outcomes.append(engine.tc.commit(txn))
                except TransactionAborted:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1]
            self.long_txns = []
        assert state(self.chain) == state(self.one_shot)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(ops=OPS)
def test_run_read_bills_exactly_the_transaction_chain(name, ops):
    twins = Twins(CONFIGS[name])
    for op in ops:
        twins.apply(op)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_read_matches_a_long_fixed_stream(name):
    twins = Twins(CONFIGS[name])
    for index in range(300):
        key = BASE[index % 4 if index % 2 else index * 7 % 23][0]
        if index % 5 == 0:
            twins.apply(("put", key, b"v%d" % index * 8))
        elif index % 50 == 10:
            twins.apply(("open",))
        elif index % 50 == 40:
            twins.apply(("close", key, b"long"))
        else:
            twins.apply(("read", key))


def test_failed_dc_read_counts_an_abort_and_the_same_charges():
    """An I/O error inside the DC read: ``run_read`` counts the abort
    ``abort`` would, and bills exactly what the failed chain billed."""
    tree_config = BwTreeConfig(segment_bytes=1 << 14,
                               cache_capacity_bytes=8 << 10,
                               demote_to_tiers=True)
    config = TcConfig(read_cache_bytes=1, log_retain_budget_bytes=0)
    chain = make_engine(config, tree_config)
    one_shot = make_engine(config, tree_config)
    keys = [b"key%04d" % index for index in range(400)]
    for engine in (chain, one_shot):
        engine.dc.bulk_load([(key, b"v" * 40) for key in keys])
        engine.checkpoint()
        # Page promotions out of the far-memory tier run inside the DC
        # read; fail the third.
        engine.machine.faults = FaultInjector(
            FaultPlan.io_error_at("tier.promote", 3))
    raised = 0
    for key in keys[::7] * 2:
        outcomes = []
        for read in (lambda k: chain_read(chain.tc, k),
                     one_shot.tc.run_read):
            try:
                outcomes.append(read(key))
            except IoError as error:
                outcomes.append(str(error))
        if outcomes[0] != outcomes[1]:
            pytest.fail(f"{key!r}: {outcomes}")
        raised += isinstance(outcomes[0], str)
        assert state(chain) == state(one_shot)
    assert raised == 1
    assert one_shot.tc.counters.get("tc.aborts") == 1
    assert one_shot.tc._active == {}
