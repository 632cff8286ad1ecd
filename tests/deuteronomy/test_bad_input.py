"""Bad input is rejected before anything is charged, counted or stored.

Every public read/write entry point of the bare engine and of the shard
fleet checks each key, value and batch op kind first (a whole batch
before any of it runs), so a rejected call leaves busy core-µs, the
virtual clock, every counter and the stored data exactly as they were.
"""

from __future__ import annotations

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine
from repro.hardware import Machine
from repro.sharding import ShardedEngine

KEY_TYPE = "keys must be bytes, got "
CASES = {
    "get-str": (lambda s: s.get("k"), TypeError, KEY_TYPE + "str"),
    "get-int": (lambda s: s.get(5), TypeError, KEY_TYPE + "int"),
    "get-empty": (lambda s: s.get(b""), ValueError,
                  "keys must be non-empty"),
    "get-bytearray": (lambda s: s.get(bytearray(b"a")), TypeError,
                      KEY_TYPE + "bytearray"),
    "delete-str": (lambda s: s.delete("k"), TypeError, KEY_TYPE + "str"),
    "delete-int": (lambda s: s.delete(5), TypeError, KEY_TYPE + "int"),
    "delete-empty": (lambda s: s.delete(b""), ValueError,
                     "keys must be non-empty"),
    "put-int-key": (lambda s: s.put(5, b"x"), TypeError, KEY_TYPE + "int"),
    "put-empty-key": (lambda s: s.put(b"", b"x"), ValueError,
                      "keys must be non-empty"),
    "put-none-value": (lambda s: s.put(b"k", None), TypeError,
                       "values must be bytes, got NoneType"),
    "multi_get-str": (lambda s: s.multi_get(["k"]), TypeError,
                      KEY_TYPE + "str"),
    "multi_get-empty": (lambda s: s.multi_get([b"a", b""]), ValueError,
                        "keys must be non-empty"),
    "multi_delete-str": (lambda s: s.multi_delete(["k"]), TypeError,
                         KEY_TYPE + "str"),
    "multi_put-str-key": (
        lambda s: s.multi_put([(b"a", b"1"), ("k", b"2")]),
        TypeError, KEY_TYPE + "str"),
    "multi_put-none-value": (
        lambda s: s.multi_put([(b"a", b"1"), (b"k", None)]),
        TypeError, "values must be bytes, got NoneType"),
    "apply_batch-get-str": (
        lambda s: s.apply_batch([("get", "k", None)]),
        TypeError, KEY_TYPE + "str"),
    "apply_batch-kind": (
        lambda s: s.apply_batch([("put", b"a", b"1"),
                                 ("scan", b"k", None)]),
        ValueError, "unknown batch op kind 'scan'"),
    "apply_batch-put-none": (
        lambda s: s.apply_batch([("put", b"a", b"1"),
                                 ("put", b"k", None)]),
        ValueError, "put requires a value"),
}


def make_store(kind: str):
    tree_config = BwTreeConfig(segment_bytes=1 << 16)
    if kind == "engine":
        store = DeuteronomyEngine(Machine.paper_default(), tree_config)
        engines = [store]
    else:
        store = ShardedEngine(2, tree_config=tree_config)
        engines = store.shards
    store.put(b"a", b"0")
    return store, engines


def snapshot(store, engines) -> tuple:
    fleet = (store.counters.snapshot()
             if isinstance(store, ShardedEngine) else None)
    return fleet, [
        (engine.machine.cpu.busy_us.hex(),
         engine.machine.clock.now.hex(),
         engine.machine.operations,
         engine.machine.cpu.counters.snapshot(),
         engine.machine.dram.current_bytes,
         engine.tc.counters.snapshot(),
         engine.tc._next_txn_id,
         engine.tc._clock,
         dict(engine.tc._active),
         engine.tc.versions.version_count())
        for engine in engines
    ]


@pytest.mark.parametrize("kind", ["engine", "fleet"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_input_is_rejected_before_any_charge(kind, name):
    call, error, message = CASES[name]
    store, engines = make_store(kind)
    before = snapshot(store, engines)
    with pytest.raises(error, match=f"^{message}$"):
        call(store)
    assert snapshot(store, engines) == before
    assert store.get(b"a") == b"0"
    assert store.get(b"k") is None


# The TC's own read/write entry points (explicit transactions, and the
# group-commit batch) check the whole input before the dispatch charge,
# any counter or the write set.
TXN_CASES = {
    "read-str": (lambda tc, txn: tc.read(txn, "k"), TypeError,
                 KEY_TYPE + "str"),
    "read-empty": (lambda tc, txn: tc.read(txn, b""), ValueError,
                   "keys must be non-empty"),
    "read_batch-str": (lambda tc, txn: tc.read_batch(txn, [b"a", "k"]),
                       TypeError, KEY_TYPE + "str"),
    "write-str-key": (lambda tc, txn: tc.write(txn, "k", b"1"),
                      TypeError, KEY_TYPE + "str"),
    "write-str-value": (lambda tc, txn: tc.write(txn, b"k", "v"),
                        TypeError, "values must be bytes, got str"),
    "write_batch-str-key": (
        lambda tc, txn: tc.write_batch(txn, [(b"b", b"1"), ("k", b"2")]),
        TypeError, KEY_TYPE + "str"),
    "write_batch-int-value": (
        lambda tc, txn: tc.write_batch(txn, [(b"b", b"1"), (b"k", 5)]),
        TypeError, "values must be bytes, got int"),
    "execute_batch-get-str": (
        lambda tc, txn: tc.execute_batch(
            txn, [("put", b"b", b"1"), ("get", "k", None)]),
        TypeError, KEY_TYPE + "str"),
    "execute_batch-kind": (
        lambda tc, txn: tc.execute_batch(
            txn, [("put", b"b", b"1"), ("scan", b"k", None)]),
        ValueError, "unknown batch op kind 'scan'"),
    "execute_batch-put-none": (
        lambda tc, txn: tc.execute_batch(
            txn, [("put", b"b", b"1"), ("put", b"k", None)]),
        ValueError, "put requires a value"),
    "run_update_batch-str-key": (
        lambda tc, txn: tc.run_update_batch([(b"b", b"1"), ("k", b"2")]),
        TypeError, KEY_TYPE + "str"),
}


@pytest.mark.parametrize("name", sorted(TXN_CASES))
def test_bad_input_to_a_transaction_is_rejected_before_any_charge(name):
    call, error, message = TXN_CASES[name]
    store, engines = make_store("engine")
    txn = store.tc.begin()
    before = snapshot(store, engines), dict(txn.write_set)
    with pytest.raises(error, match=f"^{message}$"):
        call(store.tc, txn)
    assert (snapshot(store, engines), dict(txn.write_set)) == before
    store.tc.commit(txn)
    assert store.get(b"a") == b"0"
    assert store.get(b"b") is None
