"""A rejected write leaves no trace in the transaction component.

Bad keys and values are refused before anything is charged, logged or
versioned, and the one-shot helpers abort their own transactions, so no
dangling active transaction pins the version-GC horizon afterwards.
"""

from __future__ import annotations

import pytest

from repro.bwtree import BwTreeConfig
from repro.deuteronomy import DeuteronomyEngine
from repro.deuteronomy.tc import TcConfig
from repro.hardware import Machine


@pytest.fixture
def engine(machine: Machine) -> DeuteronomyEngine:
    return DeuteronomyEngine(
        machine, BwTreeConfig(segment_bytes=1 << 16),
        TcConfig(version_gc_horizon_lag=1),
    )


def _in_transaction(engine: DeuteronomyEngine, key, value) -> None:
    with engine.transaction() as txn:
        engine.tc.write(txn, b"good", b"1")
        engine.tc.write(txn, key, value)


REJECTIONS = {
    "put-int-key": (lambda e: e.put(5, b"x"), TypeError,
                    "keys must be bytes, got int"),
    "put-str-key": (lambda e: e.put("k", b"x"), TypeError,
                    "keys must be bytes, got str"),
    "put-empty-key": (lambda e: e.put(b"", b"x"), ValueError,
                      "keys must be non-empty"),
    "put-str-value": (lambda e: e.put(b"k", "v"), TypeError,
                      "values must be bytes, got str"),
    "put-none-value": (lambda e: e.put(b"k", None), TypeError,
                       "values must be bytes, got NoneType"),
    "delete-int-key": (lambda e: e.delete(7), TypeError,
                       "keys must be bytes, got int"),
    "delete-empty-key": (lambda e: e.delete(b""), ValueError,
                         "keys must be non-empty"),
    "multi_put-str-key": (
        lambda e: e.multi_put([(b"good", b"1"), ("k", b"x")]),
        TypeError, "keys must be bytes, got str"),
    "multi_put-none-value": (
        lambda e: e.multi_put([(b"good", b"1"), (b"k", None)]),
        TypeError, "values must be bytes, got NoneType"),
    "multi_put-int-value": (
        lambda e: e.multi_put([(b"good", b"1"), (b"k", 3)]),
        TypeError, "values must be bytes, got int"),
    "apply_batch-str-key": (
        lambda e: e.apply_batch([("put", b"good", b"1"),
                                 ("put", "k", b"x")]),
        TypeError, "keys must be bytes, got str"),
    "apply_batch-delete-int-key": (
        lambda e: e.apply_batch([("put", b"good", b"1"),
                                 ("delete", 9, None)]),
        TypeError, "keys must be bytes, got int"),
    "transaction-str-key": (
        lambda e: _in_transaction(e, "k", b"x"),
        TypeError, "keys must be bytes, got str"),
    "transaction-bytearray-value": (
        lambda e: _in_transaction(e, b"k", bytearray(b"x")),
        TypeError, "values must be bytes, got bytearray"),
}


def _tc_state(engine: DeuteronomyEngine):
    tc = engine.tc
    return (dict(tc._active), tc._clock, tc.versions.key_count(),
            tc.versions.version_count(), tc.log.last_lsn)


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_rejected_write_leaves_no_trace(engine, name):
    call, error, message = REJECTIONS[name]
    engine.put(b"seed", b"0")
    before = _tc_state(engine)
    with pytest.raises(error, match=message):
        call(engine)
    assert engine.tc._active == {}
    assert _tc_state(engine) == before
    assert engine.get(b"good") is None
    assert engine.get(b"k") is None


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_version_gc_still_truncates_after_a_rejection(engine, name):
    call, error, __ = REJECTIONS[name]
    with pytest.raises(error):
        call(engine)
    for round_ in range(6):
        engine.put(b"hot", b"v%d" % round_)
    # A lag of one keeps the newest version at or below the horizon
    # plus anything above it: two versions, not six.
    assert engine.tc.versions.version_count() <= 2
    assert engine.get(b"hot") == b"v5"


def test_delete_still_deletes(engine):
    engine.put(b"k", b"v")
    engine.delete(b"k")
    assert engine.get(b"k") is None
    engine.multi_put([(b"a", b"1"), (b"b", b"2")])
    engine.multi_delete([b"a"])
    assert engine.multi_get([b"a", b"b"]) == [None, b"2"]
