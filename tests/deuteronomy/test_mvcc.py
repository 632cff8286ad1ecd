"""Version store: visibility, ordering, truncation."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.deuteronomy import Version, VersionStore
from repro.deuteronomy.mvcc import DRAM_TAG
from repro.hardware import Machine


@pytest.fixture
def store(machine: Machine) -> VersionStore:
    return VersionStore(machine)


def v(ts: int, value: bytes = b"v", buffer_id: int = 0) -> Version:
    return Version(ts, value, buffer_id)


def test_add_and_visible(store):
    store.add(b"k", v(5, b"five"))
    version, examined = store.visible(b"k", 10)
    assert version is not None and version.value == b"five"
    assert examined == 1


def test_visibility_respects_snapshot(store):
    store.add(b"k", v(5, b"five"))
    store.add(b"k", v(9, b"nine"))
    assert store.visible(b"k", 9)[0].value == b"nine"
    assert store.visible(b"k", 8)[0].value == b"five"
    assert store.visible(b"k", 4)[0] is None


def test_unknown_key(store):
    version, examined = store.visible(b"k", 100)
    assert version is None and examined == 0


def test_timestamps_must_increase(store):
    store.add(b"k", v(5))
    with pytest.raises(ValueError):
        store.add(b"k", v(5))
    with pytest.raises(ValueError):
        store.add(b"k", v(4))


def test_newest_timestamp(store):
    assert store.newest_timestamp(b"k") is None
    store.add(b"k", v(3))
    store.add(b"k", v(7))
    assert store.newest_timestamp(b"k") == 7


def test_delete_version_visible_as_none_value(store):
    store.add(b"k", Version(5, None, 0))
    version, __ = store.visible(b"k", 10)
    assert version is not None and version.value is None


def test_truncate_keeps_visible_horizon_version(store):
    for ts in (1, 5, 9):
        store.add(b"k", v(ts, b"%d" % ts))
    removed = store.truncate(horizon_timestamp=6)
    # Version 5 is the newest at-or-below the horizon: must survive.
    assert removed == 1   # only ts=1 dropped
    assert store.visible(b"k", 6)[0].value == b"5"
    assert store.visible(b"k", 9)[0].value == b"9"


def test_truncate_noop_when_all_above_horizon(store):
    store.add(b"k", v(10))
    assert store.truncate(5) == 0
    assert store.version_count() == 1


def test_bytes_accounting(store, machine):
    store.add(b"k", v(1, b"x" * 100))
    store.add(b"k", v(2, b"x" * 100))
    assert machine.dram.bytes_for("tc_version_store") \
        == store.resident_bytes
    store.truncate(2)
    assert machine.dram.bytes_for("tc_version_store") \
        == store.resident_bytes


def test_counts(store):
    store.add(b"a", v(1))
    store.add(b"a", v(2))
    store.add(b"b", v(1))
    assert store.key_count() == 2
    assert store.version_count() == 3


class SweepStore(VersionStore):
    """Reference GC: the full per-key sweep incremental GC replaced."""

    def truncate(self, horizon_timestamp: int) -> int:
        removed = 0
        empty_keys = []
        for key, chain in self._versions.items():
            keep = len(chain)
            for index, version in enumerate(chain):
                if version.timestamp <= horizon_timestamp:
                    keep = index + 1
                    break
            if keep < len(chain):
                for version in chain[keep:]:
                    self._bytes -= version.size_bytes
                    self.machine.dram.free(version.size_bytes, DRAM_TAG)
                    removed += 1
                del chain[keep:]
            if not chain:
                empty_keys.append(key)
        for key in empty_keys:
            del self._versions[key]
            self._bytes -= len(key)
            self.machine.dram.free(len(key), DRAM_TAG)
        return removed


GC_OPS = st.lists(
    st.one_of(
        # (key, timestamp step): per-key timestamps increase, but keys
        # interleave, so timestamps are not ordered across keys.
        st.tuples(st.just("add"), st.sampled_from([b"a", b"bb", b"ccc"]),
                  st.integers(min_value=1, max_value=6)),
        # Horizons go backwards and below every version.
        st.tuples(st.just("truncate"), st.none(),
                  st.integers(min_value=-2, max_value=40)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=GC_OPS)
def test_incremental_gc_matches_full_sweep(ops):
    stores = [VersionStore(Machine.paper_default(cores=1)),
              SweepStore(Machine.paper_default(cores=1))]
    newest = {}
    for kind, key, number in ops:
        if kind == "add":
            ts = newest.get(key, 0) + number
            newest[key] = ts
            for store in stores:
                store.add(key, Version(ts, b"x" * ts, ts))
        else:
            removed = [store.truncate(number) for store in stores]
            assert removed[0] == removed[1]
        incremental, sweep = stores
        assert incremental.version_count() == sweep.version_count()
        assert incremental.key_count() == sweep.key_count()
        assert incremental.resident_bytes == sweep.resident_bytes
        assert incremental.machine.dram.bytes_for(DRAM_TAG) \
            == sweep.machine.dram.bytes_for(DRAM_TAG) \
            == sweep.resident_bytes
        for probe_key in newest:
            for ts in range(newest[probe_key] + 2):
                assert incremental.visible(probe_key, ts) \
                    == sweep.visible(probe_key, ts)
