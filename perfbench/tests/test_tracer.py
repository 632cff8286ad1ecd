"""Tests for the benchmark's outside-in layer tracer.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses

import pytest

from repro import DeuteronomyEngine
from repro.sharding.router import ShardRouter

import scenarios
from layers import TARGETS
from tracer import LayerTracer


class _Clock:
    """A fake nanosecond clock that advances 10 ns per reading."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 10
        return self.now


class _Inner:
    def leaf(self, x):
        return x + 1

    @staticmethod
    def pure(a, b):
        return a * b

    @classmethod
    def make(cls):
        return cls()

    def gen(self):
        yield 1


class _Outer:
    def __init__(self):
        self.inner = _Inner()

    def call(self, x):
        return self.inner.leaf(x) + self.inner.leaf(x)

    def boom(self):
        raise KeyError("boom")


class _Child(_Inner):
    pass


def _dicts(classes):
    return {cls: dict(cls.__dict__) for cls in classes}


def test_wrappers_removed_and_class_attributes_identical():
    classes = {cls for __, cls, __names in TARGETS}
    before = _dicts(classes)
    with LayerTracer(TARGETS):
        assert _dicts(classes) != before
    assert _dicts(classes) == before


def test_inherited_method_wrapper_is_deleted_on_close():
    before = dict(_Child.__dict__)
    with LayerTracer([("x", _Child, ["leaf"])]):
        assert "leaf" in _Child.__dict__
        assert _Child().leaf(1) == 2
    assert dict(_Child.__dict__) == before
    assert _Child().leaf(1) == 2


def test_staticmethod_and_classmethod_stay_what_they_were():
    with LayerTracer([("router", ShardRouter, ["gather"]),
                      ("x", _Inner, ["pure", "make"])]) as tracer:
        assert isinstance(ShardRouter.__dict__["gather"], staticmethod)
        merged = ShardRouter.gather(3, [["a", "c"], ["b"]], [[0, 2], [1]])
        assert merged == ["a", "b", "c"]
        assert ShardRouter(2).gather(1, [["z"]], [[0]]) == ["z"]
        assert isinstance(_Inner.__dict__["make"], classmethod)
        assert isinstance(_Inner.make(), _Inner)
        assert _Inner().pure(3, 4) == 12
    assert tracer.call_counts() == {"router": 2, "x": 2}


def test_generator_methods_are_refused_and_nothing_stays_wrapped():
    before = dict(_Inner.__dict__)
    with pytest.raises(TypeError, match="generator"):
        with LayerTracer([("x", _Inner, ["leaf", "gen"])]):
            pass
    assert dict(_Inner.__dict__) == before


def test_self_times_and_remainder_add_up_to_the_window():
    clock = _Clock()
    tracer = LayerTracer([("outer", _Outer, ["call"]),
                          ("inner", _Inner, ["leaf"])], clock=clock)
    with tracer:
        outer = _Outer()
        started = clock()
        assert outer.call(1) == 4
        with tracer.region("driver"):
            outer.inner.leaf(0)
        tracer.extend_window(clock() - started)
    self_ns = dict(zip(tracer.layers, tracer.self_ns))
    # Each span reads the clock once at each end (10 ns per reading).
    assert self_ns == {"outer": 30, "inner": 30, "driver": 20}
    assert tracer.calls == [1, 3, 1]
    assert tracer.window_ns == 110
    assert sum(tracer.self_ns) + tracer.unattributed_ns() == tracer.window_ns
    assert tracer.unattributed_ns() == 30
    # Parent links and roots: both leaves of call() hang off its span.
    spans = list(zip(tracer.span_id, tracer.span_parent, tracer.span_root))
    assert spans == [(1, 0, 0), (2, 0, 0), (0, -1, 0), (4, 3, 1), (3, -1, 1)]


def test_an_exception_closes_its_span_and_propagates():
    tracer = LayerTracer([("outer", _Outer, ["boom"])], clock=_Clock())
    with tracer:
        with pytest.raises(KeyError):
            _Outer().boom()
    assert tracer.calls == [1] and tracer.spans == 1
    assert not tracer._stack


def _tiny(name):
    workload = scenarios.WORKLOADS[name]
    return dataclasses.replace(workload, records=workload.shards * 600,
                               ops=640, warmup_ops=128)


@pytest.mark.parametrize("name", sorted(scenarios.WORKLOADS))
def test_traced_run_matches_untraced_virtual_figures(name):
    workload = _tiny(name)
    untraced = scenarios.run_once(workload, seed=3)
    tracer = LayerTracer(TARGETS)
    traced = scenarios.run_once(workload, seed=3, tracer=tracer)
    assert untraced.failed == traced.failed == 0
    assert traced.virtual == untraced.virtual
    assert scenarios.digest(traced.virtual) == scenarios.digest(
        untraced.virtual)
    assert sum(tracer.self_ns) + tracer.unattributed_ns() == tracer.window_ns
    assert tracer.unattributed_ns() >= 0
    assert tracer.call_counts()["engine"] > 0


def test_a_wrong_read_is_counted_as_failed(monkeypatch):
    monkeypatch.setattr(DeuteronomyEngine, "get",
                        lambda self, key: b"not the value")
    result = scenarios.run_once(_tiny("ycsb-c-mm"), seed=1)
    assert result.failed == result.attempted > 0

