"""Differential test of the one-frame CPU billing kernel.

``CpuModel.charge`` and ``CpuModel.charge_us`` each bill a charge in a
single frame.  ``ReferenceCpuModel`` below is the straightforward chain
they replace (``charge`` -> ``charge_us`` -> ``CounterSet.add`` ->
``VirtualClock.advance_us`` -> ``advance``); random charge streams
driven through both must leave bit-identical accounting, clocks, sink
streams and return values.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, List, Mapping, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import CostTable, CpuModel, VirtualClock
from repro.hardware.metrics import CounterSet


class ReferenceCpuModel:
    """The multi-call billing chain, kept as the kernel's oracle."""

    def __init__(self, cores: int) -> None:
        self.cores = cores
        self.costs = CostTable()
        self.clock = VirtualClock()
        self.counters = CounterSet()
        self._busy_us = 0.0
        self.sink = None
        self._scale: Optional[Dict[str, float]] = None

    def scale_costs(self, factors: Optional[Mapping[str, float]]) -> None:
        if factors is None:
            self._scale = None
            return
        for category, factor in factors.items():
            if factor <= 0.0:
                raise ValueError(
                    f"scale factor for {category!r} must be positive, "
                    f"got {factor}"
                )
        self._scale = dict(factors)

    @property
    def busy_us(self) -> float:
        return self._busy_us

    def charge_us(self, microseconds: float, category: str = "other") -> None:
        if microseconds < 0.0:
            raise ValueError(f"cannot charge negative work: {microseconds}")
        scale = self._scale
        if scale is not None:
            factor = scale.get(category)
            if factor is not None:
                microseconds = microseconds * factor
        self._busy_us += microseconds
        self.counters.add(f"cpu_us.{category}", microseconds)
        sink = self.sink
        if sink is not None:
            sink.on_charge(category, microseconds)
        self.clock.advance_us(microseconds / self.cores)

    def charge(self, primitive: str, count: float = 1.0,
               category: Optional[str] = None) -> float:
        unit = getattr(self.costs, primitive)
        amount = unit * count
        self.charge_us(amount, category if category is not None else primitive)
        return amount

    def reset(self) -> None:
        self._busy_us = 0.0
        self.counters.reset()


class RecordingSink:
    """Records each charge with the busy total and clock it sees, which
    pins where in the billing order the sink is called."""

    def __init__(self, cpu) -> None:
        self.cpu = cpu
        self.calls: List[Tuple[str, str, str, str]] = []

    def on_charge(self, category: str, microseconds: float) -> None:
        self.calls.append((category, microseconds.hex(),
                           self.cpu.busy_us.hex(), self.cpu.clock.now.hex()))


PRIMITIVES = [f.name for f in fields(CostTable)]
# Small enough that scaled categories are often charged, large enough
# that categories keep appearing for the first time mid-stream.
CATEGORIES = ["tc", "bwtree", "tc_mvcc", "page_cache", "new_a", "new_b"]

counts = st.one_of(
    st.just(0),
    st.just(0.0),
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False,
              allow_infinity=False),
)
microseconds = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
              allow_infinity=False),
)
factors = st.floats(min_value=1e-3, max_value=100.0, allow_nan=False)
scales = st.one_of(
    st.none(),
    st.dictionaries(st.sampled_from(CATEGORIES + PRIMITIVES[:2]),
                    factors, min_size=1, max_size=4),
)

charges = st.one_of(
    st.tuples(st.just("charge"),
              st.sampled_from(PRIMITIVES[:2] + PRIMITIVES), counts,
              st.one_of(st.none(), st.sampled_from(CATEGORIES))),
    st.tuples(st.just("charge_us"), microseconds,
              st.sampled_from(CATEGORIES)),
)
ops = st.one_of(
    charges,
    charges,
    charges,
    st.tuples(st.just("scale"), scales),
    st.tuples(st.just("sink"), st.booleans()),
    st.tuples(st.just("reset")),
    st.tuples(st.just("negative_charge"), st.sampled_from(PRIMITIVES),
              st.floats(min_value=-1e4, max_value=-1e-9)),
    st.tuples(st.just("negative_us"),
              st.floats(min_value=-1e6, max_value=-1e-12)),
    st.tuples(st.just("bad_scale"), st.sampled_from(CATEGORIES),
              st.sampled_from([0.0, -1.0])),
)


def _state(cpu, sink: RecordingSink):
    return (
        cpu.busy_us.hex(),
        sorted((k, v.hex()) for k, v in cpu.counters.snapshot().items()),
        cpu.clock.now.hex(),
        list(sink.calls),
    )


def _apply(cpu, sink: RecordingSink, op) -> object:
    kind = op[0]
    if kind == "charge":
        __, primitive, count, category = op
        return cpu.charge(primitive, count, category=category).hex()
    if kind == "charge_us":
        cpu.charge_us(op[1], op[2])
        return None
    if kind == "scale":
        cpu.scale_costs(op[1])
        return None
    if kind == "sink":
        cpu.sink = sink if op[1] else None
        return None
    if kind == "reset":
        cpu.reset()
        return None
    with pytest.raises(ValueError) as raised:
        if kind == "negative_charge":
            cpu.charge(op[1], op[2], category="tc")
        elif kind == "negative_us":
            cpu.charge_us(op[1], "tc")
        else:
            cpu.scale_costs({op[1]: op[2]})
    return str(raised.value)


# Each stream opens with a sink and a scaling setting (both may change
# again mid-stream) and ends with ``reset()``.
streams = st.lists(
    st.tuples(st.booleans(), scales, st.lists(ops, min_size=1, max_size=40)),
    min_size=1, max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(cores=st.integers(min_value=1, max_value=8), streams=streams)
def test_kernel_matches_reference_chain_bit_for_bit(cores, streams):
    kernel, reference = CpuModel(cores), ReferenceCpuModel(cores)
    kernel_sink = RecordingSink(kernel)
    reference_sink = RecordingSink(reference)
    for sink_on, scale, stream in streams:
        stream = [("sink", sink_on), ("scale", scale)] + stream
        for op in stream:
            before = _state(kernel, kernel_sink)
            got = _apply(kernel, kernel_sink, op)
            want = _apply(reference, reference_sink, op)
            assert got == want, op
            assert _state(kernel, kernel_sink) == \
                _state(reference, reference_sink), op
            if op[0] in ("negative_charge", "negative_us"):
                # Rejected before any state changed.
                assert _state(kernel, kernel_sink) == before
        kernel.reset()
        reference.reset()
        assert _state(kernel, kernel_sink) == \
            _state(reference, reference_sink)


def test_negative_work_leaves_every_figure_untouched():
    cpu = CpuModel(cores=2)
    sink = RecordingSink(cpu)
    cpu.sink = sink
    cpu.scale_costs({"tc": 2.0})
    cpu.charge("hash_probe", 3, category="tc")
    before = _state(cpu, sink)
    with pytest.raises(ValueError, match="cannot charge negative work"):
        cpu.charge("hash_probe", -1, category="tc")
    with pytest.raises(ValueError, match="cannot charge negative work"):
        cpu.charge_us(-0.5, "new_category")
    assert _state(cpu, sink) == before
    assert "cpu_us.new_category" not in cpu.counters


def test_scale_costs_still_validates_factors():
    cpu = CpuModel(cores=1)
    with pytest.raises(ValueError, match="must be positive"):
        cpu.scale_costs({"tc": 0.0})
    with pytest.raises(ValueError, match="must be positive"):
        cpu.scale_costs({"tc": -2.0})


def _scaled_stream(cpu) -> List[str]:
    cpu.sink = RecordingSink(cpu)
    cpu.scale_costs({"tc": 0.37, "hash_probe": 3.1})
    returned = [
        cpu.charge("key_compare", 7, category="tc").hex(),
        cpu.charge("hash_probe", 2.5).hex(),
        cpu.charge("hash_probe", 2.5, category="bwtree").hex(),
    ]
    cpu.charge_us(1.3, "tc")
    cpu.charge_us(0.0, "tc")
    cpu.charge_us(2.9, "other")
    return returned


@pytest.mark.parametrize("cores", [1, 3])
def test_scaled_charges_with_sink_match_reference(cores):
    kernel, reference = CpuModel(cores), ReferenceCpuModel(cores)
    returned = _scaled_stream(kernel)
    assert returned == _scaled_stream(reference)
    assert _state(kernel, kernel.sink) == _state(reference, reference.sink)
    # The sink sees the scaled amount; ``charge`` returns the unscaled one.
    assert kernel.sink.calls[0][1] == (
        kernel.costs.key_compare * 7 * 0.37).hex()
    assert returned[0] == (kernel.costs.key_compare * 7).hex()
