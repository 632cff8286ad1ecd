"""Unit tests for trace spans: both tracer modes, exact attribution.

The default tracer records scalar snapshots in a flat event log and
materializes the span tree lazily; the detailed tracer builds the tree
live and buckets every CPU charge by category.  Both must attribute the
same machine accounting — these tests drive the hardware models
directly so every expected number is known in closed form.
"""

from __future__ import annotations

import json

import pytest

from repro.hardware.machine import Machine
from repro.observability.spans import (
    COMPONENT_OF_CATEGORY,
    SPAN_NAMES,
    Span,
    Tracer,
    export_chrome,
    export_json,
)


def _attach(machine: Machine, detailed: bool = False) -> Tracer:
    machine.reset_accounting()
    tracer = Tracer(machine, detailed=detailed)
    machine.attach_tracer(tracer)
    return tracer


class TestUntraced:
    def test_trace_span_is_a_shared_noop(self, machine):
        first = machine.trace_span("engine.get", "engine")
        second = machine.trace_span("bwtree.get", "bwtree")
        assert first is second  # the stateless no-op singleton
        with first:
            machine.cpu.charge_us(1.0, "bwtree")
        assert machine.cpu.busy_us == 1.0

    def test_detach_restores_noop_and_clears_sink(self, machine):
        tracer = _attach(machine, detailed=True)
        assert machine.cpu.sink is tracer
        machine.detach_tracer()
        assert machine.tracer is None
        assert machine.cpu.sink is None
        with machine.trace_span("engine.get", "engine"):
            pass
        assert tracer.roots == []


class TestDefaultMode:
    def test_nested_attribution_from_the_flat_log(self, machine):
        tracer = _attach(machine)
        assert machine.cpu.sink is None  # default mode pays no per-charge
        with machine.trace_span("engine.get", "engine"):
            machine.cpu.charge_us(2.0, "tc")
            with machine.trace_span("bwtree.get", "bwtree"):
                machine.cpu.charge_us(3.0, "bwtree")
                machine.ssd.read(4096)
            machine.cpu.charge_us(1.0, "tc")

        roots = tracer.roots
        assert len(roots) == 1
        root = roots[0]
        assert (root.name, root.component) == ("engine.get", "engine")
        assert len(root.children) == 1
        child = root.children[0]
        assert (child.name, child.component) == ("bwtree.get", "bwtree")

        assert root.subtree_cpu_us == 6.0
        assert child.subtree_cpu_us == 3.0
        assert root.self_cpu_us() == 3.0
        assert child.self_cpu_us() == 3.0
        assert (root.ssd_ios, child.ssd_ios) == (1, 1)
        assert root.self_ssd_ios() == 0
        assert child.service_us > 0.0
        assert root.service_us == child.service_us
        assert root.begin_s <= child.begin_s <= child.end_s <= root.end_s

    def test_rematerializes_when_more_spans_arrive(self, machine):
        tracer = _attach(machine)
        with machine.trace_span("engine.get", "engine"):
            machine.cpu.charge_us(1.0, "bwtree")
        assert len(tracer.roots) == 1
        with machine.trace_span("engine.put", "engine"):
            machine.cpu.charge_us(2.0, "bwtree")
        assert [root.name for root in tracer.roots] == [
            "engine.get", "engine.put",
        ]
        # Cached until the log grows again.
        assert tracer.roots is tracer.roots

    def test_handle_is_reused_across_spans(self, machine):
        tracer = _attach(machine)
        first = machine.trace_span("engine.get", "engine")
        with first:
            pass
        second = machine.trace_span("engine.put", "engine")
        assert first is second is tracer._handle

    def test_span_notes_survive_materialization(self, machine):
        tracer = _attach(machine)
        with tracer.span("tc.commit_batch", "tc", batch=4, sync=True):
            machine.cpu.charge_us(1.0, "tc")
        root = tracer.roots[0]
        assert root.notes == {"batch": 4, "sync": True}
        # machine.trace_span sites carry no notes: empty dict, not None.
        with machine.trace_span("engine.get", "engine"):
            pass
        assert tracer.roots[1].notes == {}

    def test_no_category_buckets_in_default_mode(self, machine):
        tracer = _attach(machine)
        with machine.trace_span("engine.get", "engine"):
            machine.cpu.charge_us(5.0, "bwtree")
        assert tracer.roots[0].cpu_us == {}
        assert tracer.unattributed == {}


class TestDetailedMode:
    def test_per_span_category_buckets(self, machine):
        tracer = _attach(machine, detailed=True)
        assert machine.cpu.sink is tracer
        machine.cpu.charge_us(0.5, "router")  # before any span opens
        with machine.trace_span("engine.get", "engine"):
            machine.cpu.charge_us(2.0, "tc")
            with machine.trace_span("bwtree.get", "bwtree"):
                machine.cpu.charge_us(3.0, "bwtree")
            machine.cpu.charge_us(1.0, "tc_mvcc")
        root = tracer.roots[0]
        assert root.cpu_us == {"tc": 2.0, "tc_mvcc": 1.0}
        assert root.children[0].cpu_us == {"bwtree": 3.0}
        assert tracer.unattributed == {"router": 0.5}
        assert tracer.unattributed_us() == pytest.approx(0.5)

    def test_stack_corruption_is_an_assertion(self, machine):
        tracer = _attach(machine, detailed=True)
        outer = tracer.span("engine.get", "engine")
        inner = tracer.span("tc.read", "tc")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(AssertionError, match="span stack corruption"):
            outer.__exit__(None, None, None)

    def test_note_after_open(self, machine):
        tracer = _attach(machine, detailed=True)
        with tracer.span("page_cache.fetch", "page_cache") as span:
            assert isinstance(span, Span)
            span.note("outcome", "miss")
        assert tracer.roots[0].notes == {"outcome": "miss"}


class TestReconciliationViews:
    def test_totals_match_machine_counters_bitwise(self, machine):
        tracer = _attach(machine)
        with machine.trace_span("engine.get", "engine"):
            machine.cpu.charge_us(2.5, "tc")
            machine.cpu.charge_us(1.5, "tc_log")
        machine.cpu.charge_us(0.5, "router")  # outside every span
        assert tracer.totals() == {
            "tc": 2.5, "tc_log": 1.5, "router": 0.5,
        }
        assert tracer.total_us == machine.cpu.busy_us
        assert tracer.total_core_seconds() == \
            machine.summary().cpu_busy_seconds
        assert tracer.unattributed_us() == pytest.approx(0.5)

    def test_cpu_us_by_component_uses_the_category_map(self, machine):
        tracer = _attach(machine)
        machine.cpu.charge_us(1.0, "tc_log")
        machine.cpu.charge_us(2.0, "tc_mvcc")
        machine.cpu.charge_us(4.0, "unknown_category")
        grouped = tracer.cpu_us_by_component()
        assert grouped == {
            "recovery_log": 1.0, "tc": 2.0, "unknown_category": 4.0,
        }
        assert COMPONENT_OF_CATEGORY["tc_log"] == "recovery_log"

    def test_ssd_ios_by_component_reports_unattributed(self, machine):
        tracer = _attach(machine)
        with machine.trace_span("log_store.read", "log_store"):
            machine.ssd.read(4096)
        machine.ssd.write(4096)  # no span open
        assert tracer.traced_ssd_ios() == 2
        assert tracer.ssd_ios_by_component() == {
            "log_store": 1, "unattributed": 1,
        }

    def test_attach_baseline_excludes_prior_work(self, machine):
        machine.cpu.charge_us(100.0, "bwtree")
        machine.ssd.read(4096)
        tracer = Tracer(machine)  # attached without a reset
        machine.attach_tracer(tracer)
        machine.cpu.charge_us(3.0, "bwtree")
        assert tracer.total_us == 3.0
        assert tracer.traced_ssd_ios() == 0
        assert tracer.totals() == {"bwtree": 3.0}


class TestSpanNames:
    def test_known_names_are_dotted_component_verbs(self):
        assert SPAN_NAMES
        components = {name.split(".", 1)[0] for name in SPAN_NAMES}
        assert components == {
            "engine", "tc", "record_cache", "recovery_log",
            "commit_pipeline", "bwtree", "page_cache", "tier_cache",
            "log_store", "shard",
        }


class TestExports:
    def _traced_machine(self) -> Machine:
        machine = Machine.paper_default(cores=2)
        tracer = _attach(machine)
        for index in range(3):
            with tracer.span("engine.get", "engine", op=index):
                machine.cpu.charge_us(1.0 + index, "bwtree")
        return machine

    def test_json_export_is_deterministic_and_caps_roots(self):
        machine = self._traced_machine()
        tracer = machine.tracer
        config = {"seed": 7}
        first = export_json([tracer], config)
        assert first == export_json([tracer], config)
        assert first.endswith("\n")
        doc = json.loads(first)
        assert doc["kind"] == "repro-trace"
        shard = doc["shards"][0]
        assert shard["roots_total"] == shard["roots_exported"] == 3
        assert shard["total_us"] == 6.0
        capped = json.loads(export_json([tracer], config, max_roots=1))
        capped_shard = capped["shards"][0]
        assert capped_shard["roots_exported"] == 1
        assert capped_shard["roots_total"] == 3
        # Totals still cover the whole run despite the cap.
        assert capped_shard["total_us"] == 6.0

    def test_chrome_export_emits_complete_events(self):
        machine = self._traced_machine()
        doc = json.loads(export_chrome([machine.tracer]))
        events = doc["traceEvents"]
        assert len(events) == 3
        assert {event["ph"] for event in events} == {"X"}
        assert {event["pid"] for event in events} == {0}
        assert events[0]["args"]["notes"] == {"op": 0}

    def test_span_to_dict_and_render(self):
        machine = self._traced_machine()
        root = machine.tracer.roots[0]
        as_dict = root.to_dict()
        assert as_dict["name"] == "engine.get"
        assert as_dict["self_cpu_us"] == as_dict["subtree_cpu_us"] == 1.0
        assert as_dict["children"] == []
        assert "engine.get" in root.render()
