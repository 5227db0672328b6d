"""Telemetry subsystem: spans, metrics, breakdowns, exporters, instrumentation."""

import json

import pytest

from repro import runtime
from repro.sim.clock import Clock
from repro.telemetry import (
    TRACE,
    Breakdown,
    MetricRegistry,
    chrome_trace_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.breakdown import UNATTRIBUTED
from repro.telemetry.tracer import _NOOP_SPAN


@pytest.fixture
def traced():
    """The global traced, on and empty for one test, reset after."""
    TRACE.reset()
    TRACE.enable()
    yield TRACE
    TRACE.reset()


class TestMetrics:
    def test_counter_get_or_create(self):
        registry = MetricRegistry()
        registry.counter("x").add()
        registry.counter("x").add(2)
        assert registry.counter("x").value == 3

    def test_histogram_stats(self):
        registry = MetricRegistry()
        h = registry.histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.mean == 2.5
        assert h.percentile(50) == 2.5

    def test_empty_histogram(self):
        h = MetricRegistry().histogram("empty")
        assert h.mean is None
        assert h.percentile(99) is None
        assert h.to_numpy().size == 0


class TestSpans:
    def test_span_snapshots_virtual_time(self, traced):
        clock = Clock()
        clock.advance(100)
        with traced.span("op", clock=clock) as span:
            clock.advance(250)
        assert span.start_ns == 100
        assert span.end_ns == 350
        assert span.duration_ns == 250

    def test_child_inherits_clock_and_parent(self, traced):
        clock = Clock()
        with traced.span("outer", clock=clock) as outer:
            with traced.span("inner") as inner:
                clock.advance(10)
            assert inner.clock is clock
            assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.duration_ns == 10

    def test_phases_tile_from_span_start(self, traced):
        clock = Clock()
        clock.advance(1000)
        with traced.span("restore", clock=clock) as span:
            span.add_phase("attach", 30)
            span.add_phase("fixup", 70)
            clock.advance(100)
        attach, fixup = traced.spans("attach")[0], traced.spans("fixup")[0]
        assert (attach.start_ns, attach.end_ns) == (1000, 1030)
        assert (fixup.start_ns, fixup.end_ns) == (1030, 1100)
        assert attach.duration_ns + fixup.duration_ns == span.duration_ns
        assert attach.parent_id == span.span_id

    def test_span_cut_short_cuts_its_phases(self, traced):
        """A crash stops the clock before it pays for the noted phases:
        they end where the span ends, so they still tile it."""
        clock = Clock()
        with traced.span("checkpoint", clock=clock) as span:
            span.add_phase("copy", 80)
            span.add_phase("seal", 40)
            clock.advance(50)
        copy, seal = traced.spans("copy")[0], traced.spans("seal")[0]
        assert (copy.start_ns, copy.end_ns) == (0, 50)
        assert (seal.start_ns, seal.end_ns) == (50, 50)
        assert UNATTRIBUTED not in Breakdown.from_tracer(traced).group("checkpoint").phases

    def test_add_span_records_background_work(self, traced):
        clock = Clock()
        traced.add_span("prefetch", 500, 200, clock=clock, pages=17)
        (span,) = traced.spans("prefetch")
        assert (span.start_ns, span.end_ns) == (500, 700)
        assert span.attrs["pages"] == 17

    def test_set_updates_attrs(self, traced):
        with traced.span("op", clock=Clock()) as span:
            span.set(pages=3)
        assert span.attrs["pages"] == 3

    def test_distinct_clocks_get_distinct_tracks(self, traced):
        a, b = Clock(), Clock()
        traced.register_track(a, "node0")
        with traced.span("x", clock=a):
            pass
        with traced.span("y", clock=b):
            pass
        sa, sb = traced.spans("x")[0], traced.spans("y")[0]
        assert sa.track != sb.track
        assert traced.track_name(sa.track) == "node0"

    def test_exception_exits_span(self, traced):
        clock = Clock()
        with pytest.raises(RuntimeError):
            with traced.span("boom", clock=clock):
                clock.advance(5)
                raise RuntimeError
        (span,) = traced.spans("boom")
        assert span.end_ns == 5
        assert traced._stack == []


class TestDisabled:
    def test_disabled_records_nothing(self, traced):
        with traced.force(False):
            with traced.span("op", clock=Clock(), attr=1) as span:
                span.add_phase("p", 10)
                span.set(x=2)
            traced.add_span("bg", 0, 10)
            traced.count("c")
            traced.observe("h", 1.0)
        assert traced.spans() == []
        assert traced.metrics.counters == {}
        assert traced.metrics.histograms == {}

    def test_disabled_span_is_shared_noop(self, traced):
        with traced.force(False):
            assert traced.span("a") is _NOOP_SPAN
            assert traced.span("b") is traced.span("c")
        assert not _NOOP_SPAN.recording

    def test_global_tracer_disabled_by_default(self):
        assert runtime.SWITCHES["trace"] is TRACE
        assert not TRACE.default and not TRACE.active()

    def test_zero_keeps_enabled_flag(self, traced):
        with traced.span("x", clock=Clock()):
            pass
        traced.count("c")
        traced.zero()
        assert traced.active()
        assert traced.spans() == []
        assert traced.metrics.counters == {}


class TestRecords:
    """A tracer's records travel like switch counters (runtime.counts/add)."""

    def _record(self, traced, name):
        clock = Clock()
        traced.register_track(clock, f"node-{name}")
        with traced.span(name, clock=clock) as span:
            span.add_phase("phase", 5)
            clock.advance(5)
        traced.count("c", 2)
        traced.observe("h", len(name))

    def test_zero_swaps_the_records_out(self, traced):
        self._record(traced, "a")
        records = traced.counts()
        traced.zero()
        self._record(traced, "b")
        assert [s.name for s in records["spans"]] == ["a", "phase"]
        assert records["counters"] == {"c": 2}

    def test_add_offsets_ids_and_tracks(self, traced):
        import pickle

        self._record(traced, "a")
        first = traced.counts()
        traced.zero()
        self._record(traced, "bb")
        second = pickle.loads(pickle.dumps(traced.counts()))
        traced.zero()
        traced.add(first)
        traced.add(second)
        spans = traced.spans()
        assert [(s.name, s.span_id, s.parent_id) for s in spans] == [
            ("a", 1, None), ("phase", 2, 1), ("bb", 3, None), ("phase", 4, 3),
        ]
        assert [traced.track_name(s.track) for s in spans] == [
            "node-a", "node-a", "node-bb", "node-bb",
        ]
        assert spans[2].duration_ns == 5
        assert traced.metrics.counters["c"].value == 4
        assert traced.metrics.histograms["h"].values == [1.0, 2.0]
        with traced.span("next", clock=Clock()) as span:
            pass
        assert span.span_id == 5 and span.track == 2


class TestBreakdown:
    def test_groups_by_top_level_name(self, traced):
        clock = Clock()
        for _ in range(3):
            with traced.span("restore", clock=clock) as span:
                span.add_phase("attach", 40)
                span.add_phase("fixup", 60)
                clock.advance(100)
        breakdown = Breakdown.from_tracer(traced)
        group = breakdown.group("restore")
        assert group.count == 3
        assert group.total_ns == 300
        assert group.phases["attach"].total_ns == 120
        assert group.phases["fixup"].mean_ns == 60
        assert group.attributed_ns == group.total_ns
        assert UNATTRIBUTED not in group.phases

    def test_unattributed_residue(self, traced):
        clock = Clock()
        with traced.span("op", clock=clock) as span:
            span.add_phase("known", 30)
            clock.advance(100)
        group = Breakdown.from_tracer(traced).group("op")
        assert group.phases[UNATTRIBUTED].total_ns == pytest.approx(70)

    def test_names_filter(self, traced):
        clock = Clock()
        with traced.span("keep", clock=clock):
            clock.advance(10)
        with traced.span("drop", clock=clock):
            clock.advance(10)
        breakdown = Breakdown.from_tracer(traced, names=["keep"])
        assert set(breakdown.groups) == {"keep"}
        assert breakdown.total_ns == 10

    def test_format_table_mentions_phases(self, traced):
        clock = Clock()
        with traced.span("op", clock=clock) as span:
            span.add_phase("attach", 100)
            clock.advance(100)
        table = Breakdown.from_tracer(traced).format_table()
        assert "op" in table and "attach" in table and "100.0%" in table


class TestExporters:
    def _populate(self, traced):
        clock = Clock()
        traced.register_track(clock, "node0")
        with traced.span("cxlfork.restore", clock=clock, comm="f") as span:
            span.add_phase("attach", 40)
            clock.advance(40)
        traced.count("kernel.forks", 2)
        traced.observe("lat", 5.0)

    def test_chrome_events_shape(self, traced):
        self._populate(traced)
        events = chrome_trace_events()
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2
        parent = next(e for e in complete if e["name"] == "cxlfork.restore")
        assert parent["cat"] == "cxlfork"
        assert parent["dur"] == pytest.approx(0.04)  # 40 ns in µs
        assert parent["args"]["comm"] == "f"
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["args"]["name"] == "node0"
        counters = [e for e in events if e["ph"] == "C"]
        assert counters[0]["args"]["value"] == 2

    def test_chrome_trace_file_is_valid_json(self, traced, tmp_path):
        self._populate(traced)
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path))
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert len(document["traceEvents"]) == count
        assert all("ph" in e for e in document["traceEvents"])

    def test_jsonl_lines_parse(self, traced, tmp_path):
        self._populate(traced)
        path = tmp_path / "spans.jsonl"
        count = write_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == count
        kinds = {record["type"] for record in lines}
        assert kinds == {"span", "counter", "histogram"}
        histogram = next(r for r in lines if r["type"] == "histogram")
        assert histogram["count"] == 1 and histogram["mean"] == 5.0


class TestInstrumentation:
    """Tracing wired through the real mechanisms."""

    def test_cxlfork_phases_match_metrics(self, traced, pod):
        from repro.faas.workload import FunctionWorkload
        from repro.rfork.cxlfork import CxlFork

        workload = FunctionWorkload("float")
        instance = workload.build_instance(pod.source)
        workload.season(instance)
        mech = CxlFork()
        ckpt, cmetrics = mech.checkpoint(instance.task)
        result = mech.restore(ckpt, pod.target)

        (cspan,) = traced.spans("cxlfork.checkpoint")
        assert cspan.duration_ns == pytest.approx(cmetrics.latency_ns, abs=1)
        (rspan,) = traced.spans("cxlfork.restore")
        assert rspan.duration_ns == pytest.approx(result.metrics.latency_ns, abs=1)
        # Phase children reproduce the metrics breakdown exactly.
        children = [
            s for s in traced.spans() if s.parent_id == rspan.span_id
        ]
        by_phase = {}
        for child in children:
            by_phase[child.name] = by_phase.get(child.name, 0) + child.duration_ns
        for phase, ns in result.metrics.breakdown.items():
            assert by_phase[phase] == pytest.approx(ns, abs=1)

    @pytest.mark.parametrize("prefetch", [False, True], ids=["moa", "mow"])
    def test_breakdown_sum_within_one_percent_of_total(self, traced, pod, prefetch):
        """The named phases tile the restore; dirty-page prefetch (MoW's,
        off the critical path) is a top-level span, not a phase."""
        from repro.faas.workload import FunctionWorkload
        from repro.rfork.cxlfork import CxlFork
        from repro.tiering.moa import MigrateOnAccess
        from repro.tiering.mow import MigrateOnWrite

        workload = FunctionWorkload("json")
        instance = workload.build_instance(pod.source)
        workload.season(instance)
        ckpt, _ = CxlFork().checkpoint(instance.task)
        policy = MigrateOnWrite() if prefetch else MigrateOnAccess()
        result = CxlFork().restore(ckpt, pod.target, policy=policy)
        assert bool(result.metrics.prefetched_pages) is prefetch

        group = Breakdown.from_tracer(traced).group("cxlfork.restore")
        named_ns = sum(
            row.total_ns for row in group.phases.values() if row.phase != UNATTRIBUTED
        )
        assert named_ns == pytest.approx(group.total_ns, rel=0.01)
        assert group.total_ns == pytest.approx(result.metrics.latency_ns, rel=0.01)
        assert [s.parent_id for s in traced.spans("cxlfork.prefetch_dirty")] == (
            [None] if prefetch else []
        )

    def test_failure_sweep_phases_tile_their_spans(self, traced):
        """Checkpoints and restores a crash cuts short show no negative
        (unattributed) row: every phase row is non-negative."""
        from repro import experiments

        module = experiments.load("failure-sweep")
        experiments.run("failure-sweep", module.Config.quick())
        breakdown = Breakdown.from_tracer(traced)
        assert breakdown.group("cxlfork.checkpoint") is not None
        negative = [
            (group.name, row.phase, row.total_ns)
            for group in breakdown.groups.values()
            for row in group.phases.values()
            if row.total_ns < 0
        ]
        assert negative == []

    def test_kernel_counters_emitted(self, traced, pod):
        kernel = pod.source.kernel
        task = kernel.spawn_task("t")
        vma = kernel.map_anon_region(task, 16, label="heap", populate=False)
        stats = kernel.access_range(task, vma.start_vpn, 16, write=True)
        assert stats.total_faults > 0
        counters = traced.metrics.counters
        assert counters["kernel.task_spawn"].value >= 1
        assert any(name.startswith("kernel.fault.") for name in counters)
        assert traced.metrics.histograms["kernel.fault_batch_cost_ns"].count == 1

    def test_invoke_span_records_fault_attr(self, traced, pod):
        from repro.faas.workload import FunctionWorkload

        workload = FunctionWorkload("float")
        instance = workload.build_instance(pod.source)
        workload.invoke(instance)
        (invoke,) = traced.spans("faas.invoke")
        assert invoke.attrs["faults"] >= 0
        assert invoke.attrs["function"] == "float"

    def test_disabled_tracer_leaves_no_trace(self, pod):
        from repro.faas.workload import FunctionWorkload

        assert not TRACE.active()
        workload = FunctionWorkload("float")
        instance = workload.build_instance(pod.source)
        workload.invoke(instance)
        assert TRACE.spans() == []
        assert TRACE.metrics.counters == {}


class TestLatencyRecorderBacking:
    def test_recorder_exposes_histograms(self):
        from repro.porter.metrics import LatencyRecorder

        recorder = LatencyRecorder()
        recorder.record("f", 2e6, kind="cold")
        recorder.record("f", 4e6)
        histogram = recorder.histogram("f")
        assert histogram.count == 2
        assert recorder.kinds("f") == ["cold", "warm"]
        assert recorder.histogram("missing") is None

    def test_registries_are_isolated(self):
        from repro.porter.metrics import LatencyRecorder

        a, b = LatencyRecorder(), LatencyRecorder()
        a.record("f", 1e6, kind="cold")
        assert b.count() == 0
        assert b.start_kind_counts() == {}
