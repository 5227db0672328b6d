"""FunctionWorkload: building, seasoning, cloning plumbing."""

import pytest

from repro.faas.functions import get_function
from repro.faas.profiles import SegmentKind
from repro.faas.workload import FunctionWorkload
from repro.os.mm.pte import PteFlags


class TestBuildInstance:
    def test_footprint_materialized(self, pod):
        workload = FunctionWorkload("linpack")
        instance = workload.build_instance(pod.source)
        assert instance.task.mm.mapped_pages() == pytest.approx(
            get_function("linpack").footprint_pages, rel=0.01
        )

    def test_charges_state_init(self, pod):
        workload = FunctionWorkload("rnn")
        before = pod.source.clock.now
        workload.build_instance(pod.source)
        assert pod.source.clock.now - before == pytest.approx(450e6)  # 450 ms

    def test_uncharged_build(self, pod):
        workload = FunctionWorkload("float")
        before = pod.source.clock.now
        workload.build_instance(pod.source, charge=False)
        assert pod.source.clock.now == before

    def test_opens_descriptors(self, pod):
        workload = FunctionWorkload("bert")
        instance = workload.build_instance(pod.source)
        assert len(instance.task.fdtable) == get_function("bert").fd_count

    def test_plan_placed(self, pod):
        workload = FunctionWorkload("json")
        instance = workload.build_instance(pod.source)
        assert all(seg.placed for seg in instance.plan.segments)

    def test_string_or_spec_constructor(self):
        by_name = FunctionWorkload("float")
        by_spec = FunctionWorkload(get_function("float"))
        assert by_name.spec is by_spec.spec

    def test_libraries_through_page_cache(self, pod):
        workload = FunctionWorkload("float")
        instance = workload.build_instance(pod.source)
        file_pages = sum(
            s.npages for s in instance.plan.segments if s.kind is SegmentKind.FILE
        )
        assert pod.source.pagecache.total_cached_pages() == file_pages

    def test_two_instances_same_layout(self, pod):
        """Clones must agree on virtual addresses for plans to transfer."""
        workload = FunctionWorkload("json")
        a = workload.build_instance(pod.source)
        b = workload.build_instance(pod.target)
        assert [s.start_vpn for s in a.plan.segments] == [
            s.start_vpn for s in b.plan.segments
        ]


class TestSeasoning:
    def test_clears_init_dirt_then_records_steady_state(self, pod):
        workload = FunctionWorkload("float")
        instance = workload.build_instance(pod.source)
        total = instance.task.mm.mapped_pages()
        dirty_after_build = instance.task.mm.pagetable.count_flag(
            int(PteFlags.DIRTY)
        )
        assert dirty_after_build > total * 0.5  # init wrote everything anon
        workload.season(instance)
        dirty = instance.task.mm.pagetable.count_flag(int(PteFlags.DIRTY))
        accessed = instance.task.mm.pagetable.count_flag(int(PteFlags.ACCESSED))
        # Steady state: only the write working set is dirty; A covers the
        # read working set.
        assert dirty < total * 0.15
        assert dirty < accessed < total

    def test_requires_at_least_one_invocation(self, pod):
        workload = FunctionWorkload("float")
        instance = workload.build_instance(pod.source)
        with pytest.raises(ValueError):
            workload.season(instance, warm_invocations=0)

    def test_invocation_counter_advances(self, pod):
        workload = FunctionWorkload("float")
        instance = workload.build_instance(pod.source)
        base = instance.invocations
        workload.invoke(instance)
        assert instance.invocations == base + 1


class TestCloning:
    def test_instance_from_plan_fresh_tails(self, pod):
        workload = FunctionWorkload("float")
        parent = workload.build_instance(pod.source)
        other_task = pod.source.kernel.spawn_task("float")
        clone = workload.instance_from_plan(parent.plan, other_task)
        assert clone.plan is parent.plan
        assert clone.invocations != parent.invocations

    def test_builder_remembers_last_instance(self, pod):
        workload = FunctionWorkload("float")
        builder = workload.builder()
        task, init_ns = builder(pod.source, None)
        assert builder.last_instance.task is task
        assert init_ns == workload.spec.state_init_ns
