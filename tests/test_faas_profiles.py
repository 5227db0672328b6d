"""Memory plans: segment construction and placement."""

import pytest

from repro.faas.functions import TABLE1, get_function
from repro.faas.profiles import Segment, SegmentKind, SegmentRole, build_plan


def _pages(segments) -> int:
    return sum(seg.npages for seg in segments)


def _by_role(plan, role: SegmentRole) -> list:
    return [seg for seg in plan.segments if seg.role is role]


class TestBuildPlan:
    def test_total_pages_match_footprint(self):
        for spec in TABLE1:
            plan = build_plan(spec)
            assert _pages(plan.segments) == pytest.approx(
                spec.footprint_pages, rel=0.01
            )

    def test_role_fractions_respected(self):
        spec = get_function("bert")
        plan = build_plan(spec)
        total = _pages(plan.segments)
        assert _pages(_by_role(plan, SegmentRole.INIT)) / total == pytest.approx(
            spec.init_frac, abs=0.02
        )
        assert _pages(_by_role(plan, SegmentRole.READ_WRITE)) / total == pytest.approx(
            spec.rw_frac, abs=0.02
        )

    def test_library_segment_count(self):
        spec = get_function("bert")
        plan = build_plan(spec)
        libs = [s for s in plan.segments if s.kind is SegmentKind.FILE]
        assert len(libs) >= spec.lib_vma_count * 0.8

    def test_file_pages_are_init_only(self):
        plan = build_plan(get_function("float"))
        for seg in plan.segments:
            if seg.kind is SegmentKind.FILE:
                assert seg.role is SegmentRole.INIT

    def test_unique_paths(self):
        plan = build_plan(get_function("json"))
        paths = [s.path for s in plan.segments if s.path]
        assert len(paths) == len(set(paths))

    def test_one_segment_per_data_role(self):
        plan = build_plan(get_function("cnn"))
        assert len(_by_role(plan, SegmentRole.READ_ONLY)) == 1
        assert len(_by_role(plan, SegmentRole.READ_WRITE)) == 1


class TestSegment:
    def test_placement(self):
        seg = Segment(
            label="x", role=SegmentRole.INIT, kind=SegmentKind.ANON,
            npages=10, touch_frac=0.5,
        )
        assert not seg.placed
        placed = seg.at(100)
        assert placed.placed and placed.start_vpn == 100
        assert not seg.placed  # immutable original

    def test_validation(self):
        with pytest.raises(ValueError):
            Segment(label="x", role=SegmentRole.INIT, kind=SegmentKind.ANON,
                    npages=0, touch_frac=0.5)
        with pytest.raises(ValueError):
            Segment(label="x", role=SegmentRole.INIT, kind=SegmentKind.ANON,
                    npages=1, touch_frac=2.0)
        with pytest.raises(ValueError):
            Segment(label="x", role=SegmentRole.INIT, kind=SegmentKind.FILE,
                    npages=1, touch_frac=0.5)  # file without path
