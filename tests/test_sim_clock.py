"""Clock: monotonic virtual time."""

import pytest

from repro.sim.clock import Clock


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_custom_start(self):
        assert Clock(100).now == 100

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            Clock(-1)

    def test_advance(self):
        clock = Clock()
        assert clock.advance(250) == 250
        assert clock.now == 250

    def test_advance_rounds_floats(self):
        clock = Clock()
        clock.advance(100.6)
        assert clock.now == 101

    def test_advance_negative_rejected(self):
        clock = Clock()
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestAlarms:
    def test_alarms_fire_in_deadline_order_regardless_of_arming_order(self):
        clock = Clock()
        fired = []
        clock.at(300, lambda: fired.append("c"))
        clock.at(100, lambda: fired.append("a"))
        clock.at(200, lambda: fired.append("b"))
        clock.advance(1_000)
        assert fired == ["a", "b", "c"]

    def test_equal_deadlines_fire_in_arrival_order(self):
        # insort-right keeps ties stable, matching the full stable sort
        # the sorted-insert replaced.
        clock = Clock()
        fired = []
        for tag in "abc":
            clock.at(50, lambda t=tag: fired.append(t))
        clock.advance(100)
        assert fired == ["a", "b", "c"]

    def test_alarm_armed_during_advance_interleaves(self):
        clock = Clock()
        fired = []

        def rearm():
            fired.append(clock.now)
            clock.at(clock.now + 10, lambda: fired.append(clock.now))

        clock.at(10, rearm)
        clock.advance(100)
        assert fired == [10, 20]

