"""repro.runtime: the one switch type and its cross-process state."""

import pytest

from repro import runtime
from repro.check import CHECK, mutation
from repro.dedup import DEDUP
from repro.ras import RAS
from repro.rfork.restoreplan import RESTORE_PLAN
from repro.runtime import Switch
from repro.telemetry import TRACE

SWITCHES = [CHECK, RAS, DEDUP, RESTORE_PLAN, *mutation.MUTATIONS]


@pytest.fixture(autouse=True)
def _reset_switches():
    for switch in SWITCHES:
        switch.reset()
    yield
    for switch in SWITCHES:
        switch.reset()


@pytest.mark.parametrize("switch", SWITCHES, ids=lambda s: s.name)
def test_switch(switch):
    assert isinstance(switch, Switch)
    assert runtime.SWITCHES[switch.name] is switch
    assert switch.active() is switch.default is switch.enabled
    assert switch.default is (switch is RESTORE_PLAN)

    switch.enable()
    assert switch.active()
    switch.disable()
    assert not switch.active()

    # force() pins active() over the flag, nests, and restores on exit.
    with switch.force(True):
        assert switch.active()
        with switch.force(False):
            assert not switch.active()
        assert switch.active()
    assert not switch.active()

    # Counters are plain attributes; summary() reads them with the flag.
    for name in switch.counter_names:
        setattr(switch, name, 3)
    assert switch.summary() == {
        "enabled": False, **{name: 3 for name in switch.counter_names}
    }
    assert switch.describe().startswith(f"{switch.name}: ")

    # A snapshot carries enabled and the force scope, not the counters.
    switch.enable()
    with switch.force(False):
        state = switch.state()
    switch.reset()
    assert switch.counts() == dict.fromkeys(switch.counter_names, 0)
    switch.apply(state)
    assert switch.enabled and not switch.active()
    switch.reset()
    assert switch.active() is switch.default


def test_restore_plan_counters_are_named():
    assert set(RESTORE_PLAN.summary()) == {"enabled", "builds", "hits", "invalidations"}


def test_ras_follows_every_change_to_the_checker():
    with CHECK.force(True):
        assert RAS.active()
        with RAS.force(False):
            assert not RAS.active()
    assert not RAS.active()
    CHECK.enable()
    assert RAS.active()
    CHECK.apply((False, None))
    assert not RAS.active()


def test_apply_waits_for_a_switch_not_yet_imported():
    runtime.apply({"test-late": (True, None)})
    try:
        late = Switch("test-late")
        assert late.active()
    finally:
        del runtime.SWITCHES["test-late"]


def test_counts_zero_add_round_trip():
    RAS.seals = 2
    RESTORE_PLAN.builds = 5
    saved = runtime.counts()
    runtime.zero()
    assert RAS.seals == RESTORE_PLAN.builds == 0
    runtime.add(saved)
    runtime.add({"ras": {"seals": 1}, "never-imported": {"x": 1}})
    assert (RAS.seals, RESTORE_PLAN.builds) == (3, 5)


def test_one_switch_type():
    """Every process-global on/off state is a registered Switch."""
    assert set(runtime.SWITCHES) >= {
        "check", "ras", "dedup", "restore-plan", "trace", *mutation.KNOWN
    }
    assert all(isinstance(s, Switch) for s in runtime.SWITCHES.values())
    assert runtime.SWITCHES["trace"] is TRACE
    assert not {"enable", "disable", "reset"} & set(vars(type(TRACE)))
