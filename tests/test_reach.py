"""tools/reach.py: the AST enumerator, the unreached-module rule and the
allowlist rule.

Runs no experiment; the probe itself runs in CI's check-smoke job.
"""

import importlib.util
import io
import pathlib
import sys

import pytest

REACH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "reach.py"

FIXTURE = '''\
"""A tiny module."""
import abc
import functools


def plain(x):
    return x + 1


@functools.lru_cache
def decorated():
    def inner():
        return 2

    return inner()


class Policy(abc.ABC):
    @abc.abstractmethod
    def choose(self):
        """No body to run."""

    def describe(self):
        return "policy"

    def __repr__(self):  # pragma: no cover - debug aid
        return "Policy()"


class Tag:
    name = "tag"
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", REACH)
    module = importlib.util.module_from_spec(spec)
    sys.modules["reach"] = module  # dataclasses resolve annotations there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("reach", None)


def test_enumerates_functions_methods_and_nested(reach):
    # Abstract methods and no-cover functions are not enumerated.
    functions, classes = reach.enumerate_functions(FIXTURE)
    by_name = {f.qualname: f for f in functions}
    assert list(by_name) == [
        "plain", "decorated", "decorated.inner", "Policy.describe",
    ]
    assert classes == {"Policy", "Tag"}
    # co_firstlineno of a decorated function is its first decorator's line.
    assert by_name["decorated"].first_line == 10
    assert by_name["plain"].first_line == 6
    assert by_name["plain"].body_lines == 1
    assert by_name["decorated"].body_lines == 4
    assert by_name["decorated.inner"].parent == 10
    assert by_name["Policy.describe"].parent is None


def test_first_lines_match_code_objects(reach):
    namespace = {}
    exec(compile(FIXTURE, "fixture", "exec"), namespace)
    functions, _ = reach.enumerate_functions(FIXTURE)
    by_name = {f.qualname: f for f in functions}
    assert namespace["plain"].__code__.co_firstlineno == by_name["plain"].first_line
    assert (namespace["decorated"].__wrapped__.__code__.co_firstlineno
            == by_name["decorated"].first_line)


def test_nested_function_counted_inside_its_unreached_parent(reach):
    functions, _ = reach.enumerate_functions(FIXTURE)
    missing = reach.unreached(functions, {6})
    assert [f.qualname for f in missing] == ["decorated", "Policy.describe"]
    # A reached parent leaves its unreached child counted on its own.
    missing = reach.unreached(functions, {6, 10})
    assert [f.qualname for f in missing] == ["decorated.inner", "Policy.describe"]


def test_module_reached_rule(reach):
    functions, classes = reach.enumerate_functions(FIXTURE)
    empty = reach.Trace(called=set(), classes=set(), imported={"m.py"})
    assert not reach.module_reached(functions, classes, set(), "m.py", empty)
    assert reach.module_reached(functions, classes, {6}, "m.py", empty)
    # A class named by code that ran counts, even with no method called,
    # but only in the module that defines it.
    named = reach.Trace(called=set(), classes={("m.py", "Tag")}, imported=set())
    assert reach.module_reached(functions, classes, set(), "m.py", named)
    assert not reach.module_reached(functions, classes, set(), "n.py", named)
    # A module with no function is reached once imported.
    assert reach.module_reached([], set(), set(), "m.py", empty)
    assert not reach.module_reached([], set(), set(), "other.py", empty)


def _load(path, name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_class_names_resolve_to_the_defining_module(reach, tmp_path, monkeypatch):
    # Two modules define a class of the same name; code that names one of
    # them reaches only that module, whether it names the class directly
    # or as an attribute of the imported module.
    shared = "class Config:\n    size = 1\n"
    (tmp_path / "used.py").write_text(shared)
    (tmp_path / "dead.py").write_text(shared + "\n\ndef never():\n    return 0\n")
    (tmp_path / "caller.py").write_text(
        "import reach_used\n"
        "from reach_used import Config\n\n\n"
        "def direct():\n    return Config.size\n\n\n"
        "def through_module():\n    return reach_used.Config.size\n"
    )
    _load(tmp_path / "used.py", "reach_used", monkeypatch)
    _load(tmp_path / "dead.py", "reach_dead", monkeypatch)
    caller = _load(tmp_path / "caller.py", "reach_caller", monkeypatch)
    used = str((tmp_path / "used.py").resolve())
    dead = str((tmp_path / "dead.py").resolve())
    for function in (caller.direct, caller.through_module):
        assert reach.named_classes(function.__code__, vars(caller)) == {
            (used, "Config")
        }
    trace = reach.Trace(
        called=set(),
        classes=reach.named_classes(caller.direct.__code__, vars(caller)),
        imported={used, dead},
    )
    functions, classes = reach.enumerate_functions((tmp_path / "dead.py").read_text())
    assert not reach.module_reached(functions, classes, set(), dead, trace)
    functions, classes = reach.enumerate_functions((tmp_path / "used.py").read_text())
    assert reach.module_reached(functions, classes, set(), used, trace)


# -- the allowlist rule ---------------------------------------------------------

RULE_FIXTURE = '''\
def used():
    return 1


def unused():
    return 2


def listed():
    return 3
'''


@pytest.fixture
def probed(reach, tmp_path, monkeypatch):
    """A fixture package of two modules, traced while calling only
    ``mod.used``; returns its scanned modules."""
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(RULE_FIXTURE)
    (package / "dead.py").write_text("def never():\n    return 0\n")
    mod = _load(package / "mod.py", "reach_rule_mod", monkeypatch)
    _load(package / "dead.py", "reach_rule_dead", monkeypatch)
    trace = reach.trace_calls([("used", mod.used)], io.StringIO(), root=str(package))
    return reach.scan(trace, root=str(package))


LISTED = {
    "mod.py:unused": "reason",
    "mod.py:listed": "reason",
    "dead.py": "reason",
}


def test_listed_unreached_functions_pass(reach, probed):
    assert reach.problems(probed, LISTED) == []
    assert reach.report(probed, LISTED) == 0


def test_unlisted_unreached_function_fails(reach, probed):
    allowed = {k: v for k, v in LISTED.items() if k != "mod.py:unused"}
    assert reach.problems(probed, allowed) == [
        "UNREACHED mod.py:unused: not on the allowlist"
    ]
    assert reach.report(probed, allowed) == 1


def test_unlisted_dead_module_fails(reach, probed):
    allowed = {k: v for k, v in LISTED.items() if k != "dead.py"}
    assert reach.problems(probed, allowed) == [
        "UNREACHED module dead.py: not on the allowlist",
        "UNREACHED dead.py:never: not on the allowlist",
    ]


def test_listed_function_that_ran_fails(reach, probed):
    allowed = {**LISTED, "mod.py:used": "reason"}
    assert reach.problems(probed, allowed) == ["STALE mod.py:used: it ran"]


def test_listed_name_that_no_longer_exists_fails(reach, probed):
    allowed = {**LISTED, "mod.py:deleted": "reason", "gone.py": "reason"}
    assert reach.problems(probed, allowed) == [
        "STALE gone.py: no such module",
        "STALE mod.py:deleted: no such function",
    ]


def test_listed_module_that_is_reached_fails(reach, probed):
    allowed = {**LISTED, "mod.py": "reason"}
    assert reach.problems(probed, allowed) == [
        "STALE mod.py: the module is reached; list its functions"
    ]


def test_committed_allowlist_gives_every_entry_a_reason(reach):
    for key, reason in reach.ALLOWED.items():
        assert reason.strip(), key
        assert key.count(":") <= 1 and key.split(":")[0].endswith(".py"), key
