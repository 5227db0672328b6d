"""tools/reach.py: the AST enumerator and the unreached-module rule.

Runs no experiment; the probe itself runs in CI's check-smoke job.
"""

import importlib.util
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
