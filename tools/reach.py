#!/usr/bin/env python3
"""Reachability probe: which function bodies under ``src/repro`` do the
entry points never call?

    python tools/reach.py

Runs every entry point listed in :func:`entry_points` in this process,
under a call-only ``sys.settrace`` hook (the hook returns ``None``, so no
line events; ``repro bench`` installs its own ``sys.setprofile`` counter,
which a trace hook survives).  It then enumerates every function and
method under ``src/repro`` from the AST and prints, per module, the body
lines of the functions no entry point called, followed by their names.
A function nested inside an unreached function is counted once, inside
its parent.

Exit status is 1 if a whole module under ``src/repro`` is unreached (see
:func:`module_reached`), apart from :data:`ALLOWED`.  Standard library
only, so it runs wherever the simulator does; worker processes
(``--jobs 2``) are not traced, only the parent side of the parallel
runner.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import inspect
import io
import os
import runpy
import sys
import tempfile
import time
import types
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
HOSTBENCH = os.path.join(ROOT, "hostbench")
EXAMPLES = os.path.join(ROOT, "examples")

#: Modules no entry point reaches yet, each owned by a ROADMAP item.
ALLOWED = {
    # ROADMAP item 4: the fuzzer's poison/scrub op family will run it.
    "ras/scrub.py",
    # ROADMAP item 4: deleted once the fuzzer's dedup ops replace it.
    "dedup/selftest.py",
    # ROADMAP item 3: cluster-scale points will gate on audit_federation.
    "check/cluster.py",
}


@dataclass(frozen=True)
class Function:
    """One ``def`` in a source file."""

    qualname: str
    #: The code object's ``co_firstlineno``: the first decorator's line,
    #: else the ``def`` line.
    first_line: int
    #: Lines from the first body statement to the end of the function.
    body_lines: int
    #: ``first_line`` of the enclosing function, or None at class/module level.
    parent: int | None


def _is_abstract(node) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )


def enumerate_functions(source: str) -> tuple:
    """``(functions, classes)`` defined in ``source``: every function and
    method with a body to run, outermost first, and the names of the
    top-level classes.  Abstract methods have no body to run, and a
    ``# pragma: no cover`` on the ``def`` line excludes the function here
    as it does from coverage."""
    found = []
    source_lines = source.splitlines()

    def visit(node, prefix: str, parent) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if (_is_abstract(child)
                        or "pragma: no cover" in source_lines[child.lineno - 1]):
                    continue
                lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                first = min(lines)
                qualname = f"{prefix}{child.name}"
                found.append(Function(
                    qualname=qualname,
                    first_line=first,
                    body_lines=child.end_lineno - child.body[0].lineno + 1,
                    parent=parent,
                ))
                visit(child, f"{qualname}.", first)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", parent)
            else:
                visit(child, prefix, parent)

    tree = ast.parse(source)
    visit(tree, "", None)
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    return found, classes


def unreached(functions: list, called: set) -> list:
    """The functions whose ``first_line`` is not in ``called``, leaving out
    those nested inside another unreached function."""
    missing = {f.first_line for f in functions if f.first_line not in called}
    return [
        f for f in functions
        if f.first_line in missing and f.parent not in missing
    ]


@dataclass
class Trace:
    """What the entry points ran."""

    #: (path, co_firstlineno) of every function code object that ran.
    called: set
    #: (path, name) of every class those functions name, with the path of
    #: the module that defines it (see :func:`named_classes`).
    classes: set
    #: Paths of the modules imported by the end of the run.
    imported: set


def _defining_file(cls: type):
    module = sys.modules.get(cls.__module__)
    filename = getattr(module, "__file__", None)
    return os.path.realpath(filename) if filename else None


def named_classes(code, namespace: dict) -> set:
    """``(path, name)`` of the classes ``code`` names, resolved through
    ``namespace``, the globals it runs with: a global bound to a class,
    or an attribute of a global bound to a module (``tiering.LruPolicy``).
    ``path`` is the file of the module that defines the class, so two
    modules' classes of the same name stay apart.  Module attributes are
    read from the module's ``__dict__``, so no module ``__getattr__`` (a
    lazy import, a deprecation warning) runs."""
    found = set()
    for name in code.co_names:
        value = namespace.get(name)
        if isinstance(value, types.ModuleType):
            candidates = [vars(value).get(attr) for attr in code.co_names]
        else:
            candidates = [value]
        for candidate in candidates:
            if isinstance(candidate, type):
                path = _defining_file(candidate)
                if path:
                    found.add((path, candidate.__qualname__))
    return found


def module_reached(functions: list, classes: set, lines: set, path: str,
                   trace: Trace) -> bool:
    """A module is reached if one of its functions ran, a function that
    ran names one of its classes (a class used only for its attributes,
    like a tiering policy, has no method to call), or it defines no
    function and was imported."""
    if any(f.first_line in lines for f in functions):
        return True
    if any((path, name) in trace.classes for name in classes):
        return True
    return not functions and path in trace.imported


# -- entry points --------------------------------------------------------------


def _repro(*argv: str):
    def run() -> None:
        from repro.__main__ import main

        status = main(list(argv))
        if status != 0:
            raise SystemExit(f"repro {' '.join(argv)} exited {status}")

    return " ".join(argv), run


def _hostbench(workload: str, seed: int = 42):
    def run() -> None:
        if HOSTBENCH not in sys.path:
            sys.path.insert(0, HOSTBENCH)
        from workloads import WORKLOADS

        from repro.bench import results_digest

        episode = WORKLOADS[workload](seed)
        with episode.scope():
            episode.setup()
            episode.run_ops()
            problems = episode.audit()
            results_digest(episode.results())
            episode.counters()
        if episode.error or problems:
            raise SystemExit(f"hostbench {workload}: {episode.error or problems}")

    return f"hostbench {workload} --seed {seed}", run


def _example(filename: str):
    def run() -> None:
        path = os.path.join(EXAMPLES, filename)
        argv = sys.argv
        sys.argv = [path]
        try:
            runpy.run_path(path, run_name="__main__")
        finally:
            sys.argv = argv

    return f"examples/{filename}", run


def entry_points(scratch: str) -> list:
    """(label, callable) for every entry point the probe runs."""
    from repro.experiments import REGISTRY

    points = [_repro("run", name, "--quick") for name in REGISTRY]
    points += [
        _repro("run", "fig7", "--quick", "--jobs", "2"),
        _repro("run", "fig7", "--check"),
        _repro("check"),
        _repro("run", "fig6", "--trace", os.path.join(scratch, "trace.json"),
               "--jsonl", os.path.join(scratch, "trace.jsonl")),
        _repro("report"),
        _repro("bench", "--quick", "fig7"),
        _repro("bench", "--check-sync"),
        _repro("list"),
    ]
    points += [_hostbench(w) for w in ("serve", "coldfork", "seal")]
    points += [_example(f) for f in sorted(os.listdir(EXAMPLES))
               if f.endswith(".py")]
    return points


def trace_calls(points: list, log) -> Trace:
    """Run every entry point under the call hook."""
    prefix = os.path.realpath(PACKAGE) + os.sep
    trace = Trace(called=set(), classes=set(), imported=set())
    # Keyed by identity: code objects compare equal across files when
    # their name, line and bytecode match.
    seen = {}

    def tracer(frame, event, arg):  # noqa: ARG001 - trace signature
        code = frame.f_code
        if id(code) in seen:
            return
        seen[id(code)] = code
        path = os.path.realpath(code.co_filename)
        # Module and class bodies run at import; only function code
        # (CO_NEWLOCALS) counts as reached.
        if path.startswith(prefix) and code.co_flags & inspect.CO_NEWLOCALS:
            trace.called.add((path, code.co_firstlineno))
            trace.classes.update(named_classes(code, frame.f_globals))

    for label, run in points:
        started = time.perf_counter()
        sys.settrace(tracer)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                run()
        finally:
            sys.settrace(None)
        print(f"  ran {label} ({time.perf_counter() - started:.1f} s)", file=log)
    for module in list(sys.modules.values()):
        filename = getattr(module, "__file__", None)
        if filename:
            trace.imported.add(os.path.realpath(filename))
    return trace


def report(trace: Trace) -> int:
    """Print unreached lines per module; return the exit status."""
    total = 0
    dead_modules = []
    rows = []
    root = os.path.realpath(PACKAGE)
    for directory, _, files in sorted(os.walk(root)):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            module = os.path.relpath(path, root)
            with open(path) as handle:
                functions, classes = enumerate_functions(handle.read())
            lines = {line for p, line in trace.called if p == path}
            if not module_reached(functions, classes, lines, path, trace):
                dead_modules.append(module)
            missing = unreached(functions, lines)
            count = sum(f.body_lines for f in missing)
            total += count
            if count:
                rows.append((module, count, missing))
    width = max((len(module) for module, _, _ in rows), default=10)
    for module, count, missing in rows:
        print(f"{module:<{width}}  {count:>5}")
        for f in missing:
            print(f"    {f.qualname} ({f.body_lines})")
    print(f"{'total unreached lines':<{width}}  {total:>5}")
    for module in dead_modules:
        tag = "allowed" if module in ALLOWED else "UNREACHED"
        print(f"{tag}: whole module {module}")
    return 1 if set(dead_modules) - ALLOWED else 0


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory() as scratch:
        trace = trace_calls(entry_points(scratch), sys.stderr)
    return report(trace)


if __name__ == "__main__":
    sys.exit(main())
