#!/usr/bin/env python3
"""Reachability probe: which function bodies under ``src/repro`` do the
entry points never call?

    python tools/reach.py

Runs every entry point listed in :func:`entry_points` in this process,
under a call-only ``sys.settrace`` hook (the hook returns ``None``, so no
line events).  It then enumerates every function and method under
``src/repro`` from the AST and prints, per module, the body lines of the
functions no entry point called, each with its reason from
:data:`ALLOWED`.  A function nested inside an unreached function is
counted once, inside its parent.

Exit status is 1 (see :func:`problems`) when

* an unreached function is not on :data:`ALLOWED`, nor is its module;
* an entry of :data:`ALLOWED` names a function that ran or no longer
  exists, or a module that is reached or no longer exists;
* a whole module is unreached (see :func:`module_reached`) and not listed.

So unreached code cannot grow back unexplained, and an entry goes once
its code is reached or deleted.  Standard library only, so it runs
wherever the simulator does; worker processes (``--jobs 2``) are not
traced, only the parent side of the parallel runner.
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

#: Code no entry point reaches, each with the one-line reason it stays.
#: Keys are ``"module:qualname"``, or ``"module"`` for a whole module, with
#: the module named by its path under ``src/repro`` as the report prints it.
#: Reasons fall in a few kinds: code a ROADMAP item owns; error handlers
#: and reclaim paths a call can return into; checkers and reports; pickling
#: hooks; references and inspection helpers that tests check other code
#: with; and paths only ``benchmarks/`` or modes the probe cannot run reach.
ALLOWED = {
    # -- whole modules owned by a ROADMAP item
    "ras/scrub.py": "ROADMAP item 4: the fuzzer's poison/scrub op family will run it",
    "dedup/selftest.py": "ROADMAP item 4: deleted once the fuzzer's dedup ops replace it",
    # -- ROADMAP item 4: the fuzzer's poison/dedup/replicate lifecycle
    "cluster/router.py:ClusterRouter._reroute":
        "ROADMAP item 4: the porter drop hook the replicate ops will reach",
    "cluster/router.py:ClusterRouter._image_holder":
        "ROADMAP item 4: pull-on-miss from a peer pod; quick shapes prewarm every pod",
    "cxl/allocator.py:FrameAllocator.clear_poison": "ROADMAP item 4: the poison lifecycle",
    "dedup/chunkindex.py:ChunkIndex.release": "ROADMAP item 4: the index after a checkpoint delete",
    "dedup/chunkindex.py:ChunkIndex.repoint": "ROADMAP item 4: the index after a checkpoint delete",
    "dedup/chunkindex.py:ChunkIndex.frame_codes":
        "ROADMAP item 4: a re-seal's inheritance of an earlier checkpoint's codes",
    "dedup/chunkindex.py:ChunkIndex.wrong_frame_for":
        "ROADMAP item 4: the alias-wrong-chunk mutation's arm, run by dedup/selftest.py",
    "dedup/seal.py:ChunkInterner.abort": "ROADMAP item 4: a seal cut short",
    "faults/injector.py:FaultInjector.poison_at": "ROADMAP item 4: timed poison",
    "faults/injector.py:FaultInjector.poison_allocated": "ROADMAP item 4: timed poison's frame pick",
    # -- error handlers and reclaim paths
    "cluster/router.py:ClusterRouter._resubmit":
        "error handler: a pod that failed between routing and delivery",
    "cluster/router.py:ClusterRouter._record_lost":
        "error handler: a request no live pod can take",
    "cxl/allocator.py:OutOfMemoryError.__init__": "error: a pool that cannot satisfy an allocation",
    "faults/recovery.py:RetryExhaustedError.__init__": "error: retries that all failed",
    "faults/recovery.py:RetryPolicy.delay_ns": "error handler: the retry arms' back-off",
    "sim/rng.py:RngStream.uniform": "error handler: the retry back-off's jitter draw",
    "porter/autoscaler.py:CxlPorter._execute_cold": "error handler: cold start when no image is usable",
    "porter/autoscaler.py:CxlPorter._retry_later": "error handler: a start that got no memory",
    "porter/autoscaler.py:CxlPorter._resubmit": "error handler: the memory-retry arm",
    "porter/autoscaler.py:CxlPorter._drop": "error handler: a request out of retries",
    "porter/autoscaler.py:CxlPorter._evict_idle_frames": "reclaim path: the node's DRAM ran short",
    "porter/autoscaler.py:CxlPorter._cxl_reclaim": "reclaim path: the CXL device ran short",
    "porter/objectstore.py:CheckpointObjectStore.reclaim": "reclaim path: the CXL device ran short",
    "porter/objectstore.py:_resident_bytes": "reclaim path: bytes a reclaimed image frees",
    "os/mm/reclaim.py:MemoryReclaimer.reclaim": "reclaim path: the node's DRAM ran short",
    "os/pagecache.py:PageCache.files": "reclaim path: the page-cache scan order",
    "os/pagecache.py:PageCache.drop_file": "reclaim path: evicts one cached file",
    "parallel/points.py:SweepPoint.label": "error handler: names the point a worker exception came from",
    "os/kernel.py:Kernel._privatize_pte_leaf":
        "fault path: a row that faults on a still-shared leaf (ROADMAP item 8)",
    "tiering/mow.py:MigrateOnWrite.select_copy_on_read":
        "fault path: a read fault under attached leaves, which the prefetch fills first",
    # -- checkers and reports: they run when a check fails
    "check/__init__.py:Checker.fail": "checker: a failed check",
    "check/cluster.py:FederationAudit.describe": "checker report: an unclean federation audit",
    "check/fuzz.py:ScenarioResult.ok": "checker: the fuzzer's verdict, read by tests",
    "check/fuzz.py:_MechanismRun.crash_bystander": "checker: a fuzzer op the probe's seed does not draw",
    "check/invariants.py:InvariantViolation.describe": "checker report: a violation",
    "check/invariants.py:InvariantReport.add": "checker: records a violation",
    "check/invariants.py:InvariantReport.describe": "checker report: violations",
    "check/oracle.py:_decode": "checker report: a divergent page's content",
    "check/oracle.py:Divergence.describe": "checker report: a divergence",
    "check/oracle.py:DivergenceReport.first": "checker report: the first divergence",
    "check/oracle.py:DivergenceReport.describe": "checker report: divergences",
    "cxl/allocator.py:LeakReport.describe": "checker report: a leak",
    "faults/audit.py:PodAudit.describe": "checker report: an unclean pod audit",
    "os/mm/vma.py:VmaTree.check_invariants": "checker: the VMA tree's index invariants",
    # -- pickling hooks: exceptions raised in a --jobs worker
    "exceptions.py:PoisonError.__reduce__": "pickling hook: crosses a worker boundary",
    "cxl/allocator.py:OutOfMemoryError.__reduce__": "pickling hook: crosses a worker boundary",
    "faults/recovery.py:RetryExhaustedError.__reduce__": "pickling hook: crosses a worker boundary",
    "telemetry/tracer.py:Span.__reduce__":
        "pickling hook: a traced worker's spans; workers are not traced",
    # -- references tests check other code against
    "cluster/replication.py:encode_image":
        "reference: tests check encode(materialize(encode)) is bit-identical with it",
    "ras/checksum.py:verify_checkpoint": "reference: the unplanned verify that plan verdicts match",
    "os/mm/pte.py:make_pte": "reference: scalar PTE helper the vectorized paths are tested against",
    "os/mm/pte.py:pte_frame": "reference: scalar PTE helper the vectorized paths are tested against",
    "os/mm/pte.py:pte_flags": "reference: scalar PTE helper the vectorized paths are tested against",
    "os/mm/pte.py:pte_has": "reference: scalar PTE helper the vectorized paths are tested against",
    "os/mm/pte.py:ptes_frames": "reference: array PTE helper tests decode tables with",
    "os/mm/pte.py:ptes_any_flag": "reference: array PTE helper tests decode tables with",
    "os/mm/pte.py:ptes_set_flags": "reference: array PTE helper tests build tables with",
    "os/proc/regs.py:RegisterFile.__eq__": "reference: tests compare a restored task's registers",
    # -- inspection helpers tests check other behaviour with
    "check/fuzz.py:scenario_strategy": "test helper: the property tests' Hypothesis scenarios",
    "check/oracle.py:AddressSpaceView.total_pages": "test helper: checks a snapshot covers every page",
    "cluster/membership.py:PodHandle.fail": "test helper: fails a whole pod to drive router failover",
    "cluster/replication.py:DeltaStats.bytes_saved": "test helper: checks delta shipping saved bytes",
    "cxl/bandwidth.py:BandwidthTracker.unregister_stream":
        "test helper: drives the running total's exact re-sum",
    "cxl/fabric.py:CxlFabric.used_bytes": "test helper: reads the fabric's usage",
    "dedup/chunkindex.py:ChunkIndex.__len__": "test helper: reads the index size",
    "dedup/chunkindex.py:ChunkIndex.code_of": "test helper: reads a frame's code",
    "dedup/chunkindex.py:ChunkIndex.sharer_count": "test helper: reads a frame's sharers",
    "faas/slo.py:SloTracker.sample_count": "test helper: checks the sliding window",
    "os/kernel.py:FaultStats.count": "test helper: reads one fault kind's count",
    "os/pagecache.py:PageCache.cached_pages": "test helper: reads one file's cached pages",
    "os/pagecache.py:PageCache.total_cached_pages": "test helper: reads the cache's size",
    "os/fs/cxlfs.py:CxlFile.npages": "test helper: reads a written file's size",
    "os/fs/cxlfs.py:CxlFileSystem.__len__": "test helper: reads the file count",
    "os/fs/vfs.py:SharedRootFs.lookup": "test helper: checks create and path normalization",
    "os/fs/vfs.py:SharedRootFs.exists": "test helper: checks path normalization",
    "os/mm/mmdesc.py:MemoryDescriptor.find_vma": "test helper: checks a fork copied its VMAs",
    "os/mm/pagetable.py:PageTable.get_pte": "test helper: reads one PTE",
    "os/mm/pagetable.py:PageTable.set_pte": "test helper: writes one PTE",
    "os/mm/pagetable.py:PageTable.count_flag": "test helper: counts PTEs with a flag",
    "os/mm/pagetable.py:PageTable.shared_leaf_count": "test helper: counts attached leaves",
    "os/mm/vma.py:VmaTree.total_pages": "test helper: reads the tree's mapped pages",
    "os/mm/vma.py:VmaTree.local_leaf_count": "test helper: counts local VMA leaves",
    "os/mm/vma.py:VmaTree.shared_leaf_count": "test helper: counts CXL-resident VMA leaves",
    "os/proc/cgroup.py:Cgroup.charged_bytes": "test helper: reads a cgroup's charge",
    "os/proc/fdtable.py:FdTable.__len__": "test helper: reads the open-file count",
    "os/proc/fdtable.py:FdTable.entries": "test helper: reads the open files",
    "os/proc/namespaces.py:MountNamespace.mount": "test helper: builds a namespace to snapshot",
    "porter/ghostpool.py:GhostContainerPool.free_count": "test helper: reads the free ghosts",
    "porter/ghostpool.py:GhostContainerPool.total_count": "test helper: reads the ghost count",
    "porter/objectstore.py:CheckpointObjectStore.__len__": "test helper: reads the stored images",
    "porter/tiering_controller.py:TieringController.is_promoted": "test helper: reads a promotion",
    "serial/rebase.py:Rebaser.resolve": "test helper: dereferences a rebased pointer",
    "sim/events.py:EventQueue.run": "test helper: drives a queue to completion",
    "sim/events.py:EventQueue.__len__": "test helper: reads the pending events",
    "sim/rng.py:RngStream.integers": "test helper: checks stream determinism",
    "tiering/hotness.py:count_access_bits": "test helper: counts harvested A bits",
    "telemetry/breakdown.py:Breakdown.group": "test helper: one span name's phase rows",
    "telemetry/breakdown.py:Breakdown.total_ns": "test helper: the traced total",
    "telemetry/breakdown.py:SpanGroup.attributed_ns": "test helper: checks phases tile the parent",
    "telemetry/breakdown.py:PhaseRow.mean_ns": "test helper: one phase's mean",
    "runtime.py:Switch.enable": "test helper: arms a switch",
    "runtime.py:Switch.reset": "test helper: clears a switch's state and counts",
    # -- paths the probe's entry points cannot run
    "bench.py:BenchResult.to_entry": "bench --update writes baselines; the probe rewrites none",
    "bench.py:write_baseline": "bench --update writes baselines; the probe rewrites none",
    "runtime.py:Switch.disable":
        "bench --plan-off; the probe keeps restore plans on for the entry points after it",
    "runtime.py:Switch.summary": "hostbench/run.py reads it; the probe runs the workloads, not run.py",
    "parallel/executor.py:default_jobs": "--jobs 0 picks one worker per CPU; the probe runs --jobs 2",
    "rfork/cxlfork.py:CxlFork._sync_prefetch_hot": "ablation-only: benchmarks/ reaches it",
    "faas/container.py:Container.destroy":
        "releases a criu-cxl porter's full container; no entry point runs one",
    # -- protocol methods: callers reach them through the shared interface
    "cxl/allocator.py:RefCounts.__getitem__":
        "protocol: Mapping reads; tests compare refcount snapshots as dicts",
    "cxl/allocator.py:RefCounts.__iter__":
        "protocol: Mapping reads; tests compare refcount snapshots as dicts",
    "cxl/allocator.py:RefCounts.__len__":
        "protocol: hostbench's ledger counts audited frames with len()",
    "rfork/localfork.py:LocalFork.checkpoint":
        "protocol: the parent is its own checkpoint, so experiments restore from it directly",
    "rfork/localfork.py:LocalFork.delete_checkpoint":
        "protocol: the parent is its own checkpoint, so nothing deletes it",
    "rfork/coldstart.py:ColdImage.delete": "protocol: the object store deletes images through it",
    "rfork/mitosis.py:MitosisCheckpoint.cxl_bytes":
        "protocol: the object store's reclaim reads every image's CXL bytes",
    "telemetry/tracer.py:_NoopSpan.add_phase":
        "protocol: the disabled tracer's null span mirrors Span.add_phase",
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
        _repro("run", "fig7", "--quick",
               "--trace", os.path.join(scratch, "trace-fig7.json"),
               "--jsonl", os.path.join(scratch, "trace-fig7.jsonl")),
        _repro("report"),
        _repro("bench", "--quick", "fig7"),
        _repro("list"),
    ]
    points += [_hostbench(w) for w in ("serve", "coldfork", "seal")]
    points += [_example(f) for f in sorted(os.listdir(EXAMPLES))
               if f.endswith(".py")]
    return points


def trace_calls(points: list, log, root: str = PACKAGE) -> Trace:
    """Run every entry point under the call hook, recording the functions
    under ``root`` that ran."""
    prefix = os.path.realpath(root) + os.sep
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


@dataclass
class Module:
    """One source file under the package, and what of it ran."""

    #: Path relative to the package root, as :data:`ALLOWED` names it.
    name: str
    functions: list
    #: The unreached functions, outermost only (see :func:`unreached`).
    missing: list
    #: ``first_line`` of every function of this module that ran.
    ran: set
    reached: bool


def scan(trace: Trace, root: str = PACKAGE) -> list:
    """Every module under ``root`` with what of it the trace ran."""
    root = os.path.realpath(root)
    modules = []
    for directory, _, files in sorted(os.walk(root)):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            with open(path) as handle:
                functions, classes = enumerate_functions(handle.read())
            ran = {line for p, line in trace.called if p == path}
            modules.append(Module(
                name=os.path.relpath(path, root),
                functions=functions,
                missing=unreached(functions, ran),
                ran=ran,
                reached=module_reached(functions, classes, ran, path, trace),
            ))
    return modules


def problems(modules: list, allowed: dict) -> list:
    """What fails the probe: unreached code not on ``allowed``, and entries
    of ``allowed`` that name code that ran or no longer exists."""
    found = []
    by_name = {m.name: m for m in modules}
    for module in modules:
        if module.name in allowed:
            continue
        if not module.reached:
            found.append(f"UNREACHED module {module.name}: not on the allowlist")
        for f in module.missing:
            if f"{module.name}:{f.qualname}" not in allowed:
                found.append(f"UNREACHED {module.name}:{f.qualname}: not on the allowlist")
    for key in sorted(allowed):
        name, _, qualname = key.partition(":")
        module = by_name.get(name)
        if module is None:
            found.append(f"STALE {key}: no such module")
        elif not qualname:
            if module.reached:
                found.append(f"STALE {key}: the module is reached; list its functions")
        else:
            function = next(
                (f for f in module.functions if f.qualname == qualname), None
            )
            if function is None:
                found.append(f"STALE {key}: no such function")
            elif function.first_line in module.ran:
                found.append(f"STALE {key}: it ran")
    return found


def report(modules: list, allowed: dict) -> int:
    """Print unreached lines per module, each function with its reason,
    then what fails the probe; return the exit status."""
    rows = [
        (m, sum(f.body_lines for f in m.missing)) for m in modules if m.missing
    ]
    width = max((len(m.name) for m, _ in rows), default=10)
    for module, count in rows:
        print(f"{module.name:<{width}}  {count:>5}")
        whole = allowed.get(module.name)
        for f in module.missing:
            reason = whole or allowed.get(f"{module.name}:{f.qualname}", "NOT LISTED")
            print(f"    {f.qualname} ({f.body_lines}): {reason}")
    total = sum(count for _, count in rows)
    print(f"{'total unreached lines':<{width}}  {total:>5}")
    found = problems(modules, allowed)
    for message in found:
        print(message)
    return 1 if found else 0


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.path.insert(0, SRC)
    with tempfile.TemporaryDirectory() as scratch:
        trace = trace_calls(entry_points(scratch), sys.stderr)
    return report(scan(trace), ALLOWED)


if __name__ == "__main__":
    sys.exit(main())
