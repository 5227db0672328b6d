"""Outside-in per-layer host-time ledger.

The ledger wraps the public entry points of each simulator layer with a
span recorder, from the benchmark's own files: no program source changes.
A span is ``(entry, start_ns, end_ns, parent)``; spans live in flat
in-memory arrays while a traced phase runs and are summarized (and written
out) when it ends.

Self time of a span is its duration minus the time its direct child spans
cover, so the self times of all spans add up to the duration of the
top-level spans, and ``traced wall - that sum`` is the host time spent
outside every wrapped layer (``unattributed_s``).

Wrappers are bound where callers resolve the name at call time: on the
class for methods, and in every loaded module that holds a bare function
under any name.  :meth:`Ledger.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# -- the layer table -----------------------------------------------------------


def _touched(acc, args, kwargs, result) -> None:
    acc["pages_touched"] += result.touched
    acc["faults"] += result.total_faults


def _encoded(acc, args, kwargs, result) -> None:
    acc["codec_bytes"] += len(result)


def _decoded(acc, args, kwargs, result) -> None:
    acc["codec_bytes"] += len(args[0])


def _audited(acc, args, kwargs, result) -> None:
    cxl, dram = result
    acc["audit_frames"] += len(cxl) + sum(len(d) for d in dram.values())


@dataclass(frozen=True)
class Entry:
    """One wrapped public entry point."""

    layer: str
    target: str  # "module:Class.method" or "module:function"
    #: Workloads on which this entry point must record at least one call;
    #: an entry that reads idle there is an unbound wrapper, not a fast layer.
    homes: tuple
    measure: Optional[Callable] = None


def _entries(layer, module, names, homes, measures=None):
    measures = measures or {}
    return [
        Entry(layer, f"{module}:{name}", homes, measures.get(name))
        for name in names
    ]


SERVE, COLDFORK, SEAL = "serve", "coldfork", "seal"

ENTRIES: tuple = tuple(
    _entries(
        "os.kernel", "repro.os.kernel", ("Kernel.access_range",),
        (SERVE, COLDFORK), {"Kernel.access_range": _touched},
    )
    + _entries("os.kernel", "repro.os.kernel", ("Kernel.exit_task",), (COLDFORK,))
    + _entries("os.mm", "repro.os.mm.vma", ("VmaTree.find",), (SERVE, COLDFORK))
    + _entries("os.mm", "repro.os.mm.vma", ("VmaTree.insert",), (COLDFORK,))
    + _entries("os.mm", "repro.os.mm.pagetable", ("PageTable.leaf",), (SERVE,))
    + _entries(
        "os.mm", "repro.os.mm.pagetable",
        ("PageTable.leaf_or_none", "PageTable.install_leaf",
         "PageTable.attach_leaf"),
        (SERVE, COLDFORK),
    )
    + _entries(
        "os.mm", "repro.os.mm.pagetable",
        ("PageTable.ensure_leaf", "PageTable.map_range"), (COLDFORK,),
    )
    + _entries(
        "os.mm", "repro.os.mm.pagetable", ("PageTable.gather_ptes",),
        (COLDFORK, SEAL),
    )
    + _entries(
        "faas.invocation", "repro.faas.invocation", ("InvocationEngine.run",),
        (SERVE, COLDFORK),
    )
    + _entries(
        "rfork.checkpoint", "repro.rfork.cxlfork", ("CxlFork.checkpoint",),
        (COLDFORK, SEAL),
    )
    + _entries(
        "rfork.checkpoint", "repro.rfork.criu", ("CriuCxl.checkpoint",),
        (COLDFORK, SEAL),
    )
    + _entries(
        "rfork.checkpoint", "repro.rfork.mitosis", ("MitosisCxl.checkpoint",),
        (COLDFORK,),
    )
    + _entries(
        "rfork.restore", "repro.rfork.cxlfork", ("CxlFork.restore",),
        (SERVE, COLDFORK, SEAL),
    )
    + _entries(
        "rfork.restore", "repro.rfork.criu", ("CriuCxl.restore",), (COLDFORK,)
    )
    + _entries(
        "rfork.restore", "repro.rfork.mitosis", ("MitosisCxl.restore",),
        (COLDFORK,),
    )
    + _entries(
        "rfork.restoreplan", "repro.rfork.restoreplan", ("plan_for",),
        (SERVE, COLDFORK, SEAL),
    )
    + _entries(
        "serial.codec", "repro.serial.codec", ("encode", "decode"),
        (COLDFORK, SEAL), {"encode": _encoded, "decode": _decoded},
    )
    + _entries(
        "serial.codec", "repro.serial.codec", ("Codec.encode", "Codec.decode"),
        (SEAL,),
    )
    + _entries(
        "cxl.allocator", "repro.cxl.allocator",
        ("FrameAllocator.alloc_many", "FrameAllocator.put"), (COLDFORK, SEAL),
    )
    + _entries(
        "cxl.allocator", "repro.cxl.allocator",
        ("FrameAllocator.get", "FrameAllocator.snapshot_refcounts",
         "FrameAllocator.audit"),
        (SEAL,),
    )
    + _entries(
        "faults.audit", "repro.faults.audit", ("audit_pod", "expected_refcounts"),
        (SEAL,), {"expected_refcounts": _audited},
    )
    + _entries("faults.audit", "repro.check.invariants", ("check_pod",), (SEAL,))
    + _entries(
        "dedup", "repro.dedup.chunkindex",
        ("ChunkIndex.lookup", "ChunkIndex.register", "ChunkIndex.missing_codes",
         "ChunkIndex.audit"),
        (SEAL,),
    )
    + _entries(
        "dedup", "repro.dedup.seal", ("ChunkInterner.intern_leaf", "seal_codes"),
        (SEAL,),
    )
    + _entries("sim.events", "repro.sim.events", ("EventQueue.step",), (SERVE,))
    + _entries(
        "porter.autoscaler", "repro.porter.autoscaler", ("CxlPorter.submit",),
        (SERVE,),
    )
    + _entries(
        "cluster.router", "repro.cluster.router",
        ("ClusterRouter.route", "ClusterRouter.submit"), (SERVE,),
    )
    + _entries(
        "cluster.replication", "repro.cluster.replication", ("materialize",),
        (SERVE, SEAL),
    )
)

#: Layers in report order (first appearance in :data:`ENTRIES`).
LAYERS: tuple = tuple(dict.fromkeys(e.layer for e in ENTRIES))

#: Layers that report call-duration percentiles (outermost spans only).
TIMED_LAYERS = ("faas.invocation", "rfork.checkpoint", "rfork.restore")


def _resolve(target: str):
    """``(owner, name, raw)`` for a class entry, ``(None, name, fn)`` for
    a module-level function."""
    module_name, qual = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qual:
        cls_name, name = qual.split(".")
        cls = getattr(module, cls_name)
        if name not in cls.__dict__:
            raise LookupError(f"{target}: not defined on {cls_name}")
        return cls, name, cls.__dict__[name]
    return None, qual, getattr(module, qual)


# -- span recording ------------------------------------------------------------


class Ledger:
    """Wraps :data:`ENTRIES`, records spans, and folds them into layers."""

    def __init__(self) -> None:
        self.entries = ENTRIES
        self.layer_of = np.array(
            [LAYERS.index(e.layer) for e in ENTRIES], dtype=np.int64
        )
        self._bound: list = []  # (owner, name, original, wrapper)
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans and measured amounts."""
        self._entry = array("h")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._stack = [-1]
        self.amounts = {
            "pages_touched": 0, "faults": 0, "codec_bytes": 0, "audit_frames": 0,
        }

    def _wrap(self, eid: int, fn: Callable, measure: Optional[Callable]):
        entry_a, start_a, end_a = self._entry, self._start, self._end
        parent_a, stack, acc = self._parent, self._stack, self.amounts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(start_a)
            entry_a.append(eid)
            parent_a.append(stack[-1])
            end_a.append(0)
            stack.append(i)
            start_a.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[i] = clock()
                stack.pop()
            if measure is not None:
                measure(acc, args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        """Bind a span wrapper at every entry point."""
        if self._bound:
            raise RuntimeError("ledger already installed")
        self.clear()
        # Import every target module first, so no module copies a wrapper
        # by importing it halfway through.
        resolved = [_resolve(entry.target) for entry in self.entries]
        try:
            for eid, (entry, (owner, name, raw)) in enumerate(
                zip(self.entries, resolved)
            ):
                wrapper = self._wrap(eid, raw, entry.measure)
                if owner is not None:
                    setattr(owner, name, wrapper)
                    self._bound.append((owner, name, raw, wrapper))
                    continue
                for module in list(sys.modules.values()):
                    namespace = getattr(module, "__dict__", None)
                    if not namespace:
                        continue
                    for attr, value in list(namespace.items()):
                        if value is raw:
                            setattr(module, attr, wrapper)
                            self._bound.append((module, attr, raw, wrapper))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back (also where a wrapper was copied by an
        import made while the ledger was installed)."""
        bound, self._bound = self._bound, []
        # ``bound`` keeps every wrapper alive, so no id below is reused.
        originals = {id(w): raw for _, _, raw, w in bound}
        for owner, name, raw, _ in reversed(bound):
            setattr(owner, name, raw)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                raw = originals.get(id(value))
                if raw is not None:
                    setattr(module, attr, raw)

    # -- folding spans into layers ---------------------------------------------

    def spans(self) -> dict:
        """The recorded spans as numpy arrays (a copy)."""
        return {
            "entry": np.array(self._entry, dtype=np.int64),
            "start_ns": np.array(self._start, dtype=np.int64),
            "end_ns": np.array(self._end, dtype=np.int64),
            "parent": np.array(self._parent, dtype=np.int64),
        }

    def fold(self, wall_ns: int) -> "Fold":
        """Summarize the recorded spans over a traced phase of ``wall_ns``."""
        if len(self._stack) != 1:
            raise RuntimeError("fold() inside an open span")
        return Fold.of(self.spans(), self.layer_of, wall_ns, dict(self.amounts))


@dataclass
class Fold:
    """Per-layer totals of one traced phase."""

    wall_ns: int
    entry_calls: np.ndarray   # per entry
    calls: np.ndarray         # per layer
    self_ns: np.ndarray       # per layer
    min_self_ns: int
    top_ns: int               # sum of top-level span durations
    durations_us: dict        # timed layer -> outermost call durations (us)
    kernel_entries_from_invocation: int
    amounts: dict

    @classmethod
    def of(cls, spans: dict, layer_of: np.ndarray, wall_ns: int, amounts: dict):
        entry, parent = spans["entry"], spans["parent"]
        dur = spans["end_ns"] - spans["start_ns"]
        n_layers = len(LAYERS)
        layer = layer_of[entry]
        nested = parent >= 0
        # Integer nanosecond sums stay exact in float64 below 2**53 ns.
        child_ns = np.bincount(
            parent[nested], weights=dur[nested], minlength=dur.size
        ).astype(np.int64)
        self_ns = dur - child_ns
        parent_layer = np.full(dur.size, -1, dtype=np.int64)
        parent_layer[nested] = layer[parent[nested]]
        outermost = parent_layer != layer
        durations = {}
        for name in TIMED_LAYERS:
            pick = outermost & (layer == LAYERS.index(name))
            durations[name] = dur[pick] / 1e3
        kernel_from_inv = int(np.count_nonzero(
            (layer == LAYERS.index("os.kernel"))
            & (parent_layer == LAYERS.index("faas.invocation"))
        ))
        self_by_layer = np.bincount(
            layer, weights=self_ns, minlength=n_layers
        ).astype(np.int64)
        return cls(
            wall_ns=int(wall_ns),
            entry_calls=np.bincount(entry, minlength=layer_of.size),
            calls=np.bincount(layer, minlength=n_layers),
            self_ns=self_by_layer,
            min_self_ns=int(self_ns.min()) if self_ns.size else 0,
            top_ns=int(dur[~nested].sum()),
            durations_us=durations,
            kernel_entries_from_invocation=kernel_from_inv,
            amounts=amounts,
        )

    @property
    def unattributed_ns(self) -> int:
        return self.wall_ns - int(self.self_ns.sum())

    def reconcile_problems(self) -> list:
        """Ledger consistency: no negative self time, and self times plus
        the unattributed remainder add up to the traced wall within 1%."""
        problems = []
        if self.min_self_ns < 0:
            problems.append(f"a span has negative self time ({self.min_self_ns} ns)")
        total = int(self.self_ns.sum())
        if total != self.top_ns:
            problems.append(
                f"self times sum to {total} ns, top-level spans to {self.top_ns} ns"
            )
        if self.unattributed_ns < 0:
            problems.append(
                f"spans cover {total} ns, more than the traced wall "
                f"{self.wall_ns} ns"
            )
        if abs(total + self.unattributed_ns - self.wall_ns) > 0.01 * self.wall_ns:
            problems.append("self + unattributed does not reconcile to the wall")
        return problems


__all__ = ["ENTRIES", "LAYERS", "TIMED_LAYERS", "Entry", "Fold", "Ledger"]
