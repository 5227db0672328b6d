"""The invocation execution engine.

Running one invocation of a function against a (possibly just-restored)
process consists of:

1. **Touching the working set** — for each planned segment, a deterministic
   subset (the segment's ``touch_frac``) of pages is accessed; reads for
   INIT/READ_ONLY segments, writes for READ_WRITE.  The whole segment table
   goes to the kernel in one ``access_range`` call, which resolves warm
   re-touches in one vectorized pass and drives the fault path (CoW
   migrations, MoA copies, file faults, leaf CoW) for the rest.
2. **Charging memory-access time** — first touches of pages whose data was
   not just copied (copies land in cache) miss the hardware caches and pay
   the tier's latency; re-references miss according to the working-set
   capacity model and pay the latency of whichever tier each page resides
   on after step 1.  This is where CXL-resident read-only data costs time.
3. **Compute** — the function's fixed CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro.faas.profiles import MemoryPlan, SegmentRole
from repro.os.kernel import FaultStats
from repro.os.proc.task import Task
from repro.sim.units import PAGE_SIZE


@dataclass
class InvocationResult:
    """Timing and behaviour of one invocation."""

    wall_ns: float = 0.0
    compute_ns: float = 0.0
    fault_ns: float = 0.0
    access_ns: float = 0.0
    fault_stats: FaultStats = field(default_factory=FaultStats)
    touched_pages: int = 0
    touched_local: int = 0
    touched_cxl: int = 0
    first_touch_misses: int = 0
    reaccess_misses: int = 0

    @property
    def cxl_fraction(self) -> float:
        total = self.touched_local + self.touched_cxl
        return self.touched_cxl / total if total else 0.0


#: Share of each invocation's working set that is the same every time (the
#: hot core A-bit tiering predicts); the rest is an input-dependent tail
#: that rotates with the invocation index.
STABLE_CORE_FRAC = 0.8
#: The tail rotates within a window this many times the tail size, so the
#: union of pages touched across many invocations stays bounded (Fig. 1:
#: most Init pages are *never* read in 128 invocations).
TAIL_WINDOW_FACTOR = 4


@lru_cache(maxsize=4096)
def _mask_core(npages: int, count: int, stable_frac: float):
    """Cached per-(segment, fraction) pieces: the stable-core mask and the
    tail window (positions the rotating tail draws from)."""
    mask = np.zeros(npages, dtype=bool)
    core = int(round(count * stable_frac))
    if core > 0:
        mask[np.linspace(0, npages - 1, core).astype(np.int64)] = True
    tail = count - int(np.count_nonzero(mask))
    window = np.empty(0, dtype=np.int64)
    if tail > 0:
        remaining = np.nonzero(~mask)[0]
        window = remaining[: min(remaining.size, tail * TAIL_WINDOW_FACTOR)]
    mask.setflags(write=False)
    window.setflags(write=False)
    return mask, tail, window


def touch_mask(
    npages: int,
    frac: float,
    invocation_index: int = 0,
    stable_frac: float = STABLE_CORE_FRAC,
) -> np.ndarray:
    """A deterministic boolean mask selecting ~``frac`` of ``npages``.

    ``stable_frac`` of the selection is identical across invocations (the
    hot working set the checkpointed A bits capture); the remainder rotates
    deterministically with ``invocation_index`` (each request's different
    input — the paper invokes each function "with a different input in each
    request", §2.2).

    The returned mask is **read-only**: it is a pure function of its
    arguments and cached, because scaled-out experiments replay the same
    few (segment, fraction, index) triples thousands of times across
    instances of the same function.
    """
    if npages <= 0:
        return np.zeros(0, dtype=bool)
    count = min(int(round(npages * frac)), npages)
    if count == 0:
        return np.zeros(npages, dtype=bool)
    return _touch_mask_cached(npages, count, invocation_index, stable_frac)


@lru_cache(maxsize=512)
def _touch_mask_cached(
    npages: int, count: int, invocation_index: int, stable_frac: float
) -> np.ndarray:
    core_mask, tail, window = _mask_core(npages, count, stable_frac)
    mask = core_mask.copy()
    n = window.size
    if tail > 0 and n > 0:
        # A coprime stride makes the picks a permutation prefix, so any two
        # invocations overlap only partially (different inputs share some
        # but not all of their tails).
        step = 1 + 2 * (invocation_index % 8)
        while _gcd(step, n) != 1:
            step += 2
        start = (invocation_index * 2654435761) % n
        picks = window[(start + np.arange(min(tail, n)) * step) % n]
        mask[picks] = True
    mask.setflags(write=False)
    return mask


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


class InvocationEngine:
    """Executes invocations on the simulated kernel + cache."""

    def run(
        self, task: Task, plan: MemoryPlan, invocation_index: int = 0
    ) -> InvocationResult:
        spec = plan.spec
        node = task.node
        kernel = task.kernel
        latency = node.fabric.latency
        result = InvocationResult()

        # Pass 1: drive faults / page-state transitions with one kernel
        # entry for the plan's whole segment table.
        starts, sizes, writes, masks = [], [], [], []
        for seg in plan.segments:
            if not seg.placed:
                raise ValueError(f"segment {seg.label!r} was never placed")
            starts.append(seg.start_vpn)
            sizes.append(seg.npages)
            writes.append(seg.role is SegmentRole.READ_WRITE)
            masks.append(touch_mask(seg.npages, seg.touch_frac, invocation_index))
        stats = kernel.access_range(
            task, starts, sizes, write=writes, touched_mask=masks
        )
        result.fault_stats = stats
        result.fault_ns = stats.cost_ns

        # Pass 2: memory-access time from the post-fault page placement,
        # per segment, from access_range's per-row placement tallies.
        result.touched_pages = stats.touched
        result.touched_local = stats.touched_local
        result.touched_cxl = stats.touched_cxl
        ws_bytes = stats.touched * PAGE_SIZE
        miss_frac = node.cache.rereference_miss_fraction(ws_bytes)

        # Shared-fabric contention inflates effective CXL access latency
        # (1.0 on an idle fabric; see repro.cxl.bandwidth).
        contention = node.fabric.contention_factor()
        n_cxl = stats.rows_touched_cxl
        n_touched = stats.rows_touched_local + n_cxl

        # First touches: pages just copied by a fault are cache-warm.
        cold_first = np.maximum(0, n_touched - stats.rows_warmed)
        frac_cxl = np.divide(
            n_cxl, n_touched, out=np.zeros(n_touched.size), where=n_touched > 0
        )
        ft_cxl = cold_first * frac_cxl
        ft_local = cold_first - ft_cxl
        result.first_touch_misses = int(cold_first.sum())

        # Re-references miss per the cache capacity model.
        reaccesses = n_touched * spec.reaccess_per_page
        re_misses = reaccesses * miss_frac
        re_cxl = re_misses * frac_cxl
        re_local = re_misses - re_cxl
        result.reaccess_misses = int(re_misses.astype(np.int64).sum())

        # Accumulate left to right in segment order, CXL term before local
        # term, as a scalar loop would: cumsum is sequential where sum is
        # pairwise, and the float total feeds the virtual clock.
        terms = np.empty(2 * n_touched.size)
        terms[0::2] = (ft_cxl + re_cxl) * latency.access_ns(cxl=True) * contention
        terms[1::2] = (ft_local + re_local) * latency.access_ns(cxl=False)
        access_ns = float(np.cumsum(terms)[-1]) if terms.size else 0.0

        result.access_ns = access_ns
        result.compute_ns = spec.compute_ns
        node.clock.advance(access_ns + result.compute_ns)
        result.wall_ns = result.fault_ns + result.access_ns + result.compute_ns
        return result


__all__ = ["InvocationEngine", "InvocationResult", "touch_mask"]
