"""CI smoke for the dedup battery: ``python -m repro.dedup.selftest``.

One fast, self-verifying scenario — two independent checkpoints of the
same function sealed dedup-on, a child restored from the second and
oracle-verified bit-identical to its parent, and the pod audited for zero
leaks and a consistent chunk-sharer census.

The smoke runs twice: clean, then with the seeded ``alias-wrong-chunk``
mutation armed, where the differential oracle must catch the wrong-chunk
alias.  Exit 0 means both passed — the dedup path works *and* its checker
detects the bug class it exists for; anything else is exit 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.check.mutation import ALIAS_WRONG_CHUNK
from repro.sim.units import GIB


def run_smoke(function: str = "float", *, verbose: bool = True) -> int:
    """The clean smoke, then the armed one; 0 only if both pass."""
    if _smoke(function, verbose=verbose):
        return 1
    with ALIAS_WRONG_CHUNK.force(True):
        return _smoke(function, verbose=verbose)


def _smoke(function: str, *, verbose: bool) -> int:
    from repro.check import CheckFailure
    from repro.check.invariants import check_pod
    from repro.check.oracle import DifferentialOracle
    from repro.dedup import DEDUP
    from repro.experiments.common import make_pod, prepare_parent
    from repro.rfork.registry import get_mechanism

    armed = ALIAS_WRONG_CHUNK.active()

    def say(message: str) -> None:
        if verbose:
            print(message)

    with DEDUP.force(True):
        pod = make_pod(node_count=2, dram_bytes=2 * GIB, cxl_bytes=16 * GIB)
        mech = get_mechanism("cxlfork", fabric=pod.fabric, cxlfs=pod.cxlfs)
        parent_a = prepare_parent(pod, function)
        parent_b = prepare_parent(pod, function, node=pod.nodes[1])
        ckpt_a, _ = mech.checkpoint(parent_a.instance.task)
        # The second seal is where cross-checkpoint hits (and the armed
        # mutation, which fires only on hits) happen.
        ckpt_b, _ = mech.checkpoint(parent_b.instance.task)

        oracle = DifferentialOracle(parent_b.instance.task)
        restored = mech.restore(ckpt_b, pod.nodes[0])
        try:
            oracle.verify_child(restored.task)
        except CheckFailure as failure:
            if armed and "wrong-chunk" in str(failure):
                say("armed alias-wrong-chunk mutation caught by the oracle:")
                say(f"  {str(failure).splitlines()[0]}")
                return 0
            print(f"oracle divergence:\n{failure}", file=sys.stderr)
            return 1
        if armed:
            print(
                "armed alias-wrong-chunk mutation was NOT caught — the "
                "oracle's chunk-code cross-check is broken",
                file=sys.stderr,
            )
            return 1

        shared = int(getattr(ckpt_b, "shared_chunk_pages", 0))
        if shared == 0:
            print(
                "no cross-checkpoint sharing: the second seal of the same "
                "function adopted zero chunks",
                file=sys.stderr,
            )
            return 1

        audit = check_pod(
            pod.fabric,
            pod.nodes,
            cxlfs=pod.cxlfs,
            checkpoints=[ckpt_a, ckpt_b],
        )
        if not audit.clean:
            print(f"pod audit failed:\n{audit.describe()}", file=sys.stderr)
            return 1

        index = pod.fabric.chunk_index
        say(
            f"dedup smoke ok: {function} sealed twice, second seal shared "
            f"{shared} page(s), index holds {len(index)} chunk(s) "
            f"({index.stats.hits} hit(s), {index.stats.misses} miss(es), "
            f"{index.stats.zero_elided} zero-elided), audit clean"
        )
        return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Dedup CI smoke: cross-checkpoint sharing + oracle "
        "verification + leak audit, then the seeded alias-wrong-chunk "
        "mutation, which the oracle must catch."
    )
    parser.add_argument("--function", default="float",
                        help="workload to seal (default: float)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the success summary")
    args = parser.parse_args(argv)
    return run_smoke(args.function, verbose=not args.quiet)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
