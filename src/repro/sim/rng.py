"""Deterministic random-number streams.

Every stochastic component (trace generator, access-pattern sampler,
scheduler tie-breaks) draws from its own named stream so that adding a new
consumer never perturbs existing ones.  All streams derive from a single
experiment seed.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive_seed(root_seed: int, name: str) -> int:
    """Stable 64-bit seed derived from a root seed and a stream name."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """A named, seeded wrapper over :class:`numpy.random.Generator`."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self._gen = np.random.default_rng(seed)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._gen.uniform(low, high))

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``."""
        return int(self._gen.integers(low, high))

    def exponential(self, scale: float) -> float:
        return float(self._gen.exponential(scale))

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStream(name={self.name!r}, seed={self.seed})"


class SeedSequenceFactory:
    """Hands out independent :class:`RngStream` objects by name.

    Streams are memoized: asking twice for the same name returns the same
    stream object, so interleaved consumers see one coherent sequence.
    """

    def __init__(self, root_seed: int = 0) -> None:
        self.root_seed = int(root_seed)
        self._streams: dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = RngStream(name, _derive_seed(self.root_seed, name))
        self._streams[name] = stream
        return stream

