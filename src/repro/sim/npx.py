"""Vectorized numpy extras shared by the simulator hot paths.

The checkpoint scans used to call ``np.isin(window, haystack)`` once per
page-table leaf — tens of thousands of calls per experiment, each paying
``np.isin``'s sort-and-merge over the whole haystack.  Every haystack we
build (skip lists of clean file pages, per-VMA vpn runs) is already sorted
and unique, so membership is a single ``np.searchsorted`` and range counts
are two binary searches.
"""

from __future__ import annotations

import numpy as np


def ensure_sorted(values: np.ndarray) -> np.ndarray:
    """Return ``values`` sorted ascending (no copy when already sorted)."""
    values = np.asarray(values)
    if values.size <= 1 or bool(np.all(values[1:] >= values[:-1])):
        return values
    return np.sort(values)


def mask_in_range(sorted_haystack: np.ndarray, start: int, length: int) -> np.ndarray:
    """Boolean mask over ``[start, start+length)`` marking vpns present in
    ``sorted_haystack``.

    Instead of testing all ``length`` positions against the haystack, it
    bisects the two window bounds and scatters the (typically few)
    haystack hits — O(log n + hits), no range array.
    """
    mask = np.zeros(length, dtype=bool)
    if sorted_haystack.size == 0 or length <= 0:
        return mask
    lo, hi = np.searchsorted(sorted_haystack, (start, start + length))
    if hi > lo:
        mask[sorted_haystack[lo:hi] - start] = True
    return mask


def count_in_range(sorted_haystack: np.ndarray, start: int, stop: int) -> int:
    """How many elements of ``sorted_haystack`` fall in ``[start, stop)``.

    For a contiguous run of vpns this replaces
    ``np.count_nonzero(np.isin(np.arange(start, stop), haystack))`` —
    assuming the haystack holds no duplicates inside the range — with two
    binary searches and no materialized range array.
    """
    if sorted_haystack.size == 0 or stop <= start:
        return 0
    lo, hi = np.searchsorted(sorted_haystack, (start, stop))
    return int(hi - lo)


__all__ = ["ensure_sorted", "mask_in_range", "count_in_range"]
