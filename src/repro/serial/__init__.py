"""Serialization: the protobuf-like codec, checkpoint records, CXL-resident
heap, and pointer rebasing.

CRIU-CXL serializes *everything* through :mod:`repro.serial.codec`;
Mitosis-CXL serializes the OS state only; CXLfork serializes only the small
"global state" (file paths, mounts, pid namespace) and *rebases* the rest
in place (:mod:`repro.serial.rebase`).
"""

from repro.serial.blob import CxlHeap
from repro.serial.codec import Codec, CodecCostModel, decode, encode
from repro.serial.rebase import CxlOffset, RebaseError, Rebaser
from repro.serial.records import (
    FdRecord,
    MmRecord,
    NamespaceRecord,
    PagemapRecord,
    RegsRecord,
    TaskRecord,
    VmaRecord,
    task_to_records,
)

__all__ = [
    "CxlHeap",
    "Codec",
    "CodecCostModel",
    "encode",
    "decode",
    "CxlOffset",
    "Rebaser",
    "RebaseError",
    "FdRecord",
    "MmRecord",
    "NamespaceRecord",
    "PagemapRecord",
    "RegsRecord",
    "TaskRecord",
    "VmaRecord",
    "task_to_records",
]
