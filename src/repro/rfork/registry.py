"""Mechanism registry: build any remote-fork mechanism by name."""

from __future__ import annotations

from typing import Optional

from repro.cxl.fabric import CxlFabric
from repro.os.fs.cxlfs import CxlFileSystem
from repro.rfork.coldstart import Builder, ColdStart
from repro.rfork.criu import CriuCxl
from repro.rfork.cxlfork import CxlFork
from repro.rfork.localfork import LocalFork
from repro.rfork.mitosis import MitosisCxl

#: The remote-fork mechanisms evaluated in Fig. 7, plus the baselines.
MECHANISMS = ("cxlfork", "criu-cxl", "mitosis-cxl", "localfork", "cold")


def get_mechanism(
    name: str,
    *,
    fabric: Optional[CxlFabric] = None,
    cxlfs: Optional[CxlFileSystem] = None,
    builder: Optional[Builder] = None,
):
    """Instantiate a mechanism by name.

    CRIU-CXL needs the shared in-CXL file system (created on demand from
    ``fabric`` if not supplied); cold start needs a function ``builder``.
    """
    if name == "cxlfork":
        return CxlFork()
    if name == "criu-cxl":
        if cxlfs is None:
            if fabric is None:
                raise ValueError("criu-cxl needs cxlfs or fabric")
            cxlfs = CxlFileSystem(fabric)
        return CriuCxl(cxlfs)
    if name == "mitosis-cxl":
        return MitosisCxl()
    if name == "localfork":
        return LocalFork()
    if name == "cold":
        if builder is None:
            raise ValueError("cold start needs a function builder")
        return ColdStart(builder)
    raise ValueError(f"unknown mechanism {name!r}; choose from {MECHANISMS}")


__all__ = ["MECHANISMS", "get_mechanism"]
