"""Control groups — reconfigurable state.

Cgroup membership is never checkpointed: a restored process joins the
cgroup of the (ghost) container it is restored into (§4.2).  We model just
enough to account container memory limits in the CXLporter experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class Cgroup:
    """A memory/cpu control group."""

    name: str
    memory_limit_bytes: Optional[int] = None
    cpu_quota: Optional[float] = None
    parent: Optional["Cgroup"] = None
    _charged_bytes: int = 0

    @property
    def charged_bytes(self) -> int:
        return self._charged_bytes

    def charge(self, nbytes: int) -> bool:
        """Charge memory; returns False if the limit would be exceeded."""
        if nbytes < 0:
            raise ValueError(f"negative charge: {nbytes}")
        if (
            self.memory_limit_bytes is not None
            and self._charged_bytes + nbytes > self.memory_limit_bytes
        ):
            return False
        self._charged_bytes += nbytes
        if self.parent is not None:
            self.parent.charge(nbytes)
        return True

    def uncharge(self, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError(f"negative uncharge: {nbytes}")
        self._charged_bytes = max(0, self._charged_bytes - nbytes)
        if self.parent is not None:
            self.parent.uncharge(nbytes)


__all__ = ["Cgroup"]
