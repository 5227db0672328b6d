"""The evaluation functions (Table 1) and their behavioural parameters.

Footprints and descriptions are the paper's (Table 1: FunctionBench CPU &
memory functions plus HTML/BFS/Bert from FaaSMem).  The behavioural
parameters — segment split, working-set fractions, re-access rates, init
latencies — are *synthetic calibrations*: the paper reports only aggregate
properties (Fig. 1: Init 72.2%, Read-only 23%, Read/Write 4.8% on average;
Fig. 6: state init 250-500 ms; §7.1: only BFS and Bert have working sets
exceeding the 64 MB L3), so per-function values are chosen to reproduce
those aggregates and the qualitative per-function behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.units import MIB, MS, bytes_to_pages


@dataclass(frozen=True)
class FunctionSpec:
    """One serverless function: size, layout fractions, behaviour."""

    name: str
    description: str
    footprint_mb: int
    #: Footprint split (sums to 1.0): initialization-only data, data only
    #: read during invocations, data written during invocations (Fig. 1).
    init_frac: float
    ro_frac: float
    rw_frac: float
    #: Fraction of the init segment that is file-backed (runtime + library
    #: images); the rest is anonymous (parsed configs, model weights, JIT).
    file_frac_of_init: float
    #: Cold-start state initialization latency (Fig. 6: 250-500 ms).
    state_init_ms: float
    #: Pure compute per invocation (no memory-system time).
    compute_ms: float
    #: Mean re-accesses per touched page per invocation (beyond first touch).
    reaccess_per_page: float
    #: Fraction of each segment touched per invocation.
    init_touch_frac: float
    ro_touch_frac: float
    rw_touch_frac: float
    #: Number of private file mappings (Python deps => hundreds of VMAs).
    lib_vma_count: int
    #: Open file descriptors the function holds.
    fd_count: int

    def __post_init__(self) -> None:
        total = self.init_frac + self.ro_frac + self.rw_frac
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: segment fractions sum to {total}, not 1")
        for field_name in ("init_touch_frac", "ro_touch_frac", "rw_touch_frac",
                           "file_frac_of_init"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{self.name}: {field_name}={value} outside [0, 1]")
        if self.footprint_mb <= 0:
            raise ValueError(f"{self.name}: footprint must be positive")

    @property
    def footprint_bytes(self) -> int:
        return self.footprint_mb * MIB

    @property
    def footprint_pages(self) -> int:
        return bytes_to_pages(self.footprint_bytes)

    @property
    def state_init_ns(self) -> float:
        return self.state_init_ms * MS

    @property
    def compute_ns(self) -> float:
        return self.compute_ms * MS


def _spec(name, desc, mb, init, rw, file_init, init_ms, comp_ms, reacc,
          t_init, t_ro, t_rw, libs, fds) -> FunctionSpec:
    ro = round(1.0 - init - rw, 6)
    return FunctionSpec(
        name=name,
        description=desc,
        footprint_mb=mb,
        init_frac=init,
        ro_frac=ro,
        rw_frac=rw,
        file_frac_of_init=file_init,
        state_init_ms=init_ms,
        compute_ms=comp_ms,
        reaccess_per_page=reacc,
        init_touch_frac=t_init,
        ro_touch_frac=t_ro,
        rw_touch_frac=t_rw,
        lib_vma_count=libs,
        fd_count=fds,
    )


#: The ten functions of Table 1.
TABLE1: tuple = (
    _spec("float", "Sin, Cos, and Sqrt on floats", 24,
          0.80, 0.05, 0.35, 250.0, 4.0, 3.0, 0.06, 0.70, 0.90, 120, 12),
    _spec("linpack", "Linear algebra solver for matrices", 33,
          0.72, 0.06, 0.32, 260.0, 25.0, 8.0, 0.06, 0.75, 0.95, 130, 12),
    _spec("json", "JSON serialization & deserialization", 24,
          0.74, 0.05, 0.35, 250.0, 7.0, 3.0, 0.06, 0.70, 0.90, 125, 14),
    _spec("pyaes", "Python AES encryption of a string", 24,
          0.78, 0.04, 0.35, 255.0, 12.0, 4.0, 0.06, 0.70, 0.90, 120, 12),
    _spec("chameleon", "HTML table rendering", 27,
          0.75, 0.05, 0.33, 260.0, 9.0, 3.0, 0.07, 0.70, 0.90, 140, 16),
    _spec("html", "HTML web service", 256,
          0.82, 0.03, 0.28, 300.0, 15.0, 2.0, 0.04, 0.55, 0.90, 220, 24),
    _spec("cnn", "JPEG classification CNN", 265,
          0.75, 0.05, 0.25, 400.0, 90.0, 4.0, 0.05, 0.45, 0.90, 260, 24),
    _spec("rnn", "Generating natural language sentences", 190,
          0.85, 0.03, 0.25, 450.0, 12.0, 3.0, 0.04, 0.50, 0.90, 240, 24),
    _spec("bfs", "Breadth-first search", 125,
          0.45, 0.07, 0.22, 300.0, 45.0, 12.0, 0.08, 0.85, 0.90, 160, 16),
    _spec("bert", "BERT-based ML inference", 630,
          0.60, 0.05, 0.20, 500.0, 110.0, 5.0, 0.05, 0.85, 0.90, 320, 32),
)

_BY_NAME = {spec.name: spec for spec in TABLE1}


def get_function(name: str) -> FunctionSpec:
    """Look up a Table-1 function by name (case-insensitive)."""
    spec = _BY_NAME.get(name.lower())
    if spec is None:
        raise KeyError(f"unknown function {name!r}; known: {sorted(_BY_NAME)}")
    return spec


def function_names() -> list:
    """Table-1 function names, in table order."""
    return [spec.name for spec in TABLE1]


__all__ = ["FunctionSpec", "TABLE1", "get_function", "function_names"]
