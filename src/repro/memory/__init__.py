"""Memory accounting for the Table 5 / Figure 6 / Table 4 studies: the memory read of a workload spec."""

from .tracker import (
    MB,
    MemoryBreakdown,
    max_local_batch_size,
    memory_breakdown,
    optimizer_state_multiplier,
    overhead_bytes,
    paper_factor_bytes,
    paper_layout_bytes,
)

__all__ = [
    "MB", "MemoryBreakdown", "max_local_batch_size", "memory_breakdown", "optimizer_state_multiplier",
    "overhead_bytes", "paper_factor_bytes", "paper_layout_bytes",
]
