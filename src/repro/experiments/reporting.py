"""Table rendering and the shared ``BENCH_*.json`` writer for the benchmark harness.

Every benchmark emits its numbers through :func:`write_bench_json`, which
wraps the benchmark-specific payload in a versioned envelope::

    {
      "schema_version": 1,
      "name": "comm_fusion",
      "run": { ... platform / toggle metadata, no git required ... },
      "metrics": { ... optional repro.observability.MetricsReport dump ... },
      "data": { ... the benchmark's own payload, unchanged ... }
    }

so downstream consumers can detect format changes (bump
:data:`BENCH_SCHEMA_VERSION` whenever the envelope changes shape) and every
file records the environment toggles it ran under without shelling out to
``git``.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "format_table",
    "format_markdown_table",
    "ascii_curve",
    "BENCH_SCHEMA_VERSION",
    "bench_run_metadata",
    "write_bench_json",
]

#: Version of the BENCH_*.json envelope written by :func:`write_bench_json`.
BENCH_SCHEMA_VERSION = 1

#: Environment toggles recorded in every benchmark file (reproducibility).
_RECORDED_TOGGLES = (
    "REPRO_TRACE",
    "REPRO_SANITIZE",
)


def bench_run_metadata() -> Dict[str, Any]:
    """Machine/toggle metadata stamped into benchmark files (no git required)."""
    import numpy

    return {
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "argv0": Path(sys.argv[0]).name if sys.argv else "",
        "env": {name: os.environ.get(name, "") for name in _RECORDED_TOGGLES},
    }


def write_bench_json(
    path,
    name: str,
    data: Dict[str, Any],
    metrics: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write one benchmark's results in the versioned BENCH envelope.

    ``data`` is the benchmark-specific payload (stored verbatim under
    ``"data"``); ``metrics`` is an optional aggregated-metrics block —
    typically ``MetricsReport.to_dict()`` from a traced run.
    """
    document = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "name": str(name),
        "run": bench_run_metadata(),
        "metrics": metrics or {},
        "data": data,
    }
    path = Path(path)
    path.write_text(json.dumps(document, indent=2, sort_keys=False))
    return path


def _stringify(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence], title: Optional[str] = None) -> str:
    """Render an aligned plain-text table."""
    str_rows = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a GitHub-flavoured markdown table."""
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_stringify(cell) for cell in row) + " |")
    return "\n".join(lines)


def ascii_curve(values: Sequence[float], width: int = 60, height: int = 10, label: str = "") -> str:
    """Tiny ASCII line plot for validation-metric curves in benchmark output."""
    if not values:
        return f"{label}(empty curve)"
    lo, hi = min(values), max(values)
    span = hi - lo if hi > lo else 1.0
    columns = min(width, len(values))
    # Resample to the plot width.
    indices = [int(round(i * (len(values) - 1) / max(columns - 1, 1))) for i in range(columns)]
    sampled = [values[i] for i in indices]
    rows = []
    for level in range(height, -1, -1):
        threshold = lo + span * level / height
        row = "".join("*" if value >= threshold else " " for value in sampled)
        rows.append(f"{threshold:8.3f} |{row}")
    header = f"{label}  (min={lo:.3f}, max={hi:.3f})"
    return "\n".join([header] + rows)
