"""Structured output: versioned key-value text reports, CSV tables, JSON.

The text format is line-oriented: a version line, then ``key value``
pairs in insertion order; lists render as an indented ``- item`` block.
Floats are written with ``repr`` so equal inputs produce byte-identical
output.
"""

from __future__ import annotations

import json

import numpy as np

__all__ = ["render_report", "render_json", "table_to_csv"]

REPORT_HEADER = "nsmml-report 1"


def _fmt_scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _render_into(lines: list[str], data: dict, indent: str) -> None:
    for key, value in data.items():
        if isinstance(value, dict):
            lines.append(f"{indent}{key}:")
            _render_into(lines, value, indent + "  ")
        elif isinstance(value, (list, tuple, np.ndarray)):
            lines.append(f"{indent}{key}:")
            for item in value:
                lines.append(f"{indent}  - {_fmt_scalar(item)}")
        else:
            lines.append(f"{indent}{key} {_fmt_scalar(value)}")


def render_report(kind: str, data: dict) -> str:
    """Render a report dictionary as versioned structured text."""
    lines = [REPORT_HEADER, f"kind {kind}"]
    _render_into(lines, data, "")
    return "\n".join(lines) + "\n"


def render_json(kind: str, data: dict) -> str:
    """Render the same report as a JSON object (deterministic layout)."""
    return json.dumps({"report": kind, **data}, indent=2, default=lambda value: value.tolist()) + "\n"


def table_to_csv(header: list[str], rows: list[list]) -> str:
    """Small CSV writer: values are formatted with repr for floats and must
    not contain commas (all our tables are numeric or enum-valued)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else _fmt_scalar(v) for v in row))
    return "\n".join(lines) + "\n"
