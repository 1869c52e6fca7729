"""Deterministic report rendering: plain tables, CSV, or JSON.

Every rational quantity is shown both as an exact fraction and as a decimal
rounded half-even at the configured precision, so published two-decimal
tables and exact values can be compared side by side.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Cell = Union[str, int, Fraction]

TABLE = "table"
CSV = "csv"
JSON = "json"
FORMATS = (TABLE, CSV, JSON)

MAX_PRECISION = 1000  # decimal digits a report may ask for


def decimal_str(x: Fraction, digits: int) -> str:
    scaled = round(x * 10 ** digits)  # Fraction rounds half to even
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


def coalition_label(members: Iterable[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(members)) + "}"


def partition_label(partition) -> str:
    return "|".join(coalition_label(block) for block in partition)


@dataclass
class Section:
    title: str
    columns: Optional[Sequence[str]] = None
    rows: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    def add_row(self, *cells: Cell):
        self.rows.append(list(cells))

    def add_line(self, text: str):
        self.lines.append(text)


@dataclass
class Report:
    sections: list = field(default_factory=list)

    def section(self, title: str, columns: Optional[Sequence[str]] = None) -> Section:
        sec = Section(title=title, columns=columns)
        self.sections.append(sec)
        return sec

    def render(self, fmt: str, precision: int) -> str:
        if fmt == TABLE:
            return _render_table(self, precision)
        if fmt == CSV:
            return _render_csv(self, precision)
        if fmt == JSON:
            return _render_json(self, precision)
        raise ValueError(f"unknown format {fmt!r}; choose one of {', '.join(FORMATS)}")


def _cell(cell: Cell, precision: int) -> tuple[str, str, str]:
    """(text, exact, decimal) of a cell: a number is ("", exact, decimal),
    anything else (text, "", "")."""
    if isinstance(cell, (Fraction, int)):
        frac = Fraction(cell)
        return "", str(frac), decimal_str(frac, precision)
    return str(cell), "", ""


def _render_table(report: Report, precision: int) -> str:
    out = []
    for sec in report.sections:
        out.append(f"== {sec.title} ==")
        if sec.columns:
            grid = [list(sec.columns)]
            for row in sec.rows:
                grid.append([f"{exact} ({decimal})" if exact else text
                             for text, exact, decimal in (_cell(c, precision) for c in row)])
            widths = [max(len(r[k]) for r in grid) for k in range(len(sec.columns))]
            for idx, row in enumerate(grid):
                out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
                if idx == 0:
                    out.append("  ".join("-" * w for w in widths))
        out.extend(sec.lines)
        out.append("")
    return "\n".join(out).rstrip("\n") + "\n"


def _render_csv(report: Report, precision: int) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["section", "row", "field", "value", "exact", "decimal"])
    for sec in report.sections:
        if sec.columns:
            for r, row in enumerate(sec.rows):
                for name, cell in zip(sec.columns, row):
                    writer.writerow([sec.title, r, name, *_cell(cell, precision)])
        for r, line in enumerate(sec.lines):
            writer.writerow([sec.title, r, "note", line, "", ""])
    return buffer.getvalue()


def _render_json(report: Report, precision: int) -> str:
    payload = []
    for sec in report.sections:
        entry: dict = {"title": sec.title}
        if sec.columns:
            rows = []
            for row in sec.rows:
                obj = {}
                for name, cell in zip(sec.columns, row):
                    text, exact, decimal = _cell(cell, precision)
                    obj[name] = {"exact": exact, "decimal": decimal} if exact else text
                rows.append(obj)
            entry["columns"] = list(sec.columns)
            entry["rows"] = rows
        if sec.lines:
            entry["notes"] = list(sec.lines)
        payload.append(entry)
    return json.dumps({"sections": payload}, indent=2) + "\n"
