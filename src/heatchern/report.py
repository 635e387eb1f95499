"""Check records and byte-stable report serialization.

Records are sorted by check name; floats are rendered with 17
significant digits so identical inputs always produce identical bytes.
Each record carries its check's kind, and the text summary counts the
records by kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["KINDS", "CheckRecord", "Report", "emit"]

KINDS = ("two-route", "closed-form", "bound")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if hasattr(value, "to_text"):   # the canonical form of an algebra element
        return value.to_text()
    return str(value)


@dataclass
class CheckRecord:
    name: str
    inputs: str
    kind: str
    expected: object
    observed: object
    tolerance: object
    passed: bool

    def row(self) -> dict:
        return {
            "name": self.name,
            "inputs": self.inputs,
            "kind": self.kind,
            "expected": _fmt(self.expected),
            "observed": _fmt(self.observed),
            "tolerance": _fmt(self.tolerance),
            "passed": self.passed,
        }


@dataclass
class Report:
    suite: str
    seed: int
    records: list = field(default_factory=list)

    def add(self, record: CheckRecord):
        self.records.append(record)

    def sorted_records(self) -> list:
        return sorted(self.records, key=lambda r: r.name)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def emit(report: Report, fmt: str) -> str:
    """Serialized report; identical reports give identical strings."""
    if fmt == "json":
        doc = {
            "suite": report.suite,
            "seed": report.seed,
            "passed": report.passed,
            "records": [r.row() for r in report.sorted_records()],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        columns = ("name", "inputs", "kind", "expected", "observed",
                   "tolerance", "passed")
        lines = [",".join(columns)]
        for r in report.sorted_records():
            row = r.row()
            lines.append(",".join(_csv_cell(row[k]) for k in columns))
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [f"suite: {report.suite} (seed {report.seed})"]
        for r in report.sorted_records():
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"[{status}] {r.name}: expected {_fmt(r.expected)}, "
                         f"observed {_fmt(r.observed)} "
                         f"(tol {_fmt(r.tolerance)}) [{r.inputs}]")
        records = report.records
        ok = sum(r.passed for r in records)
        kinds = ", ".join(f"{sum(r.kind == k for r in records)} {k}"
                          for k in KINDS)
        verdict = "PASS" if report.passed else "FAIL"
        lines.append(f"summary: {verdict} ({ok} passed, "
                     f"{len(records) - ok} failed: {kinds})")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _csv_cell(value) -> str:
    s = _fmt(value)
    if any(ch in s for ch in ",\"\n"):
        s = '"' + s.replace('"', '""') + '"'
    return s
