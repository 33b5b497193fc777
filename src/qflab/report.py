"""The one record of a named verdict, and the suite that renders a list
of them; a leaf module, so that qseries, regularity and verify share it."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """A named check, its verdict and, when there is one, a witness or
    an observation in `detail`."""
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    name: str
    lines: list[Check]
    data: dict | None = None

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def to_text(self) -> str:
        rows = [f"== {self.name} =="]
        for line in self.lines:
            mark = "PASS" if line.passed else "FAIL"
            detail = f"  {line.detail}" if line.detail else ""
            rows.append(f"[{mark}] {line.name}{detail}")
        rows.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(rows)

    def to_json(self) -> str:
        return json.dumps({
            "suite": self.name,
            "verdict": "pass" if self.passed else "fail",
            "checks": [{"name": l.name,
                        "verdict": "pass" if l.passed else "fail",
                        "detail": l.detail} for l in self.lines],
        }, indent=2)

    def csv_rows(self) -> list[list]:
        return [[self.name, l.name, "pass" if l.passed else "fail", l.detail]
                for l in self.lines]
