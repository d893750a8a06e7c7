"""Shared result type for identity checks.

A check can *pass*, *fail*, or come back *inconclusive*.  Inconclusive is
reserved for comparisons whose guaranteed-exact region was empty or smaller
than requested; it is never conflated with failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class CheckReport:
    name: str
    status: str
    checked: int = 0
    region: str = ""
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"bad status {self.status!r}")
        if self.status == PASS and self.failures:
            raise ValueError("a passing report cannot carry failures")

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def summary(self) -> str:
        head = f"{self.name}: {self.status.upper()}"
        if self.region:
            head += f" [{self.region}]"
        if self.checked:
            head += f" ({self.checked} coefficients)"
        return head


def combine(name: str, parts: list[CheckReport]) -> CheckReport:
    """Fold sub-reports: fail dominates, then inconclusive, then pass."""
    status = PASS
    failures: list[str] = []
    notes: list[str] = []
    checked = 0
    for p in parts:
        checked += p.checked
        failures.extend(f"{p.name}: {f}" for f in p.failures)
        notes.extend(f"{p.name}: {n}" for n in p.notes)
        if p.status == FAIL:
            status = FAIL
        elif p.status == INCONCLUSIVE and status != FAIL:
            status = INCONCLUSIVE
    return CheckReport(name=name, status=status, checked=checked,
                       failures=failures, notes=notes)
