"""Shared result type for identity checks.

A check can *pass*, *fail*, or come back *inconclusive*.  Inconclusive is
reserved for comparisons whose guaranteed-exact region was empty or smaller
than requested; it is never conflated with failure.
"""

from __future__ import annotations

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"

# mismatches a report lists before it is cut with "..."
MAX_REPORTED = 6


class CheckReport:
    """The verdict of one check: its status, the number of cases checked,
    the region they cover, and the failure and note lines."""

    __slots__ = ("name", "status", "checked", "region", "failures", "notes")

    def __init__(self, name: str, status: str, checked: int = 0,
                 region: str = "", failures: list[str] | None = None,
                 notes: list[str] | None = None):
        if status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"bad status {status!r}")
        if status == PASS and failures:
            raise ValueError("a passing report cannot carry failures")
        self.name = name
        self.status = status
        self.checked = checked
        self.region = region
        self.failures = [] if failures is None else failures
        self.notes = [] if notes is None else notes

    @property
    def ok(self) -> bool:
        return self.status == PASS


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


def _mismatch(got, want) -> str:
    """``got != want``; two vectors name their first differing monomial."""
    if hasattr(got, "terms"):
        for m in sorted(got.terms.keys() | want.terms.keys()):
            a, b = got.terms.get(m, 0), want.terms.get(m, 0)
            if a != b:
                return f"{m}: {a} != {b}"
    return f"{got} != {want}"


def scan(cases) -> tuple[list[str], int]:
    """Compare ``(label, got, want)`` cases in order by ``==``.

    Returns the failure lines ``label: got != want`` and the number of
    cases scanned.  The mismatch after the first ``MAX_REPORTED`` appends
    ``...`` and ends the scan, so the count stops there.
    """
    failures: list[str] = []
    scanned = 0
    for label, got, want in cases:
        scanned += 1
        if got == want:
            continue
        if len(failures) == MAX_REPORTED:
            failures.append("...")
            break
        failures.append(f"{label}: {_mismatch(got, want)}")
    return failures, scanned


def tally(name: str, region: str, cases) -> CheckReport:
    """The verdict on ``(label, got, want)`` cases: fail on a mismatch,
    pass when every case agrees, inconclusive when there is no case."""
    failures, checked = scan(cases)
    if failures:
        status = FAIL
    elif checked:
        status = PASS
    else:
        status = INCONCLUSIVE
    return CheckReport(name, status, checked=checked, region=region,
                       failures=failures,
                       notes=[] if checked else
                       ["no coefficient inside the window"])
