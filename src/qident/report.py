"""Structured pass/fail/skip reporting shared by all identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIP = "skip"


@dataclass
class CheckResult:
    """Outcome of one indexed comparison inside a report.

    ``lhs_value``/``rhs_value`` keep the compared objects themselves (they
    are immutable), so a passed comparison can be re-verified later, e.g.
    numerically; the string fields are filled only on failure, for reports.
    """

    index: dict
    status: str
    lhs_value: object = None
    rhs_value: object = None
    lhs: str | None = None
    rhs: str | None = None
    reason: str | None = None


@dataclass
class VerificationReport:
    """Aggregated outcome of one identity checked over an index range.

    The report passes iff no individual comparison failed; skipped entries
    (degenerate randomized parameters) are counted but do not fail it.
    """

    identity: str
    params: dict = field(default_factory=dict)
    results: list[CheckResult] = field(default_factory=list)

    def record(self, index: dict, lhs, rhs) -> bool:
        ok = lhs == rhs
        self.results.append(
            CheckResult(
                index=index,
                status=PASS if ok else FAIL,
                lhs_value=lhs,
                rhs_value=rhs,
                lhs=None if ok else str(lhs),
                rhs=None if ok else str(rhs),
            )
        )
        return ok

    def record_skip(self, index: dict, reason: str) -> None:
        self.results.append(CheckResult(index=index, status=SKIP, reason=reason))

    @property
    def passed(self) -> bool:
        return all(r.status != FAIL for r in self.results)

    @property
    def n_checked(self) -> int:
        return sum(1 for r in self.results if r.status != SKIP)

    @property
    def n_skipped(self) -> int:
        return sum(1 for r in self.results if r.status == SKIP)

    @property
    def first_failure(self) -> CheckResult | None:
        for r in self.results:
            if r.status == FAIL:
                return r
        return None

    def to_json_dict(self) -> dict:
        fail = self.first_failure
        counterexample = None
        if fail is not None:
            counterexample = {"index": fail.index, "lhs": fail.lhs, "rhs": fail.rhs}
        return {
            "identity": self.identity,
            "params": self.params,
            "pass": self.passed,
            "checked": self.n_checked,
            "skipped": self.n_skipped,
            "counterexample": counterexample,
        }

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" skipped={self.n_skipped}" if self.n_skipped else ""
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        head = f"{self.identity} {params}".strip()
        line = f"{head}: {status} (checked={self.n_checked}{extra})"
        fail = self.first_failure
        if fail is not None:
            line += f"\n  first failure at {fail.index}: lhs={fail.lhs} rhs={fail.rhs}"
        return line
