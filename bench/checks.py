"""Output checks for the benchmark: audit, reference totals and step logs.

Every serial allocation is audited with ``nomadas.audit.audit_result``
outside the timed region. For the default seed the totals and greedy step
logs are also compared with the committed reference (``reference.json``);
for any other seed the audit alone applies and the output says so. Pooled
harness records, which carry no state to audit, are compared with a serial
twin run and, for the default seed, with the reference.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
TOTAL_RTOL = 1e-10
MAX_MESSAGES = 20


def log_digest(state) -> str:
    """Digest of the step log as (phase, user, subcarrier, accepted)."""
    h = hashlib.sha256()
    for step in state.log:
        h.update(f"{step.phase},{step.user},{step.subcarrier},"
                 f"{int(step.accepted)};".encode())
    return h.hexdigest()[:16]


def drop_reference(results) -> dict:
    """Reference entry of one drop: algorithm -> [total, log digest]."""
    return {res.algorithm: [res.total_power_w, log_digest(res.state)]
            for res in results}


def record_row(rec) -> list:
    """The comparable fields of one harness TrialRecord."""
    return [rec.algorithm, rec.trial, rec.seed, rec.total_power_w,
            rec.nonmux_sc, rec.mutsic_sc, rec.singsic_sc, rec.failed]


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def totals_match(got: float, want: float, rtol: float = TOTAL_RTOL) -> bool:
    """Equal within ``rtol`` relative; two NaNs (failed trials) match."""
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return abs(got - want) <= rtol * abs(want)


def rows_match(row, want, rtol: float) -> bool:
    """Harness rows agree: totals within ``rtol``, the rest exactly."""
    return row[:3] + row[4:] == want[:3] + want[4:] \
        and totals_match(row[3], want[3], rtol)


class Checker:
    """Tallies attempted, failed and mismatched allocations of one run.

    ``reference`` is this workload's entry of reference.json, or None when
    the seed has no reference. ``audit_result`` is looked up on the audit
    module at every call so a traced run reaches its wrapper.
    """

    def __init__(self, audit_module, reference=None):
        self.audit_module = audit_module
        self.reference = reference
        self.attempted = 0
        self.failed = 0          # raised, harness-failed or audit violation
        self.mismatched = 0      # differs from its reference
        self.rejected = 0        # allocations with either problem
        self.ref_checked = 0
        self.warnings = 0
        self.messages = []

    def _tally(self, where: str, problems: list, compared: bool,
               mismatch: str = "") -> None:
        self.attempted += 1
        self.ref_checked += compared
        if problems:
            self.failed += 1
        if mismatch:
            self.mismatched += 1
            problems = problems + [mismatch]
        if problems:
            self.rejected += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(f"{where}: {'; '.join(problems)}")

    def check_drop(self, drop: int, algorithms, results) -> None:
        """Audit one serial drop and compare it with the reference."""
        ref = None
        if self.reference is not None and drop < len(self.reference["drops"]):
            ref = self.reference["drops"][drop]
        for alg, res in zip(algorithms, results):
            where = f"drop {drop} {alg}"
            if isinstance(res, Exception):
                self._tally(where, [f"raised {res!r}"], False)
                continue
            self.warnings += len(res.warnings)
            violations = self.audit_module.audit_result(res)
            problems = [f"audit {violations[:3]}"] if violations else []
            mismatch = ""
            if ref is not None:
                want = ref.get(alg)
                if want is None or not totals_match(res.total_power_w,
                                                    want[0]) \
                        or log_digest(res.state) != want[1]:
                    mismatch = (f"differs from reference "
                                f"({res.total_power_w!r} vs {want})")
            self._tally(where, problems, ref is not None, mismatch)

    def check_rows(self, rows, twin_rows, reference_rows=None) -> None:
        """Check pooled harness rows (see record_row).

        The first len(twin_rows) rows must equal the rows of the serial
        twin run exactly; with a committed reference, every row must match
        it, totals within TOTAL_RTOL and every other field exactly.
        """
        for i, row in enumerate(rows):
            problems = ["harness marked the trial failed"] if row[7] else []
            diffs = []
            if i < len(twin_rows) and not rows_match(row, twin_rows[i], 0.0):
                diffs.append(f"differs from the serial twin {twin_rows[i]}")
            if reference_rows is not None and (
                    i >= len(reference_rows)
                    or not rows_match(row, reference_rows[i], TOTAL_RTOL)):
                diffs.append("differs from the reference")
            self._tally(f"trial {row[1]} {row[0]}", problems,
                        i < len(twin_rows) or reference_rows is not None,
                        "; ".join(diffs))
        if reference_rows is not None and len(rows) != len(reference_rows):
            self._tally("records", [], True,
                        f"{len(rows)} rows, reference has "
                        f"{len(reference_rows)}")

    def summary(self) -> dict:
        n = max(self.attempted, 1)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "mismatched": self.mismatched,
            "rejected": self.rejected,
            "fail_frac": {"value": self.failed / n, "unit": "ratio"},
            "ref_mismatch_frac": {"value": self.mismatched / n,
                                  "unit": "ratio"},
            "reference": ("committed reference compared"
                          if self.reference is not None
                          else "no committed reference for this seed: "
                               "audit only"),
            "ref_checked": self.ref_checked,
            "warnings": self.warnings,
            "messages": self.messages,
        }
