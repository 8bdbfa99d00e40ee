"""Certificate report containers shared by the numerical verifiers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True, eq=False)
class CertificateEntry:
    """Outcome of one numerical check.

    margin is the signed slack of the checked inequality after tolerance
    adjustment: non-negative for passing entries, non-positive for failing
    ones (zero is reserved for checks failing a strict inequality exactly,
    and for inconclusive entries, whose margin carries no information).
    witness locates the worst case found, as plain JSON-serializable data.
    """

    name: str
    status: str
    margin: float
    witness: dict = field(default_factory=dict)
    tolerance: float = 0.0

    def __post_init__(self):
        if self.status not in (PASS, FAIL, INCONCLUSIVE):
            raise ValueError(f"unknown status {self.status!r}")
        if not self.name:
            raise ValueError("entry must name its check")

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "margin": self.margin,
            "witness": self.witness,
            "tolerance": self.tolerance,
        }


def entry_from_margin(name: str, margin: float, witness: dict, tolerance: float,
                      strict: bool = False) -> CertificateEntry:
    """Build a pass/fail entry from a signed slack.

    Non-strict checks pass when margin >= 0; strict ones require margin > 0.
    """
    ok = margin > 0 if strict else margin >= 0
    return CertificateEntry(
        name=name,
        status=PASS if ok else FAIL,
        margin=float(margin),
        witness=witness,
        tolerance=float(tolerance),
    )


@dataclass(eq=False)
class CertificateReport:
    """Ordered collection of certificate entries."""

    entries: list = field(default_factory=list)

    def add(self, entry: CertificateEntry) -> None:
        self.entries.append(entry)

    def extend(self, entries) -> None:
        self.entries.extend(entries)

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(
                f"{e.name}  {e.status.upper()}  margin={e.margin:.6e}  "
                f"tol={e.tolerance:.1e}  witness={json.dumps(e.witness, sort_keys=True)}"
            )
        verdict = "ALL PASS" if self.all_pass else "FAILURES PRESENT"
        lines.append(f"overall: {verdict} ({len(self.entries)} checks)")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        """Strict JSON (RFC 8259): a non-finite float, at any depth, is "inf", "-inf" or "nan"."""
        finite = {"Infinity": "inf", "-Infinity": "-inf", "NaN": "nan"}.get
        entries = json.loads(json.dumps([e.as_dict() for e in self.entries]), parse_constant=finite)
        return json.dumps({"all_pass": self.all_pass, "entries": entries},
                          indent=2, sort_keys=True, allow_nan=False)
