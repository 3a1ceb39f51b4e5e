"""Output checks on a rendered `planmark run` report.

Every call's report is parsed and checked for internal consistency (the
counters line against the records, and the factorisation
``posterior == sc * residual`` on every evaluated record).  Calls on the
default seed's reference streams are also compared against reference.json,
recorded from the unmodified package: path texts, filter verdicts and
approvals must be equal, and posteriors equal to 1e-9 relative, since an
exact closed form may legitimately change the last bits.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

FIELDS = ("path", "sc", "rs", "filtered", "posterior", "residual", "approved")
FACTORISATION_TOL = 1e-9
POSTERIOR_TOL = 1e-9


class ReportError(Exception):
    """The report does not have the documented shape."""


@dataclass(frozen=True)
class Record:
    path: str
    sc: float
    filtered: str
    posterior: float | None   # None when not evaluated
    residual: float | None
    skipped: bool
    approved: bool


def parse_report(text: str) -> tuple[list[Record], dict[str, int]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines or not lines[-1].startswith("counters "):
        raise ReportError("report does not end with a counters line")
    try:
        counters = {key: int(value) for key, value in
                    (item.split("=") for item in lines[-1].split()[1:])}
    except ValueError:
        raise ReportError(f"bad counters line {lines[-1]!r}") from None
    body = lines[:-1]
    if len(body) % len(FIELDS):
        raise ReportError(f"{len(body)} record lines is not a multiple of {len(FIELDS)}")
    records = []
    for k in range(0, len(body), len(FIELDS)):
        values = {}
        for name, line in zip(FIELDS, body[k:k + len(FIELDS)]):
            head, _, value = line.partition(" ")
            if head != name:
                raise ReportError(f"expected field {name!r}, got {line[:40]!r}")
            values[name] = value
        skipped = values["posterior"].startswith("skipped:")
        evaluated = not skipped and values["posterior"] != "-"
        try:
            records.append(Record(
                path=values["path"], sc=float(values["sc"]),
                filtered=values["filtered"],
                posterior=float(values["posterior"]) if evaluated else None,
                residual=float(values["residual"]) if evaluated else None,
                skipped=skipped, approved=values["approved"] == "yes"))
        except ValueError as exc:
            raise ReportError(f"record {k // len(FIELDS)}: {exc}") from None
    return records, counters


def consistency_problems(records: list[Record], counters: dict[str, int]) -> list[str]:
    problems = []
    expected = {
        "reported": len(records),
        "evaluated": sum(r.posterior is not None for r in records),
        "approved": sum(r.approved for r in records),
    }
    for key, value in expected.items():
        if counters.get(key) != value:
            problems.append(f"counter {key}={counters.get(key)} but records give {value}")
    asserted = counters.get("asserted")
    if asserted is not None and not expected["evaluated"] <= asserted <= len(records):
        problems.append(f"counter asserted={asserted} outside [evaluated, reported]")
    for k, r in enumerate(records):
        if r.posterior is not None and not math.isclose(
                r.posterior, r.sc * r.residual, rel_tol=FACTORISATION_TOL):
            problems.append(f"record {k}: posterior {r.posterior!r} != "
                            f"sc*residual {r.sc * r.residual!r}")
    return problems


def verdict_digest(records: list[Record]) -> str:
    """Digest of path texts, filter verdicts and approvals, in report order."""
    digest = hashlib.sha256()
    for r in records:
        digest.update(f"{r.path}\t{r.filtered}\t{r.approved}\n".encode())
    return digest.hexdigest()


def posteriors(records: list[Record]) -> dict[str, str]:
    """Evaluated posteriors by record index, as exact decimal strings."""
    return {str(k): repr(r.posterior) for k, r in enumerate(records)
            if r.posterior is not None}


def reference_entry(records: list[Record]) -> dict:
    return {"verdicts_sha256": verdict_digest(records),
            "posteriors": posteriors(records)}


def reference_problems(records: list[Record], entry: dict) -> list[str]:
    if verdict_digest(records) != entry["verdicts_sha256"]:
        return ["path texts, filter verdicts or approvals differ from the reference"]
    got, want = posteriors(records), entry["posteriors"]
    if got.keys() != want.keys():
        return ["a different set of records was evaluated than in the reference"]
    return [f"record {k}: posterior {value} differs from reference {want[k]}"
            for k, value in got.items()
            if not math.isclose(float(value), float(want[k]), rel_tol=POSTERIOR_TOL)]


def planted_found(records: list[Record], planted: tuple[str, ...]) -> int:
    """How many planted explanations appear with ``filtered pass``."""
    passing = {r.path for r in records if r.filtered == "pass"}
    return sum(path in passing for path in planted)
