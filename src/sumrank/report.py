"""Machine-readable reports for CLI commands and the verification harness.

All counts are serialized as decimal strings because they routinely exceed
64-bit range. Key order is fixed at construction time so a parsed report
re-serializes byte-identically.
"""

from __future__ import annotations

import datetime
import json
from typing import Any, Optional

from sumrank.variants import VARIANTS, Variant

REPORT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["tool", "version", "timestamp", "params", "records"],
    "properties": {
        "tool": {"type": "string"},
        "version": {"type": "string"},
        "timestamp": {"type": "string"},
        "params": {"type": ["object", "null"]},
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["query", "formula_variant", "value", "oracle_value", "match"],
                "properties": {
                    "query": {"type": "object"},
                    "formula_variant": {"enum": [variant.name for variant in VARIANTS]},
                    "value": {"type": "string", "pattern": "^-?[0-9]+$"},
                    "oracle_value": {
                        "type": ["string", "null"],
                        "pattern": "^-?[0-9]+$",
                    },
                    "match": {"enum": ["yes", "no", "not-run"]},
                },
                "additionalProperties": False,
            },
        },
        "paper_variant_discrepancies": {"type": "array"},
        "skipped": {"type": "array"},
        "summary": {"type": "object"},
    },
}


def make_record(
    query: dict[str, Any],
    variant: Variant,
    value: int,
    oracle_value: Optional[int] = None,
) -> dict[str, Any]:
    match = "not-run"
    if oracle_value is not None:
        match = "yes" if value == oracle_value else "no"
    return {
        "query": query,
        "formula_variant": variant.name,
        "value": str(value),
        "oracle_value": None if oracle_value is None else str(oracle_value),
        "match": match,
    }


def make_report(
    params: Optional[dict[str, Any]],
    records: list[dict[str, Any]],
    version: str,
    **extra: Any,
) -> dict[str, Any]:
    report = {
        "tool": "sumrank",
        "version": version,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "params": params,
        "records": records,
    }
    report.update(extra)
    return report


def report_to_json(report: dict[str, Any]) -> str:
    """Serialize a report; stable under parse/re-serialize round trips."""
    return json.dumps(report, indent=2, ensure_ascii=False)


def report_to_text(report: dict[str, Any]) -> str:
    """Human-oriented aligned rendering of a report."""
    lines = [f"sumrank {report['version']}  {report['timestamp']}"]
    if report.get("params"):
        lines.append(
            "params: " + " ".join(f"{k}={v}" for k, v in report["params"].items())
        )
    width = max((len(r["formula_variant"]) for r in report["records"]), default=0)
    for rec in report["records"]:
        query = " ".join(f"{k}={v}" for k, v in rec["query"].items())
        line = f"{rec['formula_variant']:<{width}}  {rec['value']:>24}"
        if rec["oracle_value"] is not None:
            line += f"  oracle={rec['oracle_value']} [{rec['match']}]"
        lines.append(f"{line}  ({query})")
    for section in ("paper_variant_discrepancies", "skipped"):
        entries = report.get(section)
        if entries:
            lines.append(f"{section}: {len(entries)} entries")
    if report.get("summary"):
        lines.append(
            "summary: " + " ".join(f"{k}={v}" for k, v in report["summary"].items())
        )
    return "\n".join(lines) + "\n"


def report_to_csv(report: dict[str, Any]) -> str:
    """A volume report's `t,count` table, one line per record."""
    return "t,count\n" + "".join(f"{r['query']['t']},{r['value']}\n" for r in report["records"])
