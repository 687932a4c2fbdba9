"""Machine-readable reports for CLI commands and the verification harness.

All counts are serialized as decimal strings because they routinely exceed
64-bit range. Key order is fixed at construction time so a parsed report
re-serializes byte-identically.

A record's `formula_variant` names a formula from the variant table below.
The tables are keyed by the CLI's written names: `VOLUMES` by `volume --kind`,
`QUESTIONS` by `intersect --variant`. A question groups intersection variants
and states the radii it answers, where its formulas meet the brute-force
oracle. Only a required variant fails a check
by disagreeing with the oracle; the literal paper readings are findings.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Any, Callable, Optional

from sumrank import __version__, intersections, volumes
from sumrank.compositions import RankProfile


@dataclass(frozen=True)
class Variant:
    """A named formula; only a required one fails a check by disagreeing.

    An intersection variant's formula takes (p, u, s, d) with radii u and s,
    where d is the scalar center distance if `scalar` is set, else a sorted
    per-block distance profile: permuting blocks is an isometry, so the
    commands ask it once per partition. `keys` are the query fields of its
    records in every command; "profile" is left out where no profile was asked.
    """

    name: str
    formula: Callable[..., int]
    required: bool = False
    keys: tuple[str, ...] = ()
    scalar: bool = False

    def query(self, u: int, s: int, delta: int, profile: Optional[RankProfile]) -> dict[str, Any]:
        """The record's query fields, with gamma = u and t = delta."""
        values = {"u": u, "s": s, "gamma": u, "t": delta, "delta": delta,
                  "profile": None if profile is None else list(profile)}
        return {key: values[key] for key in self.keys if profile is not None or key != "profile"}


@dataclass(frozen=True)
class Question:
    """An `intersect --variant` choice: its variants and the radii they answer.

    `applies(u, s, delta)` says whether the question answers radii (u, s) at
    center distance delta; `condition` states that rule.
    """

    variants: tuple[Variant, ...]
    applies: Callable[[int, int, int], bool] = lambda u, s, delta: True
    condition: str = ""

    def sweep(self, max_weight: int, delta: int) -> list[tuple[int, int]]:
        """Every radius pair up to max_weight that the question answers at delta."""
        grid = range(max_weight + 1)
        return [(u, s) for u in grid for s in grid if self.applies(u, s, delta)]


SPHERE = Variant("sphere", lambda p, t: volumes.sphere_volume(p, t), required=True)
BALL = Variant("ball", lambda p, t: volumes.ball_volume(p, t), required=True)
LEMMA8 = Variant("lemma8", lambda n, m, r, q: intersections.rank1_additive_pairs(n, m, r, q),
                 required=True)

EXACT = Variant("exact", lambda p, u, s, d: intersections.sumrank_intersection_exact(
                    intersections.IntersectionQuery(p=p, u=u, s=s, tprofile=d)),
                required=True, keys=("u", "s", "profile"))

VOLUMES = {"sphere": SPHERE, "ball": BALL}

QUESTIONS = {
    "exact": Question((EXACT,)),
    "thm1-literal": Question((
        Variant("thm1-literal", lambda p, u, s, t: intersections.theorem1_literal(p, u, s, t),
                keys=("u", "s", "t", "profile"), scalar=True),
    ), applies=lambda u, s, delta: u + s >= delta, condition="thm1 requires u + s >= t"),
    # the published radius-1 sphere term overcounts for ell >= 2, so both
    # theorem 2 readings are findings
    "thm2": Question((
        Variant("thm2-profile", lambda p, u, s, d: intersections.theorem2_per_profile(p, d),
                keys=("delta", "profile")),
        Variant("thm2-literal", lambda p, u, s, t: intersections.theorem2_literal(p, t),
                keys=("delta", "profile"), scalar=True),
    ), applies=lambda u, s, delta: u == delta >= 1 and s == 1,
        condition="thm2 requires u = delta >= 1 and s = 1 at center distance delta"),
    "thm3": Question((
        Variant("thm3-aggregate", lambda p, u, s, d: intersections.theorem3_aggregate(p, u, d),
                required=True, keys=("gamma", "profile")),
        Variant("thm3-literal", lambda p, u, s, t: intersections.theorem3_literal(p, u, t),
                keys=("gamma", "delta", "profile"), scalar=True),
    ), applies=lambda u, s, delta: u <= delta and s == delta - u,
        condition="thm3 requires u (= gamma) <= delta and s = delta - u at center distance"
                  " delta"),
}

VARIANTS = (*VOLUMES.values(),
            *(v for question in QUESTIONS.values() for v in question.variants), LEMMA8)

REPORT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["tool", "version", "timestamp", "params", "records"],
    "properties": {
        "tool": {"type": "string"},
        "version": {"type": "string"},
        "timestamp": {"type": "string"},
        "params": {"type": ["object", "null"]},
        # a finding is a record too: one item schema serves both arrays
        **dict.fromkeys(("records", "paper_variant_discrepancies"), {
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
        }),
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
    params: Optional[dict[str, Any]], records: list[dict[str, Any]], **extra: Any
) -> dict[str, Any]:
    report = {
        "tool": "sumrank",
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "params": params,
        "records": records,
    }
    report.update(extra)
    return report


def report_to_json(report: dict[str, Any]) -> str:
    """Serialize a report as json.dumps(report, indent=2, ensure_ascii=False) does.

    Only dicts with str keys, lists, tuples, str, int, bool and None are
    written; any other type raises TypeError. Stable under parse/re-serialize
    round trips.
    """
    parts: list[str] = []
    _write_json(report, "\n", parts)
    return "".join(parts)


def _write_json(value: Any, newline: str, parts: list[str]) -> None:
    """Append value's JSON text to parts; newline is a line break plus its indent.

    The stdlib writes indented JSON with its pure-Python encoder, so this
    writer renders the layout itself and escapes strings by the C
    `encode_basestring`.
    """
    if isinstance(value, str):
        parts.append(encode_basestring(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        # built once per container: one string per item would stay alive in parts
        opener, separator = "{" + inner, "," + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(opener)
            parts.append(encode_basestring(key))
            parts.append(": ")
            _write_json(item, inner, parts)
            opener = separator
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        opener, separator = "[" + inner, "," + inner
        for item in value:
            parts.append(opener)
            _write_json(item, inner, parts)
            opener = separator
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
