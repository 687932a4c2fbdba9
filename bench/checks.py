"""Correctness checks on the CLI's outputs, by paths other than the timed one.

`summarize` keeps, between queries, the few exact values each check needs
(it calls nothing in sumrank, so it cannot warm a cache); `run` does the
checks after the batch:

- bounds: a distribution sums to q^{mn}; a small-t sphere equals
  `sphere_volume_by_profiles` and a small-t ball the sum of those;
- intersect: an exact intersection is at most min(ball(u), ball(s)); on the
  line s = delta - u it equals `theorem3_aggregate`, and every thm3
  aggregate equals `sumrank_intersection_exact`;
- verify: the report has `required_failures == 0`, whatever the exit code
  (a mismatch exits 4; the worker also counts every non-zero exit).

`known_defect` names the one failure a probe (queries.make_probes) may have
and still leave the run correct. No timed query may fail.
"""

from __future__ import annotations

from typing import Any, Optional

from queries import big_output
from sumrank import intersections, volumes
from sumrank.volumes import Params


def flags(argv: list[str]) -> dict[str, str]:
    """The --name value pairs of a CLI argument list."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def params(argv: list[str]) -> Params:
    f = flags(argv)
    return Params(q=int(f["q"]), m=int(f["m"]), eta=int(f["eta"]), ell=int(f["ell"]))


def oracle_answers(report: dict[str, Any]) -> int:
    """Records in a report that carry a brute-force oracle value."""
    records = report.get("records", []) + report.get("paper_variant_discrepancies", [])
    return sum(1 for rec in records if rec.get("oracle_value") is not None)


def summarize(workload: str, argv: list[str], report: Optional[dict[str, Any]]) -> Any:
    if report is None:
        return None
    records = report["records"]
    if workload == "bounds":
        if flags(argv)["kind"] == "distribution":
            return {"sum": sum(int(r["value"]) for r in records), "entries": len(records)}
        return {"value": int(records[0]["value"])}
    if workload == "intersect":
        return [(r["formula_variant"], r["query"], int(r["value"])) for r in records]
    return {"required_failures": report["summary"]["required_failures"]}


def known_defect(workload: str, argv: list[str], reason: str) -> bool:
    """Whether a failed query is the known big-output defect.

    `report.make_record` writes each count with `str()`, which Python 3.11
    refuses for an integer past `sys.get_int_max_str_digits()` (4300)
    digits. So a `bounds` distribution whose space q^(m*eta*ell) has more
    digits than that (`queries.big_output`) raises ValueError. Such queries
    are probes, run once and untimed; the defect is left for a fix in
    sumrank itself and does not make the run incorrect. Any other failure
    does.
    """
    if workload != "bounds" or flags(argv).get("kind") != "distribution":
        return False
    p = params(argv)
    return (reason.startswith("raised ValueError: Exceeds the limit")
            and big_output((p.q, p.m, p.eta, p.ell)))


def run(workload: str, outcomes: list[dict[str, Any]]) -> dict[int, str]:
    """Check every query that printed a report; returns {query index: what is wrong}."""
    check = {"bounds": _bounds, "intersect": _intersect, "verify": _verify}[workload]
    problems = {}
    for i, outcome in enumerate(outcomes):
        if outcome["summary"] is None:
            continue
        problem = check(outcome["argv"], outcome["summary"])
        if problem:
            problems[i] = problem
    return problems


_spheres: dict[tuple[Params, int], int] = {}


def _sphere_ref(p: Params, t: int) -> int:
    if (p, t) not in _spheres:
        _spheres[p, t] = volumes.sphere_volume_by_profiles(p, t)
    return _spheres[p, t]


def _bounds(argv: list[str], summary: dict[str, int]) -> Optional[str]:
    p = params(argv)
    f = flags(argv)
    if f["kind"] == "distribution":
        if summary["entries"] != p.max_weight + 1:
            return f"{summary['entries']} entries, expected {p.max_weight + 1}"
        if summary["sum"] != p.space_size:
            return "distribution does not sum to q^(mn)"
        return None
    t = int(f["t"])
    if f["kind"] == "sphere":
        expected = _sphere_ref(p, t)
    else:
        expected = sum(_sphere_ref(p, j) for j in range(min(t, p.max_weight) + 1))
    if summary["value"] != expected:
        return f"{f['kind']}({t}) differs from the profile-sum reference"
    return None


_balls: dict[tuple[Params, int], int] = {}


def _ball(p: Params, r: int) -> int:
    if (p, r) not in _balls:
        _balls[p, r] = volumes.ball_volume(p, r)
    return _balls[p, r]


def _intersect(argv: list[str], summary: list[tuple[str, dict, int]]) -> Optional[str]:
    p = params(argv)
    for variant, query, value in summary:
        if variant == "exact":
            u, s, profile = query["u"], query["s"], tuple(query["profile"])
            delta = sum(profile)
            if not 0 <= value <= min(_ball(p, u), _ball(p, s)):
                return f"exact {query} outside 0..min(ball(u), ball(s))"
            if u <= delta and s == delta - u:
                if value != intersections.theorem3_aggregate(p, u, profile):
                    return f"exact {query} differs from theorem3_aggregate"
        elif variant == "thm3-aggregate":
            gamma, profile = query["gamma"], tuple(query["profile"])
            exact = intersections.sumrank_intersection_exact(
                intersections.IntersectionQuery(p=p, u=gamma, s=sum(profile) - gamma,
                                                tprofile=profile)
            )
            if value != exact:
                return f"thm3 {query} differs from sumrank_intersection_exact"
    return None


def _verify(argv: list[str], summary: dict[str, int]) -> Optional[str]:
    if summary["required_failures"] != 0:
        return f"{summary['required_failures']} required checks failed"
    return None
