"""The verification harness: every formula variant against the brute-force oracle.

For each grid cell the oracle enumerates the whole space once per distance
profile; every sphere, ball and intersection check of that profile reads its
count off the resulting joint histogram.
"""

from __future__ import annotations

from dataclasses import asdict
from decimal import Decimal
from typing import Any

from sumrank import __version__, oracle
from sumrank.compositions import enumerate_uniform
from sumrank.report import make_record, make_report
from sumrank.variants import BALL, LEMMA8, QUESTIONS, SPHERE, Variant
from sumrank.volumes import Params

EXIT_OK = 0
EXIT_BUDGET = 3
EXIT_CHECK_FAILED = 4


def run_verification(
    grid: list[tuple[int, int, int, int]], budget: int
) -> tuple[dict[str, Any], int]:
    """Compare every formula against the brute-force oracle over a grid.

    Required checks: sphere/ball volumes, the per-profile exact intersection,
    theorem 3 aggregates, and the rank-1 additivity count. Every other
    variant, the literal theorem readings and theorem 2 per profile, is
    recorded as a finding in the paper-variant discrepancy section, never as
    a failure.
    """
    records: list[dict[str, Any]] = []
    discrepancies: list[dict[str, Any]] = []
    skipped: list[dict[str, Any]] = []

    for q, m, eta, ell in sorted(grid):
        p = Params(q=q, m=m, eta=eta, ell=ell)
        cell = asdict(p)
        if p.space_size > budget:
            # Decimal prints counts past the interpreter's int-to-str digit limit
            skipped.append({"cell": cell, "required_budget": str(Decimal(p.space_size))})
            continue

        def add(variant: Variant, query: dict[str, Any], value: int, oracle_value: int) -> None:
            record = make_record({**cell, **query}, variant, value, oracle_value)
            (records if variant.required else discrepancies).append(record)

        profiles = [
            profile
            for t in range(p.max_weight + 1)
            for profile in enumerate_uniform(t, p.ell, p.mu)
        ]
        hists = {profile: oracle.distance_histogram(p, profile, budget) for profile in profiles}

        # sphere and ball volumes: the zero profile's rows hold the weights
        ball = 0
        for t, weight in enumerate(sum(row) for row in hists[profiles[0]]):
            ball += weight
            add(SPHERE, {"t": t}, SPHERE.formula(p, t), weight)
            add(BALL, {"t": t}, BALL.formula(p, t), ball)

        # every intersection question at every radius pair it applies to
        for profile in profiles:
            delta = sum(profile)
            for question in QUESTIONS.values():
                for u, s in question.sweep(p.max_weight, delta):
                    count = oracle.count_within(hists[profile], u, s)
                    for variant in question.variants:
                        value = variant.formula(p, u, s, delta if variant.literal else profile)
                        add(variant, variant.query(u, s, delta, profile, harness=True),
                            value, count)

    # rank-1 additivity count (rank metric, desk scale)
    for r in range(3 if grid else 0):
        try:
            oracle_value = oracle.count_rank1_additive(2, 2, r, 2, budget=budget)
        except oracle.OracleBudgetError as exc:
            skipped.append({"cell": {"check": LEMMA8.name, "r": r},
                            "required_budget": str(Decimal(exc.required))})
            continue
        records.append(make_record({"n": 2, "m": 2, "q": 2, "r": r}, LEMMA8,
                                   LEMMA8.formula(2, 2, r, 2), oracle_value))

    failures = sum(1 for rec in records if rec["match"] == "no")
    mismatched_findings = sum(1 for rec in discrepancies if rec["match"] == "no")
    report = make_report(
        None,
        records,
        __version__,
        paper_variant_discrepancies=discrepancies,
        skipped=skipped,
        summary={
            "cells": len(grid),
            "skipped": len(skipped),
            "required_checks": len(records),
            "required_failures": failures,
            "paper_variant_mismatches": mismatched_findings,
        },
    )
    if failures:
        return report, EXIT_CHECK_FAILED
    if skipped:
        return report, EXIT_BUDGET
    return report, EXIT_OK
