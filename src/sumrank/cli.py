"""Command-line front end: volumes, intersections, and the verification harness.

The harness compares every formula variant with the brute-force oracle, which
enumerates a cell once per profile. The commands share counts by one rule: a
literal reading is asked once per (u, s, delta), a per-profile formula once per
(u, s, partition), since permuting blocks is an isometry.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from decimal import Decimal
from functools import lru_cache
from typing import Any, Optional

from sumrank import __version__, oracle, volumes
from sumrank.compositions import RankProfile, count_uniform, enumerate_uniform
from sumrank.qkit import InputError
from sumrank.report import (BALL, EXACT, LEMMA8, QUESTIONS, SPHERE, Variant, make_record,
                            make_report, report_to_csv, report_to_json, report_to_text)
from sumrank.volumes import Params

EXIT_OK = 0
EXIT_BAD_ARGS = 2  # invalid arguments
EXIT_BUDGET = 3  # oracle budget refusal
EXIT_CHECK_FAILED = 4  # a required check disagrees with the oracle

VOLUMES = {variant.name: variant for variant in (SPHERE, BALL)}

DEFAULT_GRID = ((2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 1, 3))


def _add_params_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", type=int, required=True, help="field size (a prime power)")
    sub.add_argument("--m", type=int, required=True, help="extension degree")
    sub.add_argument("--eta", type=int, required=True, help="block length")
    sub.add_argument("--ell", type=int, required=True, help="number of blocks")


def _add_common_args(sub: argparse.ArgumentParser, *extra_formats: str) -> None:
    sub.add_argument("--format", choices=("json", "text", *extra_formats), default="json")
    sub.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET,
                     help="oracle enumeration budget (candidate count); verify applies "
                          "it per grid cell and per Lemma 8 check")
    sub.add_argument("--output", help="write the report to this file instead of stdout")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by later ones.

    Parsing leaves no state on the parser: every call fills a fresh namespace.
    """
    parser = argparse.ArgumentParser(
        prog="sumrank",
        description="Exact sum-rank metric sphere, ball and intersection volumes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    vol = subs.add_parser("volume", help="sphere/ball volume or full distribution")
    _add_params_args(vol)
    vol.add_argument("--kind", choices=(*VOLUMES, "distribution"), required=True)
    vol.add_argument("--t", type=int, help="radius (required for sphere/ball)")
    vol.add_argument("--oracle", action="store_true",
                     help="cross-check against brute-force enumeration")
    _add_common_args(vol, "csv")

    inter = subs.add_parser("intersect", help="intersection volume of two balls")
    _add_params_args(inter)
    inter.add_argument("--u", type=int, required=True, help="first radius")
    inter.add_argument("--s", type=int, required=True, help="second radius")
    inter.add_argument("--profile", help="comma-separated per-block center distances")
    inter.add_argument("--t", type=int, help="scalar center distance (with --variant)")
    inter.add_argument("--variant", choices=tuple(QUESTIONS), default=EXACT.name)
    inter.add_argument("--oracle", action="store_true",
                       help="cross-check against brute-force enumeration")
    _add_common_args(inter)

    ver = subs.add_parser("verify", help="formula-vs-oracle verification harness")
    ver.add_argument("--grid", default="default",
                     help='"default", "none", or cells "q,m,eta,ell[;q,m,eta,ell...]"')
    _add_common_args(ver)
    return parser


def _parse_profile(text: str, p: Params) -> tuple[int, ...]:
    try:
        profile = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise InputError(f"profile must be comma-separated integers: {text!r}") from exc
    p.check_profile(profile)
    return profile


def cmd_volume(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    p = Params(q=args.q, m=args.m, eta=args.eta, ell=args.ell)
    if args.kind in VOLUMES:
        if args.t is None:
            raise InputError(f"--t is required for --kind {args.kind}")
        if args.t < 0:
            raise InputError("radius t must be nonnegative")
    elif args.t is not None:
        raise InputError("--kind distribution takes no --t")
    if args.oracle and args.format == "csv":
        raise InputError("--format csv has no oracle column")
    weights = None
    if args.oracle:
        weights = oracle.count_weights(p, budget=args.budget)
    if args.kind in VOLUMES:
        variant = VOLUMES[args.kind]
        oracle_value = None if weights is None else _oracle_volume(variant, weights, args.t)
        records = [
            make_record({"kind": args.kind, "t": args.t}, variant,
                        variant.formula(p, args.t), oracle_value)
        ]
    else:
        records = [
            make_record({"kind": "distribution", "t": t}, SPHERE, value,
                        None if weights is None else weights[t])
            for t, value in enumerate(volumes.weight_distribution(p))
        ]
    return make_report(asdict(p), records, __version__), EXIT_OK


def _oracle_volume(variant: Variant, weights: list[int], t: int) -> int:
    """A sphere reads the weight t off the oracle's weights, a ball every weight up to t."""
    return sum(weights[t if variant is SPHERE else 0 : t + 1])


def _ask(memo: dict[tuple[Any, ...], int], variant: Variant, p: Params, u: int, s: int,
         delta: int, profile: RankProfile) -> int:
    """variant at radii (u, s), from memo: once per delta if literal, else once per partition."""
    key = (variant, u, s, delta if variant.literal else tuple(sorted(profile)))
    if key not in memo:
        memo[key] = variant.formula(p, u, s, delta if variant.literal else profile)
    return memo[key]


def cmd_intersect(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    p = Params(q=args.q, m=args.m, eta=args.eta, ell=args.ell)
    if args.u < 0 or args.s < 0:
        raise InputError("radii u and s must be nonnegative")
    if args.profile is None and args.t is None:
        raise InputError("either --profile or --t is required")
    question = QUESTIONS[args.variant]
    per_profile = [variant for variant in question.variants if not variant.literal]
    profiles = [] if args.profile is None else [_parse_profile(args.profile, p)]
    if args.t is not None:
        if args.t < 0 or args.t > p.max_weight:
            raise InputError(f"t must lie in 0..{p.max_weight}")
        if profiles and sum(profiles[0]) != args.t:
            raise InputError(f"--profile sums to {sum(profiles[0])} but --t is {args.t}")
    elif not per_profile:
        raise InputError(f"--variant {args.variant} requires a scalar --t")
    delta = sum(profiles[0]) if args.t is None else args.t
    radii = question.radii(args.u, args.s, delta)
    if radii is None:
        raise InputError(question.condition)
    u, s = radii
    if args.oracle:
        if not per_profile:
            raise InputError(f"--variant {args.variant} has no per-profile formula for --oracle"
                             " to check")
        # one pass per profile: the compositions of --t are counted before any is listed
        oracle.check_passes(p, len(profiles) or count_uniform(delta, p.ell, p.mu), args.budget)
    if per_profile and not profiles:
        profiles = list(enumerate_uniform(delta, p.ell, p.mu))  # every composition of --t
    records: list[dict[str, Any]] = []
    memo: dict[tuple[Any, ...], int] = {}  # the compositions of a partition share its counts
    for profile in profiles:
        count = oracle.count_intersection(p, u, s, profile, args.budget) if args.oracle else None
        records += [make_record(v.query(u, s, delta, profile, harness=False), v,
                                _ask(memo, v, p, u, s, delta, profile), count)
                    for v in per_profile]
    if args.t is not None:  # a literal reading answers the scalar distance --t, once
        records += [make_record(v.query(u, s, delta, None, harness=False), v,
                                v.formula(p, u, s, delta)) for v in question.variants if v.literal]
    return make_report(asdict(p), records, __version__), EXIT_OK


def _parse_grid(text: str) -> list[tuple[int, int, int, int]]:
    if text == "default":
        return list(DEFAULT_GRID)
    if text == "none":
        return []
    cells = []
    for chunk in text.split(";"):
        try:
            q, m, eta, ell = (int(x) for x in chunk.split(","))
            p = Params(q=q, m=m, eta=eta, ell=ell)
        except ValueError as exc:
            raise InputError(f"bad grid cell {chunk!r}: {exc}") from exc
        oracle.check_prime_field(q)  # every verify cell is checked by the oracle
        cells.append((q, m, eta, ell))
    return cells


def run_verification(
    grid: list[tuple[int, int, int, int]], budget: int
) -> tuple[dict[str, Any], int]:
    """Compare every formula against the brute-force oracle over a grid.

    Required checks: sphere/ball volumes, the per-profile exact intersection,
    theorem 3 aggregates, and the rank-1 additivity count. Every other
    variant, the literal theorem readings and theorem 2 per profile, is
    recorded as a finding in the paper-variant discrepancy section, never as
    a failure. A cell walks its scalar distances in turn, and the profiles
    of one distance share its counts as `_ask` keys them.
    """
    records: list[dict[str, Any]] = []
    discrepancies: list[dict[str, Any]] = []
    skipped: list[dict[str, Any]] = []

    for q, m, eta, ell in sorted(grid):
        p = Params(q=q, m=m, eta=eta, ell=ell)
        cell = asdict(p)
        try:
            # one enumeration per distance profile, (mu + 1)^ell of them
            oracle.check_passes(p, (p.mu + 1) ** p.ell, budget)
        except oracle.OracleBudgetError as exc:
            # Decimal prints counts past the interpreter's int-to-str digit limit
            skipped.append({"cell": cell, "required_budget": str(Decimal(exc.required))})
            continue

        def add(variant: Variant, query: dict[str, Any], value: int, oracle_value: int) -> None:
            record = make_record({**cell, **query}, variant, value, oracle_value)
            (records if variant.required else discrepancies).append(record)

        for delta in range(p.max_weight + 1):
            pairs = [(question, u, s) for question in QUESTIONS.values()
                     for u, s in question.sweep(p.max_weight, delta)]
            memo: dict[tuple[Any, ...], int] = {}  # shared by the profiles of delta
            for profile in enumerate_uniform(delta, p.ell, p.mu):
                hist = oracle.distance_histogram(p, profile, budget)
                if delta == 0:  # sphere and ball volumes: the zero profile's rows hold the weights
                    weights = [sum(row) for row in hist]
                    for t in range(len(weights)):
                        for variant in (SPHERE, BALL):
                            add(variant, {"t": t}, variant.formula(p, t),
                                _oracle_volume(variant, weights, t))
                # every intersection question at every radius pair it applies to
                for question, u, s in pairs:
                    count = oracle.count_within(hist, u, s)
                    for variant in question.variants:
                        add(variant, variant.query(u, s, delta, profile, harness=True),
                            _ask(memo, variant, p, u, s, delta, profile), count)

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


def cmd_verify(args: argparse.Namespace) -> tuple[dict[str, Any], int]:
    return run_verification(_parse_grid(args.grid), args.budget)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"volume": cmd_volume, "intersect": cmd_intersect, "verify": cmd_verify}
    try:
        if args.budget < 0:
            raise InputError("--budget must be nonnegative")
        report, code = handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except oracle.OracleBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    # built on each call, so a renderer rebound after import (by a tracer) is the one called
    render = {"json": report_to_json, "text": report_to_text, "csv": report_to_csv}
    rendered = render[args.format](report)
    if not rendered.endswith("\n"):
        rendered += "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return EXIT_BAD_ARGS
    else:
        print(rendered, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
