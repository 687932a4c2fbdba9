import hashlib
import re
from dataclasses import asdict

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrank import cli, intersections, oracle
from sumrank.cli import EXIT_OK, main, run_verification
from sumrank.compositions import enumerate_uniform
from sumrank.report import BALL, QUESTIONS, REPORT_SCHEMA, SPHERE, make_record
from sumrank.volumes import Params

# sha256 of the default `verify` JSON report, timestamp blanked, as the
# per-radius-pair oracle of version 0.1.0 produced it
DEFAULT_REPORT_SHA256 = "6236c0301e2b26f4f4df8750f9e6593e59f8f17b558be8e5296d0500760b673a"
# the same for a grid with up to 70 profiles per scalar distance, as the
# per-profile harness that asked every literal reading at every profile produced it
MANY_PROFILES_GRID = "3,2,2,2;2,1,1,6"
MANY_PROFILES_SHA256 = "cf7ed29b102ceab4eb92f1a34045e24122f9f1cbe0a3937d6e461e392305613c"

# each literal reading's function and the record fields that hold its arguments after p
LITERAL_ARGS = {
    "thm1-literal": ("theorem1_literal", ("u", "s", "t")),
    "thm2-literal": ("theorem2_literal", ("delta",)),
    "thm3-literal": ("theorem3_literal", ("gamma", "delta")),
}


def _blanked_sha256(argv, capsys):
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    blanked = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out, count=1)
    return hashlib.sha256(blanked.encode()).hexdigest()


def test_default_report_is_unchanged(capsys):
    assert _blanked_sha256(["verify"], capsys) == DEFAULT_REPORT_SHA256


def test_many_profiles_report_is_unchanged(capsys):
    assert _blanked_sha256(["verify", "--grid", MANY_PROFILES_GRID], capsys) == (
        MANY_PROFILES_SHA256)


def test_findings_are_validated_as_records():
    report, code = run_verification(list(cli.DEFAULT_GRID), oracle.DEFAULT_BUDGET)
    assert code == EXIT_OK and report["paper_variant_discrepancies"]
    jsonschema.validate(report, REPORT_SCHEMA)
    report["paper_variant_discrepancies"] = [{"junk": 1}]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, REPORT_SCHEMA)


def test_one_enumeration_per_distance_profile(monkeypatch):
    calls = []
    enumerate_space = oracle.distance_histogram

    def counted(p, profile, budget=oracle.DEFAULT_BUDGET):
        calls.append((p, profile))
        return enumerate_space(p, profile, budget)

    monkeypatch.setattr(oracle, "distance_histogram", counted)
    cell = Params(q=3, m=2, eta=2, ell=2)
    report, code = run_verification([(3, 2, 2, 2)], budget=2**24)
    assert code == EXIT_OK
    # the rank-1 additivity count enumerates its own rank-metric cell
    profiles = [profile for p, profile in calls if p == cell]
    assert len(profiles) == len(set(profiles)) == 9
    assert report["summary"]["required_checks"] > 9


def _logged(monkeypatch, module, name):
    """Replace module.name by a wrapper that logs the arguments of each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_literal_readings_asked_once_per_scalar_distance(monkeypatch):
    calls = {name: _logged(monkeypatch, intersections, name) for name, _ in LITERAL_ARGS.values()}
    histograms = _logged(monkeypatch, oracle, "distance_histogram")
    cell = Params(q=2, m=1, eta=1, ell=4)
    report, code = run_verification([(2, 1, 1, 4)], budget=2**24)
    assert code == EXIT_OK
    # every finding's (u, s, delta) was asked once, shared by all 6 profiles of delta = 2
    asked = {name: set() for name in calls}
    for record in report["paper_variant_discrepancies"]:
        if record["formula_variant"] in LITERAL_ARGS:
            name, keys = LITERAL_ARGS[record["formula_variant"]]
            asked[name].add(tuple(record["query"][key] for key in keys))
    for name, args in calls.items():
        assert args and sorted(p_args[1:] for p_args in args) == sorted(asked[name])
    profiles = [profile for p, profile, _ in histograms if p == cell]
    assert sorted(profiles) == sorted(
        profile for t in range(5) for profile in enumerate_uniform(t, 4, 1))


def test_per_profile_formulas_asked_once_per_partition(monkeypatch):
    exact = _logged(monkeypatch, intersections, "sumrank_intersection_exact")
    thm2 = _logged(monkeypatch, intersections, "theorem2_per_profile")
    thm3 = _logged(monkeypatch, intersections, "theorem3_aggregate")
    report, code = run_verification([(2, 1, 1, 4)], budget=2**24)
    assert code == EXIT_OK
    records = report["records"] + report["paper_variant_discrepancies"]

    def asked(variant, *keys):
        """The distinct (keys..., partition) of a variant's records."""
        return sorted({(*(rec["query"][key] for key in keys),
                        tuple(sorted(rec["query"]["profile"])))
                       for rec in records if rec["formula_variant"] == variant})

    # 16 profiles, 5 partitions: each count was asked once per partition, shared by its
    # compositions (the 6 profiles of delta = 2 are one partition)
    assert sorted((query.u, query.s, tuple(sorted(query.tprofile))) for (query,) in exact) == (
        asked("exact", "u", "s"))
    assert sorted((tuple(sorted(d)),) for _, d in thm2) == asked("thm2-profile")
    assert sorted((gamma, tuple(sorted(d))) for _, gamma, d in thm3) == (
        asked("thm3-aggregate", "gamma"))


def test_one_ball_table_per_distance_profile(monkeypatch):
    tables = _logged(monkeypatch, cli, "running_sums")
    histograms = _logged(monkeypatch, oracle, "distance_histogram")
    report, code = run_verification([(2, 1, 1, 4)], budget=2**24)
    assert code == EXIT_OK
    # one table per profile of the cell, each summing that profile's own histogram:
    # every radius pair of every question is a lookup
    cell = Params(q=2, m=1, eta=1, ell=4)
    profiles = [profile for p, profile, _ in histograms if p == cell]
    assert len(tables) == len(profiles) == 16
    assert [oracle.distance_histogram(cell, profile) for profile in profiles] == [
        hist for (hist,) in tables]


def _per_profile_records(p, budget):
    """A cell's required records and findings, every variant asked at every profile."""
    cell = asdict(p)
    records, findings = [], []

    def add(variant, query, value, oracle_value):
        record = make_record({**cell, **query}, variant, value, oracle_value)
        (records if variant.required else findings).append(record)

    profiles = [profile for t in range(p.max_weight + 1)
                for profile in enumerate_uniform(t, p.ell, p.mu)]
    hists = {profile: oracle.distance_histogram(p, profile, budget) for profile in profiles}
    weights = [sum(row) for row in hists[profiles[0]]]
    for t in range(len(weights)):
        add(SPHERE, {"t": t}, SPHERE.formula(p, t), weights[t])
        add(BALL, {"t": t}, BALL.formula(p, t), sum(weights[: t + 1]))
    for profile in profiles:
        delta = sum(profile)
        for question in QUESTIONS.values():
            for u, s in question.sweep(p.max_weight, delta):
                # a naive rectangle sum, independent of the table the harness reads
                count = sum(sum(row[: s + 1]) for row in hists[profile][: u + 1])
                for variant in question.variants:
                    value = variant.formula(p, u, s, delta if variant.literal else profile)
                    add(variant, variant.query(u, s, delta, profile), value, count)
    return records, findings


@st.composite
def _small_prime_cells(draw):
    """Prime-q cells of at most 2^8 vectors, each dimension at most 4."""
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    digits = max(k for k in range(1, 9) if q**k <= 2**8)  # a cell has q^(m*eta*ell) vectors
    m = draw(st.integers(1, min(4, digits)))
    eta = draw(st.integers(1, min(4, digits // m)))
    ell = draw(st.integers(1, min(4, digits // (m * eta))))
    return q, m, eta, ell


@settings(max_examples=40, deadline=None)
@given(_small_prime_cells())
def test_records_match_the_per_profile_loop(cell):
    report, _ = run_verification([cell], budget=2**24)
    records, findings = _per_profile_records(Params(*cell), 2**24)
    assert [r for r in report["records"] if r["formula_variant"] != "lemma8"] == records
    assert report["paper_variant_discrepancies"] == findings
