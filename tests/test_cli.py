import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumrank
from sumrank.cli import (
    EXIT_BAD_ARGS,
    EXIT_BUDGET,
    EXIT_OK,
    build_parser,
    main,
)
from sumrank import intersections, oracle
from sumrank.compositions import count_uniform, enumerate_uniform
from sumrank.intersections import IntersectionQuery
from sumrank.qkit import num_matrices_rank
from sumrank.report import REPORT_SCHEMA, report_to_json
from sumrank.volumes import Params

PARAMS_221 = ["--q", "2", "--m", "2", "--eta", "2", "--ell", "1"]
PARAMS_222 = ["--q", "2", "--m", "2", "--eta", "2", "--ell", "2"]


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run_cli(capsys, *args)
    return code, json.loads(out) if out.strip() else None


def test_volume_sphere(capsys):
    code, report = run_json(capsys, "volume", *PARAMS_221, "--kind", "sphere", "--t", "1")
    assert code == EXIT_OK
    assert report["records"][0]["value"] == "9"
    jsonschema.validate(report, REPORT_SCHEMA)


def test_volume_ball_zero(capsys):
    code, report = run_json(capsys, "volume", *PARAMS_222, "--kind", "ball", "--t", "0")
    assert code == EXIT_OK
    assert report["records"][0]["value"] == "1"


def test_volume_distribution(capsys):
    code, report = run_json(capsys, "volume", *PARAMS_221, "--kind", "distribution")
    assert code == EXIT_OK
    assert [r["value"] for r in report["records"]] == ["1", "9", "6"]


def test_volume_distribution_csv(capsys, tmp_path):
    csv_path = tmp_path / "dist.csv"
    code, out = run_cli(capsys, "volume", *PARAMS_221, "--kind", "distribution",
                        "--format", "csv", "--output", str(csv_path))
    assert code == EXIT_OK
    assert out == ""
    assert csv_path.read_text() == "t,count\n0,1\n1,9\n2,6\n"


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 3, 4]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.sampled_from(["sphere", "ball", "distribution"]),
    st.integers(0, 10),
)
def test_csv_rows_are_the_json_records(q, m, eta, ell, kind, t):
    argv = ["volume", "--q", str(q), "--m", str(m), "--eta", str(eta), "--ell", str(ell),
            "--kind", kind] + ([] if kind == "distribution" else ["--t", str(t)])
    rendered = {}
    for fmt in ("json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", fmt]) == EXIT_OK
        rendered[fmt] = out.getvalue()
    header, *rows = rendered["csv"].splitlines()
    assert header == "t,count"
    records = json.loads(rendered["json"])["records"]
    assert rows == [f"{r['query']['t']},{r['value']}" for r in records]
    if kind == "distribution":
        assert sum(int(row.split(",")[1]) for row in rows) == q ** (m * eta * ell)


def test_volume_with_oracle_check(capsys):
    code, report = run_json(
        capsys, "volume", *PARAMS_222, "--kind", "sphere", "--t", "2", "--oracle"
    )
    assert code == EXIT_OK
    assert report["records"][0]["match"] == "yes"


def test_intersect_exact(capsys):
    code, report = run_json(
        capsys, "intersect", *PARAMS_222, "--u", "1", "--s", "1", "--profile", "2,0"
    )
    assert code == EXIT_OK
    assert report["records"][0]["formula_variant"] == "exact"
    assert report["records"][0]["value"] == "6"


def test_intersect_radius_clamp(capsys):
    code, report = run_json(
        capsys, "intersect", *PARAMS_222, "--u", "0", "--s", "9", "--profile", "1,1"
    )
    assert code == EXIT_OK
    assert report["records"][0]["value"] == "1"


def test_intersect_disjoint(capsys):
    code, report = run_json(
        capsys, "intersect", *PARAMS_222, "--u", "1", "--s", "0", "--profile", "2,0"
    )
    assert code == EXIT_OK
    assert report["records"][0]["value"] == "0"


def test_intersect_scalar_t_enumerates_profiles(capsys):
    code, report = run_json(
        capsys, "intersect", *PARAMS_222, "--u", "1", "--s", "1", "--t", "2"
    )
    assert code == EXIT_OK
    profiles = [tuple(r["query"]["profile"]) for r in report["records"]]
    assert profiles == [(0, 2), (1, 1), (2, 0)]


def test_intersect_thm2_emits_both_variants(capsys):
    code, report = run_json(
        capsys, "intersect", *PARAMS_222, "--u", "2", "--s", "1", "--t", "2",
        "--variant", "thm2",
    )
    assert code == EXIT_OK
    variants = [r["formula_variant"] for r in report["records"]]
    # the per-profile records, then the literal reading once
    assert variants == ["thm2-profile"] * 3 + ["thm2-literal"]


def test_intersect_thm3_emits_both_variants(capsys):
    code, report = run_json(
        capsys, "intersect", *PARAMS_222, "--u", "1", "--s", "1", "--t", "2",
        "--variant", "thm3",
    )
    assert code == EXIT_OK
    variants = [r["formula_variant"] for r in report["records"]]
    assert variants == ["thm3-aggregate"] * 3 + ["thm3-literal"]


@pytest.mark.parametrize("variant", ["exact", "thm2", "thm3"])
def test_intersect_oracle_enumerates_each_profile_once(capsys, monkeypatch, variant):
    calls = []
    enumerate_space = oracle.distance_histogram

    def counted(p, profile, budget=oracle.DEFAULT_BUDGET):
        calls.append(profile)
        return enumerate_space(p, profile, budget)

    monkeypatch.setattr(oracle, "distance_histogram", counted)
    code, report = run_json(capsys, "intersect", *PARAMS_222, "--u", "2", "--s", "1",
                            "--t", "2", "--variant", variant, "--oracle")
    assert code == EXIT_OK
    # one pass per composition of t = 2, shared by every per-profile formula
    assert calls == [(0, 2), (1, 1), (2, 0)]
    for rec in report["records"]:
        literal = rec["formula_variant"].endswith("-literal")
        assert (rec["oracle_value"] is None) == literal


def test_intersect_asks_each_partition_once(capsys, monkeypatch):
    calls = []
    exact = intersections.sumrank_intersection_exact

    def counted(query):
        calls.append(query)
        return exact(query)

    monkeypatch.setattr(intersections, "sumrank_intersection_exact", counted)
    code, report = run_json(capsys, "intersect", "--q", "2", "--m", "1", "--eta", "1",
                            "--ell", "6", "--u", "2", "--s", "2", "--t", "3")
    assert code == EXIT_OK
    # the 20 compositions of t = 3 are one partition, (1, 1, 1, 0, 0, 0): one block program
    assert len(calls) == 1
    records = report["records"]
    assert [tuple(rec["query"]["profile"]) for rec in records] == list(
        enumerate_uniform(3, 6, 1))
    # every record holds the count that a composition's own block program gives
    for rec in records:
        query = IntersectionQuery(p=Params(q=2, m=1, eta=1, ell=6), u=2, s=2,
                                  tprofile=tuple(rec["query"]["profile"]))
        assert rec == {"query": {"u": 2, "s": 2, "profile": list(query.tprofile)},
                       "formula_variant": "exact", "value": str(exact(query)),
                       "oracle_value": None, "match": "not-run"}
    assert {rec["value"] for rec in records} == {"6"}


def test_invalid_params_exit_2(capsys):
    code = main(["volume", "--q", "1", "--m", "2", "--eta", "2", "--ell", "1",
                 "--kind", "sphere", "--t", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_ARGS
    assert "q" in captured.err


def test_uncertifiable_huge_q_exits_2_quickly():
    # 2^61 - 1 is prime, but trial division would need hours to prove it
    argv = ["volume", "--q", "2305843009213693951", "--m", "1", "--eta", "1", "--ell", "1",
            "--kind", "sphere", "--t", "0"]
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_BAD_ARGS
    assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


def test_bad_profile_exit_2(capsys):
    code = main(["intersect", *PARAMS_222, "--u", "1", "--s", "1",
                 "--profile", "3,0"])
    assert code == EXIT_BAD_ARGS


def test_thm2_zero_delta_rejected(capsys):
    code = main(["intersect", *PARAMS_222, "--u", "1", "--s", "1",
                 "--profile", "0,0", "--variant", "thm2"])
    assert code == EXIT_BAD_ARGS


def test_verify_grid_none(capsys):
    code, report = run_json(capsys, "verify", "--grid", "none")
    assert code == EXIT_OK
    assert report["records"] == []
    jsonschema.validate(report, REPORT_SCHEMA)


def test_verify_small_cell(capsys):
    code, report = run_json(capsys, "verify", "--grid", "2,2,2,1")
    assert code == EXIT_OK
    assert all(r["match"] == "yes" for r in report["records"])
    jsonschema.validate(report, REPORT_SCHEMA)


def test_verify_budget_skip_exit_3(capsys):
    code, report = run_json(capsys, "verify", "--grid", "2,2,2,1", "--budget", "8")
    assert code == EXIT_BUDGET
    assert report["records"] == []
    assert report["skipped"][0]["cell"] == {"q": 2, "m": 2, "eta": 2, "ell": 1}
    assert all(s["required_budget"] == "16" for s in report["skipped"])


def _timed_main(capsys, *args):
    start = time.perf_counter()
    code = main(list(args))
    elapsed = time.perf_counter() - start
    return code, capsys.readouterr(), elapsed


@pytest.mark.parametrize("ell, required", [(16, 2**32), (24, 2**48)])
def test_verify_budget_covers_every_profile_of_a_cell(capsys, ell, required):
    # (mu + 1)^ell profiles, one enumeration of 2^ell vectors each
    code, captured, elapsed = _timed_main(capsys, "verify", "--grid", f"2,1,1,{ell}")
    assert elapsed < 1.0
    assert code == EXIT_BUDGET
    report = json.loads(captured.out)
    # only the rank-1 additivity checks, which run outside the grid, are left
    assert {rec["formula_variant"] for rec in report["records"]} == {"lemma8"}
    assert report["paper_variant_discrepancies"] == []
    assert report["skipped"] == [
        {"cell": {"q": 2, "m": 1, "eta": 1, "ell": ell}, "required_budget": str(required)}
    ]


def test_verify_budget_boundary_is_the_total_over_profiles(capsys):
    # (2,2,2,1): 3 profiles over 16 vectors
    code, report = run_json(capsys, "verify", "--grid", "2,2,2,1", "--budget", "48")
    assert code == EXIT_OK and report["skipped"] == []
    code, report = run_json(capsys, "verify", "--grid", "2,2,2,1", "--budget", "47")
    assert code == EXIT_BUDGET
    assert report["skipped"] == [
        {"cell": {"q": 2, "m": 2, "eta": 2, "ell": 1}, "required_budget": "48"}
    ]


def test_intersect_oracle_budget_covers_every_composition(capsys):
    # 12,870 compositions of 8 into 16 parts of at most 1, over 2^16 vectors each
    code, captured, elapsed = _timed_main(
        capsys, "intersect", "--q", "2", "--m", "1", "--eta", "1", "--ell", "16",
        "--u", "1", "--s", "1", "--t", "8", "--oracle")
    assert elapsed < 1.0
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err == (
        f"error: enumeration needs {12870 * 2**16} candidates, budget is 16777216\n")


def test_intersect_oracle_budget_boundary(capsys):
    # (0,2), (1,1) and (2,0) over 256 vectors
    argv = ["intersect", *PARAMS_222, "--u", "1", "--s", "1", "--t", "2", "--oracle"]
    code, report = run_json(capsys, *argv, "--budget", "768")
    assert code == EXIT_OK and len(report["records"]) == 3
    code, captured, _ = _timed_main(capsys, *argv, "--budget", "767")
    assert code == EXIT_BUDGET
    assert captured.err == "error: enumeration needs 768 candidates, budget is 767\n"
    # one profile is refused as the oracle refuses its single pass
    code, captured, _ = _timed_main(capsys, "intersect", *PARAMS_222, "--u", "1", "--s", "1",
                                    "--profile", "1,1", "--oracle", "--budget", "255")
    assert code == EXIT_BUDGET
    assert captured.err == "error: enumeration needs 256 candidates, budget is 255\n"


def test_intersect_oracle_counts_compositions_before_listing_them(capsys):
    # 2,704,156 compositions of 12 into 24 parts of at most 1, over 2^24 vectors each,
    # are 45,368,209,309,696 candidates: refused from their count, before any is listed
    code, captured, elapsed = _timed_main(
        capsys, "intersect", "--q", "2", "--m", "1", "--eta", "1", "--ell", "24",
        "--u", "1", "--s", "1", "--t", "12", "--oracle")
    assert elapsed < 1.0
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err == (
        "error: enumeration needs 45368209309696 candidates, budget is 16777216\n")


def test_intersect_oracle_refuses_a_space_over_budget_by_its_size(capsys):
    # the space alone (256 vectors) is over budget, so its three compositions are not counted
    code, captured, _ = _timed_main(capsys, "intersect", *PARAMS_222, "--u", "1", "--s", "1",
                                    "--t", "2", "--oracle", "--budget", "100")
    assert code == EXIT_BUDGET
    assert captured.err == "error: enumeration needs 256 candidates, budget is 100\n"


# every cell with at most 2^12 vectors over q in {2, 3, 4}
SMALL_CELLS = [
    (q, m, eta, ell)
    for q in (2, 3, 4)
    for m in range(1, 13)
    for eta in range(1, 13)
    for ell in range(1, 13)
    if q ** (m * eta * ell) <= 2**12
]


@st.composite
def _oracle_intersect_call(draw):
    q, m, eta, ell = draw(st.sampled_from(SMALL_CELLS))
    mu, space = min(m, eta), q ** (m * eta * ell)
    t = draw(st.integers(0, ell * mu))
    total = count_uniform(t, ell, mu) * space
    # the budget is kept small enough that an accepted call stays cheap, and
    # the refusal boundaries are drawn whenever they fit under it
    cap = 2**15
    edges = [b for b in (space - 1, space, total - 1, total) if 0 <= b <= cap]
    budget = draw(st.one_of(st.integers(0, cap), st.sampled_from(edges or [0])))
    u, s = draw(st.integers(0, ell * mu)), draw(st.integers(0, ell * mu))
    return (q, m, eta, ell), t, u, s, budget


@settings(max_examples=150, deadline=None)
@given(_oracle_intersect_call())
def test_intersect_oracle_obeys_the_one_budget_rule(call):
    (q, m, eta, ell), t, u, s, budget = call
    argv = ["intersect", "--q", str(q), "--m", str(m), "--eta", str(eta), "--ell", str(ell),
            "--u", str(u), "--s", str(s), "--t", str(t), "--oracle", "--budget", str(budget)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    space = q ** (m * eta * ell)
    if q == 4:
        assert code == EXIT_BAD_ARGS
    elif space > budget or count_uniform(t, ell, min(m, eta)) * space > budget:
        assert code == EXIT_BUDGET and out.getvalue() == ""
    else:
        assert code == EXIT_OK
        records = json.loads(out.getvalue())["records"]
        assert records and all(rec["match"] == "yes" for rec in records)


# q^(m*eta*ell) = 7^7488 has 6329 digits, past the default int-to-str limit of 4300
PARAMS_BIG = ["--q", "7", "--m", "16", "--eta", "18", "--ell", "26"]
BIG_SPACE = Decimal(7**7488)


def test_volume_oracle_refuses_a_space_past_the_digit_limit(capsys):
    code = main(["volume", *PARAMS_BIG, "--kind", "ball", "--t", "1", "--oracle"])
    captured = capsys.readouterr()
    assert code == EXIT_BUDGET
    assert captured.out == ""
    assert captured.err == f"error: enumeration needs {BIG_SPACE} candidates, budget is 16777216\n"


def test_verify_skips_a_space_past_the_digit_limit(capsys):
    code, report = run_json(capsys, "verify", "--grid", ",".join(PARAMS_BIG[1::2]))
    assert code == EXIT_BUDGET
    assert report["skipped"] == [
        {"cell": {"q": 7, "m": 16, "eta": 18, "ell": 26}, "required_budget": str(BIG_SPACE)}
    ]
    jsonschema.validate(report, REPORT_SCHEMA)


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()
    assert build_parser.cache_parameters()["maxsize"] == 1


def test_main_calls_leave_no_state_behind(capsys):
    # an --oracle call, then a plain one, answers as a fresh process does
    argv = ["volume", *PARAMS_222, "--kind", "sphere", "--t", "2"]
    env = {**os.environ, "PYTHONPATH": str(Path(sumrank.__file__).resolve().parents[1])}
    fresh = subprocess.run([sys.executable, "-m", "sumrank.cli", *argv], env=env,
                           capture_output=True, text=True, check=True).stdout
    assert run_cli(capsys, *argv, "--oracle")[0] == EXIT_OK
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_OK

    def blank(text):
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)

    assert blank(out) == blank(fresh)


def test_json_round_trip_is_byte_identical(capsys):
    _, out = run_cli(capsys, "volume", *PARAMS_221, "--kind", "distribution")
    parsed = json.loads(out)
    assert report_to_json(parsed) + "\n" == out


def test_output_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(["volume", *PARAMS_221, "--kind", "sphere", "--t", "1",
                 "--output", str(path)])
    assert code == EXIT_OK
    report = json.loads(path.read_text())
    assert report["records"][0]["value"] == "9"


def test_text_format(capsys):
    code, out = run_cli(capsys, "volume", *PARAMS_221, "--kind", "sphere", "--t", "1",
                        "--format", "text")
    assert code == EXIT_OK
    assert "sphere" in out and "9" in out


@pytest.mark.parametrize(
    "argv, line",
    [
        (["volume", *PARAMS_221, "--kind", "sphere", "--t", "1", "--output", "{missing}/r.json"],
         None),
        (["volume", *PARAMS_221, "--kind", "distribution", "--format", "csv",
          "--output", "{missing}/d.csv"], None),
        (["volume", *PARAMS_221, "--kind", "sphere", "--t", "1", "--budget", "-1"], None),
        (["volume", "--q", "6", "--m", "2", "--eta", "2", "--ell", "1", "--kind", "sphere",
          "--t", "1"], None),
        # the oracle enumerates over F_q itself, so a prime power that is not prime is refused
        (["volume", "--q", "4", "--m", "1", "--eta", "1", "--ell", "1", "--kind", "ball",
          "--t", "1", "--oracle"], None),
        (["intersect", "--q", "8", "--m", "1", "--eta", "1", "--ell", "1", "--u", "1",
          "--s", "1", "--profile", "1", "--oracle"], None),
        # a literal reading takes no profile, so the oracle has nothing to check: refused,
        # at a prime q and at a prime power alike, rather than skipped
        (["intersect", *PARAMS_222, "--u", "1", "--s", "1", "--t", "2",
          "--variant", "thm1-literal", "--oracle"],
         "error: --variant thm1-literal has no per-profile formula for --oracle to check"),
        (["intersect", "--q", "4", "--m", "2", "--eta", "2", "--ell", "2", "--u", "1",
          "--s", "1", "--t", "2", "--variant", "thm1-literal", "--oracle"],
         "error: --variant thm1-literal has no per-profile formula for --oracle to check"),
        (["verify", "--grid", "2,1,1,1;9,1,1,1"], None),
        (["intersect", *PARAMS_222, "--u", "1", "--s", "1", "--profile", "1"],
         "error: profile length 1 != ell = 2"),
        (["intersect", *PARAMS_222, "--u", "1", "--s", "1", "--profile", "3,0"],
         "error: profile parts must lie in 0..mu = 2"),
        (["intersect", *PARAMS_222, "--u", "1", "--s", "1", "--profile", "a,b"],
         "error: profile must be comma-separated integers: 'a,b'"),
        (["intersect", *PARAMS_222, "--u", "1", "--s", "1", "--variant", "exact",
          "--profile", "1,0", "--t", "3"], "error: --profile sums to 1 but --t is 3"),
        (["intersect", *PARAMS_222, "--u", "1", "--s", "1", "--variant", "thm3",
          "--profile", "1,0", "--t", "99"], "error: t must lie in 0..4"),
        (["intersect", *PARAMS_222, "--u", "1", "--s", "99", "--variant", "thm1-literal",
          "--profile", "1,0", "--t", "99"], "error: t must lie in 0..4"),
        # the formulas refuse these too, but --t is checked before any formula runs
        (["intersect", *PARAMS_222, "--u", "0", "--s", "0", "--variant", "thm2",
          "--profile", "1,1", "--t", "5"], "error: t must lie in 0..4"),
        (["intersect", *PARAMS_222, "--u", "0", "--s", "0", "--variant", "thm1-literal",
          "--profile", "1,1", "--t", "-1"], "error: t must lie in 0..4"),
        (["volume", *PARAMS_221, "--kind", "distribution", "--t", "99"],
         "error: --kind distribution takes no --t"),
        (["volume", *PARAMS_221, "--kind", "distribution", "--t", "-5"],
         "error: --kind distribution takes no --t"),
        # the CSV has no oracle column, so the cross-check would be lost
        (["volume", *PARAMS_221, "--kind", "ball", "--t", "1", "--oracle", "--format", "csv"],
         "error: --format csv has no oracle column"),
    ],
    ids=["output-dir-missing", "csv-dir-missing", "negative-budget", "q-not-prime-power",
         "volume-oracle-q-composite", "intersect-oracle-q-composite",
         "intersect-oracle-literal-only", "intersect-oracle-literal-only-q-composite",
         "verify-q-composite",
         "profile-too-short", "profile-part-above-mu", "profile-not-integers",
         "profile-t-disagree", "profile-t-above-max-thm3", "profile-t-above-max-thm1",
         "profile-t-above-max-thm2", "profile-t-negative-thm1", "distribution-with-t",
         "distribution-with-negative-t", "csv-with-oracle"],
)
def test_bad_input_is_one_error_line_exit_2(capsys, tmp_path, argv, line):
    code = main([arg.format(missing=tmp_path / "missing") for arg in argv])
    captured = capsys.readouterr()
    assert code == EXIT_BAD_ARGS
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if line is not None:
        assert captured.err == line + "\n"


@pytest.mark.parametrize("command", [
    ["intersect", *PARAMS_222, "--u", "1", "--s", "1", "--t", "2"],
    ["verify", "--grid", "none"],
])
def test_csv_is_a_volume_format_only(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--format", "csv"])
    assert exc.value.code == EXIT_BAD_ARGS
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["sphere", "ball"])
def test_small_radius_at_a_large_space_matches_the_closed_forms(capsys, kind):
    # the weight distribution here has 160001 entries; radius 3 needs only four
    ell = 400
    n1, n2, n3 = (num_matrices_rank(400, 400, r, 2) for r in (1, 2, 3))
    spheres = [
        1,
        ell * n1,
        ell * n2 + math.comb(ell, 2) * n1**2,
        ell * n3 + ell * (ell - 1) * n1 * n2 + math.comb(ell, 3) * n1**3,
    ]
    code, report = run_json(capsys, "volume", "--q", "2", "--m", "400", "--eta", "400",
                            "--ell", str(ell), "--kind", kind, "--t", "3")
    assert code == EXIT_OK
    expected = spheres[3] if kind == "sphere" else sum(spheres)
    assert report["records"][0]["value"] == str(expected)


def test_a_plain_value_error_in_a_formula_is_a_fault(monkeypatch):
    def broken(p, u, s, t):
        raise ValueError("formula fault")

    monkeypatch.setattr(intersections, "theorem1_literal", broken)
    with pytest.raises(ValueError, match="^formula fault$") as exc:
        main(["intersect", *PARAMS_222, "--u", "1", "--s", "1", "--t", "2",
              "--variant", "thm1-literal"])
    assert type(exc.value) is ValueError


def _opt(name, values):
    # an option and its value, or nothing when None is drawn
    return st.sampled_from(values).map(lambda v: [] if v is None else [name, str(v)])


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(
        _opt("--variant", ["exact", "thm1-literal", "thm2", "thm3"]),
        _opt("--profile", [None, "1,1", "0,0", "2,0"]),
        _opt("--t", [None, -1, 0, 1, 2, 3, 4, 5, 99]),
        _opt("--u", [-1, 0, 1, 3, 9]),
        _opt("--s", [-1, 0, 2, 9]),
    )
)
def test_intersect_answers_or_refuses_with_one_error_line(options):
    argv = ["intersect", *PARAMS_222] + [arg for option in options for arg in option]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_BAD_ARGS)
    if code == EXIT_BAD_ARGS:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_readme_cli_examples_exit_0(capsys, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```")[1]
    examples = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("sumrank ")]
    assert examples
    for argv in examples:
        if "--output" in argv:
            at = argv.index("--output") + 1
            argv[at] = str(tmp_path / argv[at])
        assert main(argv) == EXIT_OK, " ".join(argv)
