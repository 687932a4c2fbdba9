"""Tests for the benchmark's own code.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import queries  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_same_seed_gives_same_inputs(workload):
    first = queries.make_batch(workload, 7)
    assert first == queries.make_batch(workload, 7)
    assert first != queries.make_batch(workload, 8)
    assert len(first) >= 100  # enough samples for a 90th percentile


def test_bounds_batch_stays_in_its_ranges():
    for _n_table, _n_radius, cells in queries.BOUNDS_TIERS:
        for q, m, eta, ell in cells:
            assert q in (2, 3, 4, 5, 7, 8, 9)
            assert 8 <= m <= 28 and 8 <= eta <= 28 and 4 <= ell <= 28
    batch = queries.make_batch("bounds", 3)
    per_params: dict[tuple, list[str]] = {}
    for argv in batch:
        p = checks.params(argv)
        per_params.setdefault((p.q, p.m, p.eta, p.ell), []).append(checks.flags(argv)["kind"])
    for kinds in per_params.values():
        assert sum(k != "distribution" for k in kinds) >= 2  # several radii per params
        if "distribution" in kinds:
            assert kinds[0] == "distribution"


def test_intersect_and_verify_batches_follow_their_rules():
    for argv in queries.make_batch("intersect", 5):
        p = checks.params(argv)
        assert 4 <= p.m <= 16 and 4 <= p.eta <= 16 and 2 <= p.ell <= 10
        if "thm1-literal" in argv:
            assert p.ell * p.mu <= queries.THM1_MAX_WEIGHT
    cells = [argv[2] for argv in queries.make_batch("verify", 5)]
    assert "3,2,2,2" in cells


def test_tracing_keeps_return_values_and_cache_info():
    from sumrank import compositions, intersections, qkit, volumes
    from sumrank.volumes import Params

    p = Params(q=2, m=3, eta=2, ell=3)
    originals = (qkit.gaussian_binomial, intersections.num_matrices_rank,
                 volumes.weight_distribution)
    expected_binomial = qkit.gaussian_binomial(6, 3, 2)
    expected_dist = volumes.weight_distribution(p)
    expected_profiles = list(compositions.enumerate_uniform(3, 3, 2))
    expected_j = intersections.rank_sphere_intersection_J(1, 1, 1, 2, 3, 2)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qkit.gaussian_binomial is not originals[0]
        assert intersections.num_matrices_rank is qkit.num_matrices_rank  # rebound there too
        assert qkit.gaussian_binomial(6, 3, 2) == expected_binomial
        assert qkit.gaussian_binomial.cache_info() == originals[0].cache_info()
        before = volumes.weight_distribution.cache_info().hits
        assert volumes.weight_distribution(p) == expected_dist
        assert volumes.weight_distribution.cache_info().hits == before + 1
        assert list(compositions.enumerate_uniform(3, 3, 2)) == expected_profiles
        assert intersections.rank_sphere_intersection_J(1, 1, 1, 2, 3, 2) == expected_j
        metrics = tracer.metrics(oracle_answers=0)
    finally:
        tracer.uninstall()
    assert (qkit.gaussian_binomial, intersections.num_matrices_rank,
            volumes.weight_distribution) == originals
    assert metrics["compositions.profiles"] == len(expected_profiles)
    assert metrics["volumes.weight_distribution.calls"] == 1
    assert metrics["intersections.J.calls"] == 1
    assert metrics["qkit.calls"] >= 1
    assert not tracer.stack


def test_metric_names_are_well_formed_and_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    for name in end_to_end + per_layer:
        assert METRIC_NAME.fullmatch(name), name
    assert end_to_end == list(bench_run.END_TO_END_UNITS)
    assert per_layer == list(bench_run.PER_LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(queries.WORKLOADS)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert set(tracer.metrics(0)) <= set(bench_run.PER_LAYER_UNITS)


def _worker(request: dict) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")], input=json.dumps(request),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_worker_keeps_idle_layers_at_zero():
    batch = [
        ["intersect", "--q", "2", "--m", "4", "--eta", "4", "--ell", "2",
         "--u", "2", "--s", "1", "--profile", "2,1"],
        ["intersect", "--q", "2", "--m", "4", "--eta", "4", "--ell", "2",
         "--u", "1", "--s", "2", "--profile", "2,1", "--variant", "thm3"],
    ]
    result = _worker({"mode": "batch", "workload": "intersect", "queries": batch,
                      "trace": True, "check": True})
    assert result["failed"] == [] and result["check_failures"] == 0
    layers = result["layers"]
    assert layers["intersections.J.calls"] > 0
    assert layers["volumes.weight_distribution.calls"] == 0
    assert layers["oracle.enumerations"] == 0 and layers["oracle.matrix_rank.calls"] == 0


def test_worker_counts_refused_and_rejected_queries_as_failed():
    batch = [["volume", "--q", "2", "--m", "2", "--eta", "2", "--ell", "1", "--kind", "sphere"],
             ["verify", "--grid", "2,1,1,1", "--budget", "1"],
             ["verify", "--grid", "2,1,1,1"]]
    result = _worker({"mode": "batch", "workload": "verify", "queries": batch,
                      "trace": True, "check": True})
    assert [f["reason"].split(":")[0] for f in result["failed"]] == ["exit 2", "exit 3"]
    assert result["layers"]["oracle.enumerations"] > 0
    assert result["layers"]["oracle.budget_refusals"] > 0  # verify lists them as skipped


def _outcome(argv: list[str], code: int, summary=None, error=None) -> dict:
    return {"argv": argv, "code": code, "error": error, "stderr": "", "summary": summary}


NO_PROBES = {"ran": 0, "known_defect": 0, "reasons": [], "unexpected": []}


def _batch(failed: list, digest: str = "d", probes: dict = NO_PROBES) -> dict:
    return {"digest": digest, "failed": failed, "probes": probes}


def test_verify_mismatch_at_exit_4_is_not_correct():
    outcome = _outcome(["verify", "--grid", "2,1,1,1"], 4, {"required_failures": 2})
    failed = worker.failures("verify", [outcome], check=True)
    assert [f["reason"] for f in failed] == ["check failed: 2 required checks failed"]
    assert not bench_run.is_correct([_batch(failed)])


DIGITS_ERROR = ("ValueError: Exceeds the limit (4300 digits) for integer string "
                "conversion; use sys.set_int_max_str_digits() to increase the limit")
BIG = ["volume", "--q", "2", "--m", "26", "--eta", "26", "--ell", "26"]
SMALL = ["volume", "--q", "2", "--m", "8", "--eta", "8", "--ell", "4"]


def test_only_a_probe_may_hit_the_big_output_defect():
    assert checks.known_defect("bounds", BIG + ["--kind", "distribution"], "raised " + DIGITS_ERROR)
    for argv, error in [(BIG + ["--kind", "ball", "--t", "2"], DIGITS_ERROR),
                        (SMALL + ["--kind", "distribution"], DIGITS_ERROR),
                        (BIG + ["--kind", "distribution"], "ValueError: something else")]:
        assert not checks.known_defect("bounds", argv, "raised " + error), argv
    # a timed query that fails makes the run incorrect, the known defect too
    known = worker.failures("bounds", [_outcome(BIG + ["--kind", "distribution"], None,
                                                error=DIGITS_ERROR)], check=True)
    assert not bench_run.is_correct([_batch(known)])
    for workload, argv, code in [("intersect", ["intersect", "--q", "2"], 1),
                                 ("verify", ["verify", "--grid", "2,1,1,1"], 3)]:
        failed = worker.failures(workload, [_outcome(argv, code)], check=True)
        assert not bench_run.is_correct([_batch(failed)])
    assert not bench_run.is_correct([_batch([], "a"), _batch([], "b")])
    hit = {"ran": 1, "known_defect": 1, "reasons": ["raised ValueError"], "unexpected": []}
    assert bench_run.is_correct([_batch([], probes=hit)])
    broken = dict(hit, known_defect=0, unexpected=[{"argv": "x", "reason": "exit 1"}])
    assert not bench_run.is_correct([_batch([], probes=broken)])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bounds_batch_times_no_big_distribution(seed):
    probes = queries.make_probes("bounds", seed)
    assert BIG + ["--kind", "distribution"] in probes
    for argv in probes:
        p = checks.params(argv)
        assert checks.flags(argv)["kind"] == "distribution"
        assert queries.big_output((p.q, p.m, p.eta, p.ell))
    for argv in queries.make_batch("bounds", seed):
        p = checks.params(argv)
        if checks.flags(argv)["kind"] == "distribution":
            assert not queries.big_output((p.q, p.m, p.eta, p.ell))
    assert queries.make_probes("intersect", seed) == queries.make_probes("verify", seed) == []


def test_probes_sort_the_known_defect_from_answers():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest cap; (2,12,12,16) has 694 digits
    try:
        big = ["volume", "--q", "2", "--m", "12", "--eta", "12", "--ell", "16",
               "--kind", "distribution"]
        assert queries.big_output((2, 12, 12, 16))
        probed = worker.run_probes("bounds", [big, SMALL + ["--kind", "distribution"]])
    finally:
        sys.set_int_max_str_digits(limit)
    assert probed["ran"] == 2 and probed["known_defect"] == 1
    assert probed["reasons"] == ["raised ValueError"] and probed["unexpected"] == []


def test_output_hash_blanks_the_timestamp_and_ignores_chunking():
    text = '{"a": 1, "timestamp": "2026-01-01T00:00:00", "b": "' + "x" * 200_000 + '"}'
    later = text.replace("2026-01-01", "2027-02-02")
    digests = []
    for parts in ([text], [later], [later[:70_000], later[70_000:]]):
        d = worker.hashlib.sha256()
        worker._hash_output(d, parts)
        digests.append(d.hexdigest())
    assert len(set(digests)) == 1
