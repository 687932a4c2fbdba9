"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is an exact integer equality; the stated wall-clock limits are
asserted too. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import json
import math
import time

import jsonschema
import pytest

from sumrank import oracle
from sumrank.cli import EXIT_OK, run_verification
from sumrank.compositions import count_uniform, count_upper_bound, enumerate_uniform
from sumrank.intersections import (
    IntersectionQuery,
    rank_sphere_intersection_J,
    sumrank_intersection_exact,
    theorem3_aggregate,
)
from sumrank.qkit import gaussian_binomial, num_matrices_rank, q_krawtchouk
from sumrank.report import REPORT_SCHEMA, report_to_json
from sumrank.volumes import Params, sphere_volume, sphere_volume_by_profiles, weight_distribution

ORACLE_CELLS = [
    Params(q=2, m=2, eta=2, ell=1),
    Params(q=2, m=2, eta=2, ell=2),
    Params(q=2, m=2, eta=1, ell=3),
]


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(criterion, ok, timer, limit=None):
    status = "PASS" if ok else "FAIL"
    timing = f" ({timer.elapsed:.2f}s" + (f" < {limit}s)" if limit else ")")
    print(f"criterion {criterion}: {status}{timing}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_1_mass_conservation():
    with _Timer() as timer:
        ok = True
        for q in (2, 3):
            for m in range(1, 4):
                for eta in range(1, 4):
                    for ell in range(1, 4):
                        p = Params(q=q, m=m, eta=eta, ell=ell)
                        ok = ok and sum(weight_distribution(p)) == p.space_size
    _report(1, ok and timer.elapsed < 5, timer, 5)


def test_criterion_2_rank_and_hamming_reductions():
    with _Timer() as timer:
        ok = True
        for q in (2, 3):
            for m in range(1, 4):
                for eta in range(1, 4):
                    p = Params(q=q, m=m, eta=eta, ell=1)
                    for t in range(p.mu + 2):
                        ok = ok and sphere_volume(p, t) == num_matrices_rank(eta, m, t, q)
                for ell in range(1, 7):
                    p = Params(q=q, m=m, eta=1, ell=ell)
                    for t in range(ell + 1):
                        ok = ok and sphere_volume(p, t) == math.comb(ell, t) * (q**m - 1) ** t
    _report(2, ok, timer)


def test_criterion_3_oracle_equivalence():
    with _Timer() as timer:
        ok = True
        for p in ORACLE_CELLS:
            weights = oracle.count_weights(p)
            for t in range(p.max_weight + 1):
                ok = ok and sphere_volume(p, t) == weights[t]
            for t in range(p.max_weight + 1):
                for profile in enumerate_uniform(t, p.ell, p.mu):
                    for u in range(p.max_weight + 1):
                        for s in range(p.max_weight + 1):
                            query = IntersectionQuery(p=p, u=u, s=s, tprofile=profile)
                            ok = ok and sumrank_intersection_exact(
                                query
                            ) == oracle.count_intersection(p, u, s, profile)
    _report(3, ok and timer.elapsed < 60, timer, 60)


def test_criterion_4_J_well_formedness():
    with _Timer() as timer:
        ok = True
        for q in (2, 3):
            for n in range(1, 5):
                for m in range(1, 5):
                    mu = min(m, n)
                    for t in range(mu + 1):
                        denominator = q ** (m * n) * num_matrices_rank(n, m, t, q)
                        total = 0
                        for u in range(n + 1):
                            for s in range(n + 1):
                                if u > mu or s > mu or u + s < t or abs(u - s) > t:
                                    ok = ok and rank_sphere_intersection_J(u, s, t, n, m, q) == 0
                                    continue
                                numerator = sum(
                                    num_matrices_rank(n, m, i, q)
                                    * q_krawtchouk(u, i, n, m, q)
                                    * q_krawtchouk(s, i, n, m, q)
                                    * q_krawtchouk(t, i, n, m, q)
                                    for i in range(n + 1)
                                )
                                ok = ok and numerator % denominator == 0
                                value = rank_sphere_intersection_J(u, s, t, n, m, q)
                                ok = ok and value >= 0
                                total += value
                        ok = ok and total == q ** (m * n)
                    # same-center orthogonality
                    for u in range(mu + 1):
                        for s in range(mu + 1):
                            expected = num_matrices_rank(n, m, u, q) if u == s else 0
                            ok = ok and rank_sphere_intersection_J(u, s, 0, n, m, q) == expected
    _report(4, ok and timer.elapsed < 10, timer, 10)


def test_criterion_5_theorem3_per_profile():
    with _Timer() as timer:
        ok = True
        for p in ORACLE_CELLS:
            for t in range(p.max_weight + 1):
                for profile in enumerate_uniform(t, p.ell, p.mu):
                    for gamma in range(t + 1):
                        agg = theorem3_aggregate(p, gamma, profile)
                        query = IntersectionQuery(
                            p=p, u=gamma, s=t - gamma, tprofile=profile
                        )
                        ok = ok and agg == sumrank_intersection_exact(query)
                        ok = ok and agg == oracle.count_intersection(
                            p, gamma, t - gamma, profile
                        )
    _report(5, ok, timer)


def test_criterion_6_composition_identities():
    with _Timer() as timer:
        ok = True
        for t in range(13):
            for ell in range(1, 7):
                for mu in range(6):
                    count = count_uniform(t, ell, mu)
                    ok = ok and count == len(list(enumerate_uniform(t, ell, mu)))
                    ok = ok and count <= count_upper_bound(t, ell)
    _report(6, ok and timer.elapsed < 1, timer, 1)


def test_criterion_7_els_pair_count():
    with _Timer() as timer:
        ok = True
        for q in (2, 3):
            for k in range(4):
                for a in range(k + 1):
                    closed = q ** (a * (k - a)) * gaussian_binomial(k, a, q)
                    ok = ok and oracle.els_pair_count_check(k, a, q) == closed
    _report(7, ok, timer)


def test_criterion_8_discrepancy_report():
    with _Timer() as timer:
        cells = [(p.q, p.m, p.eta, p.ell) for p in ORACLE_CELLS]
        report, code = run_verification(cells, budget=2**24)
        jsonschema.validate(report, REPORT_SCHEMA)
        # for every cell: literal theorem 1/2/3 values alongside per-profile
        # and oracle values, with match flags
        ok = code == EXIT_OK
        findings = report["paper_variant_discrepancies"]
        for q, m, eta, ell in cells:
            for variant in ("thm1-literal", "thm2-literal", "thm3-literal"):
                ok = ok and any(
                    rec["formula_variant"] == variant
                    and rec["query"]["q"] == q
                    and rec["query"]["m"] == m
                    and rec["query"]["eta"] == eta
                    and rec["query"]["ell"] == ell
                    and rec["oracle_value"] is not None
                    and rec["match"] in ("yes", "no")
                    for rec in findings
                )
        # report survives a JSON round trip regardless of match outcomes
        ok = ok and json.loads(report_to_json(report)) == report
    _report(8, ok, timer)


def test_criterion_9_convolution_performance():
    with _Timer() as timer:
        p = Params(q=2, m=8, eta=8, ell=8)
        weight_distribution.cache_clear()
        dist = weight_distribution(p)
    ok = sum(dist) == p.space_size and timer.elapsed < 1
    # DP agrees with the partition-sum reference on the criterion-1 grid
    for q in (2, 3):
        for m in range(1, 4):
            for eta in range(1, 4):
                for ell in range(1, 4):
                    pp = Params(q=q, m=m, eta=eta, ell=ell)
                    for t in range(pp.max_weight + 1):
                        ok = ok and sphere_volume(pp, t) == sphere_volume_by_profiles(pp, t)
    _report(9, ok, timer, 1)


def test_criterion_9_small_radius_cost_does_not_grow_with_ell():
    # a radius-2 sphere costs O(t*mu) products, not one pass per block
    with _Timer() as timer:
        ok = sphere_volume(Params(q=2, m=1, eta=1, ell=10**7), 2) == math.comb(10**7, 2)
    _report(9, ok and timer.elapsed < 1, timer, 1)
