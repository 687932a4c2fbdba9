"""sumrank benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {bounds,intersect,verify} --seed N \\
        --seconds S --trace {0,1}

Builds the workload's fixed batch of CLI queries from the seed, then runs it
again and again, each time in a fresh interpreter (bench/worker.py) so the
caches start cold, until S seconds are used (at least two plain batches).
One client sends each query only after the previous one has finished;
everything runs in one thread. The first batch also checks the outputs
(bench/checks.py) and runs, once and untimed, the queries that hit the known
defect (queries.make_probes, checks.known_defect), so no timed query is
expected to fail. The run is correct only if every batch produces the same
output digest, no timed query fails, and every probe either hits the known
defect or answers correctly.

With --trace 0 the result holds the end-to-end metrics. With --trace 1 it
alternates plain and traced batches and holds the per-layer metrics of the
traced ones plus `trace.overhead_ratio`. Human-readable lines and a
provenance record come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

from queries import WORKLOADS, make_batch, make_probes

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_PROBES = 9  # extra interpreter starts per run, for the set-up median
DEADLINE_S = 170.0  # the whole run, workers included, must end before this
# worker.reference_s() on the 2-core Intel Xeon VM the benchmark was built on,
# at its faster speed; every reported time is scaled to this host speed
REFERENCE_NOMINAL_S = 4.0e-4

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "qkit.calls": "count",
    "qkit.self_s": "s",
    "qkit.q_krawtchouk.calls": "count",
    "qkit.cache_hit_ratio": "ratio",
    "compositions.profiles": "count",
    "compositions.self_s": "s",
    "volumes.weight_distribution.calls": "count",
    "volumes.self_s": "s",
    "volumes.cache_hit_ratio": "ratio",
    "volumes.coeff_mults": "count",
    "volumes.output_bits": "bits",
    "volumes.entries_used_ratio": "ratio",
    "intersections.J.calls": "count",
    "intersections.J.distinct_ratio": "ratio",
    "intersections.exact.self_s": "s",
    "intersections.literal.self_s": "s",
    "intersections.self_s": "s",
    "oracle.enumerations": "count",
    "oracle.matrix_rank.calls": "count",
    "oracle.self_s": "s",
    "oracle.budget_refusals": "count",
    "oracle.candidates": "count",
    "oracle.candidates_per_answer": "ratio",
    "report.records": "count",
    "report.bytes": "bytes",
    "report.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "failed_frac": "ratio",
    "report.known_defect_share": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _worker(request: dict[str, Any], started: float) -> tuple[float, dict[str, Any]]:
    """Run one worker process; returns (spawn time, its result)."""
    remaining = DEADLINE_S - (time.perf_counter() - started)
    if remaining < 5:
        raise BenchError("out of time before the run finished")
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return spawned, json.loads(proc.stdout.splitlines()[-1])


def _scale(worker_result: dict[str, Any]) -> float:
    """Factor that brings a worker's times to the nominal host speed.

    The host this benchmark was built on switches, for minutes at a time,
    between speeds up to 1.7x apart. Every worker times a fixed reference
    routine that uses no sumrank code (worker.reference_s) while it runs.
    Its times are then scaled by REFERENCE_NOMINAL_S over the median
    reference time, so runs made at different host speeds stay comparable.
    A change to sumrank does not touch the reference.
    """
    return REFERENCE_NOMINAL_S / statistics.median(worker_result["reference_s"])


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def is_correct(batches: list[dict[str, Any]]) -> bool:
    """Every batch gave the same outputs, and nothing failed but probes by the known defect."""
    return (len({b["digest"] for b in batches}) == 1
            and not any(b["failed"] for b in batches)
            and not any(b["probes"]["unexpected"] for b in batches))


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    started = time.perf_counter()
    if not (ROOT / "src" / "sumrank" / "cli.py").is_file():
        raise BenchError(f"no sumrank sources under {ROOT / 'src'}")
    queries = make_batch(workload, seed)
    probes = make_probes(workload, seed)

    setup = []
    for _ in range(SETUP_PROBES):
        spawned, result = _worker({"mode": "probe"}, started)
        setup.append((result["ready"] - spawned) * _scale(result))

    plain: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    measure_start = time.perf_counter()
    batch_elapsed: list[float] = []
    while True:
        kinds = [False, True] if trace else [False]
        for kind in kinds:
            t0 = time.perf_counter()
            spawned, result = _worker({
                "mode": "batch",
                "workload": workload,
                "queries": queries,
                "trace": kind,
                "check": not plain and not kind,
                "probes": probes if not plain and not kind else [],
            }, started)
            batch_elapsed.append(time.perf_counter() - t0 - result["check_s"])
            setup.append((result["ready"] - spawned) * _scale(result))
            (traced if kind else plain).append(result)
        used = time.perf_counter() - measure_start
        # the checked batch holds parsed outputs, so peak RSS needs one more
        if len(plain) >= 2 and used + sum(batch_elapsed[-len(kinds):]) > seconds:
            break

    batches = plain + traced
    digests = {b["digest"] for b in batches}
    attempted = len(queries) * len(batches)
    failed = sum(len(b["failed"]) for b in batches)
    errors = Counter(f["reason"].split(":")[0] for f in plain[0]["failed"])
    unexpected = sorted({f"{f['argv']}: {f['reason']}"
                         for b in batches for f in b["failed"] + b["probes"]["unexpected"]})
    probed = plain[0]["probes"]
    known_defect_share = probed["known_defect"] / (len(queries) + len(probes))
    walls = [sum(b["times"]) * _scale(b) for b in plain]
    times = [t * _scale(b) for b in plain for t in b["times"]]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "query_p50_ms": 1000 * statistics.median(times),
        "query_p90_ms": 1000 * _percentile(times, 90),
        "peak_rss_mb": statistics.median(b["peak_rss_kb"] for b in plain[1:]) / 1024,
    }
    details = {
        "workload": workload,
        "seed": seed,
        "queries": len(queries),
        "batches": len(plain),
        "traced_batches": len(traced),
        "unscaled_walls_s": [round(sum(b["times"]), 4) for b in plain],
        "reference_ms": [round(1000 * statistics.median(b["reference_s"]), 4) for b in plain],
        "traced_walls_s": [round(sum(b["times"]) * _scale(b), 4) for b in traced],
        "query_samples": len(times),
        "p90_samples_beyond": sum(1 for t in times if 1000 * t > end_to_end["query_p90_ms"]),
        "setup_samples": len(setup),
        "checked_queries": plain[0]["checked"],
        "check_failures": plain[0]["check_failures"],
        "failed_frac": failed / attempted,
        "failures_by_reason": errors,
        "failed_queries": [f["argv"] for f in plain[0]["failed"]],
        "unexpected_failures": unexpected[:20],
        "known_defect": {
            "queries": [" ".join(argv) for argv in probes],
            "raised": probed["known_defect"],
            "reasons": probed["reasons"],
            "share": known_defect_share,
        },
        "output_sha256": sorted(digests),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }
    if trace:
        metrics = {
            name: statistics.median_low(b["layers"][name] for b in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_ratio"] = (
            statistics.median(sum(b["times"]) * _scale(b) for b in traced) / end_to_end["wall_s"]
        )
        metrics["failed_frac"] = details["failed_frac"]
        metrics["report.known_defect_share"] = known_defect_share
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end
        units = END_TO_END_UNITS
    return {
        "details": details,
        "end_to_end": end_to_end,
        "result": {
            "correct": is_correct(batches),
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for name, value in out["end_to_end"].items():
        print(f"{name:<14} {value:12.6g} {END_TO_END_UNITS[name]}")
    print(f"{'failed_frac':<14} {out['details']['failed_frac']:12.6g} ratio")
    print(f"{'known_defect':<14} {out['details']['known_defect']['share']:12.6g} ratio")
    print("details " + json.dumps(out["details"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
