"""Run one batch of benchmark queries in a fresh interpreter.

Started by run.py, one process per batch, so every batch meets cold
`lru_cache`s. The first thing it does is import `sumrank.cli` from the
checkout's `src/`; the parent times interpreter start to that point as set-up.
The request arrives as JSON on stdin:

    {"mode": "probe"}                       report the import time and exit
    {"mode": "batch", "workload": ..., "queries": [[argv...], ...],
     "trace": bool, "check": bool, "probes": [[argv...], ...]}

The batch runs closed-loop, one query after the other, each through
`sumrank.cli.main(argv)` in-process. Only the call itself is timed; hashing
the output happens between calls, and the correctness checks run after the
last query (with tracing removed), so neither the timings nor the traced
counts include them. Only a checked batch gets the probes, the queries
that hit the known defect (queries.make_probes); they run once, untimed,
after the checks. Only a checked or traced batch parses its outputs; a
plain batch hashes them in chunks and keeps no copy, so its peak RSS is
mostly the program's own. The result is one JSON line on stdout.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import sumrank.cli  # noqa: E402  (set-up ends here)

READY = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
from typing import Any, Optional  # noqa: E402

import checks  # noqa: E402
from spans import Tracer  # noqa: E402

_TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
_REFERENCE_EVERY_S = 0.1
_HASH_CHUNK = 1 << 16


def reference_s() -> float:
    """Fastest of three runs of a fixed routine that uses no sumrank code.

    It is plain interpreter work (small-int arithmetic, a dict, a list), the
    kind that dominates the program's time, and so tracks the host's
    current speed.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        key = 0
        seen = {}
        row = [0] * 64
        for i in range(2000):
            key = (key * 31 + i) % 1000003
            seen[key & 255] = i
            row[i & 63] += key
        best = min(best, time.perf_counter() - start)
    return best


class _Sink:
    """A stdout stand-in that keeps what is written without copying it."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def _hash_output(digest: Any, parts: list[str]) -> None:
    """Hash the output with its first timestamp blanked, a chunk at a time."""
    blanked = False
    for part in parts:
        cut = None if blanked else _TIMESTAMP.search(part)
        spans = [(0, len(part))] if cut is None else [(0, cut.start()), (cut.end(), len(part))]
        for n, (lo, hi) in enumerate(spans):
            if n:
                digest.update(b'"timestamp": ""')
                blanked = True
            for i in range(lo, hi, _HASH_CHUNK):
                digest.update(part[i:min(i + _HASH_CHUNK, hi)].encode())


def _run_query(argv: list[str]) -> tuple[float, Optional[int], Optional[str], _Sink, str]:
    out, err = _Sink(), _Sink()
    error = None
    code: Optional[int] = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = sumrank.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed query, by class and message
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        elapsed = time.perf_counter() - start
    return elapsed, code, error, out, err.text()


def failures(workload: str, outcomes: list[dict[str, Any]], check: bool) -> list[dict[str, Any]]:
    """The failed queries of a batch.

    A query fails if it raises, fails a correctness check, or exits non-zero
    (a budget refusal is exit 3). Any failed query makes the run incorrect.
    """
    problems = checks.run(workload, outcomes) if check else {}
    failed = []
    for i, outcome in enumerate(outcomes):
        reason = None
        if outcome["error"] is not None:
            reason = f"raised {outcome['error']}"
        elif i in problems:
            reason = f"check failed: {problems[i]}"
        elif outcome["code"] != 0:
            reason = f"exit {outcome['code']}: {outcome['stderr'].strip()}"
        if reason is not None:
            failed.append({
                "index": i,
                "argv": " ".join(outcome["argv"]),
                "reason": reason,
            })
    return failed


def _parse(code: Optional[int], out: _Sink) -> Optional[dict[str, Any]]:
    return json.loads(out.text()) if code is not None and out.parts else None


def run_probes(workload: str, probes: list[list[str]]) -> dict[str, Any]:
    """Run the known-defect queries once, untimed, and sort their outcomes.

    A probe that raises the known defect (`checks.known_defect`) is counted
    as such. One that answers is checked like any other query, so a fix in
    sumrank shows here. Any other outcome is an unexpected failure.
    """
    outcomes = []
    for argv in probes:
        _elapsed, code, error, out, err = _run_query(argv)
        outcomes.append({"argv": argv, "code": code, "error": error, "stderr": err[-300:],
                         "summary": checks.summarize(workload, argv, _parse(code, out))})
    failed = failures(workload, outcomes, check=True)
    known = [f for f in failed if checks.known_defect(workload, probes[f["index"]], f["reason"])]
    return {
        "ran": len(probes),
        "known_defect": len(known),
        "reasons": sorted({f["reason"].split(":")[0] for f in known}),
        "unexpected": [f for f in failed if f not in known],
    }


def run_batch(request: dict[str, Any]) -> dict[str, Any]:
    workload = request["workload"]
    parse = request["check"] or request["trace"]
    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    digest = hashlib.sha256()
    times: list[float] = []
    outcomes: list[dict[str, Any]] = []
    oracle_answers = 0
    reference = [reference_s()]
    since_reference = 0.0
    for argv in request["queries"]:
        if tracer is not None:
            root = tracer.open("bench.query")
            root_start = tracer.clock()
        elapsed, code, error, out, err = _run_query(argv)
        if tracer is not None:
            tracer.close(root, root_start)
        times.append(elapsed)
        since_reference += elapsed
        if since_reference >= _REFERENCE_EVERY_S:
            reference.append(reference_s())
            since_reference = 0.0
        digest.update(json.dumps([argv, code, error]).encode())
        _hash_output(digest, out.parts)
        report = _parse(code, out) if parse else None
        if report is not None:
            oracle_answers += checks.oracle_answers(report)
        outcomes.append({
            "argv": argv,
            "code": code,
            "error": error,
            "stderr": err[-300:],
            "summary": checks.summarize(workload, argv, report) if request["check"] else None,
        })
        del out, report
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        layers = tracer.metrics(oracle_answers)
        tracer.uninstall()
    check_start = time.perf_counter()
    failed = failures(workload, outcomes, request["check"])
    probes = run_probes(workload, request.get("probes", []))
    check_s = time.perf_counter() - check_start
    return {
        "ready": READY,
        "times": times,
        "reference_s": reference,
        "digest": digest.hexdigest(),
        "peak_rss_kb": peak_rss_kb,
        "failed": failed,
        "probes": probes,
        "checked": len(outcomes) if request["check"] else 0,
        "check_failures": sum(f["reason"].startswith("check failed") for f in failed),
        "check_s": check_s,
        "layers": layers,
    }


def main() -> int:
    if not Path(sumrank.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"sumrank was imported from {sumrank.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    request = json.load(sys.stdin)
    if request["mode"] == "probe":
        result: dict[str, Any] = {"ready": READY, "reference_s": [reference_s()]}
    else:
        result = run_batch(request)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
