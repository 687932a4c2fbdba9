import hashlib
import re

from sumrank import oracle
from sumrank.cli import EXIT_OK, main, run_verification
from sumrank.volumes import Params

# sha256 of the default `verify` JSON report, timestamp blanked, as the
# per-radius-pair oracle of version 0.1.0 produced it
DEFAULT_REPORT_SHA256 = "6236c0301e2b26f4f4df8750f9e6593e59f8f17b558be8e5296d0500760b673a"


def test_default_report_is_unchanged(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    blanked = re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out, count=1)
    assert hashlib.sha256(blanked.encode()).hexdigest() == DEFAULT_REPORT_SHA256


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
