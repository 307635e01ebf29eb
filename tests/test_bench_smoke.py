"""One traced benchmark round, so the benchmark's own checks gate the tests.

bench/run.py checks every operation against its own mark arithmetic and
wraps named layers of the package; a renamed traced function or a wrong
recovered KPA matrix makes this round fail.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _traced_round(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    return report


def test_kpa_window_round_is_correct():
    report = _traced_round("kpa-window")
    assert report["metrics"]["attacks.known_plaintext_solver.calls"]["value"] > 0


@pytest.mark.parametrize("workload", ["cipher-files", "cpa-games", "verify-all"])
def test_workload_round_is_correct(workload):
    _traced_round(workload)
