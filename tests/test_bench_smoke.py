"""The traced benchmark runs end to end.

In a traced run the per-layer probes and the span wrappers call library
names outside the per-operation error handling, so a renamed or removed
name, or a probe that raises, ends the whole run.  One short traced run
of each workload that reaches them must exit 0 with a correct result.
"""

import json
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["unitarity-sweep", "dirac-catalogue", "tensor-engine"])
def test_traced_run_is_correct(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert json.loads(out.stdout.strip().splitlines()[-1])["correct"] is True
