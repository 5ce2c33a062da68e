"""The benchmark runs as it is run to judge a change: one traced and one
untraced workload, each in a fresh interpreter, ending with a correct
result. Its output checks (verdicts against the oracle, the 990/614
step counts of a traced run, session exits) fail the run on a wrong
answer, so a change that breaks one fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload, trace", [("verify-engine", "1"), ("session-loop", "0")])
def test_a_short_benchmark_run_is_correct(workload, trace):
    command = [sys.executable, str(RUN), "--workload", workload, "--seconds", "1", "--trace", trace]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
