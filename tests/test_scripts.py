"""Smoke tests of the experiment scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).parent.parent / "scripts"


def script(name, *argv):
    res = subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return res.stdout


def test_run_benchmarks_writes_trace_csv_and_certificates(tmp_path):
    out = script("run_benchmarks.py", "--iters", "50", "--out", str(tmp_path))
    assert len(out.splitlines()) == 2 + 5
    traces = sorted(tmp_path.glob("*_trace.csv"))
    assert len(traces) == 5 and len(list(tmp_path.glob("*_certificate.json"))) == 5
    for path in traces:
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# problem=")
        assert lines[1] == "k,f,grad_norm,step_norm,H_lambda,descent_slack,gradbound_slack"
        last = lines[-1].split(",")  # x_K has no step and no slacks
        assert last[3] == last[5] == last[6] == "" and last[4] != ""
        assert 3 <= len(lines) <= 2 + 51


def test_tracking_ladder_prints_one_row_per_beta():
    out = script("tracking_ladder.py", "--betas", "0.0", "0.5", "--alphas", "0.1", "0.05")
    rows = out.splitlines()
    assert len(rows) == 2 and all("slope=" in row for row in rows)
