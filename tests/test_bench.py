"""scripts/bench.py writes a row of every layer it times, on a tiny budget."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from conftest import ALL_KINDS, blas_free_env

ROOT = Path(__file__).parent.parent


def test_bench_appends_a_row(tmp_path):
    out = tmp_path / "bench.json"
    argv = [sys.executable, str(ROOT / "scripts" / "bench.py"), "--out", str(out), "--smoke"]
    for label in ("first", "second"):
        subprocess.run([*argv, "--label", label], check=True, capture_output=True, cwd=tmp_path,
                       env=blas_free_env())
    rows = json.loads(out.read_text())["rows"]
    assert [row["label"] for row in rows] == ["first", "second"]
    row = rows[-1]
    assert row["perfbench"] is None and len(row["src_sha256"]) == 64
    assert row["platform"]["blas"]["threads"] in (1, "unknown")
    assert set(row["bytecode_cache"]) == {"writes", "present_at_start"}
    assert list(row["grad_us"]) == ALL_KINDS
    assert all(g["single_us"] > 0 and g["stacked_us"] > 0 for g in row["grad_us"].values())
    runs = row["run_us_per_step"]
    assert list(runs) == ["mf_heavy_ball", "sensing_nesterov", "network_generic"]
    assert all(r["steps"] == 30 and r["stop_reason"] == "max_iters" and r["us_per_step"] > 0
               for r in runs.values())
    checks = row["checks_us_per_1k_steps"]
    assert list(checks) == list(runs)
    assert all(r["steps"] == 30 and r["us_per_1k_steps"] > 0 for r in checks.values())
    for key in ("lockstep_us_per_row_step", "lockstep_columns_us_per_row_step"):
        lockstep = row[key]
        assert list(lockstep) == list(runs)
        for by_rows in lockstep.values():
            assert list(by_rows) == ["1", "8", "64"]
            assert all(r["row_steps"] == 10 * int(b) and r["us_per_row_step"] > 0
                       for b, r in by_rows.items())


def test_bench_needs_out(tmp_path):
    # a copy of the script, whose default checkout would be tmp_path: without
    # --out it stops at the command line and writes no BENCH_*.json there
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "bench.py", tmp_path / "scripts" / "bench.py")
    argv = [sys.executable, str(tmp_path / "scripts" / "bench.py"), "--root", str(ROOT),
            "--label", "x", "--smoke"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, env=blas_free_env())
    assert done.returncode == 2 and "--out" in done.stderr
    assert not list(tmp_path.rglob("BENCH_*.json"))
