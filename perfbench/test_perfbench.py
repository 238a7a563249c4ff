"""Tests of the benchmark itself: python -m pytest perfbench -q (from the repo root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
from run import Bench, Child, remove_work_dir  # noqa: E402


@pytest.fixture
def survey(monkeypatch):
    """The seed-0 survey bench, cut to its two shipped quadratic configs."""
    monkeypatch.chdir(ROOT)
    bench = Bench(ROOT, "survey", 0)
    bench.invocations = [i for i in bench.invocations if i.name.startswith("quadratic_")]
    yield bench
    remove_work_dir(ROOT)


def test_flipped_csv_byte_and_wrong_exit_code_count_as_failed(survey):
    inv = next(i for i in survey.invocations if i.name == "quadratic_sweep")
    d = survey.new_dir("cli")
    c = Child([sys.executable, "-m", "momlab.cli", *inv.argv, "--out", str(d / "out")],
              survey.env(d), d / "stdout", d / "stderr")
    for name in ("flipped", "exit"):
        shutil.copytree(d / "out", d / name)
        survey.new_dir(name + "_tmp")
    csv = d / "flipped" / "sweep.csv"
    data = bytearray(csv.read_bytes())
    data[-2] ^= 1
    csv.write_bytes(bytes(data))

    survey.settle(inv, c.rc, d / "out", survey.new_dir("out_tmp"), None)
    assert (survey.attempted, survey.failed) == (1, 0)
    survey.settle(inv, c.rc, d / "flipped", survey.work / "flipped_tmp", None)
    assert (survey.attempted, survey.failed) == (2, 1)
    survey.settle(inv, 2, d / "exit", survey.work / "exit_tmp", None)
    assert (survey.attempted, survey.failed) == (3, 2)


def test_traced_passes_repeat_their_counts(survey):
    runs = []
    for _ in range(2):
        r = survey.inprocess_pass(traced=True)
        assert [c["rc"] for c in r["calls"]] == [0, 0] and r["absent"] == []
        runs.append(layers.per_layer(r["spans"], r["import_s"], r["leaked"]))
    assert survey.failed == 0
    counts = [{k: m[k] for k, unit in layers.PER_LAYER if unit in ("count", "ratio")}
              for m in runs]
    assert counts[0] == counts[1]
    m = runs[0]
    assert m["cli.invocations"] == 2 and m["config.parse_calls"] == 2 + 9  # one per sweep cell
    assert m["optimizer.runs"] == 9 + 3  # sweep cells + ladder rungs
    assert m["optimizer.grad_evals_per_step"] == 2.0
    assert m["optimizer.heavy_ball_grad_evals_per_step"] == 2.0
    assert m["gradient_flow.integrate_grad_evals"] > 0


def test_escape_oracle_catches_a_changed_trial(tmp_path):
    inv = next(i for i in generate.workload("escape", 0, tmp_path) if i.name == "indefinite_saddle")
    outcomes = [{"classification": c, "stop_reason": r, "iters": k}
                for c, r, k in inv.expect["outcomes"]]
    (tmp_path / "saddle_report.json").write_text(json.dumps({"alpha": inv.expect["alpha"]}))

    def check(outs):
        (tmp_path / "escape.json").write_text(json.dumps(
            {"escape_fraction": 1.0, "n_at_saddle": 0, "outcomes": outs}))
        return oracle.check(inv.expect, 0, tmp_path)

    assert check(outcomes) == []
    outcomes[7]["iters"] += 1
    assert check(outcomes) != []


def test_generator_is_seeded(tmp_path):
    def files(seed):
        d = tmp_path / str(seed)
        argv = [i.argv for w in generate.WORKLOADS for i in generate.workload(w, seed, d)]
        return argv, {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first, again, other = files(0), files(0), files(1)
    assert first[1] == again[1] and first[1] != other[1]
    assert first[0][2][-2:] == ["--seed", first[0][2][-1]]  # one run goes through --seed


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(generate.WORKLOADS)


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""
