"""Golden bytes: the deterministic CLI outputs match pinned sha256 digests.

The digests were captured from the per-step loop implementation of the
certificate checks and the trace CSV writer; the array rewrite must keep
every byte. They pin float64 rounding of this numpy and BLAS build, so a
different numerical stack can move them without a defect in momlab.
"""

import hashlib
import json
from pathlib import Path

import pytest

from momlab import cli, optimizer
from momlab.cli import main

CONFIG_DIR = Path(__file__).parent.parent / "configs"

# non-dyadic beta, gamma != 0 and delta > 0: the scalar pow, math.hypot and
# |beta|**k terms of the checks all reach the pinned bytes
GENERIC_CFG = """
problem: {kind: matrix_factorization, m: 4, n: 4, rank: 2, seed: 3}
params: {alpha: auto, beta: 0.3, gamma: 0.7, preset: generic, delta: 0.5}
init:
  x0: {random: {radius: 0.5, seed: 2}}
lipschitz: {mode: sampled, center: x0, radius: 6.0, seed: 1}
stop: {max_iters: 3000}
checks: [descent, grad_bounds, step_bounds, rate, length, kl_fit]
"""

GOLDEN_RUNS = {
    "quadratic": (
        "419862cb02ff20498967e12277d3e3b5f825d43c58243c2870a5399c13527f1d",
        "a7d18f46eec84a73a157fa8bf62add0e762ecb05dffc689d496428884cb7d037",
    ),
    "matrix_factorization": (
        "353d1113045a12d363cb6e0a0b18e6ac84b795490d0a3fa246b50e0e1ea35578",
        "1d4c1847b18bc129f4a1877d8c8ca4c31aedb6f2f5d76d5499b6bc902e9fb844",
    ),
    "generic": (
        "86ebdbe82b704ee685e7acef84bcd97035467cfbd1753192e72a4667ec7f98e9",
        "2f0e909794ec85f03975070896f3c7e01346dfeda597460aba6b0d71630ea680",
    ),
    # one certified heavy-ball run per remaining benchmark family
    "quartic": (
        "9ef7f097894379f9af4c972b0f7ee29782e4449b6ff4bad8634bfe6e8105dfb4",
        "15aea10037f9dd96e61da4c1a0fa7433836392b4e2ac5f76e340492f2d323749",
    ),
    "matrix_sensing": (
        "4daf83476fe08fba95524886d8564224949e1c9bd6b4b9d60762b36b2f770f8c",
        "739ab19e7c99298abc01d8571182993d6b386f541657ae3570e5946a3a9bea5c",
    ),
    "linear_network": (
        "9796efacc6fc6c716075d9f23e3901e47d6d203899bbe479d03454a66627ab1a",
        "b8c953154f719d04abf62e1747f42547a15b68fed2ce38805b89da2dede2f2c3",
    ),
    # the measure-zero exception to saddle escape
    "stable_axis": (
        "41f88023fae2e1eee5819a01ea75b5894f9ca3515ebf83a5a3135bcf0a905249",
        "6c1b2373859267a115cab048c521a956d7ea66b91d1e95f2f10ea5d9c3e95595",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_run_outputs_match_golden_digests(name, tmp_path):
    if name == "generic":
        config = tmp_path / "generic.yaml"
        config.write_text(GENERIC_CFG)
    else:
        config = CONFIG_DIR / f"{name}.yaml"
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    trace_digest, certificate_digest = GOLDEN_RUNS[name]
    assert sha256(out / "trace.csv") == trace_digest
    assert sha256(out / "certificate.json") == certificate_digest
    report = json.loads((out / "report.json").read_text())
    if name == "stable_axis":
        # ||grad f(x)|| = ||x||: the run ends within 1e-10 of the saddle
        assert report["stop_reason"] == "grad_tol" and report["final_grad_norm"] < 1e-10
    else:
        assert report["stop_reason"] == "max_iters"


def test_gamma_free_tracking_matches_golden_digest(tmp_path):
    out = tmp_path / "out"
    config = CONFIG_DIR / "quadratic_track.yaml"
    assert main(["track", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert sha256(out / "tracking.csv") == (
        "4cb498d33c130855687739f662744c8495f6efee9714b1325d56ff62b13517e7"
    )


# a non-quadratic flow: heavy ball on a 4x4 rank-2 factorization, whose
# integration takes many adaptive steps, some of them rejected
MF_TRACK_CFG = """
problem: {kind: matrix_factorization, m: 4, n: 4, rank: 2, seed: 5}
params: {beta: 0.5, preset: heavy_ball}
init:
  x0: {random: {radius: 0.5, seed: 2}}
track: {horizon: 20.0, alphas: [0.01, 0.005, 0.0025]}
"""


def test_factorization_tracking_matches_golden_digest(tmp_path):
    config = tmp_path / "mf_track.yaml"
    config.write_text(MF_TRACK_CFG)
    out = tmp_path / "out"
    assert main(["track", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert sha256(out / "tracking.csv") == (
        "99fb5f0fa89ea0c5adf257514ea73efc81d66bae17df6a40172a170d4c431d0e"
    )


@pytest.mark.parametrize("command, config, output, digest", [
    ("sweep", "quadratic_sweep.yaml", "sweep.csv",
     "eb05ab6e1dc6c0e36a8b172a1d13fe8b0d4b21a984c7627b4c5861f847e8e59f"),
    ("saddle", "indefinite_saddle.yaml", "escape.json",
     "fc9a92ab442ea40fba745ee807f0351f80d0dbb3b050b6c6d2356a83826acf6d"),
    ("track", "quadratic_track_gd.yaml", "tracking.csv",
     "a84981927f75ce384f11e2857646806d6fbc8b335bece401c064b00d6c040119"),
    # acceptance criterion 10's factorization saddle
    ("saddle", "factorization_saddle.yaml", "escape.json",
     "3f49b965911fae4a274fdf40a22a10d43dd5125951aa0bd8dfb3e8a0c43fb6a1"),
])
def test_shipped_outputs_match_golden_digests(command, config, output, digest, tmp_path):
    out = tmp_path / "out"
    assert main([command, "--config", str(CONFIG_DIR / config), "--out", str(out), "--quiet"]) == 0
    assert sha256(out / output) == digest
    if command == "saddle":
        report = json.loads((out / "saddle_report.json").read_text())
        assert report["escape_fraction"] == 1.0 and report["n_at_saddle"] == 0


# a generic sweep over heavy-ball (gamma 0) and gamma 0.5 cells, three random
# starts and auto step sizes; its cells stop on grad_tol, left_box and
# max_iters. The digest was taken from the cell-by-cell implementation.
MIXED_SWEEP_CFG = """
problem: {kind: matrix_factorization, m: 3, n: 3, rank: 1, seed: 4}
params: {alpha: auto, beta: 0.0, preset: generic}
init:
  x0: {random: {radius: 1.0, seed: 5}}
lipschitz: {mode: sampled, center: x0, radius: 3.0, seed: 2}
stop: {max_iters: 1500, grad_tol: 1.0e-3, box_radius: 2.2}
checks: [descent, rate]
sweep: {alphas: [auto], betas: [0.0, 0.3, 0.6], gammas: [0.0, 0.5], seeds: [0, 1, 2]}
"""
MIXED_SWEEP_DIGEST = "bc352300a19bade7d773ae97907fd30fd77c635a570ce6a38708a8e9743be95a"


def _mixed_sweep(tmp_path) -> str:
    config = tmp_path / "mixed_sweep.yaml"
    config.write_text(MIXED_SWEEP_CFG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    return sha256(out / "sweep.csv")


def test_mixed_sweep_matches_golden_digest(tmp_path):
    assert _mixed_sweep(tmp_path) == MIXED_SWEEP_DIGEST


@pytest.mark.parametrize("group_bytes, row_block, groups", [
    (None, None, 1), (1, None, 18), (None, 7, 1),
], ids=["None-1", "1-18", "row_block_7"])
def test_sweep_groups_write_the_same_bytes(group_bytes, row_block, groups, tmp_path,
                                           monkeypatch):
    # all 18 cells in one lockstep group, or one cell per group; with blocks
    # of 7 rows, every cell's blocks end mid-run
    if group_bytes is not None:
        monkeypatch.setattr(cli, "_SWEEP_GROUP_BYTES", group_bytes)
    if row_block is not None:
        monkeypatch.setattr(optimizer, "_ROW_BLOCK", row_block)
    calls = []
    lockstep = cli.run_lockstep
    monkeypatch.setattr(cli, "run_lockstep",
                        lambda *args, **kw: calls.append(len(args[1])) or lockstep(*args, **kw))
    assert _mixed_sweep(tmp_path) == MIXED_SWEEP_DIGEST
    assert len(calls) == groups and sum(calls) == 18
