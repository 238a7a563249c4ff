"""Seeded workload generator.

`workload(name, seed, config_dir)` writes the generated YAML configs of one
workload into `config_dir` and returns the workload's CLI invocations, each
with the expectations the oracle checks its outputs against. The same seed
gives byte-identical configs; the CLI sees only these files (and the shipped
configs under `configs/`), never the seed itself.

The expectations are seed-independent: every accepted seed must give runs
that certify (exit 0), so a seed that breaks one is a defect of the program,
not of the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import oracle

WORKLOADS = ("certify", "escape", "survey")
SHIPPED = Path("configs")

# report.json names of the per-step checks a config requests
CHECK_NAMES = {"descent": "descent", "grad_bounds": "gradient_bound", "step_bounds": "step_bound"}


@dataclass
class Invocation:
    """One `python -m momlab.cli` call: its arguments (without --out) and expectations."""

    name: str
    argv: list
    expect: dict = field(default_factory=dict)


def _expect(command: str, raw: dict) -> dict:
    """Seed-independent expectations for one command on one config."""
    if command == "run":
        stop = raw.get("stop", {})
        if stop.get("grad_tol", 0.0) != 0.0:
            raise ValueError("run configs here stop on max_iters only, so the step count is fixed")
        checks = raw.get("checks", ["descent", "grad_bounds", "step_bounds", "rate"])
        steps = stop.get("max_iters", 2000)
        return {
            "steps": steps,
            "per_step": sorted(CHECK_NAMES[c] for c in checks if c in CHECK_NAMES),
            "rate": "rate" in checks,
            "length": "length" in checks,
            "kl_fit": "kl_fit" in checks or "length" in checks,
            "csv": "trace.csv",
            "rows": steps + 1,
        }
    if command == "saddle":
        # replay the study independently now; the oracle compares every trial
        p, s, stop = raw["problem"], raw["saddle"], raw.get("stop", {})
        pz = raw.get("params", {})
        if pz.get("preset") != "heavy_ball" or s.get("point", "origin") != "origin":
            raise ValueError("the escape reference covers heavy-ball studies at the origin")
        alpha, labels, reasons, iters = oracle.escape_reference({
            "problem": {k: p[k] for k in ("kind", "m", "n", "rank", "seed") if k in p},
            "alpha": pz.get("alpha", "auto"),
            "beta": float(pz["beta"]),
            "radius": float(s.get("radius", 1e-3)),
            "trials": int(s.get("trials", 100)),
            "seed": int(s.get("seed", 0)),
            "max_iters": int(stop.get("max_iters", 2000)),
            "grad_tol": max(float(stop.get("grad_tol", 0.0)), 1e-9),
            "box_radius": float(stop.get("box_radius", 100.0)),
        })
        return {"alpha": alpha, "outcomes": list(zip(labels, reasons, iters))}
    if command == "sweep":
        sw = raw["sweep"]
        cells = 1
        for key in ("alphas", "betas", "gammas", "seeds"):
            cells *= len(sw[key])
        return {"csv": "sweep.csv", "rows": cells}
    if command == "track":
        return {"csv": "tracking.csv", "rows": len(raw["track"]["alphas"])}
    raise ValueError(f"unknown command {command!r}")


def _shipped(command: str, filename: str) -> Invocation:
    path = SHIPPED / filename
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    return Invocation(Path(filename).stem, [command, "--config", str(path)], {
        "command": command, **_expect(command, raw)})


def _generated(command: str, name: str, raw: dict, config_dir: Path, extra=()) -> Invocation:
    path = config_dir / f"{name}.yaml"
    # JSON is valid YAML and keeps the file byte-stable across pyyaml versions
    path.write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
    return Invocation(name, [command, "--config", str(path), *extra], {
        "command": command, **_expect(command, raw)})


def _certify(rng, config_dir):
    draw = lambda: int(rng.integers(0, 2**31 - 1))  # noqa: E731
    # a Lipschitz radius of 10 keeps the long runs inside the trust ball; at
    # radius 4 the 8x8 factorization leaves it within 50 steps and exits 2
    mf_seed = draw()
    mf = {
        "problem": {"kind": "matrix_factorization", "m": 8, "n": 8, "rank": 3, "seed": 0},
        "params": {"alpha": "auto", "beta": 0.5, "preset": "heavy_ball"},
        "init": {"x0": {"random": {"radius": 0.5, "seed": draw()}}},
        "lipschitz": {"mode": "sampled", "center": "x0", "radius": 10.0, "seed": draw()},
        "stop": {"max_iters": 20000},
        "checks": ["descent", "grad_bounds", "step_bounds", "rate", "length", "kl_fit"],
    }
    sensing = {
        "problem": {"kind": "matrix_sensing", "m": 6, "n": 6, "rank": 2, "p": 40, "seed": draw()},
        "params": {"alpha": "auto", "beta": 0.5, "preset": "nesterov"},
        "init": {"x0": {"random": {"radius": 0.5, "seed": draw()}}},
        "lipschitz": {"mode": "sampled", "center": "x0", "radius": 10.0, "seed": draw()},
        "stop": {"max_iters": 20000},
        "checks": ["descent", "grad_bounds", "step_bounds", "rate"],
    }
    network = {
        "problem": {"kind": "linear_network", "widths": [4, 6, 6, 6, 4], "samples": 8,
                    "seed": draw()},
        "params": {"alpha": "auto", "beta": 0.5, "gamma": 0.25, "preset": "generic"},
        "init": {"x0": {"random": {"radius": 0.5, "seed": draw()}}},
        "lipschitz": {"mode": "sampled", "center": "x0", "radius": 10.0, "seed": draw()},
        "stop": {"max_iters": 20000},
        "checks": ["descent", "grad_bounds", "step_bounds", "rate"],
    }
    return [
        _shipped("run", "quadratic.yaml"),
        _shipped("run", "matrix_factorization.yaml"),
        # the problem seed arrives through --seed, the CLI's own override path
        _generated("run", "mf_heavy_ball", mf, config_dir, ["--seed", str(mf_seed)]),
        _generated("run", "sensing_nesterov", sensing, config_dir),
        _generated("run", "network_generic", network, config_dir),
    ]


def _escape(seed, config_dir):
    # acceptance criterion 10's matrix-factorization saddle; the trial seed is
    # the workload seed, so seed 0 replays that study (289,242 trial-steps).
    # alpha is explicit: 'auto' gives a far larger step and ~87 steps a trial.
    study = {
        "problem": {"kind": "matrix_factorization", "m": 3, "n": 3, "rank": 1, "seed": 11},
        "params": {"alpha": 0.0017, "beta": 0.5, "preset": "heavy_ball"},
        "stop": {"max_iters": 40000, "grad_tol": 1.0e-9, "box_radius": 50.0},
        "saddle": {"point": "origin", "radius": 1.0e-3, "trials": 100, "seed": seed},
    }
    return [
        _shipped("saddle", "indefinite_saddle.yaml"),
        _generated("saddle", "mf_origin_saddle", study, config_dir),
    ]


def _survey(rng, config_dir):
    draw = lambda: int(rng.integers(0, 2**31 - 1))  # noqa: E731
    sweep = {
        "problem": {"kind": "matrix_factorization", "m": 4, "n": 4, "rank": 2, "seed": draw()},
        "params": {"alpha": "auto", "beta": 0.5, "preset": "generic"},
        "init": {"x0": {"random": {"radius": 0.5, "seed": draw()}}},
        "lipschitz": {"mode": "sampled", "center": "x0", "radius": 10.0, "seed": draw()},
        "stop": {"max_iters": 500},
        "checks": ["descent", "rate"],
        "sweep": {"alphas": ["auto"], "betas": [0.0, 0.3, 0.6], "gammas": [0.0, 0.5],
                  "seeds": sorted(int(s) for s in rng.choice(1000, 4, replace=False))},
    }
    # gamma stays 0: `track` ignores gamma, so a gamma != 0 tracking.csv
    # would pin output that is known to be wrong
    track = {
        "problem": {"kind": "matrix_factorization", "m": 4, "n": 4, "rank": 2, "seed": draw()},
        "params": {"beta": 0.5, "preset": "heavy_ball"},
        "init": {"x0": {"random": {"radius": 0.5, "seed": draw()}}},
        "track": {"horizon": 20.0, "alphas": [0.01, 0.005, 0.0025]},
    }
    return [
        _shipped("sweep", "quadratic_sweep.yaml"),
        _shipped("track", "quadratic_track.yaml"),
        _generated("sweep", "mf_sweep", sweep, config_dir),
        _generated("track", "mf_track", track, config_dir),
    ]


def workload(name: str, seed: int, config_dir: Path) -> list:
    """Write the configs of workload `name` for `seed`; return its invocations."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    config_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if name == "certify":
        return _certify(rng, config_dir)
    if name == "escape":
        return _escape(seed, config_dir)
    if name == "survey":
        return _survey(rng, config_dir)
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
