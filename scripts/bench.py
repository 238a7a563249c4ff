"""Layer timings of one momlab source tree, appended as a row to a BENCH_*.json file.

    git worktree add --detach ../parent HEAD    # the parent, before committing
    python scripts/bench.py --out BENCH_31.json --root ../parent --label parent
    python scripts/bench.py --out BENCH_31.json --label change

--out names the file, and must be given: a row is never appended to a file
the command line does not name.

--root is the root of a momlab checkout (src/momlab, configs/, perfbench/,
tests/conftest.py); its momlab is the one measured. A --root that is not
a git checkout records commit null, with a warning on stderr. A row
records:

- grad_us: microseconds per gradient call for each family of
  tests/conftest.py's ALL_KINDS, at one point and for a stack of
  _ROW_BLOCK (256) points;
- run_us_per_step: run() with a certificates.Columns sink on the three
  20,000-step problems of perfbench's `certify` workload (seed 0), set up
  as `momlab run` sets them up;
- lockstep_us_per_row_step: run_lockstep() with an _Endpoints sink on the
  same problems at B = 1, 8 and 64 starts;
- lockstep_columns_us_per_row_step: the same, with a _RowSinks sink of one
  certificates.Columns per row, as `momlab sweep` steps its cells;
- checks_us_per_1k_steps: certificates.Columns.of over a stored 20,000-step
  Trace of each of those problems plus check_descent, check_gradient_bound
  and check_step_bound on its Columns, per 1,000 steps;
- escape_us_per_trial_step: escape_experiment on the study of perfbench's
  `escape` workload, mf_origin_saddle at seed 0 (289,242 trial-steps), set
  up as `momlab saddle` sets it up: the best and the median;
- perfbench: the result line of each perfbench workload, as printed, at
  seed 0 and 30 seconds;
- the platform fingerprint of `momlab` reports (cli._platform()), whether
  Python wrote a bytecode cache, and the commit and a sha256 of src/.

Each timing is the best of 5 (the escape row adds the median). The
process keeps one BLAS thread, as the CLI does: momlab.cli is imported
before numpy. --smoke runs every layer on a tiny budget and skips
perfbench, for the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
CERTIFY_RUNS = ("mf_heavy_ball", "sensing_nesterov", "network_generic")
ESCAPE_STUDY = "mf_origin_saddle"
LOCKSTEP_ROWS = (1, 8, 64)
# repeats, single-point gradient calls per timing, run() steps, run_lockstep() steps
BUDGET = {"repeats": 5, "calls": 5000, "steps": 20_000, "lockstep_steps": 2000}
SMOKE_BUDGET = {"repeats": 1, "calls": 5, "steps": 30, "lockstep_steps": 10}


def best_us(fn, calls: int, repeats: int) -> float:
    """Best over repeats of the mean wall time of calls calls to fn, in microseconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def gradient_rows(calls: int, repeats: int) -> dict:
    import numpy as np
    from conftest import ALL_KINDS, make_problem
    from momlab.optimizer import _ROW_BLOCK

    rng = np.random.default_rng(0)
    rows = {}
    for kind in ALL_KINDS:
        p = make_problem(kind)
        Z = 0.5 * rng.standard_normal((_ROW_BLOCK, p.dim))
        rows[kind] = {
            "dim": p.dim,
            "single_us": best_us(lambda: p.gradient(Z[0]), calls, repeats),
            "stacked_us": best_us(lambda: p.gradient(Z), max(calls // 50, 1), repeats),
            "stacked_rows": _ROW_BLOCK,
        }
    return rows


def invocations(root: Path, workload: str, config_dir: Path) -> list:
    """perfbench's invocations of workload at seed 0, its configs written to config_dir."""
    import generate

    cwd = os.getcwd()
    os.chdir(root)  # the shipped configs are read relative to the checkout
    try:
        return generate.workload(workload, 0, config_dir)
    finally:
        os.chdir(cwd)


def certify_runs(root: Path, config_dir: Path) -> dict:
    """name -> (problem, x_{-1}, x_0, params, stop, cert) of certify's long runs."""
    from momlab import cli
    from momlab.config import load_config

    runs = {}
    for inv in invocations(root, "certify", config_dir):
        if inv.name in CERTIFY_RUNS:
            args = inv.argv
            seed = int(args[args.index("--seed") + 1]) if "--seed" in args else None
            cfg = load_config(args[args.index("--config") + 1], seed, command="run")
            x0, x_m1, params, stop, cert, _ = cli._prepare(cfg, None)
            runs[inv.name] = (cfg.problem, x_m1, x0, params, stop, cert)
    return runs


def run_rows(runs: dict, steps: int, repeats: int) -> dict:
    from momlab.certificates import Columns
    from momlab.optimizer import StopRules, run

    rows = {}
    for name, (p, x_m1, x0, params, stop, cert) in runs.items():
        stop = StopRules(steps, stop.grad_tol, stop.box_radius)
        cols = []
        us = best_us(lambda: cols.append(run(p, x_m1, x0, params, stop, sink=Columns(p, cert))),
                     1, repeats)
        done = cols[-1].num_steps
        rows[name] = {"problem": p.name, "preset": params.preset, "steps": done,
                      "stop_reason": cols[-1].stop_reason, "us_per_step": us / max(done, 1)}
    return rows


def checks_rows(runs: dict, steps: int, repeats: int) -> dict:
    """µs per 1,000 steps of Columns.of over a stored Trace plus the three per-step checks."""
    from momlab import certificates
    from momlab.optimizer import StopRules, run

    checks = (certificates.check_descent, certificates.check_gradient_bound,
              certificates.check_step_bound)
    rows = {}
    for name, (p, x_m1, x0, params, stop, cert) in runs.items():
        trace = run(p, x_m1, x0, params, StopRules(steps, stop.grad_tol, stop.box_radius))

        def checked():
            cols = certificates.Columns.of(trace, cert)
            for check in checks:
                check(cols, cert)

        us = best_us(checked, 1, repeats)
        rows[name] = {"steps": trace.num_steps,
                      "us_per_1k_steps": 1e3 * us / max(trace.num_steps, 1)}
    return rows


def escape_row(root: Path, config_dir: Path, repeats: int) -> dict:
    """µs per trial-step of escape_experiment on perfbench escape's ESCAPE_STUDY,
    set up as `momlab saddle` sets it up: the best and the median over repeats."""
    import numpy as np
    from momlab import saddle
    from momlab.config import load_config

    (inv,) = [i for i in invocations(root, "escape", config_dir) if i.name == ESCAPE_STUDY]
    cfg = load_config(inv.argv[inv.argv.index("--config") + 1], command="saddle")
    point = np.zeros(cfg.problem.dim)  # the study's saddle is the origin
    analysis = saddle.analyze_critical_point(cfg.problem, point, cfg.momentum_params(1e-6))
    params = cfg.momentum_params(cfg.alpha_spec)  # the study's alpha is explicit
    kw = {key: cfg.saddle[key] for key in ("radius", "trials", "seed")}
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        # the study sets all three stop rules, so none takes a command default
        exp = saddle.escape_experiment(cfg.problem, point, params, stop=cfg.stop,
                                       analysis=analysis, **kw)
        seconds.append(time.perf_counter() - start)
    trial_steps = sum(o["iters"] for o in exp.outcomes)
    us = [1e6 * t / trial_steps for t in seconds]
    return {"study": ESCAPE_STUDY, "trials": exp.trials, "trial_steps": trial_steps,
            "best_us": min(us), "median_us": statistics.median(us)}


def lockstep_rows(runs: dict, steps: int, repeats: int, columns: bool) -> dict:
    """run_lockstep() µs per row-step into one _Endpoints sink, or into
    _RowSinks of one Columns per row when columns is set."""
    import numpy as np
    from momlab.certificates import Columns
    from momlab.optimizer import StopRules, _Endpoints, _RowSinks, run_lockstep

    rng = np.random.default_rng(0)
    rows = {}
    for name, (p, x_m1, x0, params, stop, cert) in runs.items():
        stop = StopRules(steps, stop.grad_tol, stop.box_radius)
        rows[name] = {}
        for B in LOCKSTEP_ROWS:
            starts = x0 + 1e-3 * rng.standard_normal((B, p.dim))
            starts[0] = x0
            done = []
            us = best_us(lambda: done.append(run_lockstep(
                p, starts + (x_m1 - x0), starts, params, stop,
                sink=_RowSinks(Columns(p, cert) for _ in range(B)) if columns
                else _Endpoints(p, B))), 1, repeats)
            row_steps = (sum(cols.num_steps for cols in done[-1]) if columns
                         else int(done[-1].num_steps.sum()))
            rows[name][str(B)] = {"row_steps": row_steps, "us_per_row_step": us / row_steps}
    return rows


def perfbench_lines(root: Path) -> dict:
    lines = {}
    for workload in ("certify", "escape", "survey"):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
             "--seconds", "30", "--trace", "0"],
            cwd=root, capture_output=True, text=True, check=True)
        lines[workload] = out.stdout.splitlines()[-1]
    return lines


def source_id(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root,
                            capture_output=True, text=True)
    if commit.returncode != 0:
        print(f"warning: {root} is not a git checkout; the row records commit null",
              file=sys.stderr)
    return {"commit": commit.stdout.strip() if commit.returncode == 0 else None,
            "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=HERE, help="momlab checkout to measure")
    ap.add_argument("--label", required=True, help="name of the row, such as parent or change")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to append to")
    ap.add_argument("--smoke", action="store_true",
                    help="a tiny budget and no perfbench, for the test suite")
    args = ap.parse_args(argv)
    root = args.root.resolve()
    if not (root / "src" / "momlab").is_dir():
        ap.error(f"{root} has no src/momlab")
    pycache = (root / "src" / "momlab" / "__pycache__").is_dir()
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "perfbench")]
    from momlab import cli  # before numpy: one BLAS thread, as the CLI has

    budget = SMOKE_BUDGET if args.smoke else BUDGET
    repeats = budget["repeats"]
    with tempfile.TemporaryDirectory() as tmp:
        runs = certify_runs(root, Path(tmp))
        escape = escape_row(root, Path(tmp), repeats)
    row = {
        "label": args.label,
        **source_id(root),
        "platform": cli._platform(),
        "bytecode_cache": {"writes": not sys.dont_write_bytecode,
                           "present_at_start": pycache},
        "budget": budget,
        "grad_us": gradient_rows(budget["calls"], repeats),
        "run_us_per_step": run_rows(runs, budget["steps"], repeats),
        "checks_us_per_1k_steps": checks_rows(runs, budget["steps"], repeats),
        "escape_us_per_trial_step": escape,
        "lockstep_us_per_row_step": lockstep_rows(runs, budget["lockstep_steps"], repeats,
                                                  columns=False),
        "lockstep_columns_us_per_row_step": lockstep_rows(runs, budget["lockstep_steps"],
                                                          repeats, columns=True),
        "perfbench": None if args.smoke else perfbench_lines(root),
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"rows": []}
    doc["rows"].append(row)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps({k: row[k] for k in ("label", "commit", "run_us_per_step")}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
