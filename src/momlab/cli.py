"""Batch experiment runner.

Subcommands:

    momlab run    --config cfg.yaml --out DIR    trace + certificate + report
    momlab track  --config cfg.yaml --out DIR    tracking-error ladder
    momlab saddle --config cfg.yaml --out DIR    critical-point analysis + escape study
    momlab sweep  --config cfg.yaml --out DIR    parameter grid

Exit codes: 0 all requested checks pass, 2 at least one check failed,
1 configuration or runtime error. The default output directory comes from
$MOMLAB_OUT (falling back to ./momlab_out). Every output embeds the config
hash and the seeds used; CSV files are deterministic given config + seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import FitError, check_rate, fit_desingularizer, measure_length
from .certificates import (
    Columns,
    build_certificate,
    check_descent,
    check_gradient_bound,
    check_length_formula,
    check_step_bound,
    lyapunov_values,
)
from .config import ConfigError, ExperimentConfig, load_config
from .optimizer import _ROW_BLOCK, StopRules, run, run_lockstep, safe_alpha
from .problems import estimate_lipschitz

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2

# names that only track and saddle call: they resolve on first use through
# the package's lazy exports, which import their module. The commands call
# them through this module (_self), so a name rebound here is the one called
_LAZY = ("tracking_ladder", "analyze_critical_point", "escape_experiment", "saddle_safe_alpha")


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


_self = sys.modules[__name__]


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _write_csv(path, header, rows, meta: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {meta}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("MOMLAB_OUT") or "momlab_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _prepare(cfg: ExperimentConfig, alpha: float | None, seed_offset: int = 0,
             lipschitz: dict | None = None):
    """Resolve init, Lipschitz constants, step size and stop rules of one run.

    alpha, when given, overrides the config's step size. lipschitz, when
    given, memoizes the constants by everything estimate_lipschitz reads
    besides the problem, so runs that share a ball estimate it once.
    Returns (x0, x_{-1}, params, stop, certificate, seeds).
    """
    x0, seeds = cfg.resolve_x0(seed_offset)
    if cfg.x_minus1_spec is not None:
        x_m1 = np.asarray(cfg.x_minus1_spec, dtype=float)
    else:
        x_m1 = x0.copy()

    if cfg.lipschitz_center == "x0":
        center = x0
    elif cfg.lipschitz_center == "origin":
        center = np.zeros(cfg.problem.dim)
    else:
        center = np.asarray(cfg.lipschitz_center, dtype=float)
    radius = cfg.lipschitz_radius or cfg.problem.suggested_box
    reach = max(abs(cfg.beta), abs(cfg.gamma))
    lipschitz = {} if lipschitz is None else lipschitz
    key = (center.tobytes(), radius, cfg.lipschitz_mode, reach, cfg.lipschitz_seed)
    if key not in lipschitz:
        lipschitz[key] = estimate_lipschitz(
            cfg.problem, center, radius,
            mode=cfg.lipschitz_mode, reach=reach, seed=cfg.lipschitz_seed,
        )
    L, M = lipschitz[key]
    seeds["lipschitz_seed"] = cfg.lipschitz_seed

    if alpha is None:
        alpha = cfg.alpha_spec
    if alpha == "auto":
        alpha = 0.9 * safe_alpha(M, cfg.momentum_params(1e-6))
    params = cfg.momentum_params(alpha)
    stop = cfg.stop
    if math.isinf(stop.box_radius):
        # keep iterates inside the certified ball by default
        slack = radius - float(np.linalg.norm(x0 - center))
        stop = StopRules(stop.max_iters, stop.grad_tol, max(slack, 1e-6))
    cert = build_certificate(M, L, params, center, radius, cfg.m_crit, strict=False)
    return x0, x_m1, params, stop, cert, seeds


def _certify(cfg: ExperimentConfig, trace, cert):
    """Run cfg's checks on a Trace or its Columns; returns (results, psi, total_length).

    The per-step checks are stored in cert.per_step.
    """
    cols = Columns.of(trace, cert)
    results = {}
    if "descent" in cfg.checks:
        cert.per_step["descent"] = check_descent(cols, cert)
    if "grad_bounds" in cfg.checks:
        cert.per_step["gradient_bound"] = check_gradient_bound(cols, cert)
    if "step_bounds" in cfg.checks:
        cert.per_step["step_bound"] = check_step_bound(cols, cert)
    total_length, _ = measure_length(cols)
    if "rate" in cfg.checks:
        results["rate"] = check_rate(cols, cert, total_length)
    psi = None
    if "kl_fit" in cfg.checks or "length" in cfg.checks:
        f_star = cfg.problem.info.get("f_star")
        try:
            psi = fit_desingularizer(cols.f[1:], cols.grad_norms[1:], f_star=f_star)
        except FitError as e:
            results["kl_fit_error"] = str(e)
    if "length" in cfg.checks and psi is not None:
        results["length"] = check_length_formula(cols, cert, psi)
    return results, psi, total_length


def _passed_everything(cols, cert, results) -> bool:
    ok = all(rep.all_pass for rep in cert.per_step.values())
    if "rate" in results:
        ok = ok and results["rate"].passed
    if "length" in results:
        ok = ok and results["length"].passed
    if cert.per_step or results:
        # a run that diverged or abandoned the certified ball cannot certify,
        # even though the out-of-ball steps themselves are only 'uncertified'
        ok = ok and cols.stop_reason not in ("diverged", "left_box") and cols.certified.all()
    return ok


# rows formatted per write of trace.csv: the text of every row at once would
# raise a long run's peak memory
_CSV_BLOCK = 1024


def write_trace_csv(path, trace, cert, meta: str) -> None:
    """Write trace.csv: one row per iterate x_k, k = 0..K, of a Trace or its Columns.

    The per-step columns (step_norm and the descent and gradient-bound
    slacks in cert.per_step) are blank on the last row and wherever a check
    was not run. Each value is written as "%.17g" % v; rows are formatted a
    block at a time, one format string per row, and equal the csv.writer
    rows of those strings.
    """
    cols = Columns.of(trace, cert)
    rows = cols.num_steps + 1
    slack = {name: rep.slack for name, rep in cert.per_step.items()}
    columns = [
        cols.f[1:],
        cols.grad_norms[1:],
        cols.step_norms[1:],
        lyapunov_values(cols, cert.lam),
        slack.get("descent"),
        slack.get("gradient_bound"),
    ]
    # column c fills rows 0..filled[c]-1 and is blank below
    filled = [0 if c is None else min(len(c), rows) for c in columns]
    header = ["k", "f", "grad_norm", "step_norm", "H_lambda", "descent_slack", "gradbound_slack"]
    with open(path, "w", newline="") as fh:
        fh.write(f"# {meta}\n{','.join(header)}\n")
        # between consecutive fill lengths every row has the same blank cells
        edges = sorted({0, rows, *filled})
        for start, end in zip(edges, edges[1:]):
            row = "%d" + "".join(",%.17g" if n >= end else "," for n in filled) + "\n"
            present = [c for c, n in zip(columns, filled) if n >= end]
            for i in range(start, end, _CSV_BLOCK):
                j = min(i + _CSV_BLOCK, end)
                cells = zip(range(i, j), *[c[i:j].tolist() for c in present])
                fh.write("".join(map(row.__mod__, cells)))


def cmd_run(args) -> int:
    cfg = load_config(args.config, args.seed, command="run")
    out = _out_dir(args)
    x0, x_m1, params, stop, cert, seeds = _prepare(cfg, args.alpha)
    meta = f"config_sha256={cfg.config_hash} seeds={json.dumps(seeds, sort_keys=True)}"
    # a diverging run overflows in its checks and its trace.csv columns as
    # well as in its steps; its report says so
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the run hands its rows to the checks' columns a block at a time
        # and never holds its trajectory
        cols = run(cfg.problem, x_m1, x0, params, stop, sink=Columns(cfg.problem, cert))
        results, psi, total_length = _certify(cfg, cols, cert)
        write_trace_csv(out / "trace.csv", cols, cert, meta)
    cert.to_json(out / "certificate.json")
    report = {
        "meta": {
            "config_sha256": cfg.config_hash,
            "seeds": seeds,
            "version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        },
        "problem": cfg.problem.name,
        "stop_reason": cols.stop_reason,
        "iterations": cols.num_steps,
        "final_f": float(cols.f[-1]),
        "final_grad_norm": float(cols.grad_norms[-1]),
        "total_length": total_length,
        "constants": cert.constants(),
        "checks": {name: rep.summary() for name, rep in cert.per_step.items()},
        "notes": list(cfg.notes),
    }
    if "rate" in results:
        report["rate"] = results["rate"].summary()
    if "length" in results:
        rep = results["length"]
        report["length"] = {
            "total_length": rep.total_length,
            "bound": rep.bound,
            "ratio": rep.ratio,
            "passed": rep.passed,
        }
    if psi is not None:
        report["kl_fit"] = {
            "c": psi.c,
            "theta": psi.theta,
            "inflation": psi.inflation,
            "r2": psi.r2,
            "n_samples": psi.n_samples,
            "empirical": True,
        }
    if "kl_fit_error" in results:
        report["kl_fit"] = {"error": results["kl_fit_error"]}
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=1)

    ok = _passed_everything(cols, cert, results)
    for name, rep in cert.per_step.items():
        _say(args, f"{name}: {rep.n_pass}/{rep.n_certified} certified steps pass"
                   f" (min slack {rep.min_slack:.3e})")
    if "rate" in results:
        _say(args, f"rate: sup (k+1)*min||grad|| = {results['rate'].sup_product:.6g}"
                   f" <= c_alpha = {results['rate'].c_alpha:.6g}: {results['rate'].passed}")
    if "length" in results:
        _say(args, f"length: {results['length'].total_length:.6g}"
                   f" <= {results['length'].bound:.6g}: {results['length'].passed}")
    _say(args, f"outputs in {out}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_track(args) -> int:
    cfg = load_config(args.config, args.seed, command="track")
    if cfg.track is None:
        raise ConfigError("track: section required for the track command")
    out = _out_dir(args)
    x0, seeds = cfg.resolve_x0()
    maxes, slope = _self.tracking_ladder(
        cfg.problem, x0, cfg.beta, cfg.track["alphas"], cfg.track["horizon"], gamma=cfg.gamma
    )
    meta = f"config_sha256={cfg.config_hash} seeds={json.dumps(seeds, sort_keys=True)}"
    _write_csv(
        out / "tracking.csv",
        ["alpha", "max_error"],
        [[_fmt(a), _fmt(m)] for a, m in zip(cfg.track["alphas"], maxes)],
        meta,
    )
    report = {
        "meta": {"config_sha256": cfg.config_hash, "seeds": seeds, "version": __version__,
                 "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")},
        "problem": cfg.problem.name,
        "beta": cfg.beta,
        "gamma": cfg.gamma,
        "horizon": cfg.track["horizon"],
        "alphas": cfg.track["alphas"],
        "max_errors": maxes,
        "loglog_slope": slope,
        "notes": list(cfg.notes),
    }
    with open(out / "tracking_report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    _say(args, f"tracking slope {slope:.4f} over {len(maxes)} step sizes; outputs in {out}")
    return EXIT_OK


def cmd_saddle(args) -> int:
    cfg = load_config(args.config, args.seed, command="saddle")
    if cfg.saddle is None:
        raise ConfigError("saddle: section required for the saddle command")
    if cfg.beta == 0.0:
        raise ConfigError(
            "params.beta: the escape guarantee requires beta != 0; "
            "set a nonzero momentum coefficient"
        )
    out = _out_dir(args)
    point = (
        np.zeros(cfg.problem.dim)
        if cfg.saddle["point"] == "origin"
        else np.asarray(cfg.saddle["point"], dtype=float)
    )
    # probe step size: alpha 'auto' uses both ceilings; the analysis rejects
    # a point that is not critical, naming ||grad f||
    probe = cfg.momentum_params(1e-6)
    analysis = _self.analyze_critical_point(cfg.problem, point, probe)
    m_tilde = float(np.max(np.abs(analysis.hessian_eigs)))
    alpha = cfg.alpha_spec if args.alpha is None else args.alpha
    if alpha == "auto":
        alpha = 0.9 * min(
            safe_alpha(max(m_tilde, 1e-12), probe), _self.saddle_safe_alpha(m_tilde, probe)
        )
    params = cfg.momentum_params(alpha)
    # report map spectrum at the step size actually used; the Hessian
    # spectrum does not depend on it
    analysis = analysis.for_params(params)

    report = {
        "meta": {"config_sha256": cfg.config_hash,
                 "seeds": {"problem_seed": cfg.raw["problem"].get("seed", 0),
                           "saddle_seed": cfg.saddle["seed"]},
                 "version": __version__,
                 "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")},
        "problem": cfg.problem.name,
        "analysis": analysis.to_dict(),
        "alpha": alpha,
        "notes": list(cfg.notes),
    }
    if analysis.classification == "strict_saddle":
        exp = _self.escape_experiment(
            cfg.problem, point, params,
            radius=cfg.saddle["radius"], trials=cfg.saddle["trials"],
            seed=cfg.saddle["seed"],
            stop=StopRules(cfg.stop.max_iters, max(cfg.stop.grad_tol, 1e-9),
                           cfg.stop.box_radius if not math.isinf(cfg.stop.box_radius) else 100.0),
            analysis=analysis,
        )
        exp.to_json(out / "escape.json")
        report["escape_fraction"] = exp.escape_fraction
        report["n_at_saddle"] = exp.n_at_saddle
        report["n_inconclusive"] = exp.n_inconclusive
        _say(args, f"strict saddle: escape fraction {exp.escape_fraction:.3f} "
                   f"over {exp.trials} trials")
    else:
        _say(args, f"candidate classified {analysis.classification}; no escape study run")
    with open(out / "saddle_report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    _say(args, f"outputs in {out}")
    return EXIT_OK


# bytes of iterate blocks (up to _ROW_BLOCK points per cell) a group of sweep
# cells holds while it steps in lockstep: enough cells to amortize each
# stacked gradient call, few enough that the blocks stay a few MB
_SWEEP_GROUP_BYTES = 1 << 23


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.seed, command="sweep")
    if cfg.sweep is None:
        raise ConfigError("sweep: section required for the sweep command")
    out = _out_dir(args)
    problem = cfg.problem
    block = min(cfg.stop.max_iters + 2, _ROW_BLOCK)
    group = max(1, _SWEEP_GROUP_BYTES // (block * problem.dim * 8))
    lipschitz = {}
    rows = []
    for i in range(0, len(cfg.sweep), group):
        chunk = cfg.sweep[i:i + group]
        cells = [dataclasses.replace(cfg, alpha_spec=a, beta=b, gamma=g) for a, b, g, _ in chunk]
        x0s, x_m1s, params, stops, certs, _ = zip(*[
            _prepare(cell, None, s, lipschitz) for cell, (_, _, _, s) in zip(cells, chunk)
        ])
        # a diverging cell overflows in its checks as well as in its steps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            # each cell certifies while it steps, as in cmd_run
            done = run_lockstep(problem, x_m1s, x0s, params, stops,
                                sinks=[Columns(problem, cert) for cert in certs])
            for (_, b, g, s), cell, cert, cols in zip(chunk, cells, certs, done):
                results, _, total_length = _certify(cell, cols, cert)
                descent = cert.per_step.get("descent")
                rows.append([
                    _fmt(cert.params.alpha), _fmt(b), _fmt(g), s,
                    int(cols.stop_reason == "grad_tol"),
                    _fmt(total_length),
                    _fmt(descent.min_slack) if descent is not None and descent.n_certified else "",
                    _fmt(results["rate"].sup_product) if "rate" in results else "",
                ])

    meta = f"config_sha256={cfg.config_hash} cells={len(rows)}"
    _write_csv(
        out / "sweep.csv",
        ["alpha", "beta", "gamma", "seed", "converged", "length", "min_slack", "rate_sup"],
        rows,
        meta,
    )
    _say(args, f"swept {len(rows)} cells; outputs in {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momlab",
        description="momentum-method experiments with executable certificates",
    )
    parser.add_argument("--version", action="version", version=f"momlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("track", cmd_track),
                     ("saddle", cmd_saddle), ("sweep", cmd_sweep)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="YAML experiment config")
        sp.add_argument("--out", default=None, help="output directory (default $MOMLAB_OUT)")
        sp.add_argument("--seed", type=int, default=None, help="override problem seed")
        if fn in (cmd_run, cmd_saddle):  # track and sweep take their step sizes from the config
            sp.add_argument("--alpha", type=float, default=None, help="override step size")
        sp.add_argument("--quiet", action="store_true")
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # runtime failures also map to exit 1
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
