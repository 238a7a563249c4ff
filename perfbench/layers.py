"""Per-layer metrics from the spans of one traced pass.

Layers are the program's modules. A layer's time metrics sum the durations
of its spans over all threads (escape studies and sweeps run on a thread
pool, so these can exceed wall time). Self time is a span's duration minus
the part of it that its child spans cover and minus the time spent inside
Problem callables charged to it directly. Evaluation counts are in rows.
"""

from __future__ import annotations

from collections import defaultdict

RUNS = ("momlab.cli.run", "momlab.saddle.run", "momlab.gradient_flow.run")
CLI = ("momlab.cli.main", "momlab.cli.cmd_run", "momlab.cli.cmd_track",
       "momlab.cli.cmd_saddle", "momlab.cli.cmd_sweep")

# name, unit; the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("cli.import_s", "s"), ("cli.self_s", "s"), ("cli.invocations", "count"),
    ("cli.leaked_tmp_files", "count"),
    ("config.load_s", "s"), ("config.parse_calls", "count"),
    ("problems.grad_evals", "count"), ("problems.value_evals", "count"),
    ("problems.hvp_evals", "count"), ("problems.eval_s", "s"),
    ("problems.lipschitz_s", "s"), ("problems.lipschitz_grad_evals", "count"),
    ("optimizer.runs", "count"), ("optimizer.steps", "count"), ("optimizer.self_s", "s"),
    ("optimizer.steps_per_s", "1/s"), ("optimizer.grad_evals_per_step", "ratio"),
    ("optimizer.heavy_ball_grad_evals_per_step", "ratio"),
    ("certificates.build_s", "s"), ("certificates.descent_s", "s"),
    ("certificates.gradient_bound_s", "s"), ("certificates.step_bound_s", "s"),
    ("certificates.length_s", "s"), ("certificates.checked_steps", "count"),
    ("analysis.kl_fit_s", "s"), ("analysis.rate_s", "s"), ("analysis.measure_length_s", "s"),
    ("gradient_flow.ladder_s", "s"), ("gradient_flow.integrate_s", "s"),
    ("gradient_flow.integrate_grad_evals", "count"), ("gradient_flow.tracking_error_s", "s"),
    ("saddle.analyze_s", "s"), ("saddle.escape_s", "s"), ("saddle.trials", "count"),
    ("saddle.trial_steps", "count"), ("saddle.trials_per_s", "1/s"),
    ("saddle.grad_evals_per_trial_step", "ratio"), ("saddle.inconclusive_frac", "ratio"),
]


def _ratio(num, den):
    return num / den if den else 0.0


def _covered(span, children) -> float:
    """Length of the union of the children's intervals inside the span."""
    total, end = 0.0, span["t0"]
    for a, b in sorted((max(c["t0"], span["t0"]), min(c["t1"], span["t1"])) for c in children):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def per_layer(spans: list, import_s: float, leaked_tmp_files: int) -> dict:
    """Every PER_LAYER metric of one traced pass, by name."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)

    def incl(span, key):
        return span[key] + sum(incl(c, key) for c in children[span["id"]])

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def dur(*names):
        return sum(s["t1"] - s["t0"] for s in named(*names))

    def self_s(*names):
        return sum(s["t1"] - s["t0"] - _covered(s, children[s["id"]]) - s["eval_s"]
                   for s in named(*names))

    def info(span, key):
        return (span["info"] or {}).get(key, 0)

    runs = named(*RUNS)
    steps = sum(info(s, "steps") for s in runs)
    hb = [s for s in runs if s["info"] and s["info"].get("gamma") == 0.0]
    config = ("momlab.cli.load_config", "momlab.config.parse_config")
    lipschitz = named("momlab.cli.estimate_lipschitz")
    escapes = named("momlab.cli.escape_experiment")
    trials = sum(info(s, "trials") for s in escapes)
    trial_steps = sum(info(s, "steps") for s in escapes)
    by_id = {s["id"]: s for s in spans}
    top_config = [s for s in named(*config)
                  if by_id.get(s["parent"], {}).get("name") not in config]
    checks = named("momlab.cli.check_descent", "momlab.cli.check_gradient_bound",
                   "momlab.cli.check_step_bound")
    m = {
        "cli.import_s": import_s,
        "cli.self_s": self_s(*CLI),
        "cli.invocations": len(named("momlab.cli.main")),
        "cli.leaked_tmp_files": leaked_tmp_files,
        "config.load_s": sum(s["t1"] - s["t0"] for s in top_config),
        "config.parse_calls": len(named("momlab.config.parse_config")),
        "problems.grad_evals": sum(s["grad"] for s in spans),
        "problems.value_evals": sum(s["value"] for s in spans),
        "problems.hvp_evals": sum(s["hvp"] for s in spans),
        "problems.eval_s": sum(s["eval_s"] for s in spans),
        "problems.lipschitz_s": dur("momlab.cli.estimate_lipschitz"),
        "problems.lipschitz_grad_evals": sum(incl(s, "grad") for s in lipschitz),
        "optimizer.runs": len(runs),
        "optimizer.steps": steps,
        "optimizer.self_s": self_s(*RUNS),
        "optimizer.steps_per_s": _ratio(steps, dur(*RUNS)),
        # each run also evaluates the gradient at x_{-1} and x_0 before stepping
        "optimizer.grad_evals_per_step": _ratio(
            sum(incl(s, "grad") for s in runs) - 2 * len(runs), steps),
        "optimizer.heavy_ball_grad_evals_per_step": _ratio(
            sum(incl(s, "grad") for s in hb) - 2 * len(hb), sum(info(s, "steps") for s in hb)),
        "certificates.build_s": dur("momlab.cli.build_certificate"),
        "certificates.descent_s": dur("momlab.cli.check_descent"),
        "certificates.gradient_bound_s": dur("momlab.cli.check_gradient_bound"),
        "certificates.step_bound_s": dur("momlab.cli.check_step_bound"),
        "certificates.length_s": dur("momlab.cli.check_length_formula"),
        "certificates.checked_steps": sum(info(s, "steps") for s in checks),
        "analysis.kl_fit_s": dur("momlab.cli.fit_desingularizer"),
        "analysis.rate_s": dur("momlab.cli.check_rate"),
        "analysis.measure_length_s": dur("momlab.cli.measure_length"),
        "gradient_flow.ladder_s": dur("momlab.cli.tracking_ladder"),
        "gradient_flow.integrate_s": dur("momlab.gradient_flow.integrate_flow"),
        "gradient_flow.integrate_grad_evals": sum(
            incl(s, "grad") for s in named("momlab.gradient_flow.integrate_flow")),
        "gradient_flow.tracking_error_s": dur("momlab.gradient_flow.tracking_error"),
        "saddle.analyze_s": dur("momlab.cli.analyze_critical_point"),
        "saddle.escape_s": dur("momlab.cli.escape_experiment"),
        "saddle.trials": trials,
        "saddle.trial_steps": trial_steps,
        "saddle.trials_per_s": _ratio(trials, dur("momlab.cli.escape_experiment")),
        # includes each trial's start-up gradients and the saddle's own check
        "saddle.grad_evals_per_trial_step": _ratio(
            sum(incl(s, "grad") for s in escapes), trial_steps),
        "saddle.inconclusive_frac": _ratio(sum(info(s, "inconclusive") for s in escapes), trials),
    }
    assert list(m) == [name for name, _ in PER_LAYER]
    return m
