"""Output oracle: checks one CLI invocation against its reference.

For every seed: the exit code is 0, a run's stop reason, per-check
pass/certified counts and rate/length verdicts are as certified, the CSV has
its expected row count, and every escape trial's classification, stop reason
and iteration count equal those of an independent replay of the study
(`escape_reference`, run by the generator). For the default seed the sha256 of every deterministic
CSV must also equal the digest pinned in `reference.json`. JSON outputs are
never digested whole: they carry a timestamp.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")


def pinned_digests(seed: int, workload: str) -> dict:
    """sha256 of each CSV for `seed`, or {} when the seed has none pinned."""
    pins = json.loads(REFERENCE.read_text())
    return pins["digests"].get(workload, {}) if seed == pins["seed"] else {}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check(expect: dict, rc: int, out: Path, digest: str | None = None) -> list:
    """Mismatches between one invocation's outputs and its reference; [] if none."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        problems = _CHECKS[expect["command"]](expect, out)
        csv = expect.get("csv")
        if csv:
            rows = _data_rows(out / csv)
            if rows != expect["rows"]:
                problems.append(f"{csv}: {rows} data rows, expected {expect['rows']}")
            if digest is not None and sha256(out / csv) != digest:
                problems.append(f"{csv}: sha256 differs from the pinned digest")
    except (OSError, ValueError, KeyError, TypeError) as e:
        problems = [f"unreadable output: {type(e).__name__}: {e}"]
    return problems


def _data_rows(path: Path) -> int:
    # one '# meta' line, one header line, then data
    with open(path) as fh:
        return sum(1 for _ in fh) - 2


def _check_run(expect, out):
    rep = json.loads((out / "report.json").read_text())
    problems = []
    if rep["stop_reason"] != "max_iters" or rep["iterations"] != expect["steps"]:
        problems.append(f"stopped on {rep['stop_reason']} after {rep['iterations']} steps, "
                        f"expected max_iters after {expect['steps']}")
    if sorted(rep["checks"]) != expect["per_step"]:
        problems.append(f"checks {sorted(rep['checks'])}, expected {expect['per_step']}")
    for name, summary in rep["checks"].items():
        if not summary["pass"] == summary["certified"] == expect["steps"]:
            problems.append(f"{name}: {summary['pass']}/{summary['certified']} certified steps "
                            f"pass, expected {expect['steps']}/{expect['steps']}")
    if expect["rate"] and rep.get("rate", {}).get("passed") is not True:
        problems.append("rate check did not pass")
    if expect["length"] and rep.get("length", {}).get("passed") is not True:
        problems.append("length check did not pass")
    if expect["kl_fit"] and "c" not in rep.get("kl_fit", {}):
        problems.append(f"no KL fit: {rep.get('kl_fit')}")
    return problems


def _check_saddle(expect, out):
    rep = json.loads((out / "saddle_report.json").read_text())
    esc = json.loads((out / "escape.json").read_text())
    problems = []
    if rep["alpha"] != expect["alpha"]:
        problems.append(f"alpha {rep['alpha']!r}, reference {expect['alpha']!r}")
    if esc["escape_fraction"] != 1.0 or esc["n_at_saddle"] != 0:
        problems.append(f"escape fraction {esc['escape_fraction']}, "
                        f"{esc['n_at_saddle']} trials at the saddle")
    got = [(o["classification"], o["stop_reason"], o["iters"]) for o in esc["outcomes"]]
    want = expect["outcomes"]
    bad = [t for t, (g, w) in enumerate(zip(got, want)) if g != w]
    if len(got) != len(want) or bad:
        problems.append(f"{len(got)} trials, {len(bad)} differ from the reference "
                        f"(first: trial {bad[0] if bad else len(want)})")
    return problems


def _check_csv_only(expect, out):
    return []


_CHECKS = {"run": _check_run, "saddle": _check_saddle,
           "sweep": _check_csv_only, "track": _check_csv_only}


# --- independent replay of an escape study -------------------------------
#
# All trials step in lockstep as one (trials, dim) array, with the same
# elementwise arithmetic and the same per-slice matmul as the scalar CLI
# path, so iterates, and hence iteration counts, agree bit for bit.

def _gradient(problem: dict):
    kind = problem["kind"]
    if kind == "indefinite_quadratic":
        sign = np.array([1.0, -1.0])
        return 2, lambda Z: sign * Z
    if kind == "matrix_factorization" and problem.get("rank", 1) == 1:
        m, n = problem.get("m", 3), problem.get("n", 3)
        M = np.random.default_rng(problem.get("seed", 0)).standard_normal((m, n))

        def grad(Z):
            X, Y = Z[:, :m, None], Z[:, m:, None]
            R = X @ Y.transpose(0, 2, 1) - M
            return np.concatenate(
                [(2.0 * R @ Y)[:, :, 0], (2.0 * R.transpose(0, 2, 1) @ X)[:, :, 0]], axis=1)

        return m + n, grad
    raise ValueError(f"no escape reference for {problem}")


def _auto_alpha(beta: float) -> float:
    """The CLI's alpha 'auto' for heavy ball (gamma = 0) at the indefinite
    quadratic's saddle, where the Hessian norm is 1: 0.9 * min(descent
    ceiling, escape ceiling), in the same floating-point operations."""
    m_tilde = 1.0
    descent = min(1.0 / m_tilde,
                  (1.0 - beta * beta) / (2.0 * (beta * beta + 2.0 * abs(beta)) * m_tilde))
    return 0.9 * min(descent, abs(beta) / (1.0 + 0.0 * m_tilde))


def _sample_ball(rng, center, radius):
    u = rng.standard_normal(center.size)
    norm = np.linalg.norm(u)
    if norm == 0.0:
        return center.copy()
    return center + u / norm * radius * rng.uniform() ** (1.0 / center.size)


def escape_reference(study: dict):
    """(alpha, classifications, stop reasons, iteration counts) of every trial."""
    dim, grad = _gradient(study["problem"])
    alpha = study["alpha"]
    if alpha == "auto":
        if study["problem"]["kind"] != "indefinite_quadratic":
            raise ValueError("alpha 'auto' is replayed for the indefinite quadratic only")
        alpha = _auto_alpha(study["beta"])
    beta, trials = study["beta"], study["trials"]
    origin = np.zeros(dim)
    x0 = np.array([_sample_ball(np.random.default_rng([study["seed"], t]), origin, study["radius"])
                   for t in range(trials)])
    prev, cur = x0.copy(), x0.copy()  # delta = 0: x_{-1} = x_0
    g = grad(cur)
    reasons = np.full(trials, "", dtype=object)
    iters = np.zeros(trials, dtype=int)
    live = np.arange(trials)
    k = 0
    while live.size:
        gl, xl = g[live], cur[live]
        # later assignments win, in the CLI's order of precedence
        stop = np.full(live.size, "", dtype=object)
        stop[np.linalg.norm(xl - x0[live], axis=1) > study["box_radius"]] = "left_box"
        if k >= study["max_iters"]:
            stop[:] = "max_iters"
        stop[np.linalg.norm(gl, axis=1) < study["grad_tol"]] = "grad_tol"
        stop[~np.all(np.isfinite(gl), axis=1)] = "diverged"
        done = stop != ""
        reasons[live[done]] = stop[done]
        iters[live[done]] = k
        live = live[~done]
        if not live.size:
            break
        d = cur[live] - prev[live]
        nxt = (cur[live] + beta * d) - alpha * grad(cur[live] + 0.0 * d)
        prev[live] = cur[live]
        cur[live] = nxt
        g[live] = grad(nxt)
        k += 1
    at_tol = 10.0 * study["radius"] * 1e-3
    dist = np.linalg.norm(cur, axis=1)
    labels = [
        ("at_saddle" if dd <= at_tol else "escaped") if r == "grad_tol"
        else "escaped" if r in ("left_box", "diverged") else "inconclusive"
        for r, dd in zip(reasons, dist)
    ]
    return alpha, labels, list(reasons), iters.tolist()

