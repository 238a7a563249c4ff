import dataclasses
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from momlab import Problem, linear_network, matrix_factorization, matrix_sensing, step, synthetic


def make_problem(kind, seed=0):
    """Seeded instances of each problem family used across the suite."""
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        return synthetic("quadratic")
    if kind == "indefinite_quadratic":
        return synthetic("indefinite_quadratic")
    if kind == "quartic":
        return synthetic("quartic")
    if kind == "matrix_factorization":
        M = rng.standard_normal((3, 3))
        return matrix_factorization(M, r=2)
    if kind == "matrix_sensing":
        A = [rng.standard_normal((3, 3)) for _ in range(4)]
        b = rng.standard_normal(4)
        return matrix_sensing(A, b, r=1)
    if kind == "linear_network":
        Xb = rng.standard_normal((2, 4))
        Yb = rng.standard_normal((2, 4))
        return linear_network(Xb, Yb, widths=(2, 3, 3, 2))
    raise ValueError(kind)


# the variables OpenBLAS takes its thread count from, in that order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_free_env(**extra):
    """This process's environment without BLAS_THREAD_VARS, plus extra: the
    environment a CLI child keeps its own BLAS thread default in."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(extra)
    return env


def traced_peak(fn):
    """(fn(), peak): fn's result and the most memory tracemalloc saw allocated
    during the call, in bytes above what was allocated when it began."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before


def overflowing(p):
    """p with its value scaled by 2^1000: inf from f > ~1.7e7 on, while grad f stays finite."""
    return Problem(name=p.name, dim=p.dim, value=lambda z: p.value(z) * 2.0**1000,
                   gradient=p.gradient)


ALL_KINDS = [
    "quadratic",
    "indefinite_quadratic",
    "quartic",
    "matrix_factorization",
    "matrix_sensing",
    "linear_network",
]


@pytest.fixture(params=ALL_KINDS)
def any_problem(request):
    return make_problem(request.param)


@pytest.fixture
def counted():
    """counted(problem) -> (problem', counts): problem' counts its evaluations.

    counts["value"] and counts["gradient"] are [single-point calls, rows of
    stacked (B, dim) calls], so batched work is told apart from per-point work.
    """
    def wrap(problem):
        counts = {"value": [0, 0], "gradient": [0, 0]}

        def counting(name, fn):
            def call(x):
                if np.ndim(x) == 1:
                    counts[name][0] += 1
                else:
                    counts[name][1] += len(x)
                return fn(x)
            return call

        return dataclasses.replace(problem, value=counting("value", problem.value),
                                   gradient=counting("gradient", problem.gradient)), counts

    return wrap


def reference_run(problem, x_minus1, x_0, params, stop):
    """run() as a per-step loop: f and grad f at every iterate, checked before each step.

    Returns (points, f, grads, stop_reason), the arrays run() must reproduce
    bit for bit.
    """
    x_prev, x_curr = problem.check_point(x_minus1), problem.check_point(x_0)
    pts = [x_prev, x_curr]
    fs = [problem.value(x_prev), problem.value(x_curr)]
    gs = [problem.gradient(x_prev), problem.gradient(x_curr)]
    k = 0
    while True:
        if not (np.isfinite(fs[-1]) and np.all(np.isfinite(gs[-1]))):
            reason = "diverged"
            break
        if stop.grad_tol > 0 and np.linalg.norm(gs[-1]) < stop.grad_tol:
            reason = "grad_tol"
            break
        if k >= stop.max_iters:
            reason = "max_iters"
            break
        if np.linalg.norm(pts[-1] - x_curr) > stop.box_radius:
            reason = "left_box"
            break
        x_next, _, _ = step(problem, pts[-2], pts[-1], params,
                            gs[-1] if params.gamma == 0.0 else None)
        if not np.all(np.isfinite(x_next)):
            reason = "diverged"
            break
        pts.append(x_next)
        fs.append(problem.value(x_next))
        gs.append(problem.gradient(x_next))
        k += 1
    return np.asarray(pts), np.asarray(fs), np.asarray(gs), reason
