"""Constant-momentum gradient descent.

The update is carried out in three stages,

    y_k^beta  = x_k + beta  * (x_k - x_{k-1})
    y_k^gamma = x_k + gamma * (x_k - x_{k-1})
    x_{k+1}   = y_k^beta - alpha * grad f(y_k^gamma),

which reduces to the heavy-ball method for gamma = 0 and to Nesterov's
accelerated gradient for gamma = beta. Traces store the iterates with their
objective values and gradients: enough to replay the recursion bit-for-bit
(y_k^beta and y_k^gamma follow from the iterates and the params) and to run
the certificate checks without re-evaluating the objective. run() records
one trajectory: its loop makes one single-point gradient call per step for
every preset, and the f and grads columns of the trace are evaluated in
batch once it stops. run_lockstep() steps a stack of starts together under
the same stop rules and keeps only where each one stopped.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .problems import Problem, _norms_in_place, _row_norms

__all__ = [
    "MomentumParams",
    "StopRules",
    "Trace",
    "LockstepResult",
    "step",
    "run",
    "run_lockstep",
    "safe_alpha",
]

PRESETS = ("generic", "heavy_ball", "nesterov")


@dataclass(frozen=True)
class MomentumParams:
    """Step size and momentum coefficients (alpha, beta, gamma).

    delta bounds the initial velocity: runs expect ||x_0 - x_{-1}|| <= delta * alpha.
    """

    alpha: float
    beta: float = 0.0
    gamma: float = 0.0
    preset: str = "generic"
    delta: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if not abs(self.beta) < 1:
            raise ValueError(f"beta must lie in (-1, 1), got {self.beta}")
        if self.delta < 0:
            raise ValueError(f"delta must be nonnegative, got {self.delta}")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.preset == "heavy_ball" and self.gamma != 0.0:
            raise ValueError("heavy_ball preset requires gamma == 0")
        if self.preset == "nesterov" and self.gamma != self.beta:
            raise ValueError("nesterov preset requires gamma == beta")

    @staticmethod
    def heavy_ball(alpha, beta, delta=0.0):
        return MomentumParams(alpha, beta, 0.0, "heavy_ball", delta)

    @staticmethod
    def nesterov(alpha, beta, delta=0.0):
        return MomentumParams(alpha, beta, beta, "nesterov", delta)

    def replace_alpha(self, alpha: float) -> "MomentumParams":
        return MomentumParams(alpha, self.beta, self.gamma, self.preset, self.delta)


@dataclass(frozen=True)
class StopRules:
    max_iters: int = 10_000
    grad_tol: float = 0.0
    box_radius: float = np.inf

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be >= 0")
        if self.box_radius <= 0:
            raise ValueError("box_radius must be positive")


@dataclass
class Trace:
    """Full iterate history x_{-1}, x_0, ..., x_K with per-step diagnostics.

    points[i] is x_{i-1}; f/grad arrays align with points. Step arrays have
    one entry per executed step k = 0..K-1. A trace's arrays are not mutated
    after run() returns it: step_norms and grad_norms are computed on first
    use and cached (read-only), so a changed trajectory needs a new Trace.
    """

    points: np.ndarray          # (K+2, dim)
    f: np.ndarray               # (K+2,) objective at each point
    grads: np.ndarray           # (K+2, dim) gradient at each point
    params: MomentumParams
    stop_reason: str = "max_iters"
    problem_name: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def num_steps(self) -> int:
        return self.points.shape[0] - 2

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def x(self, k: int) -> np.ndarray:
        """Iterate x_k for k in {-1, ..., K}."""
        return self.points[k + 1]

    @cached_property
    def grad_norms(self) -> np.ndarray:
        """||grad f(x_k)|| for k = -1..K (length K+2)."""
        norms = np.linalg.norm(self.grads, axis=1)
        norms.flags.writeable = False
        return norms

    @cached_property
    def step_norms(self) -> np.ndarray:
        """||x_{k+1} - x_k|| for k = -1..K-1 (length K+1)."""
        norms = _norms_in_place(np.diff(self.points, axis=0))
        norms.flags.writeable = False
        return norms

    def replay_residuals(self, problem: Problem) -> np.ndarray:
        """Residual of the update recursion at each stored step.

        Recomputes every y_k^gamma from the stored points with the same
        expression used by step() and evaluates their gradients in one
        batched call, so an untouched trace reproduces the recursion exactly.
        """
        x_prev, x_curr, x_next = self.points[:-2], self.points[1:-1], self.points[2:]
        d = x_curr - x_prev
        y_g = x_curr + self.params.gamma * d
        lhs = x_next - x_curr - self.params.beta * d + self.params.alpha * problem.gradient(y_g)
        return _row_norms(lhs) / (1.0 + _row_norms(x_next))

    def save(self, path) -> None:
        """Full JSON dump (includes every iterate) for offline replay."""
        payload = {
            "problem": self.problem_name,
            "params": {
                "alpha": self.params.alpha,
                "beta": self.params.beta,
                "gamma": self.params.gamma,
                "preset": self.params.preset,
                "delta": self.params.delta,
            },
            "stop_reason": self.stop_reason,
            "points": self.points.tolist(),
            "f": self.f.tolist(),
            "grads": self.grads.tolist(),
            "meta": self.meta,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @staticmethod
    def load(path) -> "Trace":
        """Read a save() dump; the y_beta/y_gamma arrays of older dumps are ignored."""
        with open(path) as fh:
            d = json.load(fh)
        p = d["params"]
        return Trace(
            points=np.asarray(d["points"]),
            f=np.asarray(d["f"]),
            grads=np.asarray(d["grads"]),
            params=MomentumParams(p["alpha"], p["beta"], p["gamma"], p["preset"], p["delta"]),
            stop_reason=d["stop_reason"],
            problem_name=d["problem"],
            meta=d.get("meta", {}),
        )


def step(problem: Problem, x_prev, x_curr, params: MomentumParams, grad=None):
    """One momentum update; returns (x_next, y_beta, y_gamma).

    Rows of (B, dim) inputs are updated independently. grad, when given, is
    used as grad f(y_gamma) instead of evaluating it: with gamma == 0,
    y_gamma equals x_curr up to the sign of zero, so callers pass the
    gradient at x_curr they already hold. A non-finite gradient is surfaced
    as non-finite x_next for the caller to flag.
    """
    x_prev = np.asarray(x_prev, dtype=float)
    x_curr = np.asarray(x_curr, dtype=float)
    d = x_curr - x_prev
    y_gamma = x_curr + params.gamma * d
    y_beta = x_curr + params.beta * d
    if grad is None:
        grad = problem.gradient(y_gamma)
    x_next = y_beta - params.alpha * grad
    return x_next, y_beta, y_gamma


def _warn_velocity(v0: float, params: MomentumParams) -> None:
    if v0 > params.delta * params.alpha * (1.0 + 1e-12):
        warnings.warn(
            f"initial velocity {v0:.3g} exceeds delta*alpha = "
            f"{params.delta * params.alpha:.3g}; certificate bounds that use "
            "delta may not apply",
            stacklevel=3,
        )


def run(
    problem: Problem,
    x_minus1,
    x_0,
    params: MomentumParams,
    stop: Optional[StopRules] = None,
) -> Trace:
    """Iterate the momentum update until a stop rule fires.

    Stops on ||grad f(x_k)|| < grad_tol, k == max_iters, the iterate
    leaving B(x_0, box_radius), or a non-finite value (stop_reason
    'diverged'). The initial-velocity bound ||x_0 - x_{-1}|| <= delta*alpha
    is checked and produces a warning, not an error.

    The loop evaluates one single-point gradient per step, grad f(y_k^gamma),
    which heavy ball (gamma == 0) reads from the stored grad f(x_k); it also
    evaluates grad f(x_k) when grad_tol > 0, and never the objective. The
    trace's f column, and its grads column when the loop did not hold it, are
    then evaluated in batch; the trace is cut at the first point (x_0 or
    later) whose value or gradient is not finite, as a per-step check of
    both would have stopped there.
    """
    stop = stop or StopRules()
    x_prev = problem.check_point(x_minus1)
    x_curr = problem.check_point(x_0)
    _warn_velocity(np.linalg.norm(x_curr - x_prev), params)
    gradient = problem.gradient
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    grad_tol, max_iters, radius = stop.grad_tol, stop.max_iters, stop.box_radius
    reuse = gamma == 0.0
    check_box = not math.isinf(radius)
    # grad f(x_k) for every point, when the loop needs it
    gs = None
    if reuse or grad_tol > 0:
        gs = [gradient(x_prev), gradient(x_curr)]

    pts = [x_prev, x_curr]
    reason = "max_iters"
    x0_ref = x_curr

    # 1-D norms are math.sqrt(v.dot(v)), which is what np.linalg.norm computes
    # for a contiguous 1-D float array; np.isfinite(x).all() is the cheapest
    # finiteness test that raises no floating-point warning on inf
    k = 0
    while True:
        if grad_tol > 0:
            g = gs[-1]
            if math.sqrt(g.dot(g)) < grad_tol:
                reason = "grad_tol"
                break
        if k >= max_iters:
            reason = "max_iters"
            break
        if check_box:
            v = x_curr - x0_ref
            if math.sqrt(v.dot(v)) > radius:
                reason = "left_box"
                break
        # step(), inlined with the same expression order
        d = x_curr - x_prev
        g = gs[-1] if reuse else gradient(x_curr + gamma * d)
        x_next = (x_curr + beta * d) - alpha * g
        if not np.isfinite(x_next).all():
            reason = "diverged"
            break
        pts.append(x_next)
        if gs is not None:
            gs.append(gradient(x_next))
        x_prev, x_curr = x_curr, x_next
        k += 1

    points = np.asarray(pts)
    grads = None if gs is None else np.asarray(gs)
    del pts, gs  # return the per-step arrays' memory before the columns are filled
    points, f, grads, diverged = _trace_columns(problem, points, grads)
    return Trace(
        points=points,
        f=f,
        grads=grads,
        params=params,
        stop_reason="diverged" if diverged else reason,
        problem_name=problem.name,
    )


# rows per batched value / gradient call when a trace's columns are filled:
# large enough to amortize the call, small enough that the per-call
# temporaries stay a few MB
_ROW_BLOCK = 1024


def _trace_columns(problem: Problem, points: np.ndarray, grads: Optional[np.ndarray]):
    """(points, f, grads, diverged): the trace arrays of a run's points.

    f, and grads when they are None, are evaluated in row blocks. If some row
    i >= 1 has a value or gradient that is not finite, the arrays end at the
    first such row and diverged is True. grads is C-contiguous whatever
    layout a problem's batched gradient has: the row norms of a column-major
    stack would round differently.
    """
    n = len(points)
    f = np.empty(n)
    batched = grads is None
    if batched:
        grads = np.empty_like(points)
    for i in range(0, n, _ROW_BLOCK):
        j = min(i + _ROW_BLOCK, n)
        f[i:j] = problem.value(points[i:j])
        if batched:
            grads[i:j] = problem.gradient(points[i:j])
        bad = ~(np.isfinite(f[i:j]) & np.isfinite(grads[i:j]).all(axis=1))
        if i == 0:
            bad[0] = False  # x_{-1} is never checked
        if bad.any():
            end = i + int(np.argmax(bad)) + 1
            return points[:end], f[:end], grads[:end], True
    return points, f, grads, False


@dataclass
class LockstepResult:
    """Where each row of a lockstep run stopped (row b is start b)."""

    x: np.ndarray               # (B, dim) last iterate x_K
    grad: np.ndarray            # (B, dim) gradient at x
    iters: np.ndarray           # (B,) steps taken, K
    stop_reason: list           # (B,) the stop rule that fired, as in run()


def run_lockstep(
    problem: Problem,
    x_minus1,
    x_0,
    params: MomentumParams,
    stop: Optional[StopRules] = None,
) -> LockstepResult:
    """Iterate every row of (B, dim) starts in lockstep until each one stops.

    Row b follows exactly the iterates, stop rule and step count of
    run(problem, x_minus1[b], x_0[b], params, stop); a row freezes once a
    rule fires. Only the current and previous iterates are kept, so memory
    does not grow with the step count. Heavy ball reuses grad f(x_k) as in
    run().
    """
    stop = stop or StopRules()
    prev = np.array(x_minus1, dtype=float, ndmin=2)
    cur = np.array(x_0, dtype=float, ndmin=2)
    if cur.ndim != 2 or not cur.size or cur.shape[1] != problem.dim or prev.shape != cur.shape:
        raise ValueError(
            f"{problem.name}: expected two (B, {problem.dim}) arrays of starts with B >= 1, "
            f"got shapes {prev.shape} and {cur.shape}"
        )
    _warn_velocity(float(np.max(_row_norms(cur - prev))), params)
    reuse = params.gamma == 0.0
    check_box = not np.isinf(stop.box_radius)

    n = cur.shape[0]
    out_x, out_g = np.empty_like(cur), np.empty_like(cur)
    iters = np.zeros(n, dtype=int)
    reasons = np.full(n, "", dtype=object)
    rows, x0 = np.arange(n), cur
    f, g = problem.value(cur), problem.gradient(cur)
    k = 0

    def freeze(stopped, why):
        """Record the stopped rows at x_k, where run() leaves them; return the live mask."""
        idx = rows[stopped]
        out_x[idx], out_g[idx], iters[idx], reasons[idx] = cur[stopped], g[stopped], k, why
        return ~stopped

    while True:
        # run()'s stop rules, lowest precedence first: later assignments win
        why = np.full(rows.size, "", dtype=object)
        if k >= stop.max_iters:
            why[:] = "max_iters"
        elif check_box:
            why[_row_norms(cur - x0) > stop.box_radius] = "left_box"
        if stop.grad_tol > 0:
            why[_row_norms(g) < stop.grad_tol] = "grad_tol"
        why[~(np.isfinite(f) & np.isfinite(g).all(axis=1))] = "diverged"
        done = why != ""
        if done.any():
            live = freeze(done, why[done])
            if not live.any():
                break
            rows, prev, cur, x0, g = rows[live], prev[live], cur[live], x0[live], g[live]
        x_next, _, _ = step(problem, prev, cur, params, g if reuse else None)
        done = ~np.isfinite(x_next).all(axis=1)
        if done.any():
            live = freeze(done, "diverged")
            if not live.any():
                break
            rows, cur, x0, x_next = rows[live], cur[live], x0[live], x_next[live]
        prev, cur = cur, x_next
        f, g = problem.value(cur), problem.gradient(cur)
        k += 1
    return LockstepResult(out_x, out_g, iters, reasons.tolist())


def safe_alpha(M: float, params: MomentumParams) -> float:
    """Largest certified step size min{1/M, (1-beta^2) / (2(beta^2 + 2|beta-gamma|) M)}.

    With beta = gamma = 0 the second constraint is vacuous and 1/M is
    returned.
    """
    if M <= 0:
        raise ValueError(f"M must be positive, got {M}")
    b, g = params.beta, params.gamma
    denom = b * b + 2.0 * abs(b - g)
    if denom == 0.0:
        return 1.0 / M
    return min(1.0 / M, (1.0 - b * b) / (2.0 * denom * M))
