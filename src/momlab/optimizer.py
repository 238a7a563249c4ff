"""Constant-momentum gradient descent.

The update is carried out in three stages,

    y_k^beta  = x_k + beta  * (x_k - x_{k-1})
    y_k^gamma = x_k + gamma * (x_k - x_{k-1})
    x_{k+1}   = y_k^beta - alpha * grad f(y_k^gamma),

which reduces to the heavy-ball method for gamma = 0 and to Nesterov's
accelerated gradient for gamma = beta. Traces store the iterates with their
objective values and gradients: enough to replay the recursion bit-for-bit
(y_k^beta and y_k^gamma follow from the iterates and the params) and to run
the certificate checks without re-evaluating the objective. run() is the
one loop for a single trajectory: it makes one single-point gradient call
per step for every preset and hands its recorded rows to a sink a block of
_ROW_BLOCK rows at a time. By default the blocks are kept and run returns
the Trace, whose f and grads columns are evaluated in batch once it stops;
a sink such as certificates.Columns reduces each block and drops it, so
the trajectory is never held. run_lockstep() is the shared lockstep core
for stacks of starts: it steps them together under the same stop rules,
with one params and stop rules for all rows or one per row. Escape studies
keep only where each row stopped; sweeps pass one sink per row, which
takes that row's blocks as run() would hand them, so both loops record
through the same take(points, grads) / finish(reason) protocol.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

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
        g = self.grads
        norms = _by_row_block(len(g), lambda i, j: np.linalg.norm(g[i:j], axis=1))
        norms.flags.writeable = False
        return norms

    @cached_property
    def step_norms(self) -> np.ndarray:
        """||x_{k+1} - x_k|| for k = -1..K-1 (length K+1)."""
        p = self.points
        norms = _by_row_block(len(p) - 1, lambda i, j: _norms_in_place(p[i + 1:j + 1] - p[i:j]))
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


def _warn_velocity(v0, limit) -> None:
    """Warn if an initial velocity ||x_0 - x_{-1}|| exceeds its limit delta * alpha.

    v0 and limit are numbers or per-row arrays; the first row over its limit
    is named.
    """
    v0, limit = np.atleast_1d(v0, limit)
    over = np.flatnonzero(v0 > limit * (1.0 + 1e-12))
    if over.size:
        b = over[0]
        warnings.warn(
            f"initial velocity {v0[b]:.3g} exceeds delta*alpha = "
            f"{limit[b]:.3g}; certificate bounds that use "
            "delta may not apply",
            stacklevel=3,
        )


def run(
    problem: Problem,
    x_minus1,
    x_0,
    params: MomentumParams,
    stop: Optional[StopRules] = None,
    sink=None,
):
    """Iterate the momentum update until a stop rule fires.

    Stops on ||grad f(x_k)|| < grad_tol, k == max_iters, the iterate
    leaving B(x_0, box_radius), or a non-finite value (stop_reason
    'diverged'). The initial-velocity bound ||x_0 - x_{-1}|| <= delta*alpha
    is checked and produces a warning, not an error.

    The loop evaluates one single-point gradient per step, grad f(y_k^gamma),
    which heavy ball (gamma == 0) reads from the stored grad f(x_k); it also
    evaluates grad f(x_k) when grad_tol > 0, and never the objective. It
    records the iterates, and the gradients it holds, in a buffer of
    _ROW_BLOCK rows and hands each full block, and the last partial one, to
    sink.take(points, grads) (grads None when the loop holds none); the
    block is reused once take returns. With a sink, run returns
    sink.finish(stop_reason).

    Without one, run keeps the blocks in buffers that double up to
    max_iters + 2 points and returns the Trace: its f column, and its grads
    column when the loop did not hold it, are evaluated in batch, and it is
    cut at the first point (x_0 or later) whose value or gradient is not
    finite, as a per-step check of both would have stopped there.
    """
    stop = stop or StopRules()
    x_prev = problem.check_point(x_minus1)
    x_curr = problem.check_point(x_0)
    _warn_velocity(np.linalg.norm(x_curr - x_prev), params.delta * params.alpha)
    gradient = problem.gradient
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    grad_tol, max_iters, radius = stop.grad_tol, stop.max_iters, stop.box_radius
    reuse = gamma == 0.0
    check_box = not math.isinf(radius)
    cap = max_iters + 2
    keep = _History(cap) if sink is None else sink
    # one block of iterates and, when the loop needs them, grad f(x_k); r of
    # its rows are filled
    size = min(cap, _ROW_BLOCK)
    pts = np.empty((size, problem.dim))
    pts[0], pts[1] = x_prev, x_curr
    gs = g_curr = None
    if reuse or grad_tol > 0:
        gs = np.empty_like(pts)
        gs[0] = gradient(x_prev)
        gs[1] = g_curr = gradient(x_curr)
    r = 2
    reason = "max_iters"
    x0_ref = x_curr

    # 1-D norms are math.sqrt(v.dot(v)), which is what np.linalg.norm computes
    # for a contiguous 1-D float array; np.isfinite(x).all() is the cheapest
    # finiteness test that raises no floating-point warning on inf. In a
    # finite box, s = ||x_{k+1} - x_0||^2 is taken right after the step: a
    # finite s proves x_{k+1} finite, so the finiteness test runs only when s
    # is not, and sqrt(s) is the next iteration's box distance. The last step
    # of a max_iters run takes no distance, which nothing would read.
    dist = 0.0
    k = 0
    while True:
        if grad_tol > 0 and math.sqrt(g_curr.dot(g_curr)) < grad_tol:
            reason = "grad_tol"
            break
        if k >= max_iters:
            reason = "max_iters"
            break
        if dist > radius:
            reason = "left_box"
            break
        # step(), inlined with the same expression order
        d = x_curr - x_prev
        g = g_curr if reuse else gradient(x_curr + gamma * d)
        x_next = (x_curr + beta * d) - alpha * g
        if check_box and k + 1 < max_iters:
            v = x_next - x0_ref
            s = v.dot(v)
            if not math.isfinite(s) and not np.isfinite(x_next).all():
                reason = "diverged"
                break
            dist = math.sqrt(s)
        elif not np.isfinite(x_next).all():
            reason = "diverged"
            break
        if r == size:
            keep.take(pts, gs)
            r = 0
        pts[r] = x_next
        if gs is not None:
            gs[r] = g_curr = gradient(x_next)
        r += 1
        x_prev, x_curr = x_curr, x_next
        k += 1

    keep.take(pts[:r], None if gs is None else gs[:r])
    if sink is not None:
        return sink.finish(reason)
    return _trace(problem, keep.points, keep.grads, params, reason)


# rows per recorded block and per batched value / gradient call when a
# trace's columns are filled: large enough to amortize the call, small
# enough that the per-call temporaries stay a few MB
_ROW_BLOCK = 1024


class _History:
    """A run() sink that keeps every recorded row.

    The rows go into buffers that start at the first block's size and double
    up to cap points, one buffer at a time, so at most one old buffer is
    alive. points and grads are the filled prefixes; grads is None when the
    loop held no gradients or keep_grads is False. finish returns the
    history itself.
    """

    def __init__(self, cap: int, keep_grads: bool = True):
        self.cap, self.keep_grads, self.n = cap, keep_grads, 0
        self._pts = self._gs = None

    def take(self, points, grads) -> None:
        self._pts = self._kept(self._pts, points)
        if grads is not None and self.keep_grads:
            self._gs = self._kept(self._gs, grads)
        self.n += len(points)

    def _kept(self, buf, rows):
        if buf is None:
            return rows.copy()
        end = self.n + len(rows)
        while len(buf) < end:
            grown = np.empty((min(2 * len(buf), self.cap), buf.shape[1]))
            grown[:len(buf)] = buf
            buf = grown
        buf[self.n:end] = rows
        return buf

    def finish(self, reason: str) -> "_History":
        return self

    @property
    def num_steps(self) -> int:
        return self.n - 2

    @property
    def points(self) -> np.ndarray:
        return self._pts[:self.n]

    @property
    def grads(self) -> Optional[np.ndarray]:
        return None if self._gs is None else self._gs[:self.n]


def _by_row_block(n: int, rows) -> np.ndarray:
    """The (n,) array whose entries i..j-1 are rows(i, j), _ROW_BLOCK rows at a time.

    For per-row results (norms, row dot products) of (n, dim) arrays: a
    block gives the same bits as the whole array, and the temporaries stay
    one block in size.
    """
    out = np.empty(n)
    for i in range(0, n, _ROW_BLOCK):
        j = min(i + _ROW_BLOCK, n)
        out[i:j] = rows(i, j)
    return out


def _filled(problem: Problem, points: np.ndarray, grads: Optional[np.ndarray], first: bool):
    """(f, grads, end) of one block of a run's points.

    f, and grads when they are None, are evaluated in one batched call
    each; grads is C-contiguous whatever layout a problem's batched gradient
    has, since the row norms of a column-major stack would round
    differently. end is None when every value and gradient is finite, and
    otherwise counts the rows a trace keeps: up to and including the first
    row with one that is not. The block's first row is exempt when first is
    set: x_{-1} is never checked.
    """
    f = problem.value(points)
    if grads is None:
        grads = np.ascontiguousarray(problem.gradient(points))
    bad = ~(np.isfinite(f) & np.isfinite(grads).all(axis=1))
    if first:
        bad[0] = False
    return f, grads, int(np.argmax(bad)) + 1 if bad.any() else None


def _trace_columns(problem: Problem, points: np.ndarray, grads: Optional[np.ndarray]):
    """(points, f, grads, diverged): the trace arrays of a run's points.

    The columns are filled by _filled a row block at a time. If some row
    i >= 1 has a value or gradient that is not finite, the arrays end at the
    first such row and diverged is True.
    """
    n = len(points)
    f = np.empty(n)
    batched = grads is None
    if batched:
        grads = np.empty_like(points)
    for i in range(0, n, _ROW_BLOCK):
        j = min(i + _ROW_BLOCK, n)
        f[i:j], g, end = _filled(problem, points[i:j], None if batched else grads[i:j], i == 0)
        if batched:
            grads[i:j] = g
        if end is not None:
            return points[:i + end], f[:i + end], grads[:i + end], True
    return points, f, grads, False


def _trace(problem: Problem, points, grads, params: MomentumParams, reason: str) -> Trace:
    """The Trace of a run that stopped for reason, its columns filled by _trace_columns."""
    points, f, grads, diverged = _trace_columns(problem, points, grads)
    return Trace(
        points=points,
        f=f,
        grads=grads,
        params=params,
        stop_reason="diverged" if diverged else reason,
        problem_name=problem.name,
    )


@dataclass
class LockstepResult:
    """Where each row of a lockstep run without sinks stopped (row b is start b)."""

    x: np.ndarray               # (B, dim) last iterate x_K
    grad: np.ndarray            # (B, dim) gradient at x
    iters: np.ndarray           # (B,) steps taken, K
    stop_reason: list           # (B,) the stop rule that fired, as in run()


def _each_row(given, kind, n: int) -> list:
    """given as n instances of kind: one shared by every row, or a sequence of n."""
    rows = [given] * n if isinstance(given, kind) else list(given)
    if len(rows) != n:
        raise ValueError(f"expected one {kind.__name__} per start ({n}), got {len(rows)}")
    return rows


def _select(coef, live):
    """(alpha, beta, gamma, hb) restricted to the live rows.

    hb marks the heavy-ball rows (gamma == 0), which step with grad f(x_k):
    True for every row, else a row mask, or None for no row.
    """
    alpha, beta, gamma = (v[live] if isinstance(v, np.ndarray) else v for v in coef)
    hb = np.asarray(gamma == 0.0)
    hb = True if hb.all() else hb[:, 0] if hb.any() else None
    return alpha, beta, gamma, hb


def run_lockstep(
    problem: Problem,
    x_minus1,
    x_0,
    params: MomentumParams | Sequence[MomentumParams],
    stop: StopRules | Sequence[StopRules] | None = None,
    sinks: Optional[Sequence] = None,
):
    """Iterate every row of (B, dim) starts in lockstep until each one stops.

    params and stop are one MomentumParams and one StopRules for every row,
    or sequences of B, one per row. Row b follows exactly the iterates, stop
    rule and step count of run(problem, x_minus1[b], x_0[b], params[b],
    stop[b]): one params gives scalar coefficients, a sequence gives (B, 1)
    columns in the same elementwise expressions, and a heavy-ball row
    (gamma == 0) steps with grad f(x_k), as run() does. A row freezes once a
    rule fires.

    Without sinks, only the current and previous iterates are kept, f(x_k)
    and grad f(x_k) are checked at every step, and a LockstepResult says
    where each row stopped. With sinks, one per row, row b's points and the
    gradients the loop holds (on grad_tol or heavy-ball rows) go to
    sinks[b].take in blocks of _ROW_BLOCK rows, as run() hands them, no
    value is evaluated per step, and [sinks[b].finish(reason_b)] is returned.
    """
    prev = np.array(x_minus1, dtype=float, ndmin=2)
    cur = np.array(x_0, dtype=float, ndmin=2)
    if cur.ndim != 2 or not cur.size or cur.shape[1] != problem.dim or prev.shape != cur.shape:
        raise ValueError(
            f"{problem.name}: expected two (B, {problem.dim}) arrays of starts with B >= 1, "
            f"got shapes {prev.shape} and {cur.shape}"
        )
    n, dim = cur.shape
    if sinks is not None and len(sinks) != n:
        raise ValueError(f"expected one sink per start ({n}), got {len(sinks)}")
    row_params = _each_row(params, MomentumParams, n)
    _warn_velocity(_row_norms(cur - prev), np.array([p.delta * p.alpha for p in row_params]))
    # one params: scalar coefficients; one per row: (B, 1) columns
    coef = [
        getattr(params, a) if isinstance(params, MomentumParams)
        else np.array([getattr(p, a) for p in row_params], dtype=float)[:, None]
        for a in ("alpha", "beta", "gamma")
    ]
    alpha, beta, gamma, hb = _select(coef, slice(None))
    # per-row stop rules, filtered with the rows: max_iters, grad_tol, box_radius
    rules = np.array([[s.max_iters, s.grad_tol, s.box_radius]
                      for s in _each_row(stop or StopRules(), StopRules, n)])
    check_box = not np.isinf(rules[:, 2]).all()
    check_tol = bool((rules[:, 1] > 0).any())
    first_cap = rules[:, 0].min()
    # a sink's rows are checked for f and grad f as run()'s are, by the sink
    check_values = sinks is None
    # grad f(x_k) of every live row, at every step: for the checks, the
    # grad_tol rule or the heavy-ball rows' step
    need_g = check_values or check_tol or hb is not None
    gradient = problem.gradient

    iters = np.zeros(n, dtype=int)
    reasons = np.full(n, "", dtype=object)
    gs = None
    if check_values:
        out_x, out_g = np.empty_like(cur), np.empty_like(cur)
    else:
        # point i of row b (x_{i-1}) goes to pts[b, i % size]; gs holds its
        # gradient when the loop evaluates one
        size = int(min(rules[:, 0].max() + 2, _ROW_BLOCK))
        pts = np.empty((n, size, dim))
        pts[:, 0], pts[:, 1] = prev, cur
        if need_g:
            gs = np.empty_like(pts)
            gs[:, 0] = gradient(prev)
        finished = [None] * n

    def hand(idx, filled):
        """Give rows idx the first filled points of their block."""
        for b in idx:
            sinks[b].take(pts[b, :filled], None if gs is None else gs[b, :filled])

    rows, x0, k = np.arange(n), cur, 0

    def freeze(stopped, why):
        """Stop the rows at x_k, where run() leaves them; return the live mask."""
        idx = rows[stopped]
        iters[idx], reasons[idx] = k, why
        if check_values:
            out_x[idx], out_g[idx] = cur[stopped], g[stopped]
            return ~stopped
        hand(idx, (k + 1) % size + 1)  # x_k is point k + 1, the last one recorded
        for b in idx:
            finished[b] = sinks[b].finish(reasons[b])
        return ~stopped

    while True:
        if check_values:
            f = problem.value(cur)
        g = gradient(cur) if need_g else None
        if gs is not None:
            gs[rows, (k + 1) % size] = g
        # run()'s stop rules, lowest precedence first: a later rule wins
        hits = []
        if check_box:
            hits.append(("left_box", _row_norms(cur - x0) > rules[:, 2]))
        if k >= first_cap:
            hits.append(("max_iters", k >= rules[:, 0]))
        if check_tol:
            hits.append(("grad_tol", _row_norms(g) < rules[:, 1]))
        if check_values:
            hits.append(("diverged", ~(np.isfinite(f) & np.isfinite(g).all(axis=1))))
        if any(hit.any() for _, hit in hits):
            why = np.full(rows.size, "", dtype=object)
            for reason, hit in hits:
                why[hit] = reason
            done = why != ""
            live = freeze(done, why[done])
            if not live.any():
                break
            rows, prev, cur, x0, rules = rows[live], prev[live], cur[live], x0[live], rules[live]
            alpha, beta, gamma, hb = _select((alpha, beta, gamma), live)
            if need_g:
                g = g[live]
        # step(), with heavy-ball rows stepping along grad f(x_k)
        d = cur - prev
        if hb is None:
            g_step = gradient(cur + gamma * d)
        elif hb is True:
            g_step = g
        else:
            g_step = g.copy()
            gen = ~hb
            g_step[gen] = gradient(cur[gen] + gamma[gen] * d[gen])
        x_next = (cur + beta * d) - alpha * g_step
        if not np.isfinite(x_next).all():
            live = freeze(~np.isfinite(x_next).all(axis=1), "diverged")
            if not live.any():
                break
            rows, cur, x0, x_next, rules = rows[live], cur[live], x0[live], x_next[live], rules[live]
            alpha, beta, gamma, hb = _select((alpha, beta, gamma), live)
        if not check_values:
            # x_{k+1} is point k + 2; a full block, whose last gradient was
            # written above, goes to the sinks first
            slot = (k + 2) % size
            if slot == 0:
                hand(rows, size)
            pts[rows, slot] = x_next
        prev, cur = cur, x_next
        k += 1

    if check_values:
        return LockstepResult(out_x, out_g, iters, reasons.tolist())
    return finished


def safe_alpha(M: float, params: MomentumParams) -> float:
    """Largest certified step size min{1/M, (1-beta^2) / (2(beta^2 + 2|beta-gamma|) M)}.

    With beta = gamma = 0 the second constraint is vacuous and 1/M is
    returned.
    """
    # Python floats: a numpy scalar M would warn where the second bound
    # overflows to inf, which min() then discards
    M, b, g = float(M), float(params.beta), float(params.gamma)
    if M <= 0:
        raise ValueError(f"M must be positive, got {M}")
    # a subnormal beta can underflow 2 denom M to 0: the second bound is
    # then +inf and 1/M is the answer, as with beta = gamma = 0
    denom = 2.0 * (b * b + 2.0 * abs(b - g)) * M
    if denom == 0.0:
        return 1.0 / M
    return min(1.0 / M, (1.0 - b * b) / denom)
