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
_ROW_BLOCK rows at a time. Every recorder fills a block's f, and its
grads when the loop held none, by one rule, _filled, and keeps the block
up to its first point whose value or gradient is not finite. A sink only
fills, reduces and reports: a run() sink's take returns whether it cut
the block there (None is no cut). The two loops alone decide when a row
stops and why: run() stops stepping at a hand-off that reports a cut and
returns sink.finish('diverged'), so it steps at most one block past the
cut. By default the sink is _History, which keeps the filled blocks and
returns the Trace; a Trace lives in memory only, for library callers and
tests. Every command passes a sink such as certificates.Columns, which
reduces each block and drops it, so the trajectory is never held.
run_lockstep() is the shared lockstep core for stacks of starts: it
steps them together under the same stop rules, with one params and stop
rules for all rows or one per row. It hands each block of the whole
stack to one stack sink, take(rows, points, grads) / finish(reasons),
whose block length it takes; take returns a (k,) bool mask of the handed
rows it cut, and run_lockstep stops those rows as 'diverged', as run()
does. Escape studies pass _Endpoints, which keeps x_K, grad f(x_K) and
K per row and takes the block that fits one byte budget for the whole
stack, so a study holds O(trials * dim) plus that budget. Sweeps pass
_RowSinks, which hands each row's blocks of _ROW_BLOCK rows to its own
run() sink (Columns) as run() would, through the same take(points, grads)
/ finish(reason), and reports the rows whose sinks cut.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .problems import Problem, _norms_in_place, _row_norms

__all__ = [
    "MomentumParams",
    "StopRules",
    "Trace",
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
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if not abs(self.beta) < 1:
            raise ValueError(f"beta must lie in (-1, 1), got {self.beta}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not 0 <= self.delta < math.inf:
            raise ValueError(f"delta must be nonnegative and finite, got {self.delta}")
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


@dataclass(frozen=True)
class StopRules:
    max_iters: int = 10_000
    grad_tol: float = 0.0
    box_radius: float = np.inf

    def __post_init__(self):
        if not self.max_iters >= 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if not 0 <= self.grad_tol < math.inf:
            raise ValueError(f"grad_tol must be nonnegative and finite, got {self.grad_tol}")
        # inf, the default, switches the box off; nan would too, silently
        if not self.box_radius > 0:
            raise ValueError(f"box_radius must be positive, got {self.box_radius}")


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
    block is reused once take returns. take returns whether the sink cut
    the block at a point (x_0 or later) whose value or gradient is not
    finite, as a per-step check of both would have stopped there: run
    stops stepping at such a hand-off, and returns
    sink.finish(stop_reason), with stop_reason 'diverged' when the last
    take cut. alpha, beta and gamma are held as 0-d float64 arrays, which
    give the same products as the floats without converting them on every
    multiply.

    The default sink, _History, returns the Trace: its f column, and its
    grads column when the loop did not hold it, are evaluated a block at a
    time.
    """
    stop = stop or StopRules()
    x_prev = problem.check_point(x_minus1)
    x_curr = problem.check_point(x_0)
    _warn_velocity(np.linalg.norm(x_curr - x_prev), params.delta * params.alpha)
    gradient = problem.gradient
    reuse = params.gamma == 0.0
    # 0-d float64 arrays give the same IEEE products as the Python floats,
    # without converting a float on every multiply
    alpha, beta, gamma = (np.array(getattr(params, a), dtype=float)
                          for a in ("alpha", "beta", "gamma"))
    grad_tol, max_iters, radius = stop.grad_tol, stop.max_iters, stop.box_radius
    check_box = not math.isinf(radius)
    cap = max_iters + 2
    if sink is None:
        sink = _History(problem, params, cap)
    # one block of iterates and, when the loop needs them, grad f(x_k); r of
    # its rows are filled
    size = min(cap, _ROW_BLOCK)
    pts = np.empty((size, problem.dim))
    pts[0] = x_prev
    gs = g_curr = None
    if reuse or grad_tol > 0:
        gs = np.empty_like(pts)
        gs[0] = gradient(x_prev)
        g_curr = gradient(x_curr)
    r = 1
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
        # x_k is point k + 1; a full block goes to the sink before it is reused
        if r == size:
            if sink.take(pts, gs):
                return sink.finish("diverged")
            r = 0
        pts[r] = x_curr
        if gs is not None:
            gs[r] = g_curr
        r += 1
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
        if gs is not None:
            g_curr = gradient(x_next)
        x_prev, x_curr = x_curr, x_next
        k += 1

    cut = sink.take(pts[:r], None if gs is None else gs[:r])
    return sink.finish("diverged" if cut else reason)


# rows per recorded block and per batched value / gradient call when a
# trace's columns are filled: large enough to amortize the call, small
# enough that a block and the temporaries of its stacked calls stay well
# under a MB at the dims a run meets (a 120-dim block is 240 KB)
_ROW_BLOCK = 256


class _History:
    """run()'s default sink: it keeps every recorded row and returns the Trace.

    take keeps each block up to its first point (x_0 or later) whose value
    or gradient is not finite, by _until_cut, as Columns does, and returns
    whether it cut the block there. The points, f and grads go into buffers
    that start at the first block's size and double up to cap points, grown
    one at a time, so at most one old buffer is alive. finish(reason)
    returns the Trace of the kept rows, the buffers' prefixes.
    """

    def __init__(self, problem: Problem, params: MomentumParams, cap: int):
        self._problem, self._params, self.cap = problem, params, cap
        self.n = 0
        self._pts = self._f = self._gs = None

    def take(self, points, grads) -> bool:
        points, f, grads, cut = _until_cut(self._problem, points, grads, self.n == 0)
        self._pts = self._kept(self._pts, points)
        self._f = self._kept(self._f, f)
        self._gs = self._kept(self._gs, grads)
        self.n += len(points)
        return cut

    def _kept(self, buf, rows):
        if buf is None:
            return rows.copy()
        end = self.n + len(rows)
        while len(buf) < end:
            grown = np.empty((min(2 * len(buf), self.cap), *buf.shape[1:]))
            grown[:len(buf)] = buf
            buf = grown
        buf[self.n:end] = rows
        return buf

    def finish(self, reason: str) -> Trace:
        n = self.n
        return Trace(points=self._pts[:n], f=self._f[:n], grads=self._gs[:n],
                     params=self._params, stop_reason=reason)


# bytes of lockstep blocks (the points and the gradients the loop holds) an
# _Endpoints stack keeps for all its rows together: a block of 27 points per
# row for 100 trials at dim 6, and at least one point per row at any size
_ENDPOINT_BLOCK_BYTES = 1 << 18


class _Endpoints:
    """A run_lockstep sink that keeps where each row stopped: x_K, grad f(x_K) and K.

    Its block is the number of points per row that fits _ENDPOINT_BLOCK_BYTES
    for the whole stack, at least one. Each hand-off fills the handed rows
    by one stacked _filled, keeps each row up to its first point (x_0 or
    later) whose value or gradient is not finite, as run()'s sinks do, and
    returns the (k,) mask of the rows it cut there. x and grad are
    (B, dim), n (points, K + 2) is (B,); finish returns the sink itself,
    with stop_reason the (B,) array of reasons it is given.
    """

    def __init__(self, problem: Problem, n: int):
        self._problem = problem
        self.x, self.grad = np.empty((n, problem.dim)), np.empty((n, problem.dim))
        self.n = np.zeros(n, dtype=int)
        self.block_rows = max(1, _ENDPOINT_BLOCK_BYTES // (2 * 8 * n * problem.dim))
        self.stop_reason = None

    def __len__(self) -> int:
        return len(self.n)

    def take(self, rows, points, grads) -> np.ndarray:
        k, m, _ = points.shape
        _, grads, bad = _filled(self._problem, points, grads, self.n[rows] == 0)
        cut = bad.any(axis=1)
        last = np.where(cut, bad.argmax(axis=1), m - 1)
        self.x[rows], self.grad[rows] = points[np.arange(k), last], grads[np.arange(k), last]
        self.n[rows] += last + 1
        return cut

    def finish(self, reasons) -> "_Endpoints":
        self.stop_reason = reasons
        return self

    @property
    def num_steps(self) -> np.ndarray:
        return self.n - 2


class _RowSinks:
    """A run_lockstep sink that hands each row's blocks to that row's own run() sink.

    Row b's blocks of _ROW_BLOCK points go to sinks[b].take(points, grads),
    as run() hands them; take returns the mask of the handed rows whose
    sinks cut, and finish returns [sinks[b].finish(reason_b)].
    """

    def __init__(self, sinks: Iterable):
        self.sinks = list(sinks)
        self.block_rows = _ROW_BLOCK

    def __len__(self) -> int:
        return len(self.sinks)

    def take(self, rows, points, grads) -> np.ndarray:
        return np.array([bool(self.sinks[b].take(points[i], None if grads is None else grads[i]))
                         for i, b in enumerate(rows)])

    def finish(self, reasons) -> list:
        return [sink.finish(reason) for sink, reason in zip(self.sinks, reasons)]


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


def _filled(problem: Problem, points: np.ndarray, grads: Optional[np.ndarray], first):
    """(f, grads, bad) of one block of a run's points, (m, dim) or stacked (k, m, dim).

    The one rule every recorder fills and cuts a run by. f, and grads when
    they are None, are evaluated in one batched call each over all the
    block's points; grads is C-contiguous whatever layout a problem's
    batched gradient has, since the row norms of a column-major stack would
    round differently. bad, of shape (m,) or (k, m), marks each point whose
    value or gradient is not finite: a run is cut at its first one. A row's
    first point is exempt where first is set (a bool, or (k,) bools): x_{-1}
    is never checked.
    """
    flat = points.reshape(-1, points.shape[-1])
    f = problem.value(flat).reshape(points.shape[:-1])
    if grads is None:
        grads = np.ascontiguousarray(problem.gradient(flat)).reshape(points.shape)
    bad = ~(np.isfinite(f) & np.isfinite(grads).all(axis=-1))
    bad[..., 0] &= np.logical_not(first)
    return f, grads, bad


def _until_cut(problem: Problem, points: np.ndarray, grads: Optional[np.ndarray], first: bool):
    """(points, f, grads, cut) of one block of a run's (m, dim) points, filled
    by _filled and ended at its first bad point; cut tells whether it was."""
    f, grads, bad = _filled(problem, points, grads, first)
    if not bad.any():
        return points, f, grads, False
    end = int(bad.argmax()) + 1
    return points[:end], f[:end], grads[:end], True


def _each_row(given, kind, n: int) -> list:
    """given as n instances of kind: one shared by every row, or a sequence of n."""
    rows = [given] * n if isinstance(given, kind) else list(given)
    if len(rows) != n:
        raise ValueError(f"expected one {kind.__name__} per start ({n}), got {len(rows)}")
    return rows


def _select(coef, live):
    """(alpha, beta, gamma, hb) of the live rows, from (B, 1) coefficient columns.

    hb marks the heavy-ball rows (gamma == 0), which step with grad f(x_k):
    True for every row, else a row mask, or None for no row.
    """
    alpha, beta, gamma = (v[live] for v in coef)
    hb = gamma == 0.0
    hb = True if hb.all() else hb[:, 0] if hb.any() else None
    return alpha, beta, gamma, hb


def run_lockstep(
    problem: Problem,
    x_minus1,
    x_0,
    params: MomentumParams | Sequence[MomentumParams],
    stop: StopRules | Sequence[StopRules] | None = None,
    *,
    sink,
):
    """Iterate every row of (B, dim) starts in lockstep until each one stops.

    params and stop are one MomentumParams and one StopRules for every row,
    or sequences of B, one per row. Row b follows exactly the iterates, stop
    rule and step count of run(problem, x_minus1[b], x_0[b], params[b],
    stop[b]): alpha, beta and gamma are held as (B, 1) columns, whether
    one params or B of them are given, in run()'s elementwise expressions,
    and a heavy-ball row (gamma == 0) steps with grad f(x_k), as run() does.

    sink records the whole stack (len(sink) == B) and states its block
    length, sink.block_rows points per row. The live rows' points, and the
    gradients the loop holds (on grad_tol or heavy-ball rows), fill a
    (rows, block_rows, dim) block; sink.take(rows, points, grads) receives
    the original indices of the handed rows and views of their filled
    points (grads None when the loop holds none), and returns the (k,) mask
    of the handed rows it cut at a point whose f or grad f is not finite
    (_Endpoints, or Columns through _RowSinks), or None for no cut. A full
    block is handed before it is reused. A row stops once a rule fires,
    its x_{k+1} is not finite, or the sink cuts it, 'diverged' in the last
    two cases as in run(): it is handed the rest of its block, if any, and
    dropped from the live arrays. No value is evaluated per step, and
    sink.finish(reasons), with each row's stop reason, is returned.
    """
    prev = np.array(x_minus1, dtype=float, ndmin=2)
    cur = np.array(x_0, dtype=float, ndmin=2)
    if cur.ndim != 2 or not cur.size or cur.shape[1] != problem.dim or prev.shape != cur.shape:
        raise ValueError(
            f"{problem.name}: expected two (B, {problem.dim}) arrays of starts with B >= 1, "
            f"got shapes {prev.shape} and {cur.shape}"
        )
    n, dim = cur.shape
    if len(sink) != n:
        raise ValueError(f"expected a sink of one row per start ({n}), got {len(sink)}")
    row_params = _each_row(params, MomentumParams, n)
    _warn_velocity(_row_norms(cur - prev), np.array([p.delta * p.alpha for p in row_params]))
    coef = [np.array([getattr(p, a) for p in row_params], dtype=float)[:, None]
            for a in ("alpha", "beta", "gamma")]
    alpha, beta, gamma, hb = _select(coef, slice(None))
    # per-row stop rules, filtered with the rows: max_iters, grad_tol, box_radius
    rules = np.array([[s.max_iters, s.grad_tol, s.box_radius]
                      for s in _each_row(stop or StopRules(), StopRules, n)])
    check_box = not np.isinf(rules[:, 2]).all()
    check_tol = bool((rules[:, 1] > 0).any())
    first_cap = rules[:, 0].min()
    # grad f(x_k) of every live row, at every step: for the grad_tol rule or
    # the heavy-ball rows' step
    need_g = check_tol or hb is not None
    gradient = problem.gradient

    # the live rows' blocks: r points of each (x_{-1} first), and their
    # gradients when the loop evaluates them; rows are the original indices
    size = int(min(rules[:, 0].max() + 2, sink.block_rows))
    pts = np.empty((n, size, dim))
    pts[:, 0] = prev
    gs = None
    if need_g:
        gs = np.empty_like(pts)
        gs[:, 0] = gradient(prev)
    r = 1
    reasons = np.full(n, "", dtype=object)
    rows, x0, k, g = np.arange(n), cur, 0, None

    def freeze(stopped, why):
        """Stop the stopped rows for why: hand them their blocks, which end
        where run() leaves them, unless the blocks are empty, and drop them
        from every live array. A row the sink cuts there stops as
        'diverged'. Returns whether any row is still live.

        The stopped rows swap places with live rows behind them, so they end
        up last: the hand-off and the live blocks are views, and only the
        swapped rows' points are copied."""
        nonlocal pts, gs, rows, prev, cur, x0, rules, g, alpha, beta, gamma, hb
        reasons[rows[stopped]] = why
        n_live = stopped.size - np.count_nonzero(stopped)
        holes = np.flatnonzero(stopped[:n_live])
        movers = n_live + np.flatnonzero(~stopped[n_live:])
        order = np.arange(stopped.size)
        order[holes], order[movers] = movers, holes
        if r:
            for block in (pts, gs) if gs is not None else (pts,):
                block[holes, :r], block[movers, :r] = block[movers, :r], block[holes, :r]
            gone = rows[order[n_live:]]
            cut = sink.take(gone, pts[n_live:, :r], None if gs is None else gs[n_live:, :r])
            if np.any(cut):
                reasons[gone[cut]] = "diverged"
        live = order[:n_live]
        pts, gs = pts[:n_live], None if gs is None else gs[:n_live]
        rows, prev, cur, x0, rules = rows[live], prev[live], cur[live], x0[live], rules[live]
        if g is not None:
            g = g[live]
        alpha, beta, gamma, hb = _select((alpha, beta, gamma), live)
        return n_live > 0

    while True:
        # x_k is point k + 1; a full block goes to the sink before it is
        # reused, and the rows it cuts stop with nothing left to hand
        if r == size:
            cut = sink.take(rows, pts, gs)
            r = 0
            if np.any(cut) and not freeze(cut, "diverged"):
                break
        # a row whose x_k is not finite ends at x_{k-1}, its block's last point
        if k and not np.isfinite(cur).all():
            if not freeze(~np.isfinite(cur).all(axis=1), "diverged"):
                break
        pts[:, r] = cur
        g = gradient(cur) if need_g else None
        if gs is not None:
            gs[:, r] = g
        r += 1
        # run()'s stop rules, lowest precedence first: a later rule wins
        hits = []
        if check_box:
            hits.append(("left_box", _row_norms(cur - x0) > rules[:, 2]))
        if k >= first_cap:
            hits.append(("max_iters", k >= rules[:, 0]))
        if check_tol:
            hits.append(("grad_tol", _row_norms(g) < rules[:, 1]))
        if any(hit.any() for _, hit in hits):
            why = np.full(rows.size, "", dtype=object)
            for reason, hit in hits:
                why[hit] = reason
            done = why != ""
            if not freeze(done, why[done]):
                break
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
        prev, cur = cur, (cur + beta * d) - alpha * g_step
        k += 1

    return sink.finish(reasons)


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
