"""Rescaled gradient flow x'(t) = -(1 - beta)^{-1} grad f(x(t)).

Momentum iterates track this flow at the sampling times k * alpha with an
O(alpha) error over any fixed horizon. This module integrates the flow with
the adaptive embedded Dormand-Prince 5(4) pair, a numpy port of scipy's
solve_ivp(method="RK45") that reproduces its numbers bit for bit (its
grad_tol event included, through a port of scipy's brentq), measures
trajectory arc length, computes discrete-vs-continuous tracking errors, and
evaluates the explicit tracking constants obtained by diagonalizing the
momentum companion matrix [[1+beta, -beta], [1, 0]] (x) I_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .optimizer import _ROW_BLOCK, MomentumParams, StopRules, Trace, run
from .problems import Problem, _row_norms

__all__ = [
    "FlowTrajectory",
    "TrackingConstants",
    "integrate_flow",
    "trajectory_length",
    "TrajectoryLengthEstimate",
    "tracking_error",
    "tracking_ladder",
    "tracking_constants",
    "companion_eigen",
]


@dataclass
class FlowTrajectory:
    """Discretized flow with running arc length and energy quadrature.

    states[i] = x(times[i]). arc_length[i] = int_0^{t_i} ||x'|| dt and
    energy[i] = int_0^{t_i} ||x'||^2 dt are integrated as augmented state,
    so they inherit the integrator tolerance. f_values and grad_norms, f and
    ||grad f|| of problem at each state, are evaluated on first use, in one
    stacked call each.
    """

    times: np.ndarray
    states: np.ndarray
    arc_length: np.ndarray
    energy: np.ndarray
    beta: float
    terminated: str                    # "grad_tol" | "horizon"
    problem: Problem
    _dense = None                      # _DenseFlow over every accepted step

    @cached_property
    def f_values(self) -> np.ndarray:
        return self.problem.value(self.states)

    @cached_property
    def grad_norms(self) -> np.ndarray:
        return _row_norms(self.problem.gradient(self.states))

    @property
    def total_length(self) -> float:
        return float(self.arc_length[-1])

    def at(self, t) -> np.ndarray:
        """Dense-output state x(t), t clamped to the span; see _DenseFlow on bit-equality."""
        if self._dense is None:
            if len(self.times) == 1:  # constant trajectory from a critical start
                if np.ndim(t) == 0:
                    return self.states[0].copy()
                return np.tile(self.states[0], (len(t), 1))
            raise RuntimeError("trajectory was built without dense output")
        t = np.clip(t, self.times[0], self.times[-1])
        out = self._dense(t)
        dim = self.states.shape[1]
        return out[:dim] if np.ndim(t) == 0 else out[:dim, :].T


# Dormand-Prince 5(4) with Shampine's quartic dense output (Dormand and Prince,
# J. Comput. Appl. Math. 6 (1980); Hairer, Norsett and Wanner, Solving ODEs I,
# Sec. II.4-II.5). The tableau, the step-size control, the initial step, the
# RMS error norm, the dense output and the segment lookup mirror, operation for
# operation, scipy.integrate.solve_ivp(method="RK45", dense_output=True) in
# scipy's integrate/_ivp/rk.py, common.py and ivp.py (BSD-3-Clause, Copyright
# (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers), so every time, state
# and dense-output value equals scipy's bit for bit. The right-hand side is
# autonomous, so the stage times C are not needed.
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])
_SAFETY = 0.9          # multiplies the asymptotic step-size factor
_MIN_FACTOR = 0.2      # largest decrease of the step size
_MAX_FACTOR = 10       # largest increase of the step size
_ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
_EPS = np.finfo(float).eps
_ATOL = 1e-12


def _rms(v: np.ndarray):
    return np.linalg.norm(v) / v.size ** 0.5


def _initial_step(rhs, y0, f0, interval, rtol):
    """First step size from two derivative samples (Hairer et al., II.4)."""
    scale = _ATOL + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = _rms((rhs(y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, interval)


def _interpolate(segment, t: np.ndarray) -> np.ndarray:
    """Quartic dense output of one step at t (0-d or 1-d)."""
    t_old, h, Q, y_old = segment
    x = (t - t_old) / h
    if t.ndim == 0:
        return h * np.dot(Q, np.cumprod(np.tile(x, 4))) + y_old
    y = h * np.dot(Q, np.cumprod(np.tile(x, (4, 1)), axis=0))
    y += y_old[:, None]
    return y


class _DenseFlow:
    """Piecewise quartic solution over the accepted steps ts[i] -> ts[i+1].

    A time on a step boundary belongs to the earlier step; times outside
    [ts[0], ts[-1]] use the first or last step's polynomial. A call
    evaluates each step's times in one product, which rounds by how many
    there are, so values equal those of one call over more times bit for
    bit only when each step's times all go in the same call.
    """

    def __init__(self, ts, segments):
        self.ts = np.asarray(ts)
        self.segments = segments  # (t_old, h, Q, y_old) per step

    def step(self, t):
        """The index of the step each time in t belongs to."""
        return np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.segments) - 1)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t)
        if t.ndim == 0:
            return _interpolate(self.segments[self.step(t)], t)
        order = np.argsort(t)
        t_sorted = t[order]
        seg = self.step(t_sorted)
        # one evaluation per run of sorted times in the same step
        bounds = [0, *(np.flatnonzero(np.diff(seg)) + 1), len(seg)]
        ys = np.hstack([_interpolate(self.segments[seg[a]], t_sorted[a:b])
                        for a, b in zip(bounds[:-1], bounds[1:])])
        out = np.empty_like(ys)
        out[:, order] = ys
        return out


# Brent's root finder (Brent, Algorithms for Minimization without Derivatives,
# 1973, ch. 4), ported operation for operation from scipy.optimize.brentq in
# scipy's optimize/Zeros/brentq.c and optimize/_zeros_py.py (BSD-3-Clause,
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers), so every
# root, and so every event time, equals scipy's bit for bit.
def _brentq(f, xa, xb, xtol, rtol, maxiter=100) -> float:
    """A root of f in [xa, xb], where f(xa) and f(xb) differ in sign."""
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = call(xpre), call(xcur)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(xa) and f(xb) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"root finder failed to converge after {maxiter} iterations")


def _dormand_prince(rhs, ts, ys, segments, t_bound, rtol, event=None) -> bool:
    """Step y' = rhs(y) from (ts[-1], ys[-1]) to t_bound, appending each step.

    Each accepted step appends its end time to ts, its state to ys and its
    dense-output segment to segments. With an event, integration stops at the
    first step over which event(y) falls through zero, at the root of the
    event along that step's dense output; returns whether that happened.
    """
    t, y = ts[-1], ys[-1]
    first = len(ts)
    f = rhs(y)
    h_abs = _initial_step(rhs, y, f, abs(t_bound - t), rtol)
    K = np.empty((7, y.size))
    g = None if event is None else event(y)
    while t < t_bound:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if not h_abs >= min_step:  # also stops a NaN step size
                raise RuntimeError("flow integration failed: Required step size "
                                   "is less than spacing between numbers.")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s in range(1, 6):
                K[s] = rhs(y + np.dot(K[:s].T, _A[s, :s]) * h)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = rhs(y_new)
            K[-1] = f_new
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _rms(np.dot(K.T, _E) * h / scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            rejected = True
        segment = (t, t_new - t, K.T.dot(_P), y)
        t, y, f = t_new, y_new, f_new
        if event is not None:
            g_new = event(y)
            if g >= 0 and g_new <= 0:
                t = np.float64(_brentq(lambda s: event(_interpolate(segment, np.asarray(s))),
                                       segment[0], t, xtol=4 * _EPS, rtol=4 * _EPS))
                y = _interpolate(segment, t)
                if len(ts) == first or t != ts[-1]:  # else the previous step ends there
                    ts.append(t)
                    ys.append(y)
                    segments.append(segment)
                return True
            g = g_new
        ts.append(t)
        ys.append(y)
        segments.append(segment)
    return False


def integrate_flow(
    problem: Problem,
    x0,
    beta: float = 0.0,
    horizon: Optional[float] = None,
    grad_tol: float = 0.0,
    rtol: float = 1e-10,
    max_horizon: float = 2.0**20,
) -> FlowTrajectory:
    """Integrate x' = -(1-beta)^{-1} grad f from x0.

    At least one stop rule is required: a positive horizon or grad_tol > 0
    (then integration proceeds in doubling chunks until the gradient norm
    crosses the tolerance, or gives up at t = max_horizon, where the last
    chunk ends). Raises RuntimeError on integrator failure or a non-finite
    state.
    """
    if horizon is None and grad_tol <= 0:
        raise ValueError("need a horizon or a positive grad_tol")
    if horizon is not None and not horizon > 0:
        raise ValueError("horizon must be positive")
    if not max_horizon > 0:
        raise ValueError("max_horizon must be positive")
    if not -1 < beta < 1:
        raise ValueError("beta must lie in (-1, 1)")
    x0 = problem.check_point(x0)
    scale = 1.0 / (1.0 - beta)
    dim = problem.dim
    rtol = max(rtol, 100 * _EPS)  # solve_ivp's floor on rtol

    def rhs(z):
        g = problem.gradient(z[:dim])
        v = -scale * g
        speed = np.linalg.norm(v)
        return np.concatenate([v, [speed, speed**2]])

    event = None
    if grad_tol > 0:
        def event(z):
            return np.linalg.norm(problem.gradient(z[:dim])) - grad_tol

    z0 = np.concatenate([x0, [0.0, 0.0]])
    if np.linalg.norm(problem.gradient(x0)) <= grad_tol:
        # already critical enough: constant trajectory
        return FlowTrajectory(np.array([0.0]), x0[None, :], np.zeros(1), np.zeros(1),
                              beta, "grad_tol" if grad_tol > 0 else "horizon", problem)
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")

    if horizon is not None:
        T = max_horizon = horizon
    else:
        T = min(1.0, max_horizon)
    ts, zs, segments = [0.0], [z0], []
    while True:
        start = len(zs)
        hit_tol = _dormand_prince(rhs, ts, zs, segments, T, rtol, event)
        if not np.all(np.isfinite(zs[start:])):
            raise RuntimeError("flow integration produced non-finite state")
        if hit_tol or T >= max_horizon:
            terminated = "grad_tol" if hit_tol else "horizon"
            break
        T = min(2.0 * T, max_horizon)  # extend the horizon, continuing from the chunk end

    zs = np.array(zs)
    traj = FlowTrajectory(np.array(ts), np.ascontiguousarray(zs[:, :dim]), zs[:, dim],
                          zs[:, dim + 1], beta, terminated, problem)
    traj._dense = _DenseFlow(ts, segments)
    return traj


@dataclass
class TrajectoryLengthEstimate:
    sigma_hat: float
    per_sample: list
    lower_bound_only: bool


def trajectory_length(
    problem: Problem,
    X0_samples,
    beta: float = 0.0,
    grad_tol: float = 1e-9,
    max_horizon: float = 1e6,
) -> TrajectoryLengthEstimate:
    """Max flow arc length over sampled starts, truncated at ||grad f|| < grad_tol.

    A sample whose integration exhausts max_horizon before reaching the
    tolerance is flagged, and the returned value is then only a lower bound.
    """
    if grad_tol <= 0:
        raise ValueError("grad_tol must be positive")
    per = []
    flagged = False
    for x0 in X0_samples:
        traj = integrate_flow(problem, x0, beta=beta, grad_tol=grad_tol, max_horizon=max_horizon)
        truncated = traj.terminated != "grad_tol"
        flagged = flagged or truncated
        per.append({"length": traj.total_length, "time": float(traj.times[-1]),
                    "truncated": truncated})
    sigma = max(p["length"] for p in per) if per else 0.0
    return TrajectoryLengthEstimate(float(sigma), per, flagged)


class _TrackingErrors:
    """A run() sink keeping e_k = ||x_k - x(k alpha)|| for k = 0..k_last against traj.

    Each block of points x_{-1}, x_0, ... is measured in one traj.at call but
    for the rows in its last time's flow step, which wait for the next block
    (see _DenseFlow); so one block plus one flow step's rows are held.
    """

    def __init__(self, traj: FlowTrajectory, alpha: float, k_last: int):
        self._traj, self._alpha, self._k_last = traj, alpha, k_last
        self._held, self._k = traj.states[:0], 0  # rows x_k, x_{k+1}, ... not yet measured
        self._errors, self.n = [], 0

    def take(self, points, grads, last=False) -> None:
        rows = points[max(1 - self.n, 0):max(self._k_last + 2 - self.n, 0)]
        self.n += len(points)
        rows = np.concatenate([self._held, rows])
        times = np.arange(self._k, self._k + len(rows)) * self._alpha
        cut = len(rows)
        if cut and not last and self._k + cut <= self._k_last and self._traj._dense is not None:
            steps = self._traj._dense.step(times)
            cut = int(np.searchsorted(steps, steps[-1]))
        if cut:
            self._errors.append(_row_norms(rows[:cut] - self._traj.at(times[:cut])))
        self._held, self._k = rows[cut:], self._k + cut

    def finish(self, reason: str) -> "_TrackingErrors":
        self.take(self._held[:0], None, last=True)
        self.errors, self.num_steps = np.concatenate(self._errors), self.n - 2
        return self


def tracking_error(problem: Problem, trace: Trace, horizon: float):
    """Per-step deviation e_k = ||x_k - x(k alpha)|| for k <= floor(T/alpha).

    The flow starts at the trace's x_0 and uses the trace's beta; the points
    go through tracking_ladder's sink a row block at a time. Returns
    (errors, max_error).
    """
    traj = integrate_flow(problem, trace.x(0), beta=trace.params.beta, horizon=horizon)
    alpha = trace.params.alpha
    sink = _TrackingErrors(traj, alpha, int(math.floor(horizon / alpha)))
    for i in range(0, len(trace.points), _ROW_BLOCK):
        sink.take(trace.points[i:i + _ROW_BLOCK], None)
    errors = sink.finish(trace.stop_reason).errors
    return errors, float(np.max(errors))


def tracking_ladder(problem: Problem, x0, beta: float, alphas, horizon: float,
                    gamma: float = 0.0):
    """Max tracking error for each step size plus the log-log slope.

    The flow depends on neither alpha nor gamma, so it is integrated once.
    Each run starts with velocity matched to the rescaled flow, x_{-1} =
    x_0 + alpha / (1 - beta) * grad f(x_0), so its error shows the O(alpha)
    tracking regime, not a from-rest transient. Its sink measures the error
    against the flow as it steps (_TrackingErrors): no objective value is
    evaluated and no iterate kept. Returns (max_errors, slope). A horizon
    below the largest alpha is rejected: that rung would take no step and
    report exact tracking.
    """
    alphas = [float(a) for a in alphas]
    if len(alphas) < 2:
        raise ValueError("need at least two step sizes to fit a slope")
    if horizon < max(alphas):
        raise ValueError(f"horizon {horizon} is below the largest step size {max(alphas)}: "
                         "that rung would take no step")
    x0 = problem.check_point(x0)
    scale = 1.0 / (1.0 - beta)
    g0 = problem.gradient(x0)
    traj = integrate_flow(problem, x0, beta=beta, horizon=horizon)
    maxes = []
    for alpha in alphas:
        x_m1 = x0 + alpha * scale * g0
        delta = scale * float(np.linalg.norm(g0)) * (1.0 + 1e-9)
        params = MomentumParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
        k_last = int(math.floor(horizon / alpha))
        errors = run(problem, x_m1, x0, params, StopRules(max_iters=k_last),
                     sink=_TrackingErrors(traj, alpha, k_last)).errors
        maxes.append(float(np.max(errors)))
    if any(m <= 0 for m in maxes):
        slope = math.inf  # exact tracking; steeper than any requirement
    else:
        slope = float(np.polyfit(np.log(alphas), np.log(maxes), 1)[0])
    return maxes, slope


def companion_eigen(beta: float):
    """Eigen-decomposition of [[1+beta, -beta], [1, 0]]: eigenvalues (1, beta).

    The discriminant (1-beta)^2 is positive for |beta| < 1, so the block is
    always diagonalizable with the eigenvector matrix P = [[1, beta], [1, 1]].
    """
    if not -1 < beta < 1:
        raise ValueError("beta must lie in (-1, 1)")
    P = np.array([[1.0, beta], [1.0, 1.0]])
    eigvals = np.array([1.0, beta])
    return eigvals, P


@dataclass
class TrackingConstants:
    """Constants controlling ||x_k - x(k alpha)|| over a fixed horizon.

    p1, p2 are the vector norm-equivalence constants of ||.||_P = ||P^{-1} .||
    (p1 ||x|| <= ||x||_P <= p2 ||x||) and p3 the operator one; they come from
    the singular values of the 2x2 eigenvector block, which is exact for the
    Kronecker structure. alpha_bar is a step-size threshold guaranteeing
    tracking error <= epsilon up to time T.
    """

    c4: float
    c5: float
    p1: float
    p2: float
    p3: float
    alpha_bar: float
    eigenvalues: tuple


def tracking_constants(
    M: float,
    L: float,
    params: MomentumParams,
    T: float,
    delta: float,
    epsilon: float,
) -> TrackingConstants:
    """Explicit tracking constants for horizon T and target error epsilon.

    M and L are Lipschitz constants of the (1-beta)^{-1}-rescaled gradient
    and objective on the region swept by the flow (callers scale the raw
    problem constants by 1/(1-beta)).
    """
    if min(M, L, T, epsilon) <= 0:
        raise ValueError("M, L, T, epsilon must be positive")
    b, g = params.beta, params.gamma
    eigvals, P = companion_eigen(b)
    svals = np.linalg.svd(P, compute_uv=False)
    smax, smin = float(svals[0]), float(svals[-1])
    p1 = 1.0 / smax
    p2 = 1.0 / smin
    p3 = smax / smin
    c4 = M * L * (0.5 + abs(b) / 2.0 + abs(g) - b * abs(g))
    c5 = p3 * M * math.sqrt(1.0 + 2.0 * g + 2.0 * g * g)
    # growth = e^{c5 T} bracket - c4/c5 > 0 is taken in log space: e^{c5 T}
    # alone overflows a float on long horizons or large M, where alpha_bar
    # = epsilon (p1/p2) / growth underflows to 0.0
    bracket = abs(b) * delta + 2.0 * L - L * b + c4 / c5
    log_growth = c5 * T + math.log(bracket) + math.log1p(-(c4 / c5) / bracket * math.exp(-c5 * T))
    alpha_bar = min(1.0, math.exp(math.log(epsilon * (p1 / p2)) - log_growth))
    return TrackingConstants(c4, c5, p1, p2, p3, alpha_bar, tuple(eigvals))
