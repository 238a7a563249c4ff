"""Rescaled gradient flow x'(t) = -(1 - beta)^{-1} grad f(x(t)).

Momentum iterates track this flow at the sampling times k * alpha with an
O(alpha) error over any fixed horizon. This module integrates the flow with
an adaptive embedded Runge-Kutta 5(4) pair (scipy's solve_ivp), measures
trajectory arc length, computes discrete-vs-continuous tracking errors, and
evaluates the explicit tracking constants obtained by diagonalizing the
momentum companion matrix [[1+beta, -beta], [1, 0]] (x) I_n.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .optimizer import MomentumParams, StopRules, Trace, run
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
    so they inherit the integrator tolerance.
    """

    times: np.ndarray
    states: np.ndarray
    arc_length: np.ndarray
    energy: np.ndarray
    f_values: np.ndarray
    grad_norms: np.ndarray
    beta: float
    terminated: str                    # "grad_tol" | "horizon"
    _dense = None                      # scipy OdeSolution over [0, T], all chunks

    @property
    def total_length(self) -> float:
        return float(self.arc_length[-1])

    def at(self, t) -> np.ndarray:
        """Dense-output state x(t); t beyond the computed span is clamped."""
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

    def to_csv(self, path, coordinates: bool = False) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            header = ["t", "f", "grad_norm", "arc_length"]
            if coordinates:
                header += [f"x{i}" for i in range(self.states.shape[1])]
            w.writerow(header)
            for i in range(len(self.times)):
                row = [
                    format(self.times[i], ".17g"),
                    format(self.f_values[i], ".17g"),
                    format(self.grad_norms[i], ".17g"),
                    format(self.arc_length[i], ".17g"),
                ]
                if coordinates:
                    row += [format(v, ".17g") for v in self.states[i]]
                w.writerow(row)


def integrate_flow(
    problem: Problem,
    x0,
    beta: float = 0.0,
    horizon: Optional[float] = None,
    grad_tol: float = 0.0,
    rtol: float = 1e-10,
    t_eval: Optional[Sequence[float]] = None,
) -> FlowTrajectory:
    """Integrate x' = -(1-beta)^{-1} grad f from x0.

    At least one stop rule is required: a finite horizon or grad_tol > 0
    (then integration proceeds in doubling chunks until the gradient norm
    crosses the tolerance). Raises RuntimeError on integrator failure or a
    non-finite state.
    """
    # imported here so that loading momlab does not load scipy
    from scipy.integrate import OdeSolution, solve_ivp

    if horizon is None and grad_tol <= 0:
        raise ValueError("need a horizon or a positive grad_tol")
    if not -1 < beta < 1:
        raise ValueError("beta must lie in (-1, 1)")
    x0 = problem.check_point(x0)
    scale = 1.0 / (1.0 - beta)
    dim = problem.dim

    def rhs(t, z):
        g = problem.gradient(z[:dim])
        v = -scale * g
        speed = np.linalg.norm(v)
        return np.concatenate([v, [speed, speed**2]])

    events = None
    if grad_tol > 0:
        def grad_small(t, z):
            return np.linalg.norm(problem.gradient(z[:dim])) - grad_tol
        grad_small.terminal = True
        grad_small.direction = -1
        events = [grad_small]

    z0 = np.concatenate([x0, [0.0, 0.0]])
    if np.linalg.norm(problem.gradient(x0)) <= grad_tol:
        # already critical enough: constant trajectory
        times = np.array([0.0])
        states = x0[None, :]
        return FlowTrajectory(
            times, states, np.zeros(1), np.zeros(1),
            np.array([problem.value(x0)]), np.array([np.linalg.norm(problem.gradient(x0))]),
            beta, "grad_tol",
        )

    T = horizon if horizon is not None else 1.0
    max_horizon = horizon if horizon is not None else 2.0**20
    t0 = 0.0
    sols = []
    while True:
        sol = solve_ivp(
            rhs, (t0, T), z0, method="RK45", rtol=rtol, atol=1e-12,
            dense_output=True, events=events,
            t_eval=None if t_eval is None else [t for t in t_eval if t0 <= t <= T],
        )
        if not sol.success:
            raise RuntimeError(f"flow integration failed: {sol.message}")
        if not np.all(np.isfinite(sol.y)):
            raise RuntimeError("flow integration produced non-finite state")
        sols.append(sol)
        hit_tol = events is not None and len(sol.t_events[0]) > 0
        if hit_tol or horizon is not None or T >= max_horizon:
            terminated = "grad_tol" if hit_tol else "horizon"
            break
        # extend the horizon, continuing from the chunk end
        t0 = sol.t[-1]
        z0 = sol.y[:, -1]
        T = 2.0 * T

    times = np.concatenate([s.t if i == 0 else s.t[1:] for i, s in enumerate(sols)])
    ys = np.concatenate([s.y if i == 0 else s.y[:, 1:] for i, s in enumerate(sols)], axis=1)
    states = np.ascontiguousarray(ys[:dim, :].T)
    f_vals = problem.value(states)
    g_norms = _row_norms(problem.gradient(states))
    traj = FlowTrajectory(
        times=times,
        states=states,
        arc_length=ys[dim, :],
        energy=ys[dim + 1, :],
        f_values=f_vals,
        grad_norms=g_norms,
        beta=beta,
        terminated=terminated,
    )
    if len(sols) == 1:
        traj._dense = sols[0].sol
    else:
        # one solution over every chunk's steps; a chunk end belongs to the
        # chunk it ends, as in each chunk's own solution
        traj._dense = OdeSolution(
            np.concatenate([s.sol.ts if i == 0 else s.sol.ts[1:] for i, s in enumerate(sols)]),
            [f for s in sols for f in s.sol.interpolants],
        )
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
        traj = integrate_flow(problem, x0, beta=beta, horizon=None, grad_tol=grad_tol)
        truncated = traj.terminated != "grad_tol"
        # the chunked integrator gives up at 2^20; honor max_horizon too
        if traj.times[-1] >= max_horizon:
            truncated = True
        flagged = flagged or truncated
        per.append({
            "length": traj.total_length,
            "time": float(traj.times[-1]),
            "truncated": truncated,
        })
    sigma = max(p["length"] for p in per) if per else 0.0
    return TrajectoryLengthEstimate(float(sigma), per, flagged)


def _tracking_errors(traj: FlowTrajectory, trace: Trace, horizon: float) -> np.ndarray:
    """e_k = ||x_k - x(k alpha)|| for k <= floor(T/alpha) against the flow traj."""
    alpha = trace.params.alpha
    k_max = min(int(math.floor(horizon / alpha)), trace.num_steps)
    return _row_norms(trace.points[1:k_max + 2] - traj.at(np.arange(k_max + 1) * alpha))


def tracking_error(problem: Problem, trace: Trace, horizon: float):
    """Per-step deviation e_k = ||x_k - x(k alpha)|| for k <= floor(T/alpha).

    The flow starts at the trace's x_0 and uses the trace's beta. Returns
    (errors, max_error).
    """
    traj = integrate_flow(problem, trace.x(0), beta=trace.params.beta, horizon=horizon)
    errors = _tracking_errors(traj, trace, horizon)
    return errors, float(np.max(errors))


def tracking_ladder(problem: Problem, x0, beta: float, alphas, horizon: float,
                    gamma: float = 0.0):
    """Max tracking error for each step size plus the log-log slope.

    The flow depends on neither alpha nor gamma, so it is integrated once
    and every run is measured against it. Each run starts with velocity
    matched to the rescaled flow, x_{-1} = x_0 + alpha / (1 - beta) * grad f(x_0),
    so the measured error reflects the O(alpha) tracking regime instead of
    the from-rest startup transient (for beta = 0 the recurrence ignores
    x_{-1} entirely). Returns (max_errors, slope).
    """
    alphas = [float(a) for a in alphas]
    if len(alphas) < 2:
        raise ValueError("need at least two step sizes to fit a slope")
    x0 = problem.check_point(x0)
    scale = 1.0 / (1.0 - beta)
    g0 = problem.gradient(x0)
    traj = integrate_flow(problem, x0, beta=beta, horizon=horizon)
    maxes = []
    for alpha in alphas:
        x_m1 = x0 + alpha * scale * g0
        delta = scale * float(np.linalg.norm(g0)) * (1.0 + 1e-9)
        params = MomentumParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta)
        trace = run(problem, x_m1, x0, params,
                    StopRules(max_iters=int(math.floor(horizon / alpha)) + 1))
        maxes.append(float(np.max(_tracking_errors(traj, trace, horizon))))
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
    if smin <= 0:
        raise AssertionError("companion eigenvector block is singular; unreachable for |beta| < 1")
    p1 = 1.0 / smax
    p2 = 1.0 / smin
    p3 = smax / smin
    c4 = M * L * (0.5 + abs(b) / 2.0 + abs(g) - b * abs(g))
    c5 = p3 * M * math.sqrt(1.0 + 2.0 * g + 2.0 * g * g)
    growth = math.exp(c5 * T) * (abs(b) * delta + 2.0 * L - L * b + c4 / c5) - c4 / c5
    alpha_bar = min(1.0, epsilon * (p1 / p2) / growth)
    return TrackingConstants(c4, c5, p1, p2, p3, alpha_bar, tuple(eigvals))
