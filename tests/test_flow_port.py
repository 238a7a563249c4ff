"""The flow integrator replays scipy's solve_ivp(method="RK45") bit for bit.

scipy stays as the oracle: each test integrates the same right-hand side
with solve_ivp(rtol=1e-10, atol=1e-12, dense_output=True), chunked as
integrate_flow chunks the grad_tol rule, and asserts exact equality of the
step times, the states (with arc length and energy), and the dense output.
The grad_tol event's root finder, a port of scipy's brentq, is also checked
against brentq directly.
"""

import math

import numpy as np
from conftest import ALL_KINDS, make_problem
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import OdeSolution, solve_ivp
from scipy.optimize import brentq

from momlab import integrate_flow, trajectory_length
from momlab.gradient_flow import _EPS, _brentq


def scipy_flow(problem, x0, beta, horizon=None, grad_tol=0.0):
    """(t, y, dense, chunks, hit) of integrate_flow's flow, computed by solve_ivp.

    y has one row per time: the state, then arc length and energy. Without a
    horizon the integration runs over [0, 1], [1, 2], [2, 4], ... until the
    gradient norm falls through grad_tol (hit) or the chunk ends at 2^20.
    """
    scale = 1.0 / (1.0 - beta)
    dim = problem.dim

    def rhs(t, z):
        v = -scale * problem.gradient(z[:dim])
        speed = np.linalg.norm(v)
        return np.concatenate([v, [speed, speed**2]])

    events = None
    if grad_tol > 0:
        def grad_small(t, z):
            return np.linalg.norm(problem.gradient(z[:dim])) - grad_tol
        grad_small.terminal = True
        grad_small.direction = -1
        events = [grad_small]

    t0, z0, T = 0.0, np.concatenate([x0, [0.0, 0.0]]), horizon or 1.0
    sols = []
    while True:
        sol = solve_ivp(rhs, (t0, T), z0, method="RK45", rtol=1e-10, atol=1e-12,
                        dense_output=True, events=events)
        assert sol.success
        sols.append(sol)
        if horizon is not None or len(sol.t_events[0]) > 0 or T >= 2.0**20:
            break
        t0, z0, T = sol.t[-1], sol.y[:, -1], 2.0 * T
    t = np.concatenate([s.t if i == 0 else s.t[1:] for i, s in enumerate(sols)])
    y = np.concatenate([s.y if i == 0 else s.y[:, 1:] for i, s in enumerate(sols)], axis=1).T
    dense = OdeSolution(
        np.concatenate([s.sol.ts if i == 0 else s.sol.ts[1:] for i, s in enumerate(sols)]),
        [f for s in sols for f in s.sol.interpolants],
    )
    return t, y, dense, len(sols), horizon is None and len(sols[-1].t_events[0]) > 0


def assert_replays(traj, t, y, dense, sample_times):
    dim = traj.states.shape[1]
    assert np.array_equal(traj.times, t)
    assert np.array_equal(traj.states, y[:, :dim])
    assert np.array_equal(traj.arc_length, y[:, dim])
    assert np.array_equal(traj.energy, y[:, dim + 1])
    # at() clamps to the span; the oracle is evaluated at the clamped times
    clamped = np.clip(sample_times, t[0], t[-1])
    assert np.array_equal(traj.at(sample_times), dense(clamped)[:dim].T)
    for s, c in zip(sample_times[::7], clamped[::7]):
        assert np.array_equal(traj.at(s), dense(c)[:dim])


def ladder_times(t, alpha):
    """A ladder's sample times k * alpha past the span, plus every step boundary."""
    ks = np.arange(int(math.floor(t[-1] / alpha)) + 3) * alpha
    return np.concatenate([ks, t, [0.5 * (t[0] + t[1])]])


@given(
    kind=st.sampled_from(ALL_KINDS),
    beta=st.floats(-0.9, 0.9),
    horizon=st.floats(0.05, 4.0),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from([0.1, 0.01, 0.0025]),
)
@settings(max_examples=40, deadline=None)
@example(kind="matrix_factorization", beta=0.5, horizon=4.0, seed=0, alpha=0.0025)
@example(kind="indefinite_quadratic", beta=-0.9, horizon=4.0, seed=1, alpha=0.01)
def test_horizon_flow_equals_solve_ivp(kind, beta, horizon, seed, alpha):
    p = make_problem(kind)
    x0 = np.random.default_rng(seed).standard_normal(p.dim) * 0.7
    traj = integrate_flow(p, x0, beta=beta, horizon=horizon)
    t, y, dense, _, _ = scipy_flow(p, x0, beta, horizon=horizon)
    assert traj.terminated == "horizon" and t[-1] == horizon
    assert_replays(traj, t, y, dense, ladder_times(t, alpha))


@given(
    kind=st.sampled_from(["quartic", "matrix_factorization"]),
    beta=st.floats(-0.9, 0.9),
    grad_tol=st.sampled_from([1e-2, 1e-4, 1e-6]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=12, deadline=None)
@example(kind="quartic", beta=0.5, grad_tol=1e-6, seed=0)
@example(kind="matrix_factorization", beta=0.0, grad_tol=1e-2, seed=3)
def test_grad_tol_flow_equals_solve_ivp_with_events(kind, beta, grad_tol, seed):
    p = make_problem(kind)
    x0 = np.random.default_rng(seed).standard_normal(p.dim) * 0.7
    assume(np.linalg.norm(p.gradient(x0)) > grad_tol)  # else the flow is constant
    traj = integrate_flow(p, x0, beta=beta, grad_tol=grad_tol)
    t, y, dense, chunks, hit = scipy_flow(p, x0, beta, grad_tol=grad_tol)
    assert traj.terminated == ("grad_tol" if hit else "horizon")
    assert_replays(traj, t, y, dense, ladder_times(t, t[-1] / 50))
    est = trajectory_length(p, [x0], beta=beta, grad_tol=grad_tol)
    assert est.per_sample == [{"length": y[-1, p.dim], "time": t[-1],
                               "truncated": not hit or t[-1] >= 1e6}]
    if kind == "quartic" and grad_tol == 1e-6:
        assert chunks > 5  # the slow quartic flow takes many doubling chunks


@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 10.0]),
       xtol=st.sampled_from([4 * _EPS, 2e-12, 1e-6]))
@settings(max_examples=200, deadline=None)
def test_brentq_port_equals_scipy(seed, scale, xtol):
    # the grad_tol event's root finder, on random cubics and brackets that
    # straddle a sign change by construction: the constant term puts the
    # level f = 0 a random fraction of the way from f(a) to f(b)
    rng = np.random.default_rng(seed)
    coeffs = np.append(rng.standard_normal(3), 0.0)
    a, b = np.sort(rng.standard_normal(2)) * scale
    fa, fb = np.polyval(coeffs, [a, b])
    coeffs[3] = -(fa + rng.uniform(0.1, 0.9) * (fb - fa))

    def f(x):
        return np.polyval(coeffs, x)

    assert f(a) * f(b) < 0
    root = _brentq(f, a, b, xtol=xtol, rtol=4 * _EPS)
    assert root == brentq(f, a, b, xtol=xtol, rtol=4 * _EPS)
