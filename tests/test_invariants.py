"""Invariants across every problem family and preset (hypothesis).

- replaying a trace reproduces the recursion;
- the descent, gradient and step checks pass at 0.9 * safe_alpha inside
  the trust ball (the step bound only for beta >= 0: for beta < 0 the
  printed delta1 is optimistic, and its verdict is recorded as an event);
- the array checks equal a step-by-step evaluation of each inequality bit
  for bit, on certified runs and on runs that fail or diverge, with blocks
  of 1, 3, 7 and _ROW_BLOCK rows and any delta;
- run() equals a per-step loop that evaluates f and grad f at every iterate
  bit for bit, on runs that stop on any rule, including a value overflow
  that the batched f column catches after the loop.
"""

import math

import numpy as np
import pytest
from conftest import ALL_KINDS, make_problem, overflowing, reference_run
from hypothesis import event, given, settings
from hypothesis import strategies as st

from momlab import (
    MomentumParams,
    StopRules,
    build_certificate,
    check_descent,
    check_gradient_bound,
    check_step_bound,
    estimate_lipschitz,
    lyapunov_values,
    run,
    safe_alpha,
)
from momlab import certificates, optimizer

PRESETS = ["heavy_ball", "nesterov", "generic"]
RADIUS = 2.0


def sampled_setup(kind, preset, seed, beta, gamma, scale, delta=0.0):
    """(problem, x0, params, L, M) for a run at scale * safe_alpha from a random start."""
    gamma = {"heavy_ball": 0.0, "nesterov": beta}.get(preset, gamma)
    p = make_problem(kind, seed)
    x0 = np.random.default_rng(seed).uniform(-0.5, 0.5, p.dim)
    L, M = estimate_lipschitz(p, x0, RADIUS, reach=max(abs(beta), abs(gamma)), seed=seed)
    alpha = scale * safe_alpha(M, MomentumParams(1e-6, beta, gamma))
    return p, x0, MomentumParams(alpha, beta, gamma, preset, delta=delta), L, M


def sampled_run(kind, preset, seed, beta, gamma, scale=0.9, steps=300, box=RADIUS, delta=0.0):
    """A run at scale * safe_alpha from a random start, stopped at distance box."""
    p, x0, params, L, M = sampled_setup(kind, preset, seed, beta, gamma, scale, delta)
    with np.errstate(all="ignore"):
        trace = run(p, x0, x0, params, StopRules(max_iters=steps, box_radius=box))
    cert = build_certificate(M, L, params, x0, RADIUS, strict=False)
    return p, trace, cert


SETTINGS = dict(max_examples=6, deadline=None)
BETAS = st.floats(-0.6, 0.9)
GAMMAS = st.floats(-1.0, 1.0)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("kind", ALL_KINDS)
@given(seed=st.integers(0, 2**16), beta=BETAS, gamma=GAMMAS)
@settings(**SETTINGS)
def test_checks_pass_at_safe_step_inside_ball(kind, preset, seed, beta, gamma):
    p, trace, cert = sampled_run(kind, preset, seed, beta, gamma)
    assert trace.stop_reason in ("max_iters", "left_box")
    assert np.max(trace.replay_residuals(p), initial=0.0) <= 1e-12
    assert check_descent(trace, cert).all_pass
    assert check_gradient_bound(trace, cert).all_pass
    steps = check_step_bound(trace, cert)
    if beta >= 0:
        assert steps.all_pass
    else:
        event(f"beta < 0: step bound {'held' if steps.all_pass else 'optimistic'}")


def _reference_slacks(trace, cert):
    """The three per-step slacks and verdicts, one step at a time in float64 scalars."""
    p, K, sn = cert.params, trace.num_steps, trace.step_norms
    H = lyapunov_values(trace, cert.lam)
    rtol = 1e-9

    def grad_H_norm(k):
        d = 2.0 * cert.lam * (trace.points[k + 1] - trace.points[k])
        top = trace.grads[k + 1] + d
        return math.sqrt(float(top @ top) + float(d @ d))

    out = {"descent": [], "gradient_bound": [], "step_bound": []}
    for k in range(K):
        s = H[k] - H[k + 1] - cert.c1 * (sn[k + 1] ** 2 + sn[k] ** 2)
        out["descent"].append((s, s >= -rtol * (1.0 + abs(H[k]))))

        z_gap = math.hypot(sn[k + 1], sn[k])
        slack_b = cert.b_alpha * z_gap - np.linalg.norm(trace.grads[k + 1])
        slack_c2 = cert.c2 * z_gap - max(grad_H_norm(k), grad_H_norm(k + 1))
        ok = (slack_b >= -rtol * (1.0 + cert.b_alpha * z_gap)) and (
            slack_c2 >= -rtol * (1.0 + cert.c2 * z_gap))
        out["gradient_bound"].append((min(slack_b, slack_c2), ok))

        flat = cert.delta1 * p.alpha - sn[k + 1]
        decay = (p.delta * abs(p.beta) ** (k + 1) + cert.L / (1.0 - p.beta)) * p.alpha - sn[k + 1]
        z_bound = math.sqrt(2.0) * cert.delta1 * p.alpha - z_gap
        tol = rtol * (1.0 + cert.delta1 * p.alpha)
        out["step_bound"].append(
            (min(flat, decay, z_bound), flat >= -tol and decay >= -tol and z_bound >= -tol))
    return out


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(preset=st.sampled_from(PRESETS), seed=st.integers(0, 2**16), beta=BETAS,
       gamma=GAMMAS, scale=st.sampled_from([0.9, 3.0, 1e4]), delta=st.floats(0.0, 2.0))
@settings(**SETTINGS)
def test_checks_equal_step_by_step_reference(kind, preset, seed, beta, gamma, scale, delta):
    # the checks carry each block's last point across its edge, and read
    # |beta|^(k+1) at the run's step index k, which delta > 0 puts in the
    # step bound's slack; certificates imports _ROW_BLOCK by name
    for block in (1, 3, 7, optimizer._ROW_BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizer, "_ROW_BLOCK", block)
            mp.setattr(certificates, "_ROW_BLOCK", block)
            _, trace, cert = sampled_run(kind, preset, seed, beta, gamma, scale, 150, np.inf,
                                         delta)
            with np.errstate(all="ignore"):
                reference = _reference_slacks(trace, cert)
                reports = [check_descent(trace, cert), check_gradient_bound(trace, cert),
                           check_step_bound(trace, cert)]
        for rep in reports:
            slack, passed = zip(*reference[rep.name]) if trace.num_steps else ((), ())
            assert np.array_equal(rep.slack, np.array(slack, dtype=float), equal_nan=True), (
                rep.name, block)
            assert np.array_equal(rep.passed, np.array(passed, dtype=bool)), (rep.name, block)
    event(trace.stop_reason)


@pytest.mark.parametrize("grad_tol", [0.0, 1e-3])
@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("kind", ALL_KINDS)
@given(seed=st.integers(0, 2**16), beta=BETAS, gamma=GAMMAS,
       scale=st.sampled_from([0.9, 3.0, 1e4]), box=st.sampled_from([np.inf, 0.5]),
       overflow=st.booleans())
@settings(**SETTINGS)
def test_run_equals_per_step_reference(kind, preset, grad_tol, seed, beta, gamma, scale, box,
                                       overflow):
    stop = StopRules(max_iters=150, grad_tol=grad_tol, box_radius=box)
    with np.errstate(all="ignore"):
        p, x0, params, _, _ = sampled_setup(kind, preset, seed, beta, gamma, scale)
        if overflow:
            p = overflowing(p)
        trace = run(p, x0, x0, params, stop)
        points, f, grads, reason = reference_run(p, x0, x0, params, stop)
    event(reason)
    if reason == "diverged" and not np.isfinite(f[-1]) and np.isfinite(grads[-1]).all():
        event("diverged on f alone")
    assert trace.stop_reason == reason
    assert np.array_equal(trace.points, points)
    assert np.array_equal(trace.f, f, equal_nan=True)
    assert np.array_equal(trace.grads, grads, equal_nan=True)
    assert trace.grads.flags.c_contiguous
