"""Batched evaluation and lockstep runs reproduce single-point results bit for bit."""

import warnings

import numpy as np
import pytest
from conftest import ALL_KINDS, make_problem
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab import (
    MomentumParams,
    StopRules,
    analyze_critical_point,
    escape_experiment,
    matrix_factorization,
    run,
    run_lockstep,
    safe_alpha,
    saddle_safe_alpha,
    synthetic,
)
from momlab import problems
from momlab.optimizer import _row_norms
from momlab.saddle import _sample_ball, classify_limit

SCALES = st.sampled_from([1e-3, 0.3, 1.0, 10.0])


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("B", [0, 1, 2, 7])
@given(seed=st.integers(0, 2**32 - 1), scale=SCALES)
@settings(max_examples=15, deadline=None)
def test_batched_rows_equal_single_points(kind, B, seed, scale):
    p = make_problem(kind)
    Z = np.random.default_rng(seed).standard_normal((B, p.dim)) * scale
    values, grads = p.value(Z), p.gradient(Z)
    assert values.shape == (B,) and grads.shape == (B, p.dim)
    for b in range(B):
        v = p.value(Z[b])
        assert type(v) is float
        assert values[b] == v
        assert np.array_equal(grads[b], p.gradient(Z[b]))


@pytest.mark.parametrize("kind", ["matrix_factorization", "matrix_sensing", "linear_network"])
def test_stacked_join_writes_into_views_of_its_output(kind, monkeypatch):
    # every block target of a stacked _join is a view of the returned array
    p = make_problem(kind)
    block, targets = problems._block, []

    def recording_block(z, *args):
        view = block(z, *args)
        targets.append((z, view))
        return view

    monkeypatch.setattr(problems, "_block", recording_block)
    Z = np.random.default_rng(0).standard_normal((3, p.dim))
    out = p.gradient(Z)
    written = [view for z, view in targets if z is out]
    assert len(written) == (len(p.info["widths"]) - 1 if kind == "linear_network" else 2)
    assert all(np.shares_memory(view, out) for view in written)
    monkeypatch.undo()
    assert np.array_equal(out, p.gradient(Z))
    # a target that is a copy would lose its block: _join refuses it
    monkeypatch.setattr(problems, "_block", lambda z, *args: block(z, *args).copy())
    with pytest.raises(RuntimeError, match="not a view"):
        p.gradient(Z)


@given(dim=st.integers(1, 97), seed=st.integers(0, 2**32 - 1), scale=SCALES)
@settings(max_examples=60, deadline=None)
def test_row_norms_equal_vector_norms(dim, seed, scale):
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((5, dim)) * scale
    for W in (V, np.asfortranarray(V)):
        norms = _row_norms(W)
        assert all(norms[b] == np.linalg.norm(V[b]) for b in range(5))
    # every family's batched (B, dim) gradient stack
    for kind in ALL_KINDS:
        p = make_problem(kind)
        Z = rng.standard_normal((50, p.dim)) * scale
        norms = _row_norms(p.gradient(Z))
        assert all(norms[b] == np.linalg.norm(p.gradient(Z[b])) for b in range(50)), kind


PRESETS = st.sampled_from(["heavy_ball", "nesterov", "generic"])


def _params(preset, alpha, beta, gamma, delta):
    if preset == "heavy_ball":
        return MomentumParams.heavy_ball(alpha, beta, delta)
    if preset == "nesterov":
        return MomentumParams.nesterov(alpha, beta, delta)
    return MomentumParams(alpha, beta, gamma, delta=delta)


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(
    seed=st.integers(0, 2**32 - 1),
    preset=PRESETS,
    alpha=st.sampled_from([1e-3, 0.02, 0.1, 1.0]),
    beta=st.floats(-0.8, 0.8),
    gamma=st.floats(-1.0, 1.0),
    delta=st.sampled_from([0.0, 1.0]),
    max_iters=st.integers(0, 60),
    grad_tol=st.sampled_from([0.0, 1e-3, 0.1]),
    box_radius=st.sampled_from([0.5, 3.0, np.inf]),
)
@settings(max_examples=12, deadline=None)
def test_lockstep_rows_replay_run(kind, seed, preset, alpha, beta, gamma, delta,
                                  max_iters, grad_tol, box_radius):
    p = make_problem(kind)
    params = _params(preset, alpha, beta, gamma, delta)
    stop = StopRules(max_iters, grad_tol, box_radius)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((6, p.dim))
    xm1 = x0 + delta * alpha * rng.uniform(-0.5, 0.5, x0.shape)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        res = run_lockstep(p, xm1, x0, params, stop)
        traces = [run(p, xm1[b], x0[b], params, stop) for b in range(6)]
    for b, tr in enumerate(traces):
        assert res.stop_reason[b] == tr.stop_reason
        assert res.iters[b] == tr.num_steps
        assert np.array_equal(res.x[b], tr.x(tr.num_steps))
        assert np.array_equal(res.grad[b], tr.grads[-1], equal_nan=True)


def test_lockstep_flags_divergence_like_run():
    p = synthetic("quartic")
    x0 = np.array([[0.5], [3.0], [40.0]])
    params = MomentumParams(0.2, 0.5)
    with np.errstate(all="ignore"):
        res = run_lockstep(p, x0, x0, params, StopRules(max_iters=200))
        ref = [run(p, x, x, params, StopRules(max_iters=200)) for x in x0]
    assert res.stop_reason == [tr.stop_reason for tr in ref]
    assert "diverged" in res.stop_reason and "max_iters" in res.stop_reason
    assert res.iters.tolist() == [tr.num_steps for tr in ref]


def _replay(problem, saddle, params, radius, trials, seed, stop):
    """Outcome dicts of an escape study, one run() per trial."""
    at_tol = 10.0 * radius * 1e-3
    outcomes = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        x0 = _sample_ball(rng, saddle, radius)
        xm1 = _sample_ball(rng, x0, params.delta * params.alpha)
        tr = run(problem, xm1, x0, params, stop)
        label, dist = classify_limit(tr.x(tr.num_steps), saddle, tr.stop_reason, at_tol)
        outcomes.append({"trial": t, "classification": label, "final_distance": dist,
                         "stop_reason": tr.stop_reason, "iters": tr.num_steps,
                         "final_grad_norm": float(tr.grad_norms[-1])})
    return outcomes


@given(
    seed=st.integers(0, 2**32 - 1),
    preset=PRESETS,
    beta=st.sampled_from([-0.6, -0.2, 0.3, 0.7]),
    gamma=st.floats(-0.5, 0.5),
    delta=st.sampled_from([0.0, 0.5, 3.0]),
    fraction=st.floats(0.2, 0.9),
    stop=st.sampled_from([
        StopRules(max_iters=20_000, grad_tol=1e-9, box_radius=10.0),
        StopRules(max_iters=60, grad_tol=3e-4, box_radius=0.01),
    ]),
)
@settings(max_examples=25, deadline=None)
def test_escape_outcomes_replay_run(seed, preset, beta, gamma, delta, fraction, stop):
    p = synthetic("indefinite_quadratic")
    probe = _params(preset, 1e-6, beta, gamma, 0.0)
    ceiling = min(safe_alpha(1.0, probe), saddle_safe_alpha(1.0, probe))
    params = _params(preset, fraction * ceiling, beta, gamma, delta)
    kw = dict(radius=1e-3, trials=8, seed=seed, stop=stop)
    exp = escape_experiment(p, np.zeros(2), params, **kw)
    assert exp.outcomes == _replay(p, np.zeros(2), params, **kw)


def test_escape_mixed_stops_replay_run():
    # criterion 10's factorization saddle, with a box and an iteration cap
    # that split the trials across grad_tol, left_box and max_iters stops
    p = matrix_factorization(np.random.default_rng(11).standard_normal((3, 3)), r=1)
    saddle = np.zeros(p.dim)
    probe = MomentumParams(1e-6, 0.5)
    m_tilde = float(np.max(np.abs(analyze_critical_point(p, saddle, probe).hessian_eigs)))
    params = MomentumParams(0.9 * min(safe_alpha(m_tilde, probe),
                                      saddle_safe_alpha(m_tilde, probe)), 0.5)
    kw = dict(radius=0.5, trials=12, seed=2,
              stop=StopRules(max_iters=30, grad_tol=1e-3, box_radius=2.0))
    exp = escape_experiment(p, saddle, params, **kw)
    assert {o["stop_reason"] for o in exp.outcomes} == {"grad_tol", "left_box", "max_iters"}
    assert exp.n_inconclusive > 0
    assert exp.outcomes == _replay(p, saddle, params, **kw)
