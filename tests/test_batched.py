"""Batched evaluation and lockstep runs reproduce single-point results bit for bit."""

import warnings

import numpy as np
import pytest
from conftest import ALL_KINDS, make_problem, reference_run
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab import (
    Columns,
    MomentumParams,
    StopRules,
    analyze_critical_point,
    build_certificate,
    escape_experiment,
    matrix_factorization,
    run,
    run_lockstep,
    safe_alpha,
    saddle_safe_alpha,
    synthetic,
)
from momlab import optimizer, problems
from momlab.optimizer import _History, _row_norms
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


def _row_params(preset, alpha, beta, gamma):
    return _params(preset, alpha, beta, gamma, 1.0)


ROW = st.tuples(
    PRESETS,
    st.sampled_from([1e-3, 0.02, 0.1, 1.0, 50.0]),   # 50 diverges on every family
    st.floats(-0.8, 0.8),
    st.floats(-1.0, 1.0),
    st.integers(0, 60),
    st.sampled_from([0.0, 1e-3]),
    st.sampled_from([0.5, 3.0, np.inf]),
)


def _cert(params, x0):
    """A certificate whose ball (radius 1 around x0) some rows leave."""
    return build_certificate(1.0, 1.0, params, x0, 1.0, strict=False)


def _assert_sink_rows_equal_run(p, xm1, x0, params, stops):
    """Row b of run_lockstep through _History sinks and through Columns sinks
    equals run(..., sink=) on start b, bit for bit; returns the histories."""
    n = len(x0)
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        kept = run_lockstep(p, xm1, x0, params, stops,
                            sinks=[_History(s.max_iters + 2) for s in stops])
        cols = run_lockstep(p, xm1, x0, params, stops,
                            sinks=[Columns(p, _cert(params[b], x0[b])) for b in range(n)])
        for b in range(n):
            tr = run(p, xm1[b], x0[b], params[b], stops[b])
            points, f, grads, reason = reference_run(p, xm1[b], x0[b], params[b], stops[b])
            assert tr.stop_reason == reason and tr.points.tobytes() == points.tobytes()
            assert tr.f.tobytes() == f.tobytes() and tr.grads.tobytes() == grads.tobytes()
            want = run(p, xm1[b], x0[b], params[b], stops[b],
                       sink=_History(stops[b].max_iters + 2))
            # bit for bit: the sign of a zero and a NaN's payload count
            assert kept[b].points.tobytes() == want.points.tobytes()
            if want.grads is not None:
                assert kept[b].grads.tobytes() == want.grads.tobytes()
            elif kept[b].grads is not None:
                # the loop held grad f(x_k) for a heavy-ball or grad_tol row
                # beside this one: it is the trace's column, up to any cut
                assert kept[b].grads[:len(tr.grads)].tobytes() == tr.grads.tobytes()
            ref = run(p, xm1[b], x0[b], params[b], stops[b],
                      sink=Columns(p, _cert(params[b], x0[b])))
            assert cols[b].stop_reason == ref.stop_reason == tr.stop_reason
            assert cols[b].num_steps == ref.num_steps == tr.num_steps
            for name in (*Columns._NAMES, "certified"):
                assert getattr(cols[b], name).tobytes() == getattr(ref, name).tobytes(), name
    return kept


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(seed=st.integers(0, 2**32 - 1), rows=st.lists(ROW, min_size=1, max_size=7),
       block=st.sampled_from([5, optimizer._ROW_BLOCK]))
@settings(max_examples=12, deadline=None)
def test_recorded_lockstep_rows_equal_run(kind, seed, rows, block):
    # a sweep grid: per-row alpha, beta, gamma, presets and stop rules, so
    # heavy-ball rows step beside generic ones and rows stop at different
    # steps; with blocks of 5 rows, blocks end mid-run in both loops
    p = make_problem(kind)
    params = [_row_params(*r[:4]) for r in rows]
    stops = [StopRules(*r[4:]) for r in rows]
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((len(rows), p.dim))
    xm1 = x0 + rng.uniform(-0.5, 0.5, x0.shape) * [[q.alpha] for q in params]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "_ROW_BLOCK", block)
        _assert_sink_rows_equal_run(p, xm1, x0, params, stops)
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            res = run_lockstep(p, xm1, x0, params, stops)
            for b in range(len(rows)):
                tr = run(p, xm1[b], x0[b], params[b], stops[b])
                assert res.stop_reason[b] == tr.stop_reason
                assert res.iters[b] == tr.num_steps
                assert np.array_equal(res.x[b], tr.x(tr.num_steps))
                assert np.array_equal(res.grad[b], tr.grads[-1], equal_nan=True)


def test_recorded_rows_cut_where_values_overflow():
    # f overflows (grad f stays finite) on some rows only: a row's columns
    # are cut there as 'diverged', as run()'s are; the others run on
    base = synthetic("quadratic")
    p = problems.Problem(name="overflowing", dim=2, value=lambda z: base.value(z) * 2.0**1000,
                         gradient=base.gradient)
    x0 = np.array([[1.0, 0.0], [1e-160, 0.0], [3.0, -2.0], [1e-170, 1e-170]])
    xm1 = x0 + [[2e4, 0.0], [0.0, 0.0], [-5e4, 2e4], [0.0, 0.0]]
    params = [MomentumParams(0.1, 0.5, 0.2, delta=1e6), MomentumParams.heavy_ball(0.1, 0.5),
              MomentumParams(0.3, 0.2, 0.0, delta=1e6), MomentumParams.nesterov(0.05, 0.4)]
    stops = [StopRules(max_iters=k) for k in (5, 40, 7, 40)]
    _assert_sink_rows_equal_run(p, xm1, x0, params, stops)
    with np.errstate(over="ignore"):
        cols = run_lockstep(p, xm1, x0, params, stops,
                            sinks=[Columns(p, _cert(params[b], x0[b])) for b in range(4)])
    assert [c.stop_reason for c in cols] == ["diverged", "max_iters", "diverged", "max_iters"]
    assert [c.num_steps for c in cols] == [1, 40, 1, 40]


def test_recorded_rows_across_buffer_growths():
    # rows stop on either side of the first and second block edges (a run
    # of K steps records K + 2 points), where the _History buffers also
    # grow; heavy-ball rows beside generic ones
    p = make_problem("matrix_factorization")
    x0 = np.random.default_rng(5).standard_normal((8, p.dim)) * 0.3
    params = [MomentumParams.heavy_ball(0.02, 0.5), MomentumParams(0.02, 0.5, 0.3)] * 4
    B = optimizer._ROW_BLOCK
    steps = [B - 3, B - 2, B - 1, B, 2 * B - 3, 2 * B - 2, 2 * B - 1, 2 * B + 50]
    stops = [StopRules(max_iters=k) for k in steps]
    kept = _assert_sink_rows_equal_run(p, x0, x0, params, stops)
    assert [h.num_steps for h in kept] == steps


def test_recorded_mixed_grid_keeps_heavy_ball_bits():
    # a heavy-ball row steps with grad f(x_k), as run() does, not with
    # grad f(x_k + 0 * (x_k - x_{k-1})): at x_k = -0.0 that point is +0.0, and
    # with beta < 0 the sign of the quartic's gradient reaches x_{k+1}
    p = synthetic("quartic")
    x0 = np.array([[-0.0], [-0.0]])
    params = [MomentumParams.heavy_ball(0.1, -0.5), MomentumParams(0.1, -0.5, 0.3)]
    stop = StopRules(max_iters=3)
    kept = _assert_sink_rows_equal_run(p, x0, x0, params, [stop] * 2)
    assert np.signbit(kept[0].points[:, 0]).tolist() == [True, True, False, False, False]


def test_mixed_grid_reports_the_gradient_where_a_row_diverged():
    # the generic row's x_1 overflows while f and grad f at x_0 are finite:
    # it stops at x_0 with grad f(x_0), not the grad f(y_0) it stepped with
    p = synthetic("quadratic")
    x0 = np.array([[1.0, -2.0], [1e150, 1e150]])
    xm1 = x0 - [[0.0, 0.0], [1e149, 0.0]]
    params = [MomentumParams.heavy_ball(0.1, 0.5), MomentumParams(1e200, 0.5, 0.5, delta=1.0)]
    stop = StopRules(max_iters=5)
    with np.errstate(over="ignore"):
        res = run_lockstep(p, xm1, x0, params, stop)
        tr = run(p, xm1[1], x0[1], params[1], stop)
    assert res.stop_reason == ["max_iters", "diverged"] == ["max_iters", tr.stop_reason]
    assert res.iters.tolist() == [5, 0]
    assert np.array_equal(res.grad[1], tr.grads[-1])


def test_rows_whose_beta_differs_in_the_sign_of_zero():
    # beta = -0.0 and 0.0 compare equal, but x_1 = (x_0 - 0.0 * d) - alpha * g
    # keeps the -0.0 components of the factorization's origin and
    # (x_0 + 0.0 * d) - alpha * g does not: each row keeps its own beta
    p = make_problem("matrix_factorization")
    x0 = np.full((2, p.dim), -0.0)
    params = [MomentumParams(0.1, -0.0), MomentumParams(0.1, 0.0)]
    kept = _assert_sink_rows_equal_run(p, x0, x0, params, [StopRules(max_iters=3)] * 2)
    assert np.signbit(kept[0].points[2]).all() and not np.signbit(kept[1].points[2]).any()


def test_lockstep_params_per_row_must_match_the_starts():
    p = synthetic("quadratic")
    x0 = np.zeros((3, 2))
    with pytest.raises(ValueError, match="one MomentumParams per start"):
        run_lockstep(p, x0, x0, [MomentumParams(0.1)] * 2)
    with pytest.raises(ValueError, match="one StopRules per start"):
        run_lockstep(p, x0, x0, MomentumParams(0.1), [StopRules()] * 4)
    with pytest.raises(ValueError, match="one sink per start"):
        run_lockstep(p, x0, x0, MomentumParams(0.1), sinks=[_History(10)] * 2)
