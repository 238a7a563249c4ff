"""Certifying while stepping equals certifying the stored trace, bit for bit.

`momlab run` hands run()'s recorded rows to certificates.Columns a block at
a time and never holds its trajectory; a stored Trace is certified by
passing its own arrays through the same reducer. Both must give the same
per-step arrays, the same trace.csv and certificate.json bytes, and columns
equal to the Trace's own, on every stop rule and around the block edges.
"""

import math
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import ALL_KINDS, make_problem, overflowing
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from momlab import (
    Columns,
    MomentumParams,
    Problem,
    StopRules,
    build_certificate,
    check_descent,
    check_gradient_bound,
    check_step_bound,
    estimate_lipschitz,
    linear_network,
    run,
    run_lockstep,
    safe_alpha,
)
from momlab import certificates
from momlab.analysis import check_rate, measure_length
from momlab.cli import _certify, main, write_trace_csv
from momlab.optimizer import _ROW_BLOCK

CHECKS = ("descent", "grad_bounds", "step_bounds", "rate", "length", "kl_fit")
PRESETS = ["heavy_ball", "nesterov", "generic"]
META = 'config_sha256=abc seeds={"x0_seed": 0}'
# step counts around the first and second block edges: a run of K steps
# records K + 2 points
STEPS = [0, 1, 1022, 1023, 1024, 1025, 2047, 2048, 2049]


def _setup(kind, preset, seed, beta=0.5, gamma=0.3, scale=0.9):
    gamma = {"heavy_ball": 0.0, "nesterov": beta}.get(preset, gamma)
    p = make_problem(kind, seed)
    x0 = np.random.default_rng(seed).uniform(-0.5, 0.5, p.dim)
    L, M = estimate_lipschitz(p, x0, 2.0, reach=max(abs(beta), abs(gamma)), seed=seed)
    alpha = scale * safe_alpha(M, MomentumParams(1e-6, beta, gamma))
    return p, x0, MomentumParams(alpha, beta, gamma, preset, delta=0.5), (M, L)


def _certified(tmp_path, p, x0, params, stop, ML, streaming):
    """(source, cert, results, psi, total_length, trace.csv, certificate.json)."""
    cert = build_certificate(*ML, params, x0, 2.0, strict=False)
    cfg = SimpleNamespace(problem=p, checks=CHECKS)
    out = tmp_path / ("streamed" if streaming else "stored")
    out.mkdir()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sink = Columns(p, cert) if streaming else None
        source = run(p, x0, x0, params, stop, sink=sink)
        results, psi, total = _certify(cfg, source, cert)
        write_trace_csv(out / "trace.csv", source, cert, META)
    cert.to_json(out / "certificate.json")
    return (source, cert, results, psi, total,
            (out / "trace.csv").read_bytes(), (out / "certificate.json").read_bytes())


def _assert_streaming_equals_stored(tmp_path, p, x0, params, stop, ML):
    trace, cert_a, res_a, psi_a, total_a, csv_a, json_a = _certified(
        tmp_path, p, x0, params, stop, ML, streaming=False)
    cols, cert_b, res_b, psi_b, total_b, csv_b, json_b = _certified(
        tmp_path, p, x0, params, stop, ML, streaming=True)
    assert cols.stop_reason == trace.stop_reason
    assert cols.num_steps == trace.num_steps
    # the streamed columns are the stored trace's own arrays and norms
    assert np.array_equal(cols.f, trace.f, equal_nan=True)
    with np.errstate(all="ignore"):
        assert np.array_equal(cols.grad_norms, trace.grad_norms, equal_nan=True)
        assert np.array_equal(cols.step_norms, trace.step_norms, equal_nan=True)
    assert list(cert_a.per_step) == list(cert_b.per_step) == [
        "descent", "gradient_bound", "step_bound"]
    for name, rep in cert_a.per_step.items():
        other = cert_b.per_step[name]
        assert np.array_equal(rep.slack, other.slack, equal_nan=True), name
        assert np.array_equal(rep.passed, other.passed), name
        assert np.array_equal(rep.certified, other.certified), name
    assert res_a.keys() == res_b.keys()
    if "rate" in res_a:
        assert res_a["rate"].summary() == res_b["rate"].summary()
        assert np.array_equal(res_a["rate"].products, res_b["rate"].products, equal_nan=True)
    if "length" in res_a:
        assert vars(res_a["length"]) == vars(res_b["length"])
    assert res_a.get("kl_fit_error") == res_b.get("kl_fit_error")
    assert psi_a == psi_b
    assert total_a == total_b or (math.isnan(total_a) and math.isnan(total_b))
    assert csv_a == csv_b
    assert json_a == json_b
    return trace


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(preset=st.sampled_from(PRESETS), seed=st.integers(0, 2**16),
       steps=st.sampled_from(STEPS),
       rule=st.sampled_from(["max_iters", "grad_tol", "left_box", "diverged", "overflow"]))
# on indefinite_quadratic, f runs to -2.9e180 and the KL fit's scale c
# underflows to 0: a FitError, not a crash
@example(preset="heavy_ball", seed=0, steps=1022, rule="max_iters")
@settings(max_examples=5, deadline=None)
def test_streaming_equals_stored(tmp_path_factory, kind, preset, seed, steps, rule):
    p, x0, params, ML = _setup(kind, preset, seed, scale=1e4 if rule == "diverged" else 0.9)
    if rule == "overflow":
        p = overflowing(p)
    stop = StopRules(max_iters=steps, grad_tol=1e-3 if rule == "grad_tol" else 0.0,
                     box_radius=0.05 if rule == "left_box" else np.inf)
    trace = _assert_streaming_equals_stored(
        tmp_path_factory.mktemp("out"), p, x0, params, stop, ML)
    event(trace.stop_reason)


@pytest.mark.parametrize("rule,kind,preset,scale", [
    ("max_iters", "matrix_factorization", "heavy_ball", 0.9),
    ("grad_tol", "quadratic", "heavy_ball", 0.9),
    ("left_box", "indefinite_quadratic", "generic", 0.9),
    ("diverged", "quartic", "nesterov", 1e4),
    # the iterates stay finite for all 1,100 steps; f overflows after 34
    ("overflow", "indefinite_quadratic", "heavy_ball", 1.5),
])
def test_each_stop_rule(tmp_path, rule, kind, preset, scale):
    p, x0, params, ML = _setup(kind, preset, 3, scale=scale)
    if rule == "overflow":
        p = overflowing(p)
    stop = StopRules(max_iters=1100, grad_tol=1e-3 if rule == "grad_tol" else 0.0,
                     box_radius=0.05 if rule == "left_box" else np.inf)
    trace = _assert_streaming_equals_stored(tmp_path, p, x0, params, stop, ML)
    assert trace.stop_reason == ("diverged" if rule == "overflow" else rule)
    assert 0 < trace.num_steps < 1100 or rule == "max_iters"


@pytest.mark.parametrize("cut", [1, 2, 1022, 1023, 1024, 1025, 2047, 2048])
@pytest.mark.parametrize("preset", ["heavy_ball", "generic"])
def test_value_cut_at_block_edges(tmp_path, cut, preset):
    # f is inf at exactly the point with index cut: both paths end there; a
    # short step keeps every point of the run distinct
    p, x0, params, ML = _setup("matrix_factorization", preset, 5, scale=0.05)
    stop = StopRules(max_iters=2100)
    points = run(p, x0, x0, params, stop).points
    target = points[cut]
    assert np.all(points[1:] == target, axis=1).sum() == 1  # x_{-1} is never checked
    value = p.value

    def holed(z):
        v = np.array(value(z), dtype=float)
        v[np.all(np.asarray(z) == target, axis=-1)] = np.inf
        return v

    holed_p = Problem(name=p.name, dim=p.dim, value=holed, gradient=p.gradient)
    trace = _assert_streaming_equals_stored(tmp_path, holed_p, x0, params, stop, ML)
    assert trace.stop_reason == "diverged" and len(trace.points) == cut + 1


def test_blocks_reach_the_sink(any_problem):
    """run(), and run_lockstep() to each row's sink, hand each full block and
    the last partial one over, with the gradients the loop holds on heavy
    ball or with grad_tol."""
    p = any_problem
    x0 = np.full(p.dim, 0.1)

    class Blocks:
        def __init__(self):
            self.points, self.grads = [], []

        def take(self, points, grads):
            self.points.append(points.copy())
            self.grads.append(None if grads is None else grads.copy())

        def finish(self, reason):
            return self, reason

    for params, stop in [
        (MomentumParams(1e-3, 0.5, 0.0, "heavy_ball"), StopRules(max_iters=2100)),
        (MomentumParams(1e-3, 0.5, 0.25), StopRules(max_iters=2100)),
        (MomentumParams(1e-3, 0.5, 0.25), StopRules(max_iters=2100, grad_tol=1e-12)),
    ]:
        with np.errstate(all="ignore"):
            trace = run(p, x0, x0, params, stop)
            sunk = [run(p, x0, x0, params, stop, sink=Blocks()),
                    *run_lockstep(p, x0[None], x0[None], params, stop, sinks=[Blocks()])]
        for blocks, reason in sunk:
            assert reason == "max_iters" == trace.stop_reason
            assert [len(b) for b in blocks.points] == [_ROW_BLOCK, _ROW_BLOCK,
                                                       2102 - 2 * _ROW_BLOCK]
            assert np.array_equal(np.concatenate(blocks.points), trace.points)
            if params.gamma == 0.0 or stop.grad_tol > 0:
                assert np.array_equal(np.concatenate(blocks.grads), trace.grads)
            else:
                assert blocks.grads == [None, None, None]


def test_z_gaps_built_once_per_run(tmp_path, monkeypatch):
    # configs/quadratic.yaml runs both checks that read ||z_{k+1} - z_k||
    built = []
    z_gaps = certificates._z_gaps
    monkeypatch.setattr(certificates, "_z_gaps", lambda sn: built.append(1) or z_gaps(sn))
    config = Path(__file__).parent.parent / "configs" / "quadratic.yaml"
    assert main(["run", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert built == [1]


def test_stored_trace_is_reduced_once_per_ball():
    p, x0, params, ML = _setup("quadratic", "heavy_ball", 0)
    trace = run(p, x0, x0, params, StopRules(max_iters=50))
    cert = build_certificate(*ML, params, x0, 2.0, strict=False)
    cols = Columns.of(trace, cert)
    assert Columns.of(trace, cert) is cols and Columns.of(cols, cert) is cols
    assert not cols.f.flags.writeable and not cols.z_gaps.flags.writeable
    check_rate(trace, cert, measure_length(trace)[0])
    assert cert._columns[2] is cols


def network_run_setup(steps=20_000):
    """perfbench certify's 4-6-6-6-4 network: generic gamma, so the loop holds
    no gradients and every block's are evaluated in batch."""
    rng = np.random.default_rng(0)
    p = linear_network(rng.standard_normal((4, 8)), rng.standard_normal((4, 8)),
                       widths=(4, 6, 6, 6, 4))
    x0 = 0.5 * rng.uniform(-1.0, 1.0, p.dim) / math.sqrt(p.dim)
    L, M = estimate_lipschitz(p, x0, 10.0, reach=0.5)
    params = MomentumParams(0.9 * safe_alpha(M, MomentumParams(1e-6, 0.5, 0.25)), 0.5, 0.25)
    cert = build_certificate(M, L, params, x0, 10.0, strict=False)
    return p, x0, params, StopRules(max_iters=steps), cert


def test_stepping_and_checks_hold_no_trajectory():
    p, x0, params, stop, cert = network_run_setup()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cols = run(p, x0, x0, params, stop, sink=Columns(p, cert))
        for check in (check_descent, check_gradient_bound, check_step_bound):
            check(cols, cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cols.num_steps == 20_000
    points_nbytes = (cols.num_steps + 2) * p.dim * 8
    assert peak - before < 0.5 * points_nbytes


# two 12,000-step cells on a 200-dim quadratic: a cell's iterates are
# 19.2 MB, larger than the group's row blocks and all its columns together
LONG_SWEEP_CFG = """
problem: {kind: quadratic, dim: 200}
params: {alpha: 1.0e-4, beta: 0.5, gamma: 0.25, preset: generic}
init: {x0: {random: {radius: 0.1, seed: 5}}}
lipschitz: {mode: analytic, center: x0, radius: 4.0}
stop: {max_iters: 12000}
checks: [descent, rate]
sweep: {alphas: [1.0e-4], betas: [0.3, 0.5], seeds: [1]}
"""


def test_sweep_holds_no_trajectory(tmp_path):
    # every cell certifies while it steps: the sweep holds a block of rows
    # per cell and the cells' columns, never a cell's iterates
    config = tmp_path / "sweep.yaml"
    config.write_text(LONG_SWEEP_CFG)
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 + 2 and all(line.split(",")[4] == "0" for line in lines[2:])
    points_nbytes = (12_000 + 2) * 200 * 8
    assert peak - before < points_nbytes
