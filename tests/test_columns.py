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
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import ALL_KINDS, make_problem, overflowing, reference_run, traced_peak
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
from momlab import cli, optimizer
from momlab.analysis import check_rate, measure_length
from momlab.cli import _certify, main, write_trace_csv
from momlab.optimizer import _ROW_BLOCK, _RowSinks

CHECKS = ("descent", "grad_bounds", "step_bounds", "rate", "length", "kl_fit")
PRESETS = ["heavy_ball", "nesterov", "generic"]
META = 'config_sha256=abc seeds={"x0_seed": 0}'
B = _ROW_BLOCK
# step counts around the first and second block edges: a run of K steps
# records K + 2 points
STEPS = [0, 1, B - 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1]


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
        cols = source if streaming else Columns.of(source, cert)
        results, psi, total = _certify(cfg, cols, cert)
        write_trace_csv(out / "trace.csv", cols, cert, META)
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
    if "length" in res_a:
        # a LengthReport, or None where the KL fit failed
        assert res_a["length"] == res_b["length"]
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


def test_run_stops_stepping_once_its_sink_cuts(tmp_path, counted):
    # the overflow case of test_each_stop_rule: f overflows after 34 steps
    # while the iterates stay finite, so only the sink sees the cut; run(),
    # and run_lockstep() for a row, stop at the hand-off of the block that
    # holds it
    p, x0, params, ML = _setup("indefinite_quadratic", "heavy_ball", 3, scale=1.5)
    p, counts = counted(overflowing(p))
    stop = StopRules(max_iters=1100)
    points, f, grads, _ = reference_run(p, x0, x0, params, stop)
    cert = build_certificate(*ML, params, x0, 2.0, strict=False)
    history = optimizer._History(p, params, stop.max_iters + 2)
    for sink in (None, Columns(p, cert), _RowSinks([history]), _RowSinks([Columns(p, cert)])):
        counts["gradient"][:] = 0, 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if isinstance(sink, _RowSinks):
                [source] = run_lockstep(p, x0[None], x0[None], params, stop, sink=sink)
            else:
                source = run(p, x0, x0, params, stop, sink=sink)
        assert source.stop_reason == "diverged" and source.num_steps == 34
        assert np.array_equal(source.f, f)
        assert counts["gradient"][0] <= len(points) + B
        assert sum(counts["gradient"]) <= len(points) + B
    assert np.array_equal(source.grad_norms, np.linalg.norm(grads, axis=1))
    trace = _assert_streaming_equals_stored(tmp_path, p, x0, params, stop, ML)
    assert np.array_equal(trace.points, points) and np.array_equal(trace.grads, grads)

    # _Endpoints' default block (8,192 points at B = 1) spans the whole run,
    # so blocks of 7 points show the stop
    def endpoints(rows):
        ends = optimizer._Endpoints(p, rows)
        ends.block_rows = 7
        return ends

    counts["gradient"][:] = 0, 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ends = run_lockstep(p, x0[None], x0[None], params, stop, sink=endpoints(1))
    assert ends.stop_reason.tolist() == ["diverged"] and ends.num_steps.tolist() == [34]
    assert np.array_equal(ends.x[0], points[-1]) and np.array_equal(ends.grad[0], grads[-1])
    assert sum(counts["gradient"]) <= len(points) + B

    # a stack whose middle row overflows: the rows on either side start on
    # the stable direction, run all 1,100 steps and equal their own run()
    starts = np.array([x0 * [1.0, 0.0], x0, 0.5 * x0 * [1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alone = [run(p, x, x, params, stop, sink=Columns(p, cert)) for x in starts]
        traces = [run(p, x, x, params, stop) for x in starts]
        for sink in (_RowSinks([Columns(p, cert) for _ in starts]), endpoints(3)):
            counts["gradient"][:] = 0, 0
            done = run_lockstep(p, starts, starts, params, stop, sink=sink)
            assert sum(counts["gradient"]) <= 2 * (stop.max_iters + 2) + len(points) + B
            if isinstance(sink, _RowSinks):
                for cols, ref in zip(done, alone):
                    assert (cols.stop_reason, cols.num_steps) == (ref.stop_reason, ref.num_steps)
                    for name in Columns._NAMES:
                        assert np.array_equal(getattr(cols, name), getattr(ref, name)), name
                    assert np.array_equal(cols.certified, ref.certified)
                    for name in Columns._CHECKS:
                        got, want = cols.reports[name], ref.reports[name]
                        assert np.array_equal(got.slack, want.slack, equal_nan=True), name
                        assert np.array_equal(got.passed, want.passed), name
            else:
                assert done.stop_reason.tolist() == [tr.stop_reason for tr in traces]
                assert done.num_steps.tolist() == [tr.num_steps for tr in traces]
                for b, tr in enumerate(traces):
                    assert np.array_equal(done.x[b], tr.points[-1])
                    assert np.array_equal(done.grad[b], tr.grads[-1])
    assert [tr.stop_reason for tr in traces] == ["max_iters", "diverged", "max_iters"]
    assert traces[1].num_steps == 34


# around the first block edge, where the first block ends, and around the
# edges after the fourth and eighth blocks; and with blocks of 1, 3 and 7
# rows, around the first and second block edges
@pytest.mark.parametrize("cut, block", [
    *(pytest.param(cut, B, id=str(cut))
      for cut in [1, 2, B - 2, B - 1, B, B + 1,
                  4 * B - 2, 4 * B - 1, 4 * B, 4 * B + 1, 8 * B - 1, 8 * B]),
    *(pytest.param(cut, block, id=f"{cut}-block{block}") for block in (1, 3, 7)
      for cut in sorted({1, block, block + 1, 2 * block - 1, 2 * block, 2 * block + 1})),
])
@pytest.mark.parametrize("preset", ["heavy_ball", "generic"])
def test_value_cut_at_block_edges(tmp_path, monkeypatch, cut, block, preset):
    # f is inf at exactly the point with index cut: run()'s Trace, its
    # Columns and a lockstep row's _Endpoints all end there, as 'diverged';
    # a short step keeps every point of the run distinct
    monkeypatch.setattr(optimizer, "_ROW_BLOCK", block)
    p, x0, params, ML = _setup("matrix_factorization", preset, 5, scale=0.05)
    stop = StopRules(max_iters=8 * B + 52 if block == B else cut + 10 * block + 10)
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
    ends = optimizer._Endpoints(holed_p, 1)
    ends.block_rows = block
    ends = run_lockstep(holed_p, x0[None], x0[None], params, stop, sink=ends)
    assert ends.stop_reason.tolist() == ["diverged"] and ends.num_steps.tolist() == [cut - 1]
    assert np.array_equal(ends.x[0], target) and np.array_equal(ends.grad[0], trace.grads[-1])


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
        (MomentumParams(1e-3, 0.5, 0.0, "heavy_ball"), StopRules(max_iters=2 * B + 52)),
        (MomentumParams(1e-3, 0.5, 0.25), StopRules(max_iters=2 * B + 52)),
        (MomentumParams(1e-3, 0.5, 0.25), StopRules(max_iters=2 * B + 52, grad_tol=1e-12)),
    ]:
        with np.errstate(all="ignore"):
            trace = run(p, x0, x0, params, stop)
            sunk = [run(p, x0, x0, params, stop, sink=Blocks()),
                    *run_lockstep(p, x0[None], x0[None], params, stop,
                                  sink=_RowSinks([Blocks()]))]
        for blocks, reason in sunk:
            assert reason == "max_iters" == trace.stop_reason
            assert [len(b) for b in blocks.points] == [B, B, 54]
            assert np.array_equal(np.concatenate(blocks.points), trace.points)
            if params.gamma == 0.0 or stop.grad_tol > 0:
                assert np.array_equal(np.concatenate(blocks.grads), trace.grads)
            else:
                assert blocks.grads == [None, None, None]


def test_columns_of_passes_columns_through_read_only():
    p, x0, params, ML = _setup("quadratic", "heavy_ball", 0)
    trace = run(p, x0, x0, params, StopRules(max_iters=50))
    cert = build_certificate(*ML, params, x0, 2.0, strict=False)
    cols = Columns.of(trace, cert)
    assert Columns.of(cols, cert) is cols
    for name in (*Columns._NAMES, "certified"):
        assert not getattr(cols, name).flags.writeable, name
    assert list(cols.reports) == list(Columns._CHECKS)
    for check in (check_descent, check_gradient_bound, check_step_bound):
        rep = check(cols, cert)
        assert rep is cols.reports[rep.name] and rep.certified is cols.certified
        assert not rep.slack.flags.writeable and not rep.passed.flags.writeable
    check_rate(trace, cert, measure_length(trace)[0])


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

    def stepped_and_checked():
        cols = run(p, x0, x0, params, stop, sink=Columns(p, cert))
        for check in (check_descent, check_gradient_bound, check_step_bound):
            check(cols, cert)
        return cols

    cols, peak = traced_peak(stepped_and_checked)
    assert cols.num_steps == 20_000
    points_nbytes = (cols.num_steps + 2) * p.dim * 8
    assert peak < 0.5 * points_nbytes


def test_stepping_and_checks_keep_three_columns_and_the_reports():
    # after the run and its three checks, the Columns and the reports hold
    # f, grad_norms and step_norms (24 B a point), each report's slack and
    # passed (9 B a step) and certified (1 B a step): 52.5 B a step measured
    # under tracemalloc. A Columns that also keeps grad_row_norms,
    # grad_H_norms and z_gaps holds 76.5 B a step; the bound of 60 B leaves
    # 7.5 B a step of margin above the measured value, and 16.5 B below that
    p, x0, params, stop, cert = network_run_setup()
    run(p, x0, x0, params, StopRules(max_iters=50), sink=Columns(p, cert))  # imports
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        cols = run(p, x0, x0, params, stop, sink=Columns(p, cert))
        reports = [check(cols, cert)
                   for check in (check_descent, check_gradient_bound, check_step_bound)]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cols.num_steps == 20_000 and all(rep.num_steps == 20_000 for rep in reports)
    assert (held - before) / cols.num_steps < 60


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
    rc, peak = traced_peak(lambda: main(argv))
    assert rc == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 2 + 2 and all(line.split(",")[4] == "0" for line in lines[2:])
    points_nbytes = (12_000 + 2) * 200 * 8
    assert peak < points_nbytes


# 20,000-step runs of the certify benchmark's: an 8x8 rank-3 factorization
# on heavy ball with all six checks, and a 4-6-6-6-4 network whose generic
# gamma has every block's gradients evaluated in batch
HEAVY_BALL_RUN_CFG = """
problem: {kind: matrix_factorization, m: 8, n: 8, rank: 3, seed: 1826701614}
params: {alpha: auto, beta: 0.5, preset: heavy_ball}
init: {x0: {random: {radius: 0.5, seed: 1367864806}}}
lipschitz: {mode: sampled, center: x0, radius: 10.0, seed: 1097657231}
stop: {max_iters: STEPS}
checks: [descent, grad_bounds, step_bounds, rate, length, kl_fit]
"""
NETWORK_RUN_CFG = """
problem: {kind: linear_network, widths: [4, 6, 6, 6, 4], samples: 8, seed: 161576974}
params: {alpha: auto, beta: 0.5, gamma: 0.25, preset: generic}
init: {x0: {random: {radius: 0.5, seed: 35492826}}}
lipschitz: {mode: sampled, center: x0, radius: 10.0, seed: 376383645}
stop: {max_iters: STEPS}
checks: [descent, grad_bounds, step_bounds, rate]
"""


@pytest.mark.parametrize("text", [HEAVY_BALL_RUN_CFG, NETWORK_RUN_CFG],
                         ids=["heavy_ball", "network"])
def test_run_command_holds_its_columns_and_one_block(tmp_path, text):
    # momlab run holds the per-step columns (40 B a point), the checks'
    # reports and one row block: not a point's dim-long rows, and nothing
    # K-long twice at once. A short run first imports what the command loads.
    config = tmp_path / "run.yaml"
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out"), "--quiet"]
    config.write_text(text.replace("STEPS", "50"))
    assert main(argv) == 0
    config.write_text(text.replace("STEPS", "20000"))
    rc, peak = traced_peak(lambda: main(argv))
    assert rc == 0
    assert peak / 20_000 < 160


HELD_GRADIENTS_SWEEP_CFG = """
problem: {kind: quadratic, dim: 50}
params: {alpha: 1.0e-3, beta: 0.5, preset: PRESET}
init: {x0: {random: {radius: 0.1, seed: 5}}}
lipschitz: {mode: analytic, center: x0, radius: 4.0}
stop: {max_iters: 300, grad_tol: GRAD_TOL}
checks: [descent]
sweep: {alphas: [1.0e-3], betas: [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], seeds: [1]}
"""


@pytest.mark.parametrize("preset, grad_tol, held", [
    ("heavy_ball", 0.0, 2), ("nesterov", 1e-12, 2), ("nesterov", 0.0, 1),
])
def test_sweep_groups_fit_the_budget_with_held_gradients(tmp_path, monkeypatch,
                                                         preset, grad_tol, held):
    # run_lockstep keeps a block of gradients beside each row's points on
    # heavy-ball rows and under grad_tol: the group budget counts both
    config = tmp_path / "sweep.yaml"
    config.write_text(HELD_GRADIENTS_SWEEP_CFG.replace("PRESET", preset)
                      .replace("GRAD_TOL", repr(grad_tol)))
    block = min(300 + 2, B)
    monkeypatch.setattr(cli, "_SWEEP_GROUP_BYTES", 4 * block * 50 * 8)
    groups = []
    lockstep = cli.run_lockstep

    def recorded(problem, x_minus1, x_0, params, stops, sink):
        keeps_gradients = any(p.gamma == 0.0 for p in params) or any(s.grad_tol > 0 for s in stops)
        assert keeps_gradients == (held == 2)
        groups.append(len(x_0))
        return lockstep(problem, x_minus1, x_0, params, stops, sink=sink)

    monkeypatch.setattr(cli, "run_lockstep", recorded)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 0
    assert sum(groups) == 6
    for rows in groups:
        assert rows * block * 50 * 8 * held <= cli._SWEEP_GROUP_BYTES
    # and no smaller than the budget allows
    assert groups[0] == 4 // held
