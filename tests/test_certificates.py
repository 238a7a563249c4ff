import dataclasses
import math

import numpy as np
import pytest
from conftest import make_problem, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab import (
    MomentumParams,
    StopRules,
    build_certificate,
    check_descent,
    check_gradient_bound,
    check_length_formula,
    check_step_bound,
    estimate_lipschitz,
    gradient_bound_constants,
    length_constants,
    lyapunov,
    lyapunov_interval,
    lyapunov_values,
    matrix_factorization,
    run,
    safe_alpha,
    step_bound_delta1,
    synthetic,
)

from momlab.analysis import check_rate
from momlab.certificates import Columns
from momlab.optimizer import Trace
from momlab.problems import _dot_self

SQRT2 = math.sqrt(2.0)


class TestLyapunov:
    def test_equal_points_reduce_to_value(self):
        p = synthetic("quadratic")
        x = np.array([0.7, -0.2])
        assert lyapunov(p, x, x, lam=1.0) == p.value(x)

    def test_hand_value(self):
        p = synthetic("quadratic")
        assert lyapunov(p, np.array([1.0, 0.0]), np.zeros(2), 0.75) == pytest.approx(1.25)

    @given(lam=st.floats(0.1, 5.0), t=st.floats(-1, 1))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_lambda(self, lam, t):
        p = synthetic("quadratic")
        x, y = np.array([t, 0.3]), np.array([0.1, -t])
        gap = float((x - y) @ (x - y))
        diff = lyapunov(p, x, y, 2 * lam) - lyapunov(p, x, y, lam)
        assert diff == pytest.approx(lam * gap, rel=1e-12, abs=1e-12)


class TestInterval:
    def test_golden(self):
        lo, hi, mid, c1 = lyapunov_interval(2.0, MomentumParams(0.5, 0.5, 0.5))
        assert (lo, hi, mid, c1) == pytest.approx((0.5, 1.0, 0.75, 0.25))

    def test_zero_momentum(self):
        a = 0.125
        lo, hi, mid, c1 = lyapunov_interval(1.0, MomentumParams(a))
        assert lo == 0.0
        assert hi == pytest.approx(1 / (2 * a))
        assert mid == pytest.approx(1 / (4 * a))
        assert c1 == pytest.approx(1 / (4 * a))

    def test_rejects_large_alpha_with_named_bound(self):
        with pytest.raises(ValueError, match="1/M"):
            lyapunov_interval(2.0, MomentumParams(alpha=10.0))
        with pytest.raises(ValueError, match="beta"):
            lyapunov_interval(2.0, MomentumParams(alpha=0.45, beta=0.9))

    @given(
        m=st.floats(0.05, 20),
        beta=st.floats(-0.9, 0.9),
        gamma=st.floats(-3, 3),
        frac=st.floats(0.05, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_midpoint_identity(self, m, beta, gamma, frac):
        """(lambda- + lambda+)/2 equals the closed-form midpoint for valid alpha."""
        probe = MomentumParams(1e-3, beta, gamma)
        params = MomentumParams(frac * safe_alpha(m, probe), beta, gamma)
        lo, hi, mid, c1 = lyapunov_interval(m, params)
        assert (lo + hi) / 2 == pytest.approx(mid, rel=1e-12)
        assert lo < mid < hi
        assert c1 > 0


class TestConstantFormulas:
    def test_b_alpha_golden(self):
        b_alpha, _ = gradient_bound_constants(1.0, MomentumParams(0.1, 0.5, 0.0), lam=1.0)
        assert b_alpha == pytest.approx(10 * SQRT2)

    def test_c2_golden(self):
        _, c2 = gradient_bound_constants(2.0, MomentumParams(0.5, 0.5, 0.5), lam=0.75)
        assert c2 == pytest.approx(7 * SQRT2)

    def test_delta1(self):
        assert step_bound_delta1(1.0, MomentumParams(0.1, 0.0, delta=0.0)) == 1.0
        assert step_bound_delta1(3.0, MomentumParams(0.1, 0.5, delta=2.0)) == 8.0

    def test_length_constants_golden(self):
        c3, _, _, _ = length_constants(1.0, 1.0, MomentumParams(0.1, 0.5, 0.5), 1)
        assert c3 == pytest.approx(8 * SQRT2 * 4 / 0.75, rel=1e-12)

    def test_length_constants_simple(self):
        c3, zeta, eta, kappa = length_constants(1.0, 1.0, MomentumParams(0.1), 1)
        assert zeta == pytest.approx(2 * SQRT2)
        assert kappa == pytest.approx(4 * SQRT2)
        assert eta == 0.0  # delta = 0

    def test_eta_vanishes_without_initial_velocity(self):
        _, _, eta, _ = length_constants(3.0, 2.0, MomentumParams(0.1, 0.6, 0.2, delta=0.0), 5)
        assert eta == 0.0

    @given(
        m=st.floats(0.1, 10),
        beta=st.floats(-0.9, 0.9),
        gamma=st.floats(-3, 3),
        frac=st.floats(0.05, 0.95),
    )
    @settings(max_examples=50, deadline=None)
    def test_b_alpha_c2_nonincreasing_in_alpha(self, m, beta, gamma, frac):
        probe = MomentumParams(1e-3, beta, gamma)
        bar = safe_alpha(m, probe)
        a_small, a_big = frac * bar, bar
        out = []
        for a in (a_small, a_big):
            params = MomentumParams(a, beta, gamma)
            _, _, mid, _ = lyapunov_interval(m, params)
            out.append(gradient_bound_constants(m, params, mid))
        assert out[0][0] >= out[1][0] - 1e-12  # b_alpha
        assert out[0][1] >= out[1][1] - 1e-12  # c2 with the alpha-tied midpoint

    def test_c3_independent_of_alpha_and_m(self):
        vals = {
            length_constants(m, 1.0, MomentumParams(a, 0.4, -0.3), 1)[0]
            for a in (0.01, 0.2)
            for m in (0.5, 8.0)
        }
        assert len(vals) == 1


def certified_quadratic_run(alpha_frac=0.9, beta=0.5, gamma=0.0, iters=2000):
    p = synthetic("quadratic")
    x0 = np.array([1.0, 0.0])
    ball_c, ball_r = np.zeros(2), 4.0
    L, M = estimate_lipschitz(p, ball_c, ball_r, mode="analytic", reach=max(abs(beta), abs(gamma)))
    params = MomentumParams(alpha_frac * safe_alpha(M, MomentumParams(1e-3, beta, gamma)), beta, gamma)
    cert = build_certificate(M, L, params, ball_c, ball_r, m_crit=1)
    trace = run(p, x0, x0, params, StopRules(max_iters=iters))
    return p, trace, cert


class TestChecks:
    def test_descent_all_pass_on_certified_run(self):
        _, trace, cert = certified_quadratic_run()
        rep = check_descent(trace, cert)
        assert rep.n_certified == rep.num_steps
        assert rep.all_pass
        assert rep.min_slack >= -1e-9

    def test_lyapunov_nonincreasing_along_certified_trace(self):
        _, trace, cert = certified_quadratic_run()
        H = lyapunov_values(trace, cert.lam)
        assert np.all(np.diff(H) <= 1e-12 * (1 + np.abs(H[:-1])))

    def test_descent_fails_with_oversized_alpha(self):
        p = synthetic("quadratic")
        x0 = np.array([1.0, 0.0])
        L, M = estimate_lipschitz(p, np.zeros(2), 4.0, mode="analytic")
        base = MomentumParams(1e-3, 0.5, 0.0)
        params = MomentumParams(10 * safe_alpha(M, base), 0.5, 0.0)
        cert = build_certificate(M, L, params, np.zeros(2), 4.0, strict=False)
        assert not cert.certified_params
        trace = run(p, x0, x0, params, StopRules(max_iters=200, box_radius=4.0))
        rep = check_descent(trace, cert)
        assert rep.n_fail > 0

    def test_stationary_trace_zero_slack(self):
        p = synthetic("quadratic")
        z = np.zeros(2)
        L, M = estimate_lipschitz(p, z, 1.0, mode="analytic")
        params = MomentumParams(0.1, 0.5)
        cert = build_certificate(M, L, params, z, 1.0)
        trace = run(p, z, z, params, StopRules(max_iters=10))
        rep = check_descent(trace, cert)
        assert np.all(rep.slack == 0.0)
        grep = check_gradient_bound(trace, cert)
        assert grep.all_pass  # 0 <= b_alpha * 0 with equality

    def test_gradient_bounds_pass_on_certified_run(self):
        _, trace, cert = certified_quadratic_run(beta=0.5, gamma=0.25)
        rep = check_gradient_bound(trace, cert)
        assert rep.all_pass

    def test_step_bound_holds(self):
        _, trace, cert = certified_quadratic_run()
        rep = check_step_bound(trace, cert)
        assert rep.all_pass

    def test_ball_exit_marks_uncertified_not_failed(self):
        p = synthetic("quadratic")
        x0 = np.array([1.0, 0.0])
        L, M = estimate_lipschitz(p, np.zeros(2), 4.0, mode="analytic")
        params = MomentumParams(0.9 * safe_alpha(M, MomentumParams(1e-3, 0.5, 0.0)), 0.5)
        # deliberately certify only a sliver around the start
        cert = build_certificate(M, L, params, x0, 0.05, m_crit=1)
        trace = run(p, x0, x0, params, StopRules(max_iters=500))
        rep = check_descent(trace, cert)
        assert rep.n_certified < rep.num_steps
        assert rep.n_fail == 0  # later steps are uncertified, not failed


class TestLengthFormula:
    def test_quadratic_with_exact_desingularizer(self):
        p, trace, cert = certified_quadratic_run(iters=4000)
        rep = check_length_formula(trace, cert, lambda t: 2.0 * math.sqrt(t))
        assert rep.passed
        assert rep.total_length <= rep.bound

    def test_quartic_with_fitted_inflated_psi(self):
        from momlab import fit_desingularizer

        p = synthetic("quartic")
        x0 = np.array([1.0])
        L, M = estimate_lipschitz(p, np.zeros(1), 2.0, mode="analytic", reach=0.5)
        params = MomentumParams(0.9 * safe_alpha(M, MomentumParams(1e-3, 0.5)), 0.5)
        cert = build_certificate(M, L, params, np.zeros(1), 2.0, m_crit=1)
        trace = run(p, x0, x0, params, StopRules(max_iters=4000))
        psi = fit_desingularizer(trace.f[1:], trace.grad_norms[1:], f_star=0.0)
        assert psi.theta == pytest.approx(0.25, abs=0.02)
        rep = check_length_formula(trace, cert, psi)  # majorant (inflated) form
        assert rep.passed

    def test_stationary_trace_passes_any_psi(self):
        p = synthetic("quadratic")
        z = np.zeros(2)
        L, M = estimate_lipschitz(p, z, 1.0, mode="analytic")
        params = MomentumParams(0.1, 0.5)
        cert = build_certificate(M, L, params, z, 1.0)
        trace = run(p, z, z, params, StopRules(max_iters=10))
        rep = check_length_formula(trace, cert, lambda t: 2.0 * math.sqrt(t))
        assert rep.passed and rep.total_length == 0.0

    def test_rejects_nonmonotone_psi(self):
        _, trace, cert = certified_quadratic_run(iters=50)
        with pytest.raises(ValueError, match="increasing"):
            check_length_formula(trace, cert, lambda t: math.sin(t))

    def test_rejects_nonconcave_psi(self):
        _, trace, cert = certified_quadratic_run(iters=50)
        with pytest.raises(ValueError, match="concave"):
            check_length_formula(trace, cert, lambda t: t * t)

    def test_rejects_psi_with_offset(self):
        _, trace, cert = certified_quadratic_run(iters=50)
        with pytest.raises(ValueError, match="psi\\(0\\)"):
            check_length_formula(trace, cert, lambda t: 1.0 + t)


class TestCertificateSerialization:
    def test_json_roundtrip_fields(self, tmp_path):
        import json

        _, trace, cert = certified_quadratic_run(iters=100)
        cert.per_step["descent"] = check_descent(trace, cert)
        path = tmp_path / "cert.json"
        cert.to_json(path)
        data = json.loads(path.read_text())
        assert data["constants"]["lambda_minus"] < data["constants"]["lambda"] < data["constants"]["lambda_plus"]
        assert data["checks"]["descent"]["fail"] == 0
        assert len(data["checks"]["descent"]["slack"]) == trace.num_steps
        assert "min_slack" in data["checks"]["descent"]


def long_factorization_run(iters=20_000):
    """A 20,000-step heavy-ball run of the 8x8 rank-3 factorization, certified
    as perfbench's certify workload sets it up."""
    p = matrix_factorization(np.random.default_rng(0).standard_normal((8, 8)), r=3)
    x0 = 0.5 * np.random.default_rng(1).uniform(-1.0, 1.0, p.dim) / math.sqrt(p.dim)
    L, M = estimate_lipschitz(p, x0, 10.0, reach=0.5)
    params = MomentumParams.heavy_ball(0.9 * safe_alpha(M, MomentumParams(1e-6, 0.5)), 0.5)
    cert = build_certificate(M, L, params, x0, 10.0, strict=False)
    return run(p, x0, x0, params, StopRules(max_iters=iters)), cert


@pytest.fixture(scope="module")
def long_run():
    return long_factorization_run()


class TestBoundedMemory:
    """Every per-step check takes its per-row norms a row block at a time, so
    none allocates a (K, dim) temporary."""

    @pytest.mark.parametrize("check", [
        check_descent,
        check_gradient_bound,
        check_step_bound,
        lambda tr, cert: check_rate(tr, cert, 1.0),
        lambda tr, cert: tr.step_norms,
        lambda tr, cert: tr.grad_norms,
    ], ids=["descent", "gradient_bound", "step_bound", "rate", "step_norms", "grad_norms"])
    def test_check_peaks_below_half_the_points(self, long_run, check):
        trace, cert = long_run
        assert trace.num_steps == 20_000
        # a fresh trace, whose step_norms and grad_norms are not yet cached
        fresh = Trace(trace.points, trace.f, trace.grads, trace.params, trace.stop_reason)
        _, peak = traced_peak(lambda: check(fresh, cert))
        assert peak < 0.5 * trace.points.nbytes

    def test_blocked_norms_equal_whole_array_norms(self):
        # 2,500 steps: two full row blocks and a partial one
        trace, cert = long_factorization_run(iters=2_500)
        pts, grads = trace.points, trace.grads
        assert np.array_equal(trace.step_norms, np.linalg.norm(np.diff(pts, axis=0), axis=1))
        assert np.array_equal(trace.grad_norms, np.linalg.norm(grads, axis=1))
        # the gradient bound from whole-array ||grad H_lam||, gradient row
        # norms and ||z_{k+1} - z_k||, against the one reduced block by block
        d = 2.0 * cert.lam * (pts[1:] - pts[:-1])
        grad_H = np.sqrt(_dot_self(d + grads[1:]) + _dot_self(d))
        sn = trace.step_norms
        z_gap = np.array([math.hypot(a, b) for a, b in zip(sn[1:], sn[:-1])])
        slack_b = cert.b_alpha * z_gap - np.sqrt(_dot_self(grads))[1:-1]
        slack_c2 = cert.c2 * z_gap - np.maximum(grad_H[:-1], grad_H[1:])
        rep = Columns.of(trace, cert).reports["gradient_bound"]
        assert np.array_equal(rep.slack, np.minimum(slack_b, slack_c2))
        assert not rep.slack.flags.writeable and not rep.passed.flags.writeable
        # the distance from x_0 grows along this run: the first ball exit in
        # the second row block, in the last one, and no exit at all
        dist = np.linalg.norm(pts - cert.ball_center, axis=1)
        for radius in (dist[1500], dist[-1] * (1 - 1e-9), cert.ball_radius):
            ball = dataclasses.replace(cert, ball_radius=float(radius))
            out = np.flatnonzero(~(dist <= ball.ball_radius * (1 + 1e-12)))
            first_bad = max(int(out[0]) - 2, 0) if out.size else trace.num_steps
            certified = Columns.of(trace, ball).certified
            assert np.array_equal(certified, np.arange(trace.num_steps) < first_bad)
        assert out.size == 0 and first_bad == trace.num_steps

    def test_ball_exits_are_read_only_and_follow_the_ball(self):
        _, trace, cert = certified_quadratic_run(iters=200)
        reports = [check(trace, cert)
                   for check in (check_descent, check_gradient_bound, check_step_bound)]
        assert not any(rep.certified.flags.writeable for rep in reports)
        # the same trace in a smaller ball certifies fewer steps
        cert.ball_radius = 0.05
        shrunk = check_descent(trace, cert)
        assert shrunk.n_certified < reports[0].n_certified
