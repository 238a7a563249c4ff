import math

import numpy as np
import oracles
import pytest
from conftest import make_problem, traced_peak
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momlab import gradient_flow
from momlab import (
    MomentumParams,
    StopRules,
    companion_eigen,
    integrate_flow,
    matrix_factorization,
    run,
    synthetic,
    tracking_constants,
    tracking_error,
    tracking_ladder,
    trajectory_length,
)


class TestIntegrateFlow:
    def test_quadratic_exponential_decay(self):
        p = synthetic("quadratic")
        x0 = np.array([1.0, -0.5])
        traj = integrate_flow(p, x0, beta=0.0, horizon=1.0)
        assert np.linalg.norm(traj.at(1.0) - x0 * math.exp(-1.0)) <= 1e-8 * np.linalg.norm(x0)

    def test_beta_rescales_decay_rate(self):
        p = synthetic("quadratic")
        x0 = np.array([1.0, 0.0])
        traj = integrate_flow(p, x0, beta=0.5, horizon=1.0)
        assert np.linalg.norm(traj.at(1.0) - x0 * math.exp(-2.0)) <= 1e-8

    def test_critical_start_is_constant(self):
        p = synthetic("quadratic")
        traj = integrate_flow(p, np.zeros(2), beta=0.0, horizon=None, grad_tol=1e-9)
        assert traj.total_length == 0.0
        assert np.all(traj.at(0.7) == 0.0)

    def test_requires_a_stop_rule(self):
        p = synthetic("quadratic")
        with pytest.raises(ValueError):
            integrate_flow(p, np.ones(2), horizon=None, grad_tol=0.0)

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_rejects_nonpositive_horizon(self, horizon):
        p = synthetic("quadratic")
        with pytest.raises(ValueError, match="horizon"):
            integrate_flow(p, np.ones(2), horizon=horizon)

    def test_f_nonincreasing_along_flow(self):
        p = make_problem("matrix_factorization")
        rng = np.random.default_rng(0)
        traj = integrate_flow(p, rng.standard_normal(p.dim) * 0.5, horizon=3.0)
        f = traj.f_values
        assert np.all(np.diff(f) <= 1e-8 * (1.0 + np.abs(f[:-1])))

    def test_arc_length_nondecreasing(self):
        p = make_problem("matrix_factorization")
        rng = np.random.default_rng(1)
        traj = integrate_flow(p, rng.standard_normal(p.dim) * 0.5, horizon=2.0)
        assert np.all(np.diff(traj.arc_length) >= -1e-12)

    def test_energy_identity(self):
        # f(x(0)) - f(x(T)) = (1-beta) * integral ||x'||^2 dt
        for beta in (0.0, 0.5):
            p = make_problem("matrix_factorization", seed=3)
            rng = np.random.default_rng(2)
            x0 = rng.standard_normal(p.dim) * 0.5
            traj = integrate_flow(p, x0, beta=beta, horizon=2.0)
            drop = traj.f_values[0] - traj.f_values[-1]
            assert drop == pytest.approx((1.0 - beta) * traj.energy[-1], rel=1e-6)

    def test_multi_chunk_dense_output(self):
        # grad_tol without a horizon integrates over [0, 1], [1, 2], [2, 4], ...
        p = synthetic("quadratic")
        x0 = np.array([1.0, -0.5])
        traj = integrate_flow(p, x0, beta=0.5, grad_tol=1e-6)
        assert traj.terminated == "grad_tol" and traj.times[-1] > 4.0
        ts = np.linspace(0.0, traj.times[-1], 301)
        exact = np.exp(-2.0 * ts)[:, None] * x0
        assert np.max(np.abs(traj.at(ts) - exact)) <= 1e-8
        assert np.allclose(traj.at(traj.times), traj.states, rtol=1e-12, atol=1e-15)
        for t in (0.0, 1.0, 2.0, 3.3, 4.0, traj.times[-1]):
            assert np.allclose(traj.at(t), traj.at(np.array([t]))[0], rtol=1e-14, atol=0)
        assert np.array_equal(traj.at(2 * traj.times[-1]), traj.at(traj.times[-1]))


class TestTrajectoryLength:
    def test_quadratic_radial_length(self):
        p = synthetic("quadratic")
        x0 = np.array([0.6, -0.8])  # unit norm
        est = trajectory_length(p, [x0], beta=0.0, grad_tol=1e-9)
        assert est.sigma_hat == pytest.approx(1.0, abs=1e-6)
        assert not est.lower_bound_only

    def test_critical_sample_contributes_zero(self):
        p = synthetic("quadratic")
        est = trajectory_length(p, [np.zeros(2)], grad_tol=1e-9)
        assert est.sigma_hat == 0.0

    def test_max_over_samples(self):
        p = synthetic("quadratic")
        starts = [np.array([0.5, 0.0]), np.array([2.0, 0.0]), np.array([0.0, 1.0])]
        est = trajectory_length(p, starts, grad_tol=1e-9)
        assert est.sigma_hat == pytest.approx(2.0, abs=1e-6)
        assert len(est.per_sample) == 3

    def test_max_horizon_bounds_the_integration(self):
        # the quartic's gradient falls below 1e-12 only after t ~ 1e7
        p = synthetic("quartic")
        est = trajectory_length(p, [np.array([0.5])], grad_tol=1e-12, max_horizon=10.0)
        (sample,) = est.per_sample
        assert sample["time"] == 10.0 and sample["truncated"] and est.lower_bound_only
        ref = integrate_flow(p, [0.5], horizon=10.0)
        assert sample["length"] == pytest.approx(ref.total_length, rel=1e-8)

    def test_max_horizon_must_be_positive(self):
        with pytest.raises(ValueError, match="max_horizon"):
            integrate_flow(synthetic("quartic"), [0.5], grad_tol=1e-3, max_horizon=0.0)

    def test_cauchy_schwarz_bound(self):
        # arc length <= sqrt(T * (1/(1-beta)) * (f(x0) - inf f)) over the run
        p = make_problem("matrix_factorization", seed=5)
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal(p.dim) * 0.5
        beta = 0.5
        traj = integrate_flow(p, x0, beta=beta, horizon=4.0)
        T = traj.times[-1]
        bound = math.sqrt(T * (1.0 / (1.0 - beta)) * (traj.f_values[0] - 0.0))
        assert traj.total_length <= bound * (1 + 1e-9)


class TestTrackingError:
    def test_quadratic_closed_form(self):
        p = synthetic("quadratic")
        alpha = 0.1
        x0 = np.array([1.0, 0.0])
        trace = run(p, x0, x0, MomentumParams(alpha=alpha), StopRules(max_iters=20))
        errors, max_err = tracking_error(p, trace, horizon=1.0)
        ks = np.arange(11)
        expected = np.abs((1 - alpha) ** ks - np.exp(-alpha * ks))
        assert len(errors) == 11
        assert np.max(np.abs(errors - expected)) < 1e-6
        assert max_err == pytest.approx(np.max(expected), abs=1e-6)

    def test_halving_alpha_roughly_halves_error(self):
        p = synthetic("quadratic")
        x0 = np.array([1.0, 0.0])
        maxes = []
        for alpha in (0.1, 0.05):
            trace = run(p, x0, x0, MomentumParams(alpha=alpha),
                        StopRules(max_iters=int(1 / alpha) + 1))
            _, m = tracking_error(p, trace, horizon=1.0)
            maxes.append(m)
        ratio = maxes[1] / maxes[0]
        assert 0.4 <= ratio <= 0.6

    def test_constant_trace_zero_errors(self):
        p = synthetic("quadratic")
        z = np.zeros(2)
        trace = run(p, z, z, MomentumParams(alpha=0.1, beta=0.5), StopRules(max_iters=10))
        errors, max_err = tracking_error(p, trace, horizon=1.0)
        assert max_err == 0.0

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_alpha_ladder_slope_exceeds_09(self, beta):
        p = synthetic("quadratic")
        maxes, slope = tracking_ladder(p, np.array([1.0, 0.0]), beta,
                                       alphas=[0.1, 0.05, 0.025], horizon=1.0)
        assert np.all(np.diff(maxes) < 0)
        assert slope >= 0.9

    def test_ladder_rejects_a_rung_that_takes_no_step(self):
        # floor(horizon / alpha) = 0 steps would read as exact tracking
        p = synthetic("quadratic")
        x0 = np.array([1.0, 0.0])
        for horizon, alphas in [(0.001, [0.1, 0.05]), (0.07, [0.05, 0.1])]:
            with pytest.raises(ValueError, match="no step"):
                tracking_ladder(p, x0, 0.5, alphas, horizon)
        # at horizon == alpha the rung takes one step and tracks inexactly
        maxes, slope = tracking_ladder(p, x0, 0.5, [0.1, 0.05], 0.1)
        assert min(maxes) > 0 and math.isfinite(slope)

    def test_ladder_slope_on_matrix_factorization(self):
        # larger curvature constants push the O(alpha) regime to finer steps
        p = make_problem("matrix_factorization", seed=8)
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal(p.dim) * 0.4
        maxes, slope = tracking_ladder(p, x0, 0.5, alphas=[0.01, 0.005, 0.0025], horizon=1.0)
        assert np.all(np.diff(maxes) < 0)
        assert slope >= 0.9

    def test_ladder_integrates_the_flow_once(self, monkeypatch):
        calls = []
        integrate = gradient_flow.integrate_flow
        monkeypatch.setattr(gradient_flow, "integrate_flow",
                            lambda *a, **k: calls.append(a) or integrate(*a, **k))
        p = make_problem("matrix_factorization", seed=8)
        x0 = np.random.default_rng(0).standard_normal(p.dim) * 0.4
        alphas, beta, gamma = [0.01, 0.005, 0.0025], 0.5, 0.3
        maxes, _ = tracking_ladder(p, x0, beta, alphas, horizon=1.0, gamma=gamma)
        assert len(calls) == 1
        # each rung equals tracking_error against its own flow, bit for bit
        g0 = p.gradient(x0)
        for alpha, m in zip(alphas, maxes):
            params = MomentumParams(alpha, beta, gamma,
                                    delta=2.0 * float(np.linalg.norm(g0)) * (1.0 + 1e-9))
            trace = run(p, x0 + alpha * 2.0 * g0, x0, params,
                        StopRules(max_iters=int(math.floor(1.0 / alpha)) + 1))
            assert tracking_error(p, trace, horizon=1.0)[1] == m


    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_ladder_rungs_keep_only_their_points(self, counted, gamma):
        # the rungs' f and grads columns are never filled: every value row
        # and every stacked gradient row of a ladder is its flow's own
        p, counts = counted(make_problem("matrix_factorization", seed=8))
        flow_p, flow_counts = counted(make_problem("matrix_factorization", seed=8))
        x0 = np.random.default_rng(0).standard_normal(p.dim) * 0.4
        tracking_ladder(p, x0, 0.5, [0.01, 0.005, 0.0025], horizon=1.0, gamma=gamma)
        integrate_flow(flow_p, x0, beta=0.5, horizon=1.0)
        assert counts["value"] == flow_counts["value"]
        assert counts["gradient"][1] == flow_counts["gradient"][1]

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_ladder_evaluates_only_its_steps(self, counted, gamma):
        # a ladder reads neither its flow's f_values nor its grad_norms: no
        # value at all, and every gradient is a single point of the flow's
        # right-hand side or of a rung's steps
        p, counts = counted(make_problem("matrix_factorization", seed=8))
        x0 = np.random.default_rng(0).standard_normal(p.dim) * 0.4
        alphas, beta = [0.01, 0.005, 0.0025], 0.5
        tracking_ladder(p, x0, beta, alphas, horizon=1.0, gamma=gamma)
        assert counts["value"] == [0, 0] and counts["gradient"][1] == 0
        flow_p, flow_counts = counted(make_problem("matrix_factorization", seed=8))
        traj = integrate_flow(flow_p, x0, beta=beta, horizon=1.0)
        assert flow_counts["value"] == [0, 0] and flow_counts["gradient"][1] == 0
        rung_p, rung_counts = counted(make_problem("matrix_factorization", seed=8))
        g0 = rung_p.gradient(x0)
        for alpha in alphas:
            params = MomentumParams(alpha, beta, gamma,
                                    delta=2.0 * float(np.linalg.norm(g0)) * (1.0 + 1e-9))
            steps = int(math.floor(1.0 / alpha))
            run(rung_p, x0 + alpha * 2.0 * g0, x0, params, StopRules(max_iters=steps),
                sink=gradient_flow._TrackingErrors(traj, alpha, steps))
        assert counts["gradient"][0] == flow_counts["gradient"][0] + rung_counts["gradient"][0]

    @pytest.mark.parametrize("case", ["heavy_ball_8x8", "cut_short", "constant_flow"])
    def test_errors_do_not_depend_on_block_edges(self, case):
        # blocks of 1 to 8 points, and of 256, put an edge at every position
        # inside a flow step; on this 8x8 rank-3 flow at alpha 0.003, times
        # of one flow step split between traj.at calls change the last bit
        beta, horizon, alpha = 0.5, 2.0, 0.003
        p = matrix_factorization(np.random.default_rng(0).standard_normal((8, 8)), r=3)
        x0 = np.random.default_rng(100).standard_normal(p.dim) * 0.4
        if case == "constant_flow":  # a critical start
            p, x0 = synthetic("quadratic"), np.zeros(2)
        traj = integrate_flow(p, x0, beta=beta, horizon=horizon)
        k_last = int(math.floor(horizon / alpha))
        g0 = p.gradient(x0)
        params = MomentumParams.heavy_ball(alpha, beta, delta=2.0 * float(np.linalg.norm(g0)))
        points = run(p, x0 + alpha * 2.0 * g0, x0, params, StopRules(max_iters=k_last + 1)).points
        if case == "cut_short":  # k_last lies past the last point
            points = points[:k_last // 2]
        expected = oracles.tracking_errors(traj, points, alpha, k_last)
        assert len(expected) == len(points) - 1 - (case != "cut_short")
        for size in [*range(1, 9), 256]:
            sink = gradient_flow._TrackingErrors(traj, alpha, k_last)
            for i in range(0, len(points), size):
                sink.take(points[i:i + size], None)
            errors = sink.finish("max_iters").errors
            assert errors.tobytes() == expected.tobytes(), size

    def test_ladder_holds_a_block_and_a_flow_step(self):
        # perfbench survey's mf_track ladder: past its flow, a ladder holds its
        # errors (8 bytes a step, twice while they are joined) and a few arrays
        # of one row block plus one flow step's rows, not a rung's points
        rng = np.random.default_rng(0)
        p = matrix_factorization(rng.standard_normal((4, 4)), r=2)
        x0 = rng.standard_normal(p.dim) * 0.4
        alphas, horizon = [0.01, 0.005, 0.0025], 20.0
        traj, flow_peak = traced_peak(lambda: integrate_flow(p, x0, beta=0.5, horizon=horizon))
        _, peak = traced_peak(lambda: tracking_ladder(p, x0, 0.5, alphas, horizon))
        k_last = int(math.floor(horizon / alphas[-1]))
        step_rows = int(np.max(np.diff(traj.times)) / alphas[-1]) + 1
        block = (gradient_flow._ROW_BLOCK + step_rows) * (p.dim + 2) * 8
        assert peak <= flow_peak + 16 * (k_last + 1) + 10 * block

    def test_flow_values_evaluated_on_first_use(self, counted):
        p, counts = counted(make_problem("matrix_factorization", seed=8))
        x0 = np.random.default_rng(0).standard_normal(p.dim) * 0.4
        traj = integrate_flow(p, x0, beta=0.5, horizon=1.0)
        single = counts["gradient"][0]
        f, gn = traj.f_values, traj.grad_norms
        rows = len(traj.states)
        assert counts["value"] == [0, rows] and counts["gradient"] == [single, rows]
        assert traj.f_values is f and traj.grad_norms is gn and counts["value"] == [0, rows]
        assert f.tolist() == [p.value(x) for x in traj.states]
        assert gn.tolist() == [float(np.linalg.norm(p.gradient(x))) for x in traj.states]

    def test_critical_start_values(self):
        p = synthetic("quadratic")
        traj = integrate_flow(p, np.zeros(2), grad_tol=1e-9)
        assert traj.terminated == "grad_tol"
        assert traj.f_values.tolist() == [0.0] and traj.grad_norms.tolist() == [0.0]
        # with no grad_tol rule set, only the horizon can have stopped the flow
        traj = integrate_flow(p, np.zeros(2), horizon=1.0)
        assert traj.terminated == "horizon"
        assert traj.f_values.tolist() == [0.0] and traj.grad_norms.tolist() == [0.0]


class TestTrackingConstants:
    @given(beta=st.floats(-0.95, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_companion_eigenvalues(self, beta):
        eigvals, P = companion_eigen(beta)
        C = np.array([[1 + beta, -beta], [1.0, 0.0]])
        assert np.allclose(sorted(eigvals), sorted(np.linalg.eigvals(C)))
        # P diagonalizes C
        D = np.linalg.solve(P, C @ P)
        assert np.allclose(D, np.diag(eigvals), atol=1e-12)

    def test_c4_golden(self):
        tc = tracking_constants(1.0, 1.0, MomentumParams(0.1, 0.5, 0.0), T=1.0,
                                delta=0.0, epsilon=0.1)
        assert tc.c4 == pytest.approx(0.75)

    def test_c5_reduces_to_p3_m_at_gamma0(self):
        M = 2.0
        tc = tracking_constants(M, 1.0, MomentumParams(0.1, 0.5, 0.0), T=1.0,
                                delta=0.0, epsilon=0.1)
        assert tc.c5 == pytest.approx(tc.p3 * M)

    def test_norm_equivalence_constants(self):
        tc = tracking_constants(1.0, 1.0, MomentumParams(0.1, 0.5, 0.2), T=1.0,
                                delta=0.1, epsilon=0.1)
        rng = np.random.default_rng(0)
        _, P = companion_eigen(0.5)
        Pinv = np.linalg.inv(P)
        for _ in range(50):
            v = rng.standard_normal(2)
            vp = np.linalg.norm(Pinv @ v)
            assert tc.p1 * np.linalg.norm(v) <= vp * (1 + 1e-12)
            assert vp <= tc.p2 * np.linalg.norm(v) * (1 + 1e-12)
            X = rng.standard_normal((2, 2))
            assert np.linalg.norm(Pinv @ X @ P, 2) <= tc.p3 * np.linalg.norm(X, 2) * (1 + 1e-12)

    def test_alpha_bar_positive_and_capped(self):
        tc = tracking_constants(1.0, 1.0, MomentumParams(0.1, 0.5, 0.0), T=2.0,
                                delta=1.0, epsilon=0.5)
        assert 0 < tc.alpha_bar <= 1.0

    def test_long_horizon_gives_zero_alpha_bar_not_overflow(self):
        # exp(c5 T) is far beyond a float here; growth is taken in log space
        tc = tracking_constants(500.0, 2000.0, MomentumParams(0.001, 0.5), 2.0, 0.0, 1e-3)
        assert tc.c5 * 2.0 > 709.8 and math.isfinite(tc.c5)
        assert tc.alpha_bar == 0.0

    @given(M=st.floats(0.1, 10.0), T=st.floats(0.01, 5.0), beta=st.floats(-0.9, 0.9),
           gamma=st.floats(-0.9, 0.9), delta=st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_log_space_alpha_bar_matches_the_direct_formula(self, M, T, beta, gamma, delta):
        L, eps = 2.0 * M, 0.1
        tc = tracking_constants(M, L, MomentumParams(0.1, beta, gamma), T, delta, eps)
        b, c4, c5 = beta, tc.c4, tc.c5
        assume(c5 * T < 700.0)  # where exp(c5 T) is a float
        growth = math.exp(c5 * T) * (abs(b) * delta + 2.0 * L - L * b + c4 / c5) - c4 / c5
        assert tc.alpha_bar == pytest.approx(min(1.0, eps * (tc.p1 / tc.p2) / growth),
                                             rel=1e-9)

    def test_tracking_error_within_epsilon_at_alpha_bar(self):
        # the guaranteed step size actually achieves the target error; the
        # horizon is kept short because alpha_bar shrinks like exp(-c5 T)
        p = synthetic("quadratic")
        beta, T, eps = 0.3, 0.3, 0.5
        scale = 1.0 / (1 - beta)
        tc = tracking_constants(scale * 1.0, scale * 2.0, MomentumParams(0.1, beta, 0.0),
                                T=T, delta=0.0, epsilon=eps)
        alpha = tc.alpha_bar
        assert alpha > 1e-5  # sanity: the test stays runnable
        x0 = np.array([1.0, 0.0])
        trace = run(p, x0, x0, MomentumParams(alpha=alpha, beta=beta),
                    StopRules(max_iters=int(T / alpha) + 1))
        _, max_err = tracking_error(p, trace, horizon=T)
        assert max_err <= eps
