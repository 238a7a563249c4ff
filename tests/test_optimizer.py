import math
import warnings

import numpy as np
import pytest
from conftest import make_problem, reference_run, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab import (
    MomentumParams,
    Problem,
    StopRules,
    matrix_factorization,
    run,
    safe_alpha,
    step,
    synthetic,
)


class TestMomentumParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MomentumParams(alpha=0.0)
        with pytest.raises(ValueError):
            MomentumParams(alpha=0.1, beta=1.0)
        with pytest.raises(ValueError):
            MomentumParams(alpha=0.1, beta=0.5, gamma=0.1, preset="heavy_ball")
        with pytest.raises(ValueError):
            MomentumParams(alpha=0.1, beta=0.5, gamma=0.1, preset="nesterov")

    @pytest.mark.parametrize("kw", [dict(alpha=math.inf), dict(alpha=math.nan),
                                    dict(gamma=math.nan), dict(gamma=math.inf),
                                    dict(delta=math.nan), dict(delta=math.inf)],
                             ids=["alpha-inf", "alpha-nan", "gamma-nan", "gamma-inf",
                                  "delta-nan", "delta-inf"])
    def test_rejects_nonfinite(self, kw):
        field = next(iter(kw))
        with pytest.raises(ValueError, match=field):
            MomentumParams(**{"alpha": 0.1, "beta": 0.5, **kw})

    @pytest.mark.parametrize("kw", [dict(box_radius=math.nan), dict(grad_tol=math.nan),
                                    dict(grad_tol=math.inf), dict(max_iters=math.nan)],
                             ids=["box-nan", "grad_tol-nan", "grad_tol-inf", "max_iters-nan"])
    def test_stop_rules_reject_nonfinite(self, kw):
        # a NaN box or tolerance would switch its rule off: a quadratic run at
        # alpha 2.5 grew to 1.9e9 and stopped on max_iters
        with pytest.raises(ValueError, match=next(iter(kw))):
            StopRules(**kw)
        assert StopRules(box_radius=math.inf).box_radius == math.inf  # the default

    def test_presets(self):
        hb = MomentumParams.heavy_ball(0.1, 0.5)
        assert hb.gamma == 0.0
        nag = MomentumParams.nesterov(0.1, 0.5)
        assert nag.gamma == nag.beta == 0.5


class TestStep:
    def test_no_momentum_is_gradient_descent(self):
        p = synthetic("quadratic")
        x = np.array([1.0, -2.0])
        xn, yb, yg = step(p, x, x, MomentumParams(alpha=0.1))
        assert np.allclose(xn, x - 0.1 * p.gradient(x))
        assert np.all(yb == x) and np.all(yg == x)

    def test_hand_computed_quadratic_step(self):
        p = synthetic("quadratic")
        x = np.array([1.0, 0.0])
        xn, yb, yg = step(p, x, x, MomentumParams(alpha=0.1, beta=0.5))
        assert np.allclose(yb, [1.0, 0.0])
        assert np.allclose(yg, [1.0, 0.0])
        assert np.allclose(xn, [0.9, 0.0])

    @given(
        beta=st.floats(-0.9, 0.9),
        x0=st.floats(-2, 2),
        x1=st.floats(-2, 2),
    )
    @settings(max_examples=30, deadline=None)
    def test_nesterov_collapses_extrapolations(self, beta, x0, x1):
        p = synthetic("quadratic")
        params = MomentumParams(alpha=0.05, beta=beta, gamma=beta)
        _, yb, yg = step(p, np.array([x0, 0.0]), np.array([x1, 0.0]), params)
        assert np.all(yb == yg)

    def test_heavy_ball_preset_matches_generic_gamma0(self):
        p = make_problem("matrix_factorization")
        rng = np.random.default_rng(0)
        xp, xc = rng.standard_normal(p.dim), rng.standard_normal(p.dim)
        out_hb = step(p, xp, xc, MomentumParams.heavy_ball(0.05, 0.4))
        out_gen = step(p, xp, xc, MomentumParams(0.05, 0.4, 0.0))
        for a, b in zip(out_hb, out_gen):
            assert np.all(a == b)  # bit-for-bit


class TestRun:
    def test_quadratic_converges(self):
        p = synthetic("quadratic")
        x0 = np.array([1.0, 0.0])
        tr = run(p, x0, x0, MomentumParams(alpha=0.1, beta=0.5),
                 StopRules(max_iters=100_000, grad_tol=1e-10))
        assert tr.stop_reason == "grad_tol"
        assert tr.grad_norms[-1] < 1e-10

    def test_zero_problem_gives_constant_trace(self):
        from momlab import matrix_factorization
        p = matrix_factorization(np.zeros((2, 2)), r=1)
        z = np.zeros(p.dim)
        tr = run(p, z, z, MomentumParams(alpha=0.1, beta=0.5), StopRules(max_iters=50))
        assert np.all(tr.points == 0.0)

    def test_quartic_finite_length(self):
        p = synthetic("quartic")
        x0 = np.array([1.0])
        tr = run(p, x0, x0, MomentumParams(alpha=0.01, beta=0.5),
                 StopRules(max_iters=5000, grad_tol=1e-12))
        lengths = tr.step_norms[1:]
        assert np.sum(lengths) < np.inf
        assert tr.f[-1] < 1e-4  # sublinear approach to the flat minimum at 0

    def test_replay_residuals_tiny(self):
        p = make_problem("matrix_factorization", seed=2)
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(p.dim) * 0.3
        tr = run(p, x0, x0, MomentumParams(alpha=0.01, beta=0.3, gamma=0.1),
                 StopRules(max_iters=200))
        assert np.max(tr.replay_residuals(p)) <= 1e-12

    def test_offset_objective_leaves_iterates_unchanged(self):
        base = synthetic("quadratic")
        shifted = Problem(
            name="quadratic+7",
            dim=base.dim,
            value=lambda x: base.value(x) + 7.0,
            gradient=base.gradient,
            hessian_vec=base.hessian_vec,
        )
        x0 = np.array([1.3, -0.4])
        tr1 = run(base, x0, x0, MomentumParams(alpha=0.1, beta=0.5), StopRules(max_iters=100))
        tr2 = run(shifted, x0, x0, MomentumParams(alpha=0.1, beta=0.5), StopRules(max_iters=100))
        assert np.all(tr1.points == tr2.points)

    def test_initial_velocity_warning(self):
        p = synthetic("quadratic")
        with pytest.warns(UserWarning, match="initial velocity"):
            run(p, np.zeros(2), np.array([1.0, 0.0]),
                MomentumParams(alpha=0.1, beta=0.5, delta=0.0), StopRules(max_iters=3))

    def test_box_escape_recorded(self):
        p = synthetic("indefinite_quadratic")
        x0 = np.array([0.0, 0.1])
        tr = run(p, x0, x0, MomentumParams(alpha=0.2, beta=0.5),
                 StopRules(max_iters=10_000, box_radius=5.0))
        assert tr.stop_reason == "left_box"

    def test_divergence_detected(self):
        p = synthetic("quadratic")
        x0 = np.array([1.0, 0.0])
        with np.errstate(over="ignore"):
            tr = run(p, x0, x0, MomentumParams(alpha=1e6, beta=0.9),
                     StopRules(max_iters=10_000))
        assert tr.stop_reason in ("diverged", "left_box")

    @pytest.mark.parametrize("params, grad_tol, single_grads, stacked_grads", [
        # K single-point gradients at y_gamma; the grads column is batched
        (MomentumParams(0.01, 0.5, 0.3), 0.0, lambda K: K, lambda K: K + 2),
        (MomentumParams.nesterov(0.01, 0.5), 0.0, lambda K: K, lambda K: K + 2),
        # heavy ball steps with the stored grad f(x_k), x_{-1} and x_0 included
        (MomentumParams.heavy_ball(0.01, 0.5), 0.0, lambda K: K + 2, lambda K: 0),
        # grad_tol needs grad f(x_k) at every iterate as well
        (MomentumParams(0.01, 0.5, 0.3), 1e-12, lambda K: 2 * K + 2, lambda K: 0),
    ], ids=["generic", "nesterov", "heavy_ball", "generic_grad_tol"])
    def test_evaluated_rows_per_step(self, params, grad_tol, single_grads, stacked_grads,
                                     counted):
        base = make_problem("matrix_factorization")
        # [single-point calls, rows of stacked calls]
        p, counts = counted(base)
        x0 = np.random.default_rng(3).standard_normal(base.dim) * 0.3
        stop = StopRules(max_iters=40, grad_tol=grad_tol)
        tr = run(p, x0, x0, params, stop)
        K = tr.num_steps
        assert K == 40
        assert counts["gradient"] == [single_grads(K), stacked_grads(K)]
        assert counts["value"] == [0, K + 2]
        points, f, grads, reason = reference_run(base, x0, x0, params, stop)
        assert np.array_equal(tr.points, points) and tr.stop_reason == reason
        assert np.array_equal(tr.f, f) and np.array_equal(tr.grads, grads)
        assert tr.grads.flags.c_contiguous

    def test_value_overflow_cuts_trace_after_x_minus1(self):
        # f overflows at x_{-1} (never checked) and again at x_1, where
        # grad f is still finite: the trace ends at x_1 as 'diverged'
        base = synthetic("quadratic")
        p = Problem(name="overflowing", dim=2, value=lambda z: base.value(z) * 2.0**1000,
                    gradient=base.gradient)
        x_m1, x0 = np.array([2e4, 0.0]), np.array([1.0, 0.0])
        params, stop = MomentumParams(0.1, 0.5, 0.2, delta=1e6), StopRules(max_iters=5)
        with np.errstate(over="ignore"):
            tr = run(p, x_m1, x0, params, stop)
            points, f, grads, reason = reference_run(p, x_m1, x0, params, stop)
        assert tr.stop_reason == reason == "diverged" and tr.num_steps == 1
        assert np.array_equal(tr.points, points)
        assert np.array_equal(tr.f, f) and np.array_equal(tr.grads, grads)

    def test_step_norms_computed_once(self):
        p = synthetic("quadratic")
        x0 = np.array([1.0, 0.5])
        tr = run(p, x0, x0, MomentumParams(alpha=0.1, beta=0.2), StopRules(max_iters=20))
        sn = tr.step_norms
        assert tr.step_norms is sn and not sn.flags.writeable
        assert np.array_equal(sn, np.linalg.norm(np.diff(tr.points, axis=0), axis=1))

    def test_grad_norms_computed_once(self):
        p = synthetic("quadratic")
        x0 = np.array([1.0, 0.5])
        tr = run(p, x0, x0, MomentumParams(alpha=0.1, beta=0.2), StopRules(max_iters=20))
        gn = tr.grad_norms
        assert tr.grad_norms is gn and not gn.flags.writeable
        assert np.array_equal(gn, np.linalg.norm(tr.grads, axis=1))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("params", [MomentumParams(0.5, 0.5, 0.3),
                                        MomentumParams.heavy_ball(0.5, 0.5)],
                             ids=["generic", "heavy_ball"])
    def test_non_finite_component_stops_at_the_reference_step(self, bad, params):
        # x_next turns non-finite in one component, with no floating-point
        # warning on the way (the finiteness test adds none)
        self._assert_blow_up_stops(bad, params, StopRules(max_iters=100))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("params", [MomentumParams(0.5, 0.5, 0.3),
                                        MomentumParams.heavy_ball(0.5, 0.5)],
                             ids=["generic", "heavy_ball"])
    def test_non_finite_component_in_a_finite_box_stops_at_the_reference_step(self, bad,
                                                                            params):
        # in a finite box the box distance's dot product is the finiteness
        # test: inf and NaN pass through it with no warning either
        self._assert_blow_up_stops(bad, params, StopRules(max_iters=100, box_radius=1e6))

    @staticmethod
    def _blow_up(bad, value=lambda z: 0.5 * (z[..., 0] ** 2 + z[..., 1] ** 2)):
        """Ascent on ||x||^2 / 2 whose gradient's second component turns `bad`
        once the first coordinate passes 3."""
        return Problem(
            name="blow_up", dim=2,
            value=value,
            gradient=lambda z: np.stack(
                [-z[..., 0], np.where(z[..., 0] > 3.0, bad, -z[..., 1])], axis=-1),
        )

    def _assert_blow_up_stops(self, bad, params, stop):
        p = self._blow_up(bad)
        x0 = np.array([1.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run(p, x0, x0, params, stop)
        points, f, grads, reason = reference_run(p, x0, x0, params, stop)
        assert tr.stop_reason == reason == "diverged" and 0 < tr.num_steps < 100
        assert np.array_equal(tr.points, points)
        assert np.array_equal(tr.f, f) and np.array_equal(tr.grads, grads, equal_nan=True)

    @pytest.mark.parametrize("far", [1e250, -1e160])
    @pytest.mark.parametrize("params", [MomentumParams(0.5, 0.5, 0.3),
                                        MomentumParams.heavy_ball(0.5, 0.5)],
                             ids=["generic", "heavy_ball"])
    def test_far_out_finite_iterate_leaves_the_box(self, far, params):
        # the iterate jumps to a finite point whose squared distance from x_0
        # overflows: the slow finiteness test finds it finite, so the run
        # stops 'left_box' at the reference step, not 'diverged'; f stays finite
        p = self._blow_up(far, value=lambda z: 0.5 * z[..., 0] ** 2)
        x0 = np.array([1.0, 0.5])
        stop = StopRules(max_iters=100, box_radius=1e6)
        with np.errstate(over="ignore"):
            tr = run(p, x0, x0, params, stop)
            points, f, grads, reason = reference_run(p, x0, x0, params, stop)
        assert tr.stop_reason == reason == "left_box" and 0 < tr.num_steps < 100
        assert np.all(np.isfinite(tr.points)) and abs(tr.points[-1, 1]) > 1e150
        assert np.array_equal(tr.points, points)
        assert np.array_equal(tr.f, f) and np.array_equal(tr.grads, grads)

    @pytest.mark.parametrize("params", [MomentumParams(0.5, 0.5, 0.3),
                                        MomentumParams.heavy_ball(0.5, 0.5)],
                             ids=["generic", "heavy_ball"])
    def test_last_step_takes_no_box_distance(self, params):
        # a max_iters run whose last iterate is that far-out point stops
        # 'max_iters' with no overflow warning: no distance is taken on the
        # last step, which nothing would read
        p = self._blow_up(1e250, value=lambda z: 0.5 * z[..., 0] ** 2)
        x0 = np.array([1.0, 0.5])
        with np.errstate(over="ignore"):
            steps = run(p, x0, x0, params, StopRules(max_iters=100, box_radius=1e6)).num_steps
        stop = StopRules(max_iters=steps, box_radius=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run(p, x0, x0, params, stop)
        points, _, _, reason = reference_run(p, x0, x0, params, stop)
        assert tr.stop_reason == reason == "max_iters" and tr.num_steps == steps
        assert np.array_equal(tr.points, points) and abs(tr.points[-1, 1]) > 1e150

    def test_finite_component_near_overflow_does_not_stop(self):
        # the first coordinate sits at 1.5e308 and never moves: finite, so the
        # run goes on
        p = Problem(
            name="far_out", dim=2,
            value=lambda z: 0.5 * z[..., 1] ** 2,
            gradient=lambda z: np.stack([0.0 * z[..., 1], z[..., 1]], axis=-1),
        )
        x0 = np.array([1.5e308, 0.5])
        params, stop = MomentumParams(0.1, 0.5, 0.2), StopRules(max_iters=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run(p, x0, x0, params, stop)
        points, _, _, reason = reference_run(p, x0, x0, params, stop)
        assert tr.stop_reason == reason == "max_iters" and tr.num_steps == 10
        assert np.array_equal(tr.points, points) and np.all(tr.points[:, 0] == 1.5e308)


class TestRecordingBuffer:
    """run() records into a buffer of 64 points that doubles up to max_iters + 2;
    its traces must not depend on where the buffer grew."""

    PARAMS = {"generic": MomentumParams(0.05, 0.5, 0.3),
              "heavy_ball": MomentumParams.heavy_ball(0.05, 0.5)}

    @pytest.mark.parametrize("preset", ["generic", "heavy_ball"])
    @pytest.mark.parametrize("max_iters", [0, 1, 61, 62, 63, 64, 126, 127, 128, 254, 255, 300])
    def test_max_iters_at_growth_boundaries(self, preset, max_iters):
        p = make_problem("matrix_factorization")
        x0 = np.random.default_rng(4).standard_normal(p.dim) * 0.3
        stop = StopRules(max_iters=max_iters)
        tr = run(p, x0, x0, self.PARAMS[preset], stop)
        points, f, grads, reason = reference_run(p, x0, x0, self.PARAMS[preset], stop)
        assert tr.num_steps == max_iters and tr.stop_reason == reason
        assert np.array_equal(tr.points, points)
        assert np.array_equal(tr.f, f) and np.array_equal(tr.grads, grads)

    @pytest.mark.parametrize("preset", ["generic", "heavy_ball"])
    @pytest.mark.parametrize("steps", [61, 62, 63, 126, 127])
    def test_grad_tol_stop_around_a_growth(self, preset, steps):
        # gradient descent on ||x||^2 / 2 shrinks ||grad f(x_k)|| = ||x_k||
        # every step: a tolerance between two norms stops at a chosen step
        p = synthetic("quadratic", dim=3)
        x0 = np.array([1.0, -0.5, 0.25])
        params = MomentumParams(0.05, 0.0, 0.1 if preset == "generic" else 0.0, preset)
        _, _, grads, _ = reference_run(p, x0, x0, params, StopRules(max_iters=200))
        norms = np.linalg.norm(grads, axis=1)
        stop = StopRules(max_iters=10**12, grad_tol=0.5 * (norms[steps] + norms[steps + 1]))
        tr = run(p, x0, x0, params, stop)
        points, f, grads, reason = reference_run(p, x0, x0, params, stop)
        assert tr.stop_reason == reason == "grad_tol" and tr.num_steps == steps
        assert np.array_equal(tr.points, points)
        assert np.array_equal(tr.f, f) and np.array_equal(tr.grads, grads)

    @pytest.mark.parametrize("params", [MomentumParams(0.5, 0.2, 0.3),
                                        MomentumParams.heavy_ball(0.5, 0.2)],
                             ids=["generic", "heavy_ball"])
    @pytest.mark.parametrize("steps", [62, 63, 64, 127])
    def test_divergence_right_after_a_growth(self, params, steps):
        # ascent on ||x||^2 / 2 whose gradient turns infinite past a limit on
        # the first coordinate, set between y_{steps-1}^gamma and y_steps^gamma:
        # x_{steps+1} is the first non-finite iterate
        def problem(limit):
            return Problem(
                name="blow_up", dim=2,
                value=lambda z: 0.5 * (z[..., 0] ** 2 + z[..., 1] ** 2),
                gradient=lambda z: np.stack(
                    [-z[..., 0], np.where(z[..., 0] > limit, np.inf, -z[..., 1])], axis=-1),
            )

        x0 = np.array([1.0, 0.5])
        stop = StopRules(max_iters=1000)
        pts, _, _, _ = reference_run(problem(np.inf), x0, x0, params, StopRules(max_iters=200))
        y = pts[1:] + params.gamma * (pts[1:] - pts[:-1])  # y[k] = y_k^gamma
        p = problem(0.5 * (y[steps - 1, 0] + y[steps, 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = run(p, x0, x0, params, stop)
        points, f, grads, reason = reference_run(p, x0, x0, params, stop)
        assert tr.stop_reason == reason == "diverged" and tr.num_steps == steps
        assert np.array_equal(tr.points, points)
        assert np.array_equal(tr.f, f) and np.array_equal(tr.grads, grads)

    def test_heavy_ball_run_peaks_near_its_trace(self):
        # the recorded points and gradients of 20,000 steps, plus one old
        # buffer while the last growth copies it, and row blocks
        p = matrix_factorization(np.random.default_rng(0).standard_normal((8, 8)), r=3)
        x0 = np.random.default_rng(1).standard_normal(p.dim) * 0.05
        tr, peak = traced_peak(lambda: run(p, x0, x0, MomentumParams.heavy_ball(1e-3, 0.5),
                                           StopRules(max_iters=20_000)))
        assert tr.num_steps == 20_000 and tr.stop_reason == "max_iters"
        assert peak < 1.6 * (tr.points.nbytes + tr.grads.nbytes)


class TestSafeAlpha:
    def test_numpy_m_with_subnormal_beta_does_not_warn(self):
        # the second bound overflows to inf, which min() discards; with a
        # numpy M the division used to warn
        params = MomentumParams.heavy_ball(1e-6, 5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert safe_alpha(np.float64(2.0), params) == safe_alpha(2.0, params) == 0.5

    def test_subnormal_beta_underflowing_denominator_returns_inverse_m(self):
        # 2 (beta^2 + 2|beta - gamma|) M underflows to 0.0 here
        assert safe_alpha(0.125, MomentumParams(0.01, 5e-324, 0.0)) == 8.0

    def test_golden_values(self):
        assert safe_alpha(2.0, MomentumParams(0.5, 0.5, 0.5)) == pytest.approx(0.5)
        assert safe_alpha(1.0, MomentumParams(0.3, 0.5, 0.0)) == pytest.approx(0.3)

    def test_zero_momentum_returns_inverse_m(self):
        assert safe_alpha(4.0, MomentumParams(0.1)) == 0.25

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            safe_alpha(0.0, MomentumParams(0.1))

    @given(
        m=st.floats(0.1, 50),
        beta=st.floats(-0.95, 0.95),
        gamma=st.floats(-2, 2),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_positive_and_below_inverse_m(self, m, beta, gamma):
        bar = safe_alpha(m, MomentumParams(0.01, beta, gamma))
        assert 0 < bar <= 1.0 / m + 1e-15

    def test_convergence_within_safe_step(self):
        p = synthetic("quadratic")
        params = MomentumParams(alpha=safe_alpha(1.0, MomentumParams(0.01, 0.5, 0.0)),
                                beta=0.5)
        x0 = np.array([1.0, 0.0])
        tr = run(p, x0, x0, params, StopRules(max_iters=100_000, grad_tol=1e-10))
        assert tr.stop_reason == "grad_tol"
