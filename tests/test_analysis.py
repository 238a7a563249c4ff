import dataclasses
import warnings

import numpy as np
import pytest
from conftest import make_problem

from momlab import (
    Desingularizer,
    FitError,
    MomentumParams,
    StopRules,
    build_certificate,
    check_rate,
    estimate_lipschitz,
    fit_desingularizer,
    measure_length,
    run,
    safe_alpha,
    synthetic,
)


def quadratic_run(iters=3000, alpha=None, beta=0.5):
    p = synthetic("quadratic")
    x0 = np.array([1.0, 0.0])
    L, M = estimate_lipschitz(p, np.zeros(2), 4.0, mode="analytic", reach=beta)
    a = alpha if alpha is not None else 0.9 * safe_alpha(M, MomentumParams(1e-3, beta))
    params = MomentumParams(a, beta)
    trace = run(p, x0, x0, params, StopRules(max_iters=iters))
    cert = build_certificate(M, L, params, np.zeros(2), 4.0)
    return p, trace, cert


class TestDesingularizer:
    def test_form_and_majorant(self):
        psi = Desingularizer(c=2.0, theta=0.5, inflation=1.5)
        assert psi(0.0) == 0.0
        assert psi(4.0) == pytest.approx(4.0)
        assert psi.majorant(4.0) == pytest.approx(6.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Desingularizer(c=-1.0, theta=0.5)
        with pytest.raises(ValueError):
            Desingularizer(c=1.0, theta=1.5)
        with pytest.raises(ValueError):
            Desingularizer(c=1.0, theta=0.5, inflation=0.5)


class TestFit:
    def test_recovers_quadratic_exponent(self):
        _, trace, _ = quadratic_run()
        psi = fit_desingularizer(trace.f[1:], trace.grad_norms[1:], f_star=0.0)
        assert psi.theta == pytest.approx(0.5, abs=0.02)
        assert psi.c == pytest.approx(np.sqrt(2.0), rel=0.02)
        assert psi.r2 > 0.999

    def test_recovers_quartic_exponent(self):
        p = synthetic("quartic")
        x0 = np.array([1.0])
        trace = run(p, x0, x0, MomentumParams(0.02, 0.5), StopRules(max_iters=4000))
        psi = fit_desingularizer(trace.f[1:], trace.grad_norms[1:], f_star=0.0)
        assert psi.theta == pytest.approx(0.25, abs=0.02)

    def test_scaling_shifts_c_not_theta(self):
        _, trace, _ = quadratic_run()
        f, g = trace.f[1:], trace.grad_norms[1:]
        psi1 = fit_desingularizer(f, g, f_star=0.0)
        psi2 = fit_desingularizer(2.0 * f, 2.0 * g, f_star=0.0)
        assert psi2.theta == pytest.approx(psi1.theta, abs=1e-9)
        assert psi2.c != pytest.approx(psi1.c, rel=1e-3)

    def test_default_f_star_from_tail(self):
        _, trace, _ = quadratic_run(iters=5000)
        psi = fit_desingularizer(trace.f[1:], trace.grad_norms[1:])
        assert 0.3 <= psi.theta <= 0.7

    def test_refuses_too_few_samples(self):
        with pytest.raises(FitError, match="samples"):
            fit_desingularizer(np.ones(5), np.ones(5), f_star=0.0)

    def test_refuses_noise_floor_gaps(self):
        f = np.full(100, 1e-15)
        g = np.full(100, 1e-8)
        with pytest.raises(FitError):
            fit_desingularizer(f, g, f_star=0.0)

    @pytest.mark.parametrize("intercept, slope, log_gaps", [
        # exp(-800) underflows: c would be 0
        (800.0, -1.0, (100.0, 700.0)),
        # exp(800) overflows: math.exp raises OverflowError
        (-800.0, 0.5, (600.0, 700.0)),
    ], ids=["c_underflows", "exp_overflows"])
    def test_refuses_a_scale_beyond_floats(self, intercept, slope, log_gaps):
        # samples on the exact power law log ||grad|| = slope * log gap + intercept
        lx = np.linspace(*log_gaps, 50)
        gaps, grads = np.exp(lx), np.exp(slope * lx + intercept)
        assert np.all(np.isfinite(gaps)) and np.all(grads > 0) and np.all(np.isfinite(grads))
        with pytest.raises(FitError, match="finite and positive"):
            fit_desingularizer(gaps, grads, f_star=0.0)

    def test_refuses_an_infinite_gradient_norm(self):
        # one overflowed norm makes the regression NaN, so c is NaN
        gaps = np.logspace(-1, -8, 60)
        grads = np.sqrt(gaps)
        grads[5] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(FitError, match="finite and positive"):
            fit_desingularizer(gaps, grads, f_star=0.0)

    def test_infinite_gradient_norm_is_refused_without_warnings(self):
        # the sample is named before the regression could warn on it
        gaps = np.logspace(-1, -8, 60)
        grads = np.sqrt(gaps)
        grads[5] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match="sample 5 has gradient norm inf"):
                fit_desingularizer(gaps, grads, f_star=0.0)

    def test_inflated_psi_majorizes_kl_samples(self):
        _, trace, _ = quadratic_run()
        f, g = trace.f[1:], trace.grad_norms[1:]
        psi = fit_desingularizer(f, g, f_star=0.0)
        keep = f > 1e-12
        gaps, grads = f[keep], g[keep]
        # KL inequality psi'(gap) * ||grad|| >= 1 with the inflated fit
        lhs = psi.inflation * psi.c * psi.theta * gaps ** (psi.theta - 1.0) * grads
        assert np.all(lhs >= 1.0 - 1e-9)

    def test_theta_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            gaps = np.sort(rng.uniform(1e-6, 1.0, size=50))[::-1]
            grads = gaps ** rng.uniform(0.1, 0.9) * rng.uniform(0.5, 2.0)
            psi = fit_desingularizer(gaps, grads, f_star=0.0)
            assert 0.0 < psi.theta <= 1.0


class TestRate:
    def test_certified_run_passes(self):
        _, trace, cert = quadratic_run()
        total, _ = measure_length(trace)
        rep = check_rate(trace, cert, total)
        assert rep.passed
        assert rep.telescope_ok
        assert rep.sup_product <= rep.c_alpha * (1 + 1e-9)

    def test_running_min_nonincreasing(self):
        _, trace, cert = quadratic_run()
        rep = check_rate(trace, cert, measure_length(trace)[0])
        assert np.all(np.diff(rep.running_min) <= 0.0 + 1e-300)

    def test_stationary_trace_passes(self):
        p = synthetic("quadratic")
        z = np.zeros(2)
        params = MomentumParams(0.1, 0.5)
        trace = run(p, z, z, params, StopRules(max_iters=10))
        cert = build_certificate(1.0, 1.0, params, z, 1.0)
        rep = check_rate(trace, cert, measure_length(trace)[0])
        assert rep.passed and rep.sup_product == 0.0

    def test_c_alpha_formula(self):
        _, trace, cert = quadratic_run()
        total, _ = measure_length(trace)
        rep = check_rate(trace, cert, total)
        expected = cert.b_alpha * (cert.params.delta * cert.params.alpha + 2 * total)
        assert rep.c_alpha == pytest.approx(expected, rel=1e-15)


class TestMeasureLength:
    def test_two_point_trace(self):
        p = synthetic("quadratic")
        x0 = np.array([1.0, 0.0])
        trace = run(p, x0, x0, MomentumParams(0.1), StopRules(max_iters=1))
        total, partial = measure_length(trace)
        assert total == pytest.approx(np.linalg.norm(trace.x(1) - trace.x(0)))
        assert len(partial) == 1

    def test_quadratic_geometric_series(self):
        p = synthetic("quadratic")
        alpha = 0.05
        x0 = np.array([1.0, 0.0])
        trace = run(p, x0, x0, MomentumParams(alpha), StopRules(max_iters=3000))
        total, _ = measure_length(trace)
        # plain gradient descent contracts by (1 - alpha) per step
        closed = np.linalg.norm(x0)  # sum alpha (1-alpha)^k = 1
        assert total == pytest.approx(closed, rel=0.05)

    def test_permutation_invariance(self):
        _, trace, _ = quadratic_run(iters=50)
        total, _ = measure_length(trace)
        perm = np.random.default_rng(0).permutation(trace.dim)
        shuffled = dataclasses.replace(trace, points=trace.points[:, perm])
        total2, _ = measure_length(shuffled)
        assert total2 == pytest.approx(total, rel=1e-15)

    def test_additive_over_concatenation(self):
        _, trace, _ = quadratic_run(iters=60)
        total, partial = measure_length(trace)
        k = 30
        assert partial[k - 1] + (total - partial[k - 1]) == pytest.approx(total)
        # partial sums are the lengths of the prefix traces
        prefix = np.sum(np.linalg.norm(np.diff(trace.points[1 : k + 3], axis=0), axis=1))
        assert partial[k] == pytest.approx(prefix)
