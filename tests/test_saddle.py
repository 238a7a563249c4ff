import numpy as np
import pytest
from conftest import ALL_KINDS, make_problem, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab import (
    MomentumParams,
    Problem,
    StopRules,
    analyze_critical_point,
    characteristic_roots,
    dense_hessian,
    escape_experiment,
    map_jacobian,
    matrix_factorization,
    momentum_map,
    run,
    safe_alpha,
    saddle_safe_alpha,
    synthetic,
)
from momlab.optimizer import _ROW_BLOCK
from momlab import saddle
from momlab.saddle import DENSE_HESSIAN_MAX_DIM, _escape_alpha_bound, rank_condition_holds

P_HB = MomentumParams(0.1, 0.5, 0.0)


class TestCharacteristicRoots:
    def test_negative_eigenvalue_golden(self):
        r1, r2 = characteristic_roots(-1.0, P_HB)
        assert r1.imag == 0.0
        assert abs(r1) == pytest.approx(1.1742, abs=1e-4)
        assert r2.real == pytest.approx(0.42583, abs=1e-4)

    def test_positive_eigenvalue_complex_pair(self):
        r1, r2 = characteristic_roots(1.0, P_HB)
        assert r1.imag != 0.0
        assert abs(r1) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert abs(r1) < 1.0

    def test_roots_solve_quadratic(self):
        for d in (-3.0, -0.2, 0.0, 0.7, 5.0):
            params = MomentumParams(0.05, 0.4, 0.2)
            a_, b_, g_ = params.alpha, params.beta, params.gamma
            for r in characteristic_roots(d, params):
                val = r * r + (a_ * (1 + g_) * d - (1 + b_)) * r + (b_ - a_ * g_ * d)
                assert abs(val) < 1e-12

    @given(
        d=st.floats(-10.0, -1e-3),
        alpha=st.floats(1e-3, 0.5),
        beta=st.floats(-0.9, 0.9),
        gamma=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_negative_eigenvalue_forces_unstable_root(self, d, alpha, beta, gamma):
        # phi(1) = alpha * d < 0, so a real root exceeds 1
        r1, _ = characteristic_roots(d, MomentumParams(alpha, beta, gamma))
        assert r1.imag == 0.0
        assert max(r.real for r in characteristic_roots(d, MomentumParams(alpha, beta, gamma))) > 1.0


class TestJacobian:
    def test_fixed_point_identity(self):
        p = synthetic("indefinite_quadratic")
        x = np.zeros(2)
        top, bottom = momentum_map(p, x, x, P_HB)
        assert np.all(top == x) and np.all(bottom == x)

    def test_product_identity_small_dims(self):
        # det(lambda I - F'(x,x)) equals the product of the per-eigenvalue quadratics
        rng = np.random.default_rng(7)
        for seed in range(3):
            p = make_problem("matrix_factorization", seed=seed)  # dim 12 <= 20
            x = rng.standard_normal(p.dim) * 0.6
            params = MomentumParams(0.05, 0.4, 0.3)
            J = map_jacobian(p, x, params)
            eigs = np.linalg.eigvalsh(dense_hessian(p, x))
            for lam in rng.uniform(-2.0, 2.0, size=20):
                det = np.linalg.det(lam * np.eye(2 * p.dim) - J)
                prod = np.prod([
                    lam**2 + (params.alpha * (1 + params.gamma) * d - (1 + params.beta)) * lam
                    + params.beta - params.alpha * params.gamma * d
                    for d in eigs
                ])
                assert det == pytest.approx(prod, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_dense_hessian_equals_unit_vector_products(self, kind, monkeypatch):
        # blocks of two directions, so every family's H spans several calls
        monkeypatch.setattr(saddle, "_ROW_BLOCK", 2)
        p = make_problem(kind)
        x = np.random.default_rng(3).standard_normal(p.dim)
        H = np.column_stack([p.hessian_vec(x, e) for e in np.eye(p.dim)])
        assert np.array_equal(dense_hessian(p, x), 0.5 * (H + H.T))

    def test_dense_hessian_matches_known(self):
        p = synthetic("indefinite_quadratic")
        H = dense_hessian(p, np.array([0.3, -0.7]))
        assert np.allclose(H, np.diag([1.0, -1.0]))


class TestAnalyze:
    def test_indefinite_quadratic_is_strict_saddle(self):
        p = synthetic("indefinite_quadratic")
        res = analyze_critical_point(p, np.zeros(2), P_HB)
        assert res.classification == "strict_saddle"
        assert sorted(res.hessian_eigs) == pytest.approx([-1.0, 1.0])
        assert res.map_spectral_radius == pytest.approx(1.1742, abs=1e-4)
        assert any(abs(r) > 1 for _, r in res.unstable_roots)

    def test_convex_quadratic_is_local_min_candidate(self):
        p = synthetic("quadratic")
        alpha = 0.9 * safe_alpha(1.0, MomentumParams(1e-3, 0.5))
        res = analyze_critical_point(p, np.zeros(2), MomentumParams(alpha, 0.5))
        assert res.classification == "local_min_candidate"
        assert res.map_spectral_radius < 1.0

    def test_factorization_origin_eigs_are_singular_values(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((3, 3))
        p = matrix_factorization(M, r=1)
        res = analyze_critical_point(p, np.zeros(p.dim), P_HB)
        assert res.classification == "strict_saddle"
        svals = np.linalg.svd(M, compute_uv=False)
        nonzero = np.sort(np.abs(res.hessian_eigs))[-2:]
        assert nonzero == pytest.approx([2 * svals[0], 2 * svals[0]], rel=1e-8)
        assert res.hessian_eigs[0] == pytest.approx(-2 * svals[0], rel=1e-8)

    def test_rejects_noncritical_point(self):
        p = synthetic("quadratic")
        with pytest.raises(ValueError, match="critical"):
            analyze_critical_point(p, np.array([1.0, 0.0]), P_HB)

    def test_degenerate_zero_hessian(self):
        p = matrix_factorization(np.zeros((2, 2)), r=1)
        res = analyze_critical_point(p, np.zeros(p.dim), P_HB)
        assert res.classification == "degenerate"

    @pytest.mark.parametrize("params", [MomentumParams(0.27, 0.5), MomentumParams(0.05, -0.3, 0.2)])
    def test_for_params_equals_fresh_analysis(self, params):
        rng = np.random.default_rng(11)
        p = matrix_factorization(rng.standard_normal((3, 3)), r=1)
        probe = analyze_critical_point(p, np.zeros(p.dim), MomentumParams(1e-6, 0.5))
        moved = probe.for_params(params)
        fresh = analyze_critical_point(p, np.zeros(p.dim), params)
        assert moved.to_dict() == fresh.to_dict()
        assert probe.to_dict() != fresh.to_dict()

    def test_rejects_dim_above_dense_limit_before_evaluating(self):
        def unreachable(*args):
            raise AssertionError("evaluated above the dense limit")

        dim = DENSE_HESSIAN_MAX_DIM + 1
        p = Problem("wide", dim, unreachable, unreachable, hessian_vec=unreachable)
        with pytest.raises(ValueError, match=f"dim {dim}: .* dim <= {DENSE_HESSIAN_MAX_DIM}"):
            analyze_critical_point(p, np.zeros(dim), P_HB)


class TestSaddleSafeAlpha:
    def test_gamma_zero_gives_abs_beta(self):
        assert saddle_safe_alpha(100.0, P_HB) == pytest.approx(0.5)

    def test_golden(self):
        assert saddle_safe_alpha(4.0, MomentumParams(0.05, 0.5, 1.0)) == pytest.approx(0.1)

    def test_rejects_beta_zero(self):
        with pytest.raises(ValueError, match="beta"):
            saddle_safe_alpha(1.0, MomentumParams(0.1, 0.0, 0.0))

    def test_rank_condition(self):
        assert rank_condition_holds(10.0, P_HB)  # gamma = 0: holds for all alpha
        assert not rank_condition_holds(4.0, MomentumParams(0.2, 0.5, 1.0))

    @given(m=st.floats(0.0, 50.0), beta=st.floats(0.01, 0.9), gamma=st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_alpha_at_threshold_satisfies_rank_condition(self, m, beta, gamma):
        params = MomentumParams(0.01, beta, gamma)
        bar = saddle_safe_alpha(m, params)
        at_bar = MomentumParams(bar, beta, gamma)
        # |beta| > alpha |gamma| M~ strictly, unless gamma*M~ saturates
        assert abs(beta) >= at_bar.alpha * abs(gamma) * m - 1e-12

    def test_map_jacobian_full_rank_below_threshold(self):
        # det(beta I - alpha gamma H) != 0 makes the pair map a local
        # diffeomorphism; check the actual determinant at sampled points
        p = make_problem("matrix_factorization", seed=1)
        rng = np.random.default_rng(0)
        m_tilde = 0.0
        pts = [rng.standard_normal(p.dim) for _ in range(5)]
        for x in pts:
            H = dense_hessian(p, x)
            m_tilde = max(m_tilde, np.max(np.abs(np.linalg.eigvalsh(H))))
        params = MomentumParams(
            0.9 * saddle_safe_alpha(m_tilde, MomentumParams(1e-6, 0.5, 0.8)), 0.5, 0.8
        )
        for x in pts:
            H = dense_hessian(p, x)
            block = params.beta * np.eye(p.dim) - params.alpha * params.gamma * H
            assert abs(np.linalg.det(block)) > 1e-12
            J = map_jacobian(p, x, params, y=x)
            assert np.linalg.matrix_rank(J) == 2 * p.dim


class TestEscape:
    def test_indefinite_quadratic_all_trials_escape(self):
        p = synthetic("indefinite_quadratic")
        params = MomentumParams(0.9 * min(safe_alpha(1.0, P_HB), 0.5), 0.5)
        exp = escape_experiment(p, np.zeros(2), params, radius=1e-3, trials=20, seed=3,
                                stop=StopRules(max_iters=20_000, grad_tol=1e-9, box_radius=10.0))
        assert exp.escape_fraction == 1.0
        assert exp.n_at_saddle == 0

    def test_study_memory_does_not_grow_with_row_blocks(self):
        # a study keeps x_K, grad f(x_K) and K per trial, and its lockstep
        # blocks fit one byte budget for all trials: 1,000 more trials must add
        # far less than a block of _ROW_BLOCK points and gradients per trial
        # (2 x 1,000 x 256 x 2 x 8 B = 8.2 MB)
        p = synthetic("indefinite_quadratic")
        params = MomentumParams(0.27, 0.5)
        stop = StopRules(max_iters=20_000, grad_tol=1e-9, box_radius=10.0)
        peaks = [traced_peak(lambda: escape_experiment(p, np.zeros(2), params, radius=1e-3,
                                                       trials=trials, stop=stop))[1]
                 for trials in (1000, 2000)]
        assert peaks[1] - peaks[0] < 1000 * _ROW_BLOCK * p.dim * 8 / 4

    def test_study_evaluates_f_once_per_point_in_stacked_calls(self, counted):
        p, counts = counted(synthetic("indefinite_quadratic"))
        params = MomentumParams(0.27, 0.5)
        analysis = analyze_critical_point(p, np.zeros(2), params)
        counts["value"][:] = counts["gradient"][:] = [0, 0]
        exp = escape_experiment(p, np.zeros(2), params, radius=1e-3, trials=50, seed=1,
                                stop=StopRules(max_iters=5_000, grad_tol=1e-9, box_radius=10.0),
                                analysis=analysis)
        assert counts["value"] == [0, sum(o["iters"] + 2 for o in exp.outcomes)]
        assert counts["gradient"][0] == 0

    def test_stable_axis_converges_to_saddle(self):
        p = synthetic("indefinite_quadratic")
        params = MomentumParams(0.27, 0.5)
        x0 = np.array([0.5, 0.0])  # second coordinate stays identically zero
        trace = run(p, x0, x0, params, StopRules(max_iters=50_000, grad_tol=1e-10))
        assert trace.stop_reason == "grad_tol"
        assert np.linalg.norm(trace.x(trace.num_steps)) < 1e-5
        assert np.all(trace.points[:, 1] == 0.0)

    def test_determinism(self):
        p = synthetic("indefinite_quadratic")
        params = MomentumParams(0.27, 0.5)
        kw = dict(radius=1e-3, trials=3, seed=12,
                  stop=StopRules(max_iters=5_000, grad_tol=1e-9, box_radius=10.0))
        a = escape_experiment(p, np.zeros(2), params, **kw)
        b = escape_experiment(p, np.zeros(2), params, **kw)
        assert a.outcomes == b.outcomes

    def test_given_analysis_gives_the_same_study(self):
        p = synthetic("indefinite_quadratic")
        params = MomentumParams(0.27, 0.5)
        kw = dict(radius=1e-3, trials=3, seed=12,
                  stop=StopRules(max_iters=5_000, grad_tol=1e-9, box_radius=10.0))
        analysis = analyze_critical_point(p, np.zeros(2), MomentumParams(1e-6, 0.5))
        a = escape_experiment(p, np.zeros(2), params, analysis=analysis, **kw)
        assert a.outcomes == escape_experiment(p, np.zeros(2), params, **kw).outcomes
        with pytest.raises(ValueError, match="another point"):
            escape_experiment(p, np.full(2, 1e-12), params, analysis=analysis, **kw)

    def test_rejects_non_saddle(self):
        p = synthetic("quadratic")
        params = MomentumParams(0.27, 0.5)
        with pytest.raises(ValueError, match="strict_saddle"):
            escape_experiment(p, np.zeros(2), params, radius=1e-3, trials=2)

    def test_rejects_oversized_alpha(self):
        p = synthetic("indefinite_quadratic")
        params = MomentumParams(0.49, 0.5)  # above safe_alpha(1.0) = 0.3
        with pytest.raises(ValueError, match="alpha"):
            escape_experiment(p, np.zeros(2), params, radius=1e-3, trials=2)

    def test_accepts_alpha_at_the_bound_and_rejects_the_next_above(self):
        p = synthetic("indefinite_quadratic")
        probe = MomentumParams(1e-6, 0.5, 0.3)
        bound = _escape_alpha_bound(analyze_critical_point(p, np.zeros(2), probe), probe)
        kw = dict(radius=1e-3, trials=2, stop=StopRules(max_iters=5))
        exp = escape_experiment(p, np.zeros(2), MomentumParams(bound, 0.5, 0.3), **kw)
        assert exp.params.alpha == bound
        over = np.nextafter(bound * (1.0 + 1e-12), np.inf)
        with pytest.raises(ValueError, match=f"exceeds .* threshold {bound:.6g}$"):
            escape_experiment(p, np.zeros(2), MomentumParams(over, 0.5, 0.3), **kw)

    def test_json_export(self, tmp_path):
        p = synthetic("indefinite_quadratic")
        params = MomentumParams(0.27, 0.5)
        exp = escape_experiment(p, np.zeros(2), params, radius=1e-3, trials=2, seed=0,
                                stop=StopRules(max_iters=5_000, grad_tol=1e-9, box_radius=10.0))
        f = tmp_path / "saddle.json"
        exp.to_json(f)
        import json

        data = json.loads(f.read_text())
        assert data["escape_fraction"] == 1.0
        assert len(data["outcomes"]) == 2
        assert data["config"]["seed"] == 0
