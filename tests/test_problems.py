import math

import numpy as np
import pytest
from conftest import ALL_KINDS, make_problem
from hypothesis import given, settings
from hypothesis import strategies as st

from momlab import (
    Problem,
    estimate_lipschitz,
    linear_network,
    matrix_factorization,
    matrix_sensing,
    synthetic,
)
from oracles import fd_gradient, fd_hessian_vec, rel_err

from momlab.problems import _row_norms, _unit_ball


def test_matrix_factorization_zero_target_origin_critical():
    p = matrix_factorization(np.zeros((2, 2)), r=1)
    z = np.zeros(p.dim)
    assert p.value(z) == 0.0
    assert np.all(p.gradient(z) == 0.0)


def test_matrix_factorization_identity_value():
    p = matrix_factorization(np.eye(2), r=1)
    # X = Y = (1, 0)^T -> X Y^T = diag(1, 0)
    z = np.array([1.0, 0.0, 1.0, 0.0])
    assert p.value(z) == pytest.approx(1.0)


def test_matrix_factorization_rejects_bad_input():
    with pytest.raises(ValueError):
        matrix_factorization(np.eye(2), r=0)
    with pytest.raises(ValueError):
        matrix_factorization(np.zeros(3), r=1)


def test_matrix_sensing_trivial_points():
    A = [np.eye(2)]
    p = matrix_sensing(A, [0.0], r=1)
    z = np.zeros(p.dim)
    assert p.value(z) == 0.0
    assert np.all(p.gradient(z) == 0.0)

    p2 = matrix_sensing(A, [1.0], r=1)
    z2 = np.array([1.0, 0.0, 1.0, 0.0])  # <I, diag(1,0)> = 1, exact fit
    assert p2.value(z2) == pytest.approx(0.0)


def test_matrix_sensing_rejects_count_mismatch():
    with pytest.raises(ValueError):
        matrix_sensing([np.eye(2)], [1.0, 2.0], r=1)


def test_linear_network_single_layer_is_least_squares():
    rng = np.random.default_rng(3)
    Xb, Yb = rng.standard_normal((2, 5)), rng.standard_normal((3, 5))
    p = linear_network(Xb, Yb, widths=(2, 3))
    W = rng.standard_normal((3, 2))
    z = W.ravel(order="F")
    E = W @ Xb - Yb
    assert p.value(z) == pytest.approx(float(np.sum(E * E)))
    assert np.allclose(p.gradient(z), (2.0 * E @ Xb.T).ravel(order="F"))


def test_linear_network_origin_is_critical_for_two_layers():
    rng = np.random.default_rng(4)
    Xb, Yb = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
    p = linear_network(Xb, Yb, widths=(2, 2, 2))
    z = np.zeros(p.dim)
    assert np.all(p.gradient(z) == 0.0)  # product rule kills both blocks


def test_linear_network_rejects_width_mismatch():
    with pytest.raises(ValueError):
        linear_network(np.zeros((2, 3)), np.zeros((2, 3)), widths=(3, 2))
    with pytest.raises(ValueError):
        linear_network(np.zeros((2, 3)), np.zeros((4, 3)), widths=(2, 3))


def test_synthetic_quadratic_values():
    p = synthetic("quadratic")
    x = np.array([3.0, 4.0])
    assert p.value(x) == pytest.approx(12.5)
    assert np.allclose(p.gradient(x), [3.0, 4.0])


def test_synthetic_indefinite_hessian_eigenvalues():
    p = synthetic("indefinite_quadratic")
    H = np.column_stack([p.hessian_vec(np.zeros(2), e) for e in np.eye(2)])
    assert sorted(np.linalg.eigvalsh(H)) == pytest.approx([-1.0, 1.0])


def test_synthetic_quartic_lojasiewicz_relation():
    p = synthetic("quartic")
    for x in [0.3, 0.9, 1.7]:
        g = np.linalg.norm(p.gradient(np.array([x])))
        f = p.value(np.array([x]))
        assert g == pytest.approx(4.0 * f**0.75, rel=1e-12)


def test_synthetic_unknown_name():
    with pytest.raises(ValueError):
        synthetic("rosenbrock")


def test_gradients_match_finite_differences(any_problem):
    p = any_problem
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=p.dim) * p.suggested_box / 2
        assert rel_err(fd_gradient(p.value, x), p.gradient(x)) < 1e-6


def test_hessian_vec_matches_fd_of_gradient(any_problem):
    p = any_problem
    rng = np.random.default_rng(12)
    for _ in range(10):
        x = rng.uniform(-1.0, 1.0, size=p.dim)
        v = rng.standard_normal(p.dim)
        hv = p.hessian_vec(x, v)
        assert rel_err(fd_hessian_vec(p.gradient, x, v), hv) < 1e-5


def test_hessian_vec_linear_and_symmetric(any_problem):
    p = any_problem
    rng = np.random.default_rng(13)
    x = rng.standard_normal(p.dim)
    u, v = rng.standard_normal(p.dim), rng.standard_normal(p.dim)
    a, b = 1.7, -0.4
    lin = p.hessian_vec(x, a * u + b * v)
    assert rel_err(lin, a * p.hessian_vec(x, u) + b * p.hessian_vec(x, v)) < 1e-10
    huv = float(p.hessian_vec(x, u) @ v)
    hvu = float(u @ p.hessian_vec(x, v))
    assert abs(huv - hvu) <= 1e-10 * (1.0 + abs(huv))


def test_values_finite_on_finite_inputs(any_problem):
    p = any_problem
    rng = np.random.default_rng(14)
    for scale in [1e-3, 1.0, 1e3]:
        x = rng.standard_normal(p.dim) * scale
        assert np.isfinite(p.value(x))
        assert np.all(np.isfinite(p.gradient(x)))


class TestEstimateLipschitz:
    def test_quadratic_analytic(self):
        p = synthetic("quadratic")
        c = np.array([3.0, 4.0])
        L, M = estimate_lipschitz(p, c, radius=2.0, mode="analytic")
        assert M == 1.0
        assert L == pytest.approx(5.0 + 2.0)

    def test_quartic_analytic_unit_ball(self):
        p = synthetic("quartic")
        L, M = estimate_lipschitz(p, np.zeros(1), radius=1.0, mode="analytic")
        assert M == pytest.approx(12.0)
        assert L == pytest.approx(4.0)

    def test_reach_inflates_ball(self):
        p = synthetic("quartic")
        _, M0 = estimate_lipschitz(p, np.zeros(1), 1.0, mode="analytic", reach=0.0)
        _, M1 = estimate_lipschitz(p, np.zeros(1), 1.0, mode="analytic", reach=0.5)
        assert M1 == pytest.approx(12.0 * 4.0)  # radius doubles, bound quadruples
        assert M1 > M0

    def test_sampled_dominates_empirical_quotients(self):
        p = make_problem("matrix_factorization")
        c = np.zeros(p.dim)
        L, M = estimate_lipschitz(p, c, radius=1.5, seed=5)
        rng = np.random.default_rng(99)
        for _ in range(200):
            u = rng.uniform(-1, 1, p.dim)
            v = rng.uniform(-1, 1, p.dim)
            u *= 1.5 / max(np.linalg.norm(u), 1.5)
            v *= 1.5 / max(np.linalg.norm(v), 1.5)
            quot = np.linalg.norm(p.gradient(u) - p.gradient(v)) / np.linalg.norm(u - v)
            assert quot <= M
            assert np.linalg.norm(p.gradient(u)) <= L

    def test_analytic_mf_dominates_sampled(self):
        p = make_problem("matrix_factorization")
        c = np.zeros(p.dim)
        La, Ma = estimate_lipschitz(p, c, 2.0, mode="analytic")
        Ls, Ms = estimate_lipschitz(p, c, 2.0, mode="sampled")
        assert Ma >= Ms / 2.0  # analytic bound dominates the raw empirical max
        assert La >= Ls / 2.0

    @pytest.mark.parametrize("kind", ["quadratic", "quartic", "matrix_factorization"])
    def test_sampled_monotone_in_radius_dyadic(self, kind):
        p = make_problem(kind)
        c = np.zeros(p.dim)
        prev = None
        for r in [0.5, 1.0, 2.0, 4.0]:
            L, M = estimate_lipschitz(p, c, r, seed=7)
            if prev is not None:
                assert M >= prev[1] - 1e-12
                assert L >= prev[0] - 1e-12
            prev = (L, M)

    def test_analytic_unavailable_for_sensing(self):
        p = make_problem("matrix_sensing")
        with pytest.raises(ValueError, match="analytic"):
            estimate_lipschitz(p, np.zeros(p.dim), 1.0, mode="analytic")


def per_rung_lipschitz(problem, center, radius, reach=0.0, pairs=1000, seed=0, safety=2.0):
    """The sampled estimate with two stacked gradient calls per rung, one for
    its p rows and one for its q rows: the reference for the estimate's
    bits, NaN included."""
    r_infl = (1.0 + 2.0 * max(reach, 0.0)) * radius
    rng = np.random.default_rng(seed)
    per_scale = max(int(math.ceil(pairs / 7)), 8)
    a = _unit_ball(rng, per_scale, problem.dim)
    b = _unit_ball(rng, per_scale, problem.dim)
    floor = min(2.0**-10, r_infl * 2.0**-6)
    scales, s = [], r_infl
    while s >= floor * (1.0 - 1e-12):
        scales.append(s)
        s *= 0.5
    max_grad = np.linalg.norm(problem.gradient(center))
    max_quot = 0.0
    for s in scales:
        p, q = center + s * a, center + s * b
        gp, gq = problem.gradient(p), problem.gradient(q)
        max_grad = max(max_grad, np.max(_row_norms(gp)), np.max(_row_norms(gq)))
        gap = _row_norms(p - q)
        apart = gap > 1e-12 * (1.0 + s)
        if apart.any():
            max_quot = max(max_quot, np.max(_row_norms(gp - gq)[apart] / gap[apart]))
    return safety * max_grad, safety * max_quot, len(scales), per_scale


def _nan_beyond(p, limit):
    """p whose gradient is NaN at every point farther than limit from the origin."""
    def gradient(z):
        g = np.array(p.gradient(z), dtype=float)
        g[np.linalg.norm(z, axis=-1) > limit] = np.nan
        return g
    return Problem(name=p.name, dim=p.dim, value=p.value, gradient=gradient)


class TestLipschitzCalls:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @given(seed=st.integers(0, 2**16), radius=st.sampled_from([0.5, 2.0, 10.0]),
           reach=st.sampled_from([0.0, 0.6]), nan_beyond=st.sampled_from([None, 1.0, 4.0]))
    @settings(max_examples=6, deadline=None)
    def test_estimate_equals_per_rung_reference(self, kind, seed, radius, reach, nan_beyond):
        p = make_problem(kind, seed)
        if nan_beyond is not None:
            p = _nan_beyond(p, nan_beyond)
        center = np.random.default_rng(seed).uniform(-0.5, 0.5, p.dim)
        with np.errstate(all="ignore"):
            L, M = estimate_lipschitz(p, center, radius, reach=reach, seed=seed)
            L_ref, M_ref, _, _ = per_rung_lipschitz(p, center, radius, reach=reach, seed=seed)
        assert np.array_equal([L, M], [L_ref, M_ref], equal_nan=True)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_one_stacked_call_per_rung(self, kind):
        p = make_problem(kind)
        calls = []

        def gradient(z):
            calls.append(np.shape(z))
            return p.gradient(z)

        counted = Problem(name=p.name, dim=p.dim, value=p.value, gradient=gradient)
        center = np.zeros(p.dim)
        estimate_lipschitz(counted, center, 10.0, reach=0.6)
        _, _, rungs, per_scale = per_rung_lipschitz(p, center, 10.0, reach=0.6)
        assert rungs == 15
        # the center, then each rung's p and q rows in one stacked call
        assert calls == [(p.dim,)] + [(2 * per_scale, p.dim)] * rungs
