"""One-point gradient kernels equal their stacked row and the frozen shared path, bit for bit.

matrix_factorization, matrix_sensing and linear_network each evaluate a
single point through a kernel of their own. It must give the same bits as
row b of a stacked call on that point, and as the frozen copy of the shared
code path in oracles.py, so that a change to both paths cannot slip through.
Shapes are drawn to hit the edges: m != n, rank 1 and rank above min(m, n),
one measurement, widths of 1 and a one-layer network, and the shapes where
ndarray.dot, which the kernels call, would take another path than @: a
product by a 1x1 operand, matrix-vector products and inner sizes of 1.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import factorization_gradient, network_gradient, sensing_gradient

from momlab import linear_network, matrix_factorization, matrix_sensing

SIDE = st.integers(1, 6)
RANK = st.integers(1, 8)
SCALES = st.sampled_from([1e-3, 0.3, 1.0, 10.0])
SEEDS = st.integers(0, 2**32 - 1)


def _assert_kernel(problem, oracle, rng, scale):
    """Each row of a random stack of three points, evaluated alone."""
    Z = rng.standard_normal((3, problem.dim)) * scale
    stacked = problem.gradient(Z)
    for b, z in enumerate(Z):
        g = problem.gradient(z)
        assert g.shape == (problem.dim,) and g.flags.c_contiguous
        assert g.tobytes() == stacked[b].tobytes()
        assert g.tobytes() == oracle(z).tobytes()


@given(m=SIDE, n=SIDE, r=RANK, seed=SEEDS, scale=SCALES)
@settings(max_examples=60, deadline=None)
def test_factorization_kernel(m, n, r, seed, scale):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    p = matrix_factorization(M, r)
    _assert_kernel(p, lambda z: factorization_gradient(M, r, z), rng, scale)


@given(m=SIDE, n=SIDE, r=RANK, count=st.integers(1, 6), seed=SEEDS, scale=SCALES)
@settings(max_examples=60, deadline=None)
def test_sensing_kernel(m, n, r, count, seed, scale):
    rng = np.random.default_rng(seed)
    A = [rng.standard_normal((m, n)) for _ in range(count)]
    b = rng.standard_normal(count)
    p = matrix_sensing(A, b, r)
    _assert_kernel(p, lambda z: sensing_gradient(A, b, r, z), rng, scale)


@given(widths=st.lists(st.integers(1, 5), min_size=2, max_size=5), samples=st.integers(1, 6),
       seed=SEEDS, scale=SCALES)
@settings(max_examples=60, deadline=None)
def test_network_kernel(widths, samples, seed, scale):
    rng = np.random.default_rng(seed)
    Xbar = rng.standard_normal((widths[0], samples))
    Ybar = rng.standard_normal((widths[-1], samples))
    p = linear_network(Xbar, Ybar, widths)
    _assert_kernel(p, lambda z: network_gradient(Xbar, Ybar, widths, z), rng, scale)


def test_kernels_at_edge_shapes():
    # each edge the kernels must handle, whatever the strategies draw
    rng = np.random.default_rng(0)
    for shape, r in [((2, 5), 4), ((3, 1), 1)]:  # m != n, r > min(m, n), rank 1
        M = rng.standard_normal(shape)
        _assert_kernel(matrix_factorization(M, r), lambda z: factorization_gradient(M, r, z),
                       rng, 1.0)
    A, b = [np.arange(6.0).reshape(2, 3)], np.array([1.0])  # one measurement
    _assert_kernel(matrix_sensing(A, b, 1), lambda z: sensing_gradient(A, b, 1, z), rng, 1.0)
    for widths in [(1, 1), (1, 3, 1), (3, 1, 2)]:  # one layer, widths of 1
        Xb = rng.standard_normal((widths[0], 3))
        Yb = rng.standard_normal((widths[-1], 3))
        _assert_kernel(linear_network(Xb, Yb, widths),
                       lambda z: network_gradient(Xb, Yb, widths, z), rng, 1.0)
    # 1x1 (scalar) operands, matrix-vector products and inner sizes of 1
    for shape, r in [((1, 1), 1), ((1, 1), 3), ((1, 4), 2), ((4, 1), 2)]:
        M = rng.standard_normal(shape)
        _assert_kernel(matrix_factorization(M, r), lambda z: factorization_gradient(M, r, z),
                       rng, 1.0)
    for shape, count, r in [((2, 3), 1, 2), ((1, 1), 3, 2)]:  # one measurement, a 1x1 target
        A, b = [rng.standard_normal(shape) for _ in range(count)], rng.standard_normal(count)
        _assert_kernel(matrix_sensing(A, b, r), lambda z: sensing_gradient(A, b, r, z), rng, 1.0)
    for widths in [(1, 1), (1, 4, 1), (3, 1, 1, 2), (4, 6, 6, 6, 4)]:  # one sample
        Xb = rng.standard_normal((widths[0], 1))
        Yb = rng.standard_normal((widths[-1], 1))
        _assert_kernel(linear_network(Xb, Yb, widths),
                       lambda z: network_gradient(Xb, Yb, widths, z), rng, 1.0)


def test_kernels_keep_the_sign_of_underflow():
    # a product over an inner size of 1 that underflows is -0.0 in
    # ndarray.dot and +0.0 in @; with zero targets the sign reaches the
    # gradient, so a kernel with such a product must keep @
    rng = np.random.default_rng(1)
    tiny = 1e-160
    for shape, r in [((1, 1), 1), ((1, 1), 3), ((1, 4), 2), ((4, 1), 2), ((3, 1), 1)]:
        M = np.zeros(shape)
        _assert_kernel(matrix_factorization(M, r), lambda z: factorization_gradient(M, r, z),
                       rng, tiny)
    for shape, count, r in [((1, 1), 1, 1), ((1, 1), 3, 2)]:
        A, b = [rng.standard_normal(shape) for _ in range(count)], np.zeros(count)
        _assert_kernel(matrix_sensing(A, b, r), lambda z: sensing_gradient(A, b, r, z),
                       rng, tiny)
    for widths, target in [((1, 4, 1), 0.0), ((3, 1, 1, 2), 0.0), ((4, 6, 6, 6, 4), 1.0)]:
        Xb = rng.standard_normal((widths[0], 1))
        Yb = target * rng.standard_normal((widths[-1], 1))
        _assert_kernel(linear_network(Xb, Yb, widths),
                       lambda z: network_gradient(Xb, Yb, widths, z), rng, tiny)
