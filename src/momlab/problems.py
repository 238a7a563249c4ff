"""Benchmark objectives with closed-form gradients and Hessian-vector products.

Three nonconvex families (low-rank factorization, linear sensing of a
factorized matrix, deep linear networks) plus small synthetic fixtures used
throughout the test and certificate suites. All problems expose a flat
variable vector; matrix-valued blocks are stored column-major (Fortran
order), X block first, then Y (or W_1, ..., W_l in layer order).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Problem",
    "MatrixShape",
    "matrix_factorization",
    "matrix_sensing",
    "linear_network",
    "synthetic",
    "estimate_lipschitz",
    "SYNTHETIC_NAMES",
]


@dataclass(frozen=True)
class Problem:
    """A differentiable objective over a flat variable vector.

    value and gradient accept one point of shape (dim,) or a stack of
    points of shape (B, dim). For one point value returns a float and
    gradient a (dim,) array; for a stack they return (B,) and (B, dim), and
    row b is bit-for-bit the result for the point z[b]. value and gradient
    must be finite for finite inputs (all shipped problems are polynomial).
    hessian_vec is optional: when present, it is the exact directional
    derivative of the gradient at one point x of shape (dim,), along v of
    shape (dim,) or a stack of directions (B, dim), whose row b is bit for
    bit the result for v[b].
    """

    name: str
    dim: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian_vec: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    suggested_box: float = 2.0
    info: dict = field(default_factory=dict)

    @property
    def has_hessian(self) -> bool:
        return self.hessian_vec is not None

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (self.dim,):
            raise ValueError(
                f"{self.name}: expected vector of length {self.dim}, got shape {np.asarray(x).shape}"
            )
        return x


@dataclass(frozen=True)
class MatrixShape:
    """Shapes of the factor blocks; widths are set for layered problems."""

    m: int = 0
    n: int = 0
    r: int = 0
    widths: tuple[int, ...] = ()

    def __post_init__(self):
        if self.widths:
            if any(w < 1 for w in self.widths):
                raise ValueError("all layer widths must be >= 1")
        elif min(self.m, self.n, self.r) < 1:
            raise ValueError("m, n, r must all be >= 1")


def _T(a):
    """Transpose of the last two axes; a.T for a single matrix."""
    return a.swapaxes(-1, -2)


def _block(z, start, stop, rows, cols):
    """z[..., start:stop] as a column-major (rows, cols) matrix per point (a view)."""
    return z[..., start:stop].reshape(z.shape[:-1] + (rows, cols), order="F")


def _split_xy(z, m, n, r):
    return _block(z, 0, m * r, m, r), _block(z, m * r, z.shape[-1], n, r)


def _flat_size(a):
    """Shape of a with each matrix as one vector.

    Sized explicitly: a reshape to -1 is ambiguous on an empty stack.
    """
    return a.shape[:-2] + (a.shape[-2] * a.shape[-1],)


def _join(*blocks):
    """Flatten each block column-major and concatenate, per point.

    A single point is one concatenate of the transposed blocks, which it
    flattens in row-major order, that is, each block column-major. For a
    stack, each block is copied once into its column-major view of a
    preallocated output.
    """
    if blocks[0].ndim == 2:
        return np.concatenate([b.T for b in blocks], axis=None)
    out = np.empty(blocks[0].shape[:-2] + (sum(_flat_size(b)[-1] for b in blocks),))
    start = 0
    for b in blocks:
        rows, cols = b.shape[-2:]
        view = _block(out, start, start + rows * cols, rows, cols)
        if view.base is not out:  # a copying reshape would drop the assignment
            raise RuntimeError("_join: block target is not a view of the output")
        view[...] = b
        start += rows * cols
    return out


def _per_point(v):
    """A float for one point, the (B,) array for a stack."""
    return float(v) if v.ndim == 0 else v


def _sum_sq(R):
    """Sum of squared entries of each matrix in a stack.

    Each matrix is summed as one flat vector, the order np.sum takes for a
    single matrix, so stacked sums match single points bit for bit.
    """
    return _per_point((R * R).reshape(_flat_size(R)).sum(-1))


def _dot_self(v):
    """v @ v over the last axis, with the same dot product per point."""
    if v.ndim == 1:
        return float(v @ v)
    return (v[:, None, :] @ v[:, :, None])[:, 0, 0]


def _row_norms(V):
    """Euclidean norm of each row, bit-equal to np.linalg.norm of that row.

    np.linalg.norm(V, axis=1) sums differently and can be 1 ulp off, which
    would let a row stop one step apart from its run() replay. A strided
    stack (such as a column-major gradient stack) would take another matmul
    path, so rows are made contiguous first.
    """
    return np.sqrt(_dot_self(np.ascontiguousarray(V)))


def _norms_in_place(V: np.ndarray) -> np.ndarray:
    """np.linalg.norm(V, axis=1) bit for bit, squaring V in its own buffer.

    norm would allocate a second array the size of V; V is overwritten.
    """
    V *= V
    return np.sqrt(np.add.reduce(V, axis=1))


def _product(*inner):
    """The 2-D product of a one-point kernel whose products have these inner sizes.

    ndarray.dot makes the BLAS call @ makes for 2-D operands and skips the
    gufunc dispatch, which costs more than the arithmetic at these sizes.
    A product over an inner size of 1 (an outer product, or one by a 1x1
    operand, which dot takes as a scalar) goes another way in dot, whose
    underflowing products keep a sign (-0.0) where @ gives +0.0: a kernel
    with such a product keeps @.
    """
    return np.matmul if 1 in inner else np.ndarray.dot


def _col_pow(x, i, k):
    """x[..., i] ** k as a float64 scalar power, one point at a time.

    numpy's vectorized array pow can differ from the scalar one in the last
    bit, so a stack of points would not reproduce its single points.
    """
    if x.ndim == 1:
        return x[i] ** k
    return np.array([v**k for v in x[:, i]])


def matrix_factorization(M: np.ndarray, r: int) -> Problem:
    """Low-rank factorization objective ||X Y^T - M||_F^2.

    Variables are (X, Y) with X in R^{m x r}, Y in R^{n x r}, flattened
    column-major, X block first (dim = (m + n) * r).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"M must be a 2-d matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError("M must be finite")
    if r < 1:
        raise ValueError("rank r must be >= 1")
    m, n = M.shape
    dim = (m + n) * r
    mr = m * r
    dot = _product(r, n, m)

    def value(z):
        X, Y = _split_xy(z, m, n, r)
        R = X @ _T(Y) - M
        return _sum_sq(R)

    def gradient(z):
        if z.ndim == 1:
            # _split_xy and _join for one point, with 2R formed once:
            # (2R).T equals 2 R.T in values and layout, and every operand
            # keeps the stacked path's shape and strides, so no bit changes;
            # dot is ndarray.dot unless _product keeps @ for these sizes
            X, Y = z[:mr].reshape(r, m).T, z[mr:].reshape(r, n).T
            R2 = 2.0 * (dot(X, Y.T) - M)
            return np.concatenate([dot(R2, Y).T, dot(R2.T, X).T], axis=None)
        X, Y = _split_xy(z, m, n, r)
        R2 = 2.0 * (X @ _T(Y) - M)
        return _join(R2 @ Y, _T(R2) @ X)

    def hessian_vec(z, v):
        X, Y = _split_xy(z, m, n, r)
        U, V = _split_xy(np.asarray(v, dtype=float), m, n, r)
        R = X @ Y.T - M
        dR = U @ Y.T + X @ _T(V)
        gX = 2.0 * (dR @ Y + R @ V)
        gY = 2.0 * (_T(dR) @ X + R.T @ U)
        return _join(gX, gY)

    box = max(2.0, 1.5 * math.sqrt(np.linalg.norm(M, "fro") + 1.0))
    return Problem(
        name=f"matrix_factorization[{m}x{n},r={r}]",
        dim=dim,
        value=value,
        gradient=gradient,
        hessian_vec=hessian_vec,
        suggested_box=box,
        info={"kind": "matrix_factorization", "shape": MatrixShape(m, n, r), "M": M},
    )


def matrix_sensing(A: Sequence[np.ndarray], b: np.ndarray, r: int) -> Problem:
    """Linear sensing of a factorized matrix: sum_i (<A_i, X Y^T>_F - b_i)^2."""
    A = [np.asarray(Ai, dtype=float) for Ai in A]
    b = np.asarray(b, dtype=float).ravel()
    if len(A) < 1:
        raise ValueError("need at least one sensing matrix")
    if len(A) != b.size:
        raise ValueError(f"measurement count mismatch: {len(A)} matrices vs {b.size} targets")
    m, n = A[0].shape
    if any(Ai.shape != (m, n) for Ai in A):
        raise ValueError("all sensing matrices must share one shape")
    if r < 1:
        raise ValueError("rank r must be >= 1")
    A_flat = np.stack(A).reshape(len(A), m * n)  # row i is A_i flattened row-major
    dim = (m + n) * r
    mr, mn = m * r, m * n
    dot = _product(r, mn, len(A), n, m)

    def measure(P):
        """<A_i, P>_F for each i, per point: one matrix-vector product per
        point, as a batched tensordot sums in another order and would not
        match single points bit for bit."""
        return (A_flat @ P.reshape(P.shape[:-2] + (mn, 1)))[..., 0]

    def combine(c):
        """sum_i c_i A_i per point, assembled once."""
        return (c[..., None, :] @ A_flat).reshape(c.shape[:-1] + (m, n))

    def residuals(X, Y):
        return measure(X @ _T(Y)) - b

    def value(z):
        X, Y = _split_xy(z, m, n, r)
        return _dot_self(residuals(X, Y))

    def gradient(z):
        if z.ndim == 1:
            # residuals, _split_xy and _join for one point, with 2S formed
            # once, bit for bit as in matrix_factorization
            X, Y = z[:mr].reshape(r, m).T, z[mr:].reshape(r, n).T
            res = dot(A_flat, dot(X, Y.T).reshape(mn, 1))[:, 0] - b
            S2 = 2.0 * dot(res[None, :], A_flat).reshape(m, n)
            return np.concatenate([dot(S2, Y).T, dot(S2.T, X).T], axis=None)
        X, Y = _split_xy(z, m, n, r)
        S2 = 2.0 * combine(residuals(X, Y))
        return _join(S2 @ Y, _T(S2) @ X)

    def hessian_vec(z, v):
        X, Y = _split_xy(z, m, n, r)
        U, V = _split_xy(np.asarray(v, dtype=float), m, n, r)
        S = combine(residuals(X, Y))
        dS = combine(measure(U @ Y.T + X @ _T(V)))
        gX = 2.0 * (dS @ Y + S @ V)
        gY = 2.0 * (_T(dS) @ X + S.T @ U)
        return _join(gX, gY)

    return Problem(
        name=f"matrix_sensing[{m}x{n},r={r},p={len(A)}]",
        dim=dim,
        value=value,
        gradient=gradient,
        hessian_vec=hessian_vec,
        suggested_box=max(2.0, 1.5 * math.sqrt(np.linalg.norm(b) + 1.0)),
        info={"kind": "matrix_sensing", "shape": MatrixShape(m, n, r), "p": len(A)},
    )


def linear_network(Xbar: np.ndarray, Ybar: np.ndarray, widths: Sequence[int]) -> Problem:
    """Deep linear network least squares ||W_l ... W_1 Xbar - Ybar||_F^2.

    widths = (n_0, ..., n_l); layer j has shape n_j x n_{j-1}. Variables are
    W_1, ..., W_l flattened column-major and concatenated in layer order.
    """
    Xbar = np.asarray(Xbar, dtype=float)
    Ybar = np.asarray(Ybar, dtype=float)
    widths = tuple(int(w) for w in widths)
    if len(widths) < 2:
        raise ValueError("need at least one layer (widths = (n_0, ..., n_l), l >= 1)")
    if any(w < 1 for w in widths):
        raise ValueError("all widths must be >= 1")
    l = len(widths) - 1
    if Xbar.shape[0] != widths[0]:
        raise ValueError(f"Xbar has {Xbar.shape[0]} rows, expected n_0 = {widths[0]}")
    if Ybar.shape[0] != widths[-1]:
        raise ValueError(f"Ybar has {Ybar.shape[0]} rows, expected n_l = {widths[-1]}")
    if Xbar.shape[1] != Ybar.shape[1]:
        raise ValueError("Xbar and Ybar must have the same number of columns")

    sizes = [widths[j + 1] * widths[j] for j in range(l)]
    offsets = [0, *itertools.accumulate(sizes)]
    dim = offsets[-1]
    # W_j^T of one point is z[a:b].reshape(cols, rows): C-contiguous, the
    # layout of the transpose of _block's column-major view
    layers = [(offsets[j], offsets[j + 1], widths[j], widths[j + 1]) for j in range(l)]
    # forward: n_0..n_{l-1}; back-propagation: n_2..n_l; gradients: the samples
    dot = _product(*widths[:-1], *widths[2:], Xbar.shape[1])

    def split(z):
        return [_block(z, offsets[j], offsets[j + 1], widths[j + 1], widths[j]) for j in range(l)]

    def forward(Ws):
        # acts[j] = W_j ... W_1 Xbar, acts[0] = Xbar
        acts = [Xbar]
        for W in Ws:
            acts.append(W @ acts[-1])
        return acts

    def value(z):
        Ws = split(z)
        E = forward(Ws)[-1] - Ybar
        return _sum_sq(E)

    def gradient(z):
        if z.ndim == 1:
            # split, forward and _join for one point
            Wts = [z[a:b].reshape(cols, rows) for a, b, cols, rows in layers]
            acts = [Xbar]
            for Wt in Wts:
                acts.append(dot(Wt.T, acts[-1]))
            back = acts[-1] - Ybar
            grads = [None] * l
            for j in range(l - 1, -1, -1):
                grads[j] = dot(2.0 * back, acts[j].T).T
                if j:
                    back = dot(Wts[j], back)
            return np.concatenate(grads, axis=None)
        Ws = split(z)
        acts = forward(Ws)
        E = acts[-1] - Ybar
        # back[j] = (W_l ... W_{j+1})^T E, back[l] = E; back[0] is not needed
        back = E
        grads = [None] * l
        for j in range(l - 1, -1, -1):
            grads[j] = 2.0 * back @ _T(acts[j])
            if j:
                back = _T(Ws[j]) @ back
        return _join(*grads)

    def hessian_vec(z, v):
        Ws = split(z)
        Vs = split(np.asarray(v, dtype=float))
        acts = forward(Ws)
        dacts = [np.zeros_like(Xbar)]
        for j in range(l):
            dacts.append(Ws[j] @ dacts[-1] + Vs[j] @ acts[j])
        E = acts[-1] - Ybar
        dE = dacts[-1]
        back, dback = E, dE
        grads = [None] * l
        for j in range(l - 1, -1, -1):
            grads[j] = 2.0 * (dback @ acts[j].T + back @ _T(dacts[j]))
            if j:
                dback = Ws[j].T @ dback + _T(Vs[j]) @ back
                back = Ws[j].T @ back
        return _join(*grads)

    return Problem(
        name=f"linear_network[{'-'.join(map(str, widths))}]",
        dim=dim,
        value=value,
        gradient=gradient,
        hessian_vec=hessian_vec,
        suggested_box=max(2.0, 1.5 * math.sqrt(np.linalg.norm(Ybar, "fro") + 1.0)),
        info={"kind": "linear_network", "widths": widths},
    )


SYNTHETIC_NAMES = ("quadratic", "indefinite_quadratic", "quartic")


def synthetic(name: str, dim: int = 2) -> Problem:
    """Small test fixtures with exact gradients and Hessians.

    quadratic             0.5 ||x||^2           (any dim)
    indefinite_quadratic  0.5 (x_1^2 - x_2^2)   (dim 2, strict saddle at 0)
    quartic               x^4                   (dim 1, Lojasiewicz exponent 1/4 at 0)
    """
    if name == "quadratic":
        return Problem(
            name="quadratic",
            dim=dim,
            value=lambda x: 0.5 * _dot_self(x),
            gradient=lambda x: np.array(x, dtype=float),
            hessian_vec=lambda x, v: np.array(v, dtype=float),
            suggested_box=2.0,
            info={"kind": "quadratic", "f_star": 0.0},
        )
    if name == "indefinite_quadratic":
        sign = np.array([1.0, -1.0])
        return Problem(
            name="indefinite_quadratic",
            dim=2,
            value=lambda x: 0.5 * _per_point(_col_pow(x, 0, 2) - _col_pow(x, 1, 2)),
            gradient=lambda x: sign * x,
            hessian_vec=lambda x, v: sign * v,
            suggested_box=2.0,
            info={"kind": "indefinite_quadratic"},
        )
    if name == "quartic":
        return Problem(
            name="quartic",
            dim=1,
            value=lambda x: _per_point(_col_pow(x, 0, 4)),
            gradient=lambda x: (4.0 * _col_pow(x, 0, 3))[..., None],
            hessian_vec=lambda x, v: 12.0 * x[0] ** 2 * v[..., :1],
            suggested_box=1.5,
            info={"kind": "quartic", "f_star": 0.0},
        )
    raise ValueError(f"unknown synthetic fixture {name!r}; known: {SYNTHETIC_NAMES}")


def _unit_ball(rng, n_points, dim):
    u = rng.standard_normal((n_points, dim))
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-300)
    t = rng.uniform(0.0, 1.0, size=(n_points, 1)) ** (1.0 / dim)
    return u * t


def estimate_lipschitz(
    problem: Problem,
    center: np.ndarray,
    radius: float,
    mode: str = "sampled",
    reach: float = 0.0,
    pairs: int = 1000,
    seed: int = 0,
    safety: float = 2.0,
) -> tuple[float, float]:
    """Estimate (L, M): a bound on ||grad f|| and on its Lipschitz modulus.

    Both bounds hold on the inflated ball B(center, R') with
    R' = (1 + 2*reach) * radius, where reach = max(|beta|, |gamma|) covers the
    extrapolated evaluation points of the momentum update.

    sampled mode draws point pairs on a dyadic scale ladder R' * 2^-k,
    k = 0, 1, ..., down to min(2^-10, R' * 2^-6): at least 7 rungs (15 at
    radius 10 with reach 0.6, 12 at radius 2 with reach 0), each with
    max(ceil(pairs / 7), 8) pairs, so >= `pairs` pairs in all. The rungs
    share one seeded unit-ball cloud, and the empirical maxima are returned
    inflated by `safety`. The shared ladder makes
    the estimate monotone in radius across dyadic radius ratios. analytic mode
    is available for the synthetic fixtures and matrix factorization only.
    """
    center = problem.check_point(center)
    if radius <= 0:
        raise ValueError("radius must be positive")
    r_infl = (1.0 + 2.0 * max(reach, 0.0)) * radius

    if mode == "analytic":
        return _analytic_lipschitz(problem, center, r_infl)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}; use 'sampled' or 'analytic'")

    rng = np.random.default_rng(seed)
    per_scale = max(int(math.ceil(pairs / 7)), 8)
    a = _unit_ball(rng, per_scale, problem.dim)
    b = _unit_ball(rng, per_scale, problem.dim)
    # dyadic rungs r_infl * 2^-k down to an absolute floor, so the rung sets
    # (and hence the estimates) nest across dyadic radius ratios
    floor = min(2.0**-10, r_infl * 2.0**-6)
    scales = []
    s = r_infl
    while s >= floor * (1.0 - 1e-12):
        scales.append(s)
        s *= 0.5
    max_grad = np.linalg.norm(problem.gradient(center))
    max_quot = 0.0
    n = len(a)
    pq = np.empty((2 * n, problem.dim))
    p, q = pq[:n], pq[n:]
    for s in scales:
        # one stacked call per rung, for its p and q rows together; rows are
        # bit-equal to single points
        p[...] = center + s * a
        q[...] = center + s * b
        g = problem.gradient(pq)
        gp, gq = g[:n], g[n:]
        max_grad = max(max_grad, np.max(_row_norms(gp)), np.max(_row_norms(gq)))
        gap = _row_norms(p - q)
        apart = gap > 1e-12 * (1.0 + s)
        if apart.any():
            max_quot = max(max_quot, np.max(_row_norms(gp - gq)[apart] / gap[apart]))
    return safety * max_grad, safety * max_quot


def _analytic_lipschitz(problem, center, r_infl):
    kind = problem.info.get("kind")
    if kind in ("quadratic", "indefinite_quadratic"):
        # Hessian has unit spectral norm; ||grad|| = ||x|| in both cases.
        return float(np.linalg.norm(center) + r_infl), 1.0
    if kind == "quartic":
        reach_abs = abs(center[0]) + r_infl
        return 4.0 * reach_abs**3, 12.0 * reach_abs**2
    if kind == "matrix_factorization":
        shape: MatrixShape = problem.info["shape"]
        M = problem.info["M"]
        X0, Y0 = _split_xy(center, shape.m, shape.n, shape.r)
        xb = np.linalg.norm(X0, "fro") + r_infl
        yb = np.linalg.norm(Y0, "fro") + r_infl
        rb = xb * yb + np.linalg.norm(M, "fro")
        L = 2.0 * rb * math.sqrt(xb**2 + yb**2)
        M_bound = 2.0 * math.sqrt(2.0) * (max(xb, yb) ** 2 + xb * yb + rb)
        return L, M_bound
    raise ValueError(
        f"analytic Lipschitz bounds are not available for {problem.name}; use mode='sampled'"
    )
