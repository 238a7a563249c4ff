"""Independent numerical oracles used across the test suite.

The derivative oracles rely only on objective values (never on the gradients
under test) so they stay an independent route to the same quantities. The
writer oracles are the straightforward csv.writer and json.dump versions of
trace.csv and certificate.json, whose bytes the fast writers must reproduce.
The one-point gradient oracles are frozen copies of the shared single-point
and stacked code path the families' one-point kernels replaced: each kernel
must equal them bit for bit. The tracking-error oracle measures a whole run
against its flow in one call, which the block-wise sink must reproduce.
"""

import csv
import json

import numpy as np

from momlab.certificates import lyapunov_values
from momlab.problems import _row_norms


def fd_gradient(value, x, h=None):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + np.linalg.norm(x))
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (value(x + e) - value(x - e)) / (2.0 * h)
    return g


def fd_hessian_vec(gradient, x, v, h=None):
    """Central finite difference of a gradient along direction v."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    nv = np.linalg.norm(v)
    if nv == 0:
        return np.zeros_like(x)
    if h is None:
        h = 1e-6 * (1.0 + np.linalg.norm(x)) / nv
    return (gradient(x + h * v) - gradient(x - h * v)) / (2.0 * h)


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return np.linalg.norm(approx - exact) / (1.0 + np.linalg.norm(exact))


def reference_trace_csv(path, trace, cert, meta: str) -> None:
    """trace.csv through csv.writer: six whole columns of "%.17g" strings, blank-padded."""
    rows = trace.num_steps + 1

    def column(values):
        col = np.full(rows, "", dtype=object)
        if values is not None:
            col[:len(values)] = ["%.17g" % v for v in values.tolist()]
        return col

    slack = {name: rep.slack for name, rep in cert.per_step.items()}
    header = ["k", "f", "grad_norm", "step_norm", "H_lambda", "descent_slack", "gradbound_slack"]
    with open(path, "w", newline="") as fh:
        fh.write(f"# {meta}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(zip(
            range(rows),
            column(trace.f[1:]),
            column(np.linalg.norm(trace.grads, axis=1)[1:]),
            column(trace.step_norms[1:]),
            column(lyapunov_values(trace, cert.lam)),
            column(slack.get("descent")),
            column(slack.get("gradient_bound")),
        ))


def reference_certificate_json(cert, path) -> None:
    """certificate.json through json.dump(indent=1) over tolist() payloads."""
    payload = {
        "constants": cert.constants(),
        "checks": {
            name: {
                **rep.summary(),
                "slack": rep.slack.tolist(),
                "passed": rep.passed.tolist(),
                "certified": rep.certified.tolist(),
            }
            for name, rep in cert.per_step.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def _fblock(z, start, stop, rows, cols):
    """z[start:stop] as a column-major (rows, cols) view."""
    return z[start:stop].reshape((rows, cols), order="F")


def _fjoin(*blocks):
    """Each block flattened column-major, concatenated."""
    return np.concatenate([b.T for b in blocks], axis=None)


def factorization_gradient(M, r, z):
    """grad ||X Y^T - M||_F^2 at one point z = (vec X, vec Y)."""
    m, n = M.shape
    X, Y = _fblock(z, 0, m * r, m, r), _fblock(z, m * r, z.shape[-1], n, r)
    R = X @ Y.T - M
    return _fjoin(2.0 * R @ Y, 2.0 * R.T @ X)


def sensing_gradient(A, b, r, z):
    """grad sum_i (<A_i, X Y^T>_F - b_i)^2 at one point z = (vec X, vec Y)."""
    A_flat = np.stack(A).reshape(len(A), -1)
    m, n = A[0].shape
    X, Y = _fblock(z, 0, m * r, m, r), _fblock(z, m * r, z.shape[-1], n, r)
    P = X @ Y.T
    res = (A_flat @ P.reshape((m * n, 1)))[..., 0] - b
    S = (res[..., None, :] @ A_flat).reshape((m, n))
    return _fjoin(2.0 * S @ Y, 2.0 * S.T @ X)


def network_gradient(Xbar, Ybar, widths, z):
    """grad ||W_l ... W_1 Xbar - Ybar||_F^2 at one point z = (vec W_1, ..., vec W_l)."""
    l = len(widths) - 1
    offsets = np.concatenate([[0], np.cumsum([widths[j + 1] * widths[j] for j in range(l)])])
    Ws = [_fblock(z, offsets[j], offsets[j + 1], widths[j + 1], widths[j]) for j in range(l)]
    acts = [Xbar]
    for W in Ws:
        acts.append(W @ acts[-1])
    back = acts[-1] - Ybar
    grads = [None] * l
    for j in range(l - 1, -1, -1):
        grads[j] = 2.0 * back @ acts[j].T
        if j:
            back = Ws[j].T @ back
    return _fjoin(*grads)


def tracking_errors(traj, points, alpha, k_last):
    """||x_k - x(k alpha)|| for k <= k_last of a run's points x_{-1}, x_0, ..., x_K,
    the flow sampled at every time in one traj.at call."""
    k = min(k_last, len(points) - 2)
    return _row_norms(points[1:k + 2] - traj.at(np.arange(k + 1) * alpha))
