"""Independent numerical oracles used across the test suite.

The derivative oracles rely only on objective values (never on the gradients
under test) so they stay an independent route to the same quantities. The
writer oracles are the straightforward csv.writer and json.dump versions of
trace.csv and certificate.json, whose bytes the fast writers must reproduce.
"""

import csv
import json

import numpy as np

from momlab.certificates import lyapunov_values


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
