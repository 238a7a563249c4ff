#!/usr/bin/env python3
"""Certified heavy-ball runs on all benchmark families.

For each objective: estimate Lipschitz constants on a trust ball, take the
largest certified step size scaled by 0.9, run 1200 iterations, and verify
the per-step descent, gradient-bound, and velocity-bound inequalities plus
the running-min gradient rate. Prints one summary row per problem; with
--out DIR it also writes each problem's trace CSV (the columns of the CLI's
trace.csv) and certificate JSON.
"""

import argparse
from pathlib import Path

import numpy as np

from momlab import (
    MomentumParams,
    StopRules,
    build_certificate,
    check_descent,
    check_gradient_bound,
    check_rate,
    check_step_bound,
    estimate_lipschitz,
    linear_network,
    matrix_factorization,
    matrix_sensing,
    measure_length,
    run,
    safe_alpha,
    synthetic,
)
from momlab.cli import write_trace_csv


def benchmarks(seed=42):
    rng = np.random.default_rng(seed)
    yield synthetic("quadratic"), np.array([1.0, 0.0]), 4.0, 1
    yield synthetic("quartic"), np.array([1.0]), 2.0, 1
    p = matrix_factorization(rng.standard_normal((4, 4)), r=2)
    yield p, rng.uniform(-0.4, 0.4, p.dim), 6.0, 4
    A = [rng.standard_normal((3, 3)) for _ in range(6)]
    X, Y = rng.standard_normal((3, 1)), rng.standard_normal((3, 1))
    p = matrix_sensing(A, [float(np.sum(Ai * (X @ Y.T))) for Ai in A], r=1)
    yield p, rng.uniform(-0.4, 0.4, p.dim), 5.0, 4
    p = linear_network(rng.standard_normal((2, 4)), rng.standard_normal((2, 4)), (2, 3, 3, 2))
    yield p, rng.uniform(-0.4, 0.4, p.dim), 5.0, 4


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=0.5)
    ap.add_argument("--gamma", type=float, default=0.0)
    ap.add_argument("--iters", type=int, default=1200)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    header = f"{'problem':24s} {'alpha':>9s} {'steps':>6s} {'descent':>8s} {'gradbnd':>8s} {'stepbnd':>8s} {'rate':>5s} {'length':>8s}"
    print(header)
    print("-" * len(header))
    for p, x0, radius, m_crit in benchmarks(args.seed):
        L, M = estimate_lipschitz(p, x0, radius, reach=max(abs(args.beta), abs(args.gamma)), seed=0)
        alpha = 0.9 * safe_alpha(M, MomentumParams(1e-6, args.beta, args.gamma))
        params = MomentumParams(alpha, args.beta, args.gamma)
        cert = build_certificate(M, L, params, x0, radius, m_crit=m_crit)
        trace = run(p, x0, x0, params, StopRules(max_iters=args.iters, box_radius=radius))
        d = check_descent(trace, cert)
        g = check_gradient_bound(trace, cert)
        s = check_step_bound(trace, cert)
        total, _ = measure_length(trace)
        r = check_rate(trace, cert, total)
        print(f"{p.name:24s} {alpha:9.2e} {trace.num_steps:6d} "
              f"{d.n_pass:4d}/{d.n_certified:<4d} {g.n_pass:4d}/{g.n_certified:<4d} "
              f"{s.n_pass:4d}/{s.n_certified:<4d} {str(r.passed):>5s} {total:8.4f}")
        if args.out:
            args.out.mkdir(parents=True, exist_ok=True)
            stem = p.name.split("[")[0]
            cert.per_step.update(descent=d, gradient_bound=g, step_bound=s)
            write_trace_csv(args.out / f"{stem}_trace.csv", trace, cert,
                            f"problem={p.name} seed={args.seed}")
            cert.to_json(args.out / f"{stem}_certificate.json")


if __name__ == "__main__":
    main()
