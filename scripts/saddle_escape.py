#!/usr/bin/env python3
"""Strict-saddle escape studies with randomized restarts.

Classifies the origin of the indefinite quadratic and of a low-rank
factorization landscape, then counts how many randomly perturbed starts
converge back to the saddle (the theory says: almost none, and a start on
the symmetric stable axis is the measure-zero exception).
"""

import argparse

import numpy as np

from momlab import (
    MomentumParams,
    StopRules,
    analyze_critical_point,
    escape_experiment,
    estimate_lipschitz,
    matrix_factorization,
    run,
    safe_alpha,
    saddle_safe_alpha,
    synthetic,
)


def study(problem, saddle, beta, radius, trials, seed, box):
    probe = MomentumParams(1e-6, beta)
    analysis = analyze_critical_point(problem, saddle, probe)
    m_tilde = float(np.max(np.abs(analysis.hessian_eigs)))
    _, M = estimate_lipschitz(problem, saddle, 4.0, reach=beta, seed=0)
    alpha = 0.9 * min(safe_alpha(M, probe), saddle_safe_alpha(m_tilde, probe))
    params = MomentumParams(alpha, beta)
    analysis = analysis.for_params(params)
    exp = escape_experiment(
        problem, saddle, params, radius=radius, trials=trials, seed=seed,
        stop=StopRules(max_iters=40000, grad_tol=1e-9, box_radius=box), analysis=analysis,
    )
    print(f"{problem.name:28s} rho(F')={analysis.map_spectral_radius:.4f} alpha={alpha:.2e} "
          f"escape={exp.escape_fraction:.3f} at_saddle={exp.n_at_saddle} "
          f"inconclusive={exp.n_inconclusive}")
    return alpha


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=0.5)
    ap.add_argument("--trials", type=int, default=100)
    ap.add_argument("--radius", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    indef = synthetic("indefinite_quadratic")
    alpha = study(indef, np.zeros(2), args.beta, args.radius, args.trials, args.seed, box=10.0)

    rng = np.random.default_rng(11)
    mf = matrix_factorization(rng.standard_normal((3, 3)), r=1)
    study(mf, np.zeros(mf.dim), args.beta, args.radius, args.trials, args.seed, box=50.0)

    # the measure-zero exception: symmetric start on the stable axis
    x0 = np.array([0.5, 0.0])
    tr = run(indef, x0, x0, MomentumParams(alpha, args.beta),
             StopRules(max_iters=50000, grad_tol=1e-10))
    print(f"stable-axis start (0.5, 0): stop={tr.stop_reason} "
          f"final distance to saddle = {np.linalg.norm(tr.x(tr.num_steps)):.2e}")


if __name__ == "__main__":
    main()
