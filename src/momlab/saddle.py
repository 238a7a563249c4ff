"""Strict-saddle analysis of the momentum map.

The two-step iteration defines a map F(x, y) = (x + beta (x - y)
- alpha grad f(x + gamma (x - y)), x) on pairs. At a critical point its
Jacobian block-factorizes through the Hessian eigenvalues d_i: each d_i
contributes a quadratic

    phi_i(lam) = lam^2 + (alpha (1 + gamma) d_i - (1 + beta)) lam
                 + beta - alpha gamma d_i

to the characteristic polynomial. A negative d_i forces a real root
beyond 1 (phi_i(1) = alpha d_i < 0), so strict saddles are unstable fixed
points, and randomized initializations escape them almost surely.
"""

from __future__ import annotations

import cmath
import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .optimizer import (_ROW_BLOCK, MomentumParams, StopRules, _Endpoints, run_lockstep,
                        safe_alpha, step)
from .problems import Problem

__all__ = [
    "CriticalPointAnalysis",
    "EscapeExperiment",
    "characteristic_roots",
    "analyze_critical_point",
    "saddle_safe_alpha",
    "rank_condition_holds",
    "escape_experiment",
    "momentum_map",
    "map_jacobian",
    "dense_hessian",
]

# one dense eigensolve of that size takes about a second on one thread
DENSE_HESSIAN_MAX_DIM = 2000
# analyze_critical_point accepts x when ||grad f(x)|| <= CRITICAL_GRAD_TOL, and
# counts a Hessian eigenvalue as zero within EIG_RTOL * (1 + ||H||)
CRITICAL_GRAD_TOL = 1e-8
EIG_RTOL = 1e-8


def characteristic_roots(d: float, params: MomentumParams):
    """Both roots of phi(lam) for one Hessian eigenvalue d.

    Uses the larger-root-first quadratic formula to avoid cancellation;
    returns a complex pair (root1, root2) with |root1| >= |root2|.
    """
    a_, b_, g_ = params.alpha, params.beta, params.gamma
    b = a_ * (1.0 + g_) * d - (1.0 + b_)
    c = b_ - a_ * g_ * d
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        s = math.sqrt(disc)
        q = -(b + math.copysign(s, b)) / 2.0 if b != 0.0 else s / 2.0
        if q == 0.0:
            r1 = r2 = 0.0
        else:
            r1, r2 = q, c / q
    else:
        s = cmath.sqrt(complex(disc))
        r1 = (-b + s) / 2.0
        r2 = (-b - s) / 2.0
    r1, r2 = complex(r1), complex(r2)
    if abs(r2) > abs(r1):
        r1, r2 = r2, r1
    return r1, r2


def momentum_map(problem: Problem, x, y, params: MomentumParams):
    """The pair map F(x, y); fixed points are (x, x) with grad f(x) = 0."""
    return step(problem, y, x, params)[0], np.array(x, dtype=float)


def _check_dense(problem: Problem) -> None:
    if not problem.has_hessian:
        raise ValueError(f"{problem.name} exposes no Hessian-vector product")
    if problem.dim > DENSE_HESSIAN_MAX_DIM:
        raise ValueError(f"{problem.name} has dim {problem.dim}: the dense Hessian is "
                         f"limited to dim <= {DENSE_HESSIAN_MAX_DIM}")


def dense_hessian(problem: Problem, x) -> np.ndarray:
    """The symmetrized Hessian, from one stacked product per _ROW_BLOCK unit vectors.

    Row i of a product with e_i is column i of H, so the stack is H^T,
    which the symmetrization 0.5 (H + H^T) absorbs.
    """
    _check_dense(problem)
    x = problem.check_point(x)
    n = problem.dim
    H = np.empty((n, n))
    for i in range(0, n, _ROW_BLOCK):
        H[i:i + _ROW_BLOCK] = problem.hessian_vec(x, np.eye(min(_ROW_BLOCK, n - i), n, k=i))
    return 0.5 * (H + H.T)


def map_jacobian(problem: Problem, x, params: MomentumParams, y=None) -> np.ndarray:
    """Dense 2n x 2n Jacobian F'(x, y); y defaults to x."""
    x = problem.check_point(x)
    y = x if y is None else problem.check_point(y)
    n = problem.dim
    H = dense_hessian(problem, x + params.gamma * (x - y))
    eye = np.eye(n)
    top_left = (1.0 + params.beta) * eye - params.alpha * (1.0 + params.gamma) * H
    top_right = -params.beta * eye + params.alpha * params.gamma * H
    return np.block([[top_left, top_right], [eye, np.zeros((n, n))]])


@dataclass
class CriticalPointAnalysis:
    point: np.ndarray
    grad_norm: float
    hessian_eigs: np.ndarray          # all dim eigenvalues, sorted ascending
    classification: str               # local_min_candidate | strict_saddle | degenerate
    map_spectral_radius: float
    unstable_roots: list = field(default_factory=list)  # (eig index, root) with |root| > 1

    def for_params(self, params: MomentumParams) -> "CriticalPointAnalysis":
        """The same point and Hessian spectrum, with the map's roots at params."""
        radius, unstable = _map_roots(self.hessian_eigs, params)
        return dataclasses.replace(self, map_spectral_radius=radius, unstable_roots=unstable)

    def to_dict(self) -> dict:
        return {
            "grad_norm": self.grad_norm,
            "hessian_eigs": self.hessian_eigs.tolist(),
            "classification": self.classification,
            "map_spectral_radius": self.map_spectral_radius,
            "unstable_roots": [
                {"eig_index": int(i), "root": [r.real, r.imag]} for i, r in self.unstable_roots
            ],
        }


def _map_roots(eigs, params: MomentumParams):
    """Spectral radius of the map and its roots beyond the unit circle."""
    radius = 0.0
    unstable = []
    for i, d in enumerate(eigs):
        r1, r2 = characteristic_roots(float(d), params)
        radius = max(radius, abs(r1))
        for r in (r1, r2):
            if abs(r) > 1.0 + 1e-12:
                unstable.append((i, r))
    return float(radius), unstable


def analyze_critical_point(
    problem: Problem,
    x,
    params: MomentumParams,
) -> CriticalPointAnalysis:
    """Classify a critical point and compute the momentum map's spectrum there.

    Rejects points with ||grad f|| > CRITICAL_GRAD_TOL; the smallest Hessian
    eigenvalue classifies the point as a strict saddle below
    -EIG_RTOL * (1 + ||H||), a local-minimum candidate above +EIG_RTOL *
    (1 + ||H||), and degenerate in between. Every Hessian eigenvalue comes
    from one dense symmetric eigensolve (dense_hessian, then eigvalsh), so
    the map's roots are those of the whole spectrum. Problems above
    DENSE_HESSIAN_MAX_DIM dimensions are rejected before any evaluation.
    """
    _check_dense(problem)
    x = problem.check_point(x)
    gn = float(np.linalg.norm(problem.gradient(x)))
    if gn > CRITICAL_GRAD_TOL:
        raise ValueError(
            f"not a critical point: ||grad f|| = {gn:.3g} > {CRITICAL_GRAD_TOL:.3g}"
        )
    eigs = np.linalg.eigvalsh(dense_hessian(problem, x))
    h_norm = float(np.max(np.abs(eigs))) if eigs.size else 0.0

    tol_eig = EIG_RTOL * (1.0 + h_norm)
    if eigs[0] < -tol_eig:
        classification = "strict_saddle"
    elif eigs[0] > tol_eig:
        classification = "local_min_candidate"
    else:
        classification = "degenerate"

    radius, unstable = _map_roots(eigs, params)
    return CriticalPointAnalysis(
        point=x,
        grad_norm=gn,
        hessian_eigs=eigs,
        classification=classification,
        map_spectral_radius=radius,
        unstable_roots=unstable,
    )


def saddle_safe_alpha(M_tilde: float, params: MomentumParams) -> float:
    """Step-size threshold |beta| / (1 + |gamma| M~) for the escape guarantee.

    M~ bounds the Hessian spectral radius on the region of interest. The
    escape theorem needs beta != 0, so beta = 0 is rejected.
    """
    if params.beta == 0.0:
        raise ValueError(
            "escape guarantee requires beta != 0 (beta in (-1,1) \\ {0})"
        )
    if M_tilde < 0:
        raise ValueError("M_tilde must be nonnegative")
    return abs(params.beta) / (1.0 + abs(params.gamma) * M_tilde)


def rank_condition_holds(M_tilde: float, params: MomentumParams) -> bool:
    """|beta| > alpha |gamma| M~ keeps det(beta I - alpha gamma H) nonzero."""
    return abs(params.beta) > params.alpha * abs(params.gamma) * M_tilde


@dataclass
class EscapeExperiment:
    """Monte Carlo escape study around a strict saddle."""

    saddle: np.ndarray
    radius: float
    trials: int
    seed: int
    params: MomentumParams
    outcomes: list = field(default_factory=list)  # per-trial dicts
    at_saddle_tol: float = 0.0

    @property
    def escape_fraction(self) -> float:
        if not self.outcomes:
            return math.nan
        return sum(1 for o in self.outcomes if o["classification"] == "escaped") / len(
            self.outcomes
        )

    @property
    def n_at_saddle(self) -> int:
        return sum(1 for o in self.outcomes if o["classification"] == "at_saddle")

    @property
    def n_inconclusive(self) -> int:
        return sum(1 for o in self.outcomes if o["classification"] == "inconclusive")

    def to_json(self, path) -> None:
        payload = {
            "config": {
                "radius": self.radius,
                "trials": self.trials,
                "seed": self.seed,
                "alpha": self.params.alpha,
                "beta": self.params.beta,
                "gamma": self.params.gamma,
                "delta": self.params.delta,
                "at_saddle_tol": self.at_saddle_tol,
            },
            "escape_fraction": self.escape_fraction,
            "n_at_saddle": self.n_at_saddle,
            "n_inconclusive": self.n_inconclusive,
            "outcomes": self.outcomes,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)


def _sample_ball(rng, center, radius):
    d = center.size
    u = rng.standard_normal(d)
    norm = np.linalg.norm(u)
    if norm == 0.0:
        return center.copy()
    return center + u / norm * radius * rng.uniform() ** (1.0 / d)


def classify_limit(final_point, saddle, stop_reason, at_tol):
    """Label one trial: at_saddle, escaped, or inconclusive.

    Leaving the run box is a definitive escape (the iterate left the
    saddle's neighborhood); converging below grad_tol is at_saddle or
    escaped depending on the final distance; hitting max_iters without
    convergence is inconclusive.
    """
    dist = float(np.linalg.norm(final_point - saddle))
    if stop_reason == "grad_tol":
        return ("at_saddle" if dist <= at_tol else "escaped"), dist
    if stop_reason in ("left_box", "diverged"):
        return "escaped", dist
    return "inconclusive", dist


def escape_experiment(
    problem: Problem,
    saddle,
    params: MomentumParams,
    radius: float,
    trials: int,
    seed: int = 0,
    stop: Optional[StopRules] = None,
    analysis: Optional[CriticalPointAnalysis] = None,
) -> EscapeExperiment:
    """Run seeded random restarts near a strict saddle and count escapes.

    Per trial t, x_0 is uniform in B(saddle, radius) and x_{-1} uniform in
    B(x_0, delta * alpha), drawn from an RNG stream keyed by (seed, t).
    All trials step together through run_lockstep into one _Endpoints sink,
    and each outcome equals that of run() on the trial's start. The sink
    keeps x_K, grad f(x_K) and K as (trials, dim) and (trials,) arrays, and
    the lockstep blocks fit one byte budget for all trials
    (optimizer._ENDPOINT_BLOCK_BYTES), so a study holds O(trials * dim)
    plus that budget however long its trials run. A trial is 'at_saddle'
    when it converges within 10 * radius * 1e-3 of the saddle; raw final
    distances are recorded so outcomes can be re-thresholded. Requires the
    candidate to be a strict saddle, beta != 0, and alpha <= min(safe_alpha,
    saddle_safe_alpha). A caller that has analyzed the saddle already passes
    that analysis (at any params), so the Hessian is not built again.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    saddle = problem.check_point(saddle)
    if analysis is None:
        analysis = analyze_critical_point(problem, saddle, params)
    elif not np.array_equal(analysis.point, saddle):
        raise ValueError("analysis is of another point than saddle")
    if analysis.classification != "strict_saddle":
        raise ValueError(
            f"candidate is classified {analysis.classification}, not strict_saddle"
        )
    m_tilde = float(np.max(np.abs(analysis.hessian_eigs)))
    a_max = saddle_safe_alpha(m_tilde, params)  # also rejects beta == 0
    if params.alpha > min(safe_alpha(m_tilde, params), a_max) * (1.0 + 1e-12):
        raise ValueError(
            f"alpha = {params.alpha} exceeds min(descent, escape) threshold "
            f"{min(safe_alpha(m_tilde, params), a_max):.6g}"
        )
    stop = stop or StopRules(max_iters=20_000, grad_tol=1e-9, box_radius=100.0)
    at_tol = 10.0 * radius * 1e-3

    x0s, xm1s = [], []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        x0s.append(_sample_ball(rng, saddle, radius))
        xm1s.append(_sample_ball(rng, x0s[-1], params.delta * params.alpha))
    ends = run_lockstep(problem, np.array(xm1s), np.array(x0s), params, stop,
                        sink=_Endpoints(problem, trials))
    # the axis-1 norm, as run()'s Trace.grad_norms computes it
    grad_norms = np.linalg.norm(ends.grad, axis=1).tolist()
    outcomes = []
    for t, (reason, iters) in enumerate(zip(ends.stop_reason, ends.num_steps.tolist())):
        label, dist = classify_limit(ends.x[t], saddle, reason, at_tol)
        outcomes.append({
            "trial": t,
            "classification": label,
            "final_distance": dist,
            "stop_reason": reason,
            "iters": iters,
            "final_grad_norm": grad_norms[t],
        })
    return EscapeExperiment(
        saddle=saddle,
        radius=radius,
        trials=trials,
        seed=seed,
        params=params,
        outcomes=outcomes,
        at_saddle_tol=at_tol,
    )
