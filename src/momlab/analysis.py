"""Post-hoc trace analytics.

Fits an empirical desingularizer psi(t) = c * t^theta from the
gradient-vs-gap power law along a run, checks the O(1/(k+1)) bound on the
running-minimum gradient norm, and measures iterate path lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .certificates import SLACK_RTOL, Certificate, Columns, measure_length

__all__ = [
    "Desingularizer",
    "RateReport",
    "FitError",
    "fit_desingularizer",
    "check_rate",
    "measure_length",
]


# Fewest usable samples fit_desingularizer regresses on.
MIN_FIT_SAMPLES = 20


class FitError(ValueError):
    """Raised when the power-law fit is refused (too few usable samples, or no
    concave power law with a finite positive scale fits them)."""


@dataclass(frozen=True)
class Desingularizer:
    """Empirical power-law desingularizer psi(t) = c * t^theta.

    theta in (0, 1] keeps psi increasing and concave with psi(0) = 0. The
    inflation factor makes the fitted psi a majorant over the observed
    samples only; callers needing a certified bound must supply one. r2,
    n_samples, and window document the fit quality.
    """

    c: float
    theta: float
    inflation: float = 1.0
    r2: float = math.nan
    n_samples: int = 0
    window: tuple = (math.nan, math.nan)

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("c must be positive")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        if self.inflation < 1.0:
            raise ValueError("inflation must be >= 1")

    def __call__(self, t):
        return self.c * np.maximum(t, 0.0) ** self.theta

    def majorant(self, t):
        """psi scaled by the sample-covering inflation factor."""
        return self.inflation * self(t)


def fit_desingularizer(
    f_values,
    grad_norms,
    f_star: Optional[float] = None,
) -> Desingularizer:
    """Fit log ||grad f|| against log (f - f*) to recover (c, theta).

    The slope of the regression is 1 - theta and the intercept is
    -log(c * theta), matching psi'(f - f*) * ||grad f|| >= 1 for
    psi(t) = c t^theta. When f_star is None it defaults to the minimum over
    the last ten samples; gaps below 100x the float round-off floor, and
    infinite gaps, are discarded. Raises FitError when fewer than
    MIN_FIT_SAMPLES usable samples remain, when one of them has an infinite
    gradient norm, or when the fit gives no theta in (0, 1] or no finite
    positive c.
    """
    f_values = np.asarray(f_values, dtype=float).ravel()
    grad_norms = np.asarray(grad_norms, dtype=float).ravel()
    if f_values.shape != grad_norms.shape:
        raise ValueError("f_values and grad_norms must have equal length")
    if f_star is None:
        f_star = float(np.min(f_values[-10:]))

    floor = max(1e-13, 100.0 * np.finfo(float).eps * (1.0 + abs(f_star)))

    gaps = f_values - f_star
    keep = (gaps > floor) & (gaps < math.inf) & (grad_norms > 0)
    n = int(np.sum(keep))
    if n < MIN_FIT_SAMPLES:
        raise FitError(
            f"only {n} samples with gap in ({floor:.3g}, inf); "
            f"need >= {MIN_FIT_SAMPLES} (total {f_values.size}, floor {floor:.3g})"
        )
    bad = np.flatnonzero(keep & np.isinf(grad_norms))
    if bad.size:  # named here: the regression would turn NaN, with warnings
        raise FitError(f"sample {bad[0]} has gradient norm inf; "
                       "fitted samples must be finite and positive")

    lx = np.log(gaps[keep])
    ly = np.log(grad_norms[keep])
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    if slope >= 1.0:
        raise FitError(
            f"fitted slope {slope:.4f} >= 1 gives theta <= 0; no concave "
            "power law majorizes these samples"
        )
    theta = min(1.0 - slope, 1.0)
    # samples spanning hundreds of orders of magnitude put exp(-intercept)
    # beyond a float: math.exp raises, or c underflows to 0
    try:
        c = math.exp(-intercept) / theta
    except OverflowError:
        c = math.inf
    if not (math.isfinite(c) and c > 0):
        raise FitError(
            f"fitted intercept {intercept:.4g} gives c = {c:.3g}; "
            "the scale c of psi must be finite and positive"
        )

    # inflate so the KL inequality psi'(gap) * ||grad|| >= 1 holds at every sample
    ratios = gaps[keep] ** (1.0 - theta) / (c * theta * grad_norms[keep])
    inflation = max(1.0, float(np.max(ratios)))
    return Desingularizer(
        c=c,
        theta=theta,
        inflation=inflation,
        r2=r2,
        n_samples=n,
        window=(float(np.min(gaps[keep])), float(np.max(gaps[keep]))),
    )


@dataclass
class RateReport:
    """(k+1) * min_{i<=k} ||grad f(x_i)|| against the constant c_alpha."""

    c_alpha: float
    sup_product: float
    passed: bool
    telescope_ok: bool         # (k+1) * min <= sum_{i<=k} ||grad f(x_i)||

    def summary(self) -> dict:
        return {
            "c_alpha": self.c_alpha,
            "sup_product": self.sup_product,
            "passed": self.passed,
            "telescope_ok": self.telescope_ok,
        }


def check_rate(trace, cert: Certificate, length_bound: float) -> RateReport:
    """Verify sup_k (k+1) * min_{i<=k} ||grad f(x_i)|| <= b_alpha (delta*alpha + 2c).

    trace is a Trace or its Columns. length_bound c is the measured total
    length (or a certified bound on it). The check runs over k = 0..K-1, the
    steps whose successor pair is stored.
    """
    cols = Columns.of(trace, cert)
    gn = cols.grad_norms[1:]  # at x_0..x_K
    K = cols.num_steps
    running_min = np.minimum.accumulate(gn[:K])
    products = np.arange(1, K + 1) * running_min
    c_alpha = cert.b_alpha * (cert.params.delta * cert.params.alpha + 2.0 * length_bound)
    sup_product = float(np.max(products)) if K else 0.0
    passed = sup_product <= c_alpha * (1.0 + SLACK_RTOL)
    # the partial sums' tolerance is applied in place, with no K-long temporary
    bound = np.cumsum(gn[:K])
    bound *= 1.0 + SLACK_RTOL
    bound += 1e-300
    telescope_ok = bool(np.all(products <= bound))
    return RateReport(c_alpha, sup_product, bool(passed), telescope_ok)
