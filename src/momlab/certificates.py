"""Descent certificates for momentum traces.

Computes the closed-form constants that make the Lyapunov decrease
inequality, the gradient-norm bounds, the per-step length bound, and the
iterate length formula executable, then verifies each inequality iterate by
iterate. The per-step inequalities read only per-row scalars, and Columns
checks them a block of rows at a time: as run()'s sink while a trajectory
is stepped, so that it is never held (every CLI command certifies this
way), or from a stored Trace's own arrays, reduced afresh on each call.
Columns is the one implementation of every per-row quantity and per-step
check, and keeps three columns; it fills its blocks and cuts them at a
point that is not finite by the rule run()'s Trace and escape studies'
endpoints are cut by, and reports the cut to the loop, which stops the
run. All constant formulas are pure functions of (M, L, alpha, beta,
gamma, delta, m); the golden values are pinned in the test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .optimizer import _ROW_BLOCK, MomentumParams, _until_cut, safe_alpha
from .problems import Problem, _dot_self, _norms_in_place, _row_norms

__all__ = [
    "Certificate",
    "Columns",
    "PerStepReport",
    "lyapunov",
    "lyapunov_interval",
    "gradient_bound_constants",
    "step_bound_delta1",
    "length_constants",
    "build_certificate",
    "check_descent",
    "check_gradient_bound",
    "check_step_bound",
    "check_length_formula",
    "LengthReport",
]

# Pass tolerance: inequalities are exact in reals; this absorbs float
# accumulation without hiding real violations.
SLACK_RTOL = 1e-9


@dataclass
class PerStepReport:
    """Outcome of one inequality family, one entry per step.

    certified[k] is False from the first step whose iterates leave the ball
    the Lipschitz constants were estimated on; such steps are excluded from
    pass/fail accounting.
    """

    name: str
    slack: np.ndarray       # measured slack, >= ~0 means the inequality holds
    passed: np.ndarray      # bool, only meaningful where certified
    certified: np.ndarray   # bool

    @property
    def num_steps(self) -> int:
        return len(self.slack)

    @property
    def n_certified(self) -> int:
        return int(np.sum(self.certified))

    @property
    def n_pass(self) -> int:
        return int(np.sum(self.passed & self.certified))

    @property
    def n_fail(self) -> int:
        return self.n_certified - self.n_pass

    @property
    def all_pass(self) -> bool:
        return self.n_fail == 0

    @property
    def min_slack(self) -> float:
        sl = self.slack[self.certified]
        return float(np.min(sl)) if sl.size else math.nan

    @property
    def first_failure(self) -> Optional[int]:
        bad = np.nonzero(~self.passed & self.certified)[0]
        return int(bad[0]) if bad.size else None

    def summary(self) -> dict:
        return {
            "name": self.name,
            "steps": self.num_steps,
            "certified": self.n_certified,
            "pass": self.n_pass,
            "fail": self.n_fail,
            "min_slack": self.min_slack,
            "first_failure": self.first_failure,
        }


@dataclass
class Certificate:
    """Closed-form constants for one (problem, params, trust ball) triple."""

    M: float
    L: float
    params: MomentumParams
    alpha_bar: float
    lambda_minus: float
    lambda_plus: float
    lam: float                  # midpoint of (lambda_minus, lambda_plus)
    c1: float
    c2: float
    b_alpha: float
    delta1: float
    c3: float
    zeta: float
    eta: float
    kappa: float
    m_crit: int
    ball_center: np.ndarray
    ball_radius: float
    certified_params: bool      # alpha <= alpha_bar
    per_step: dict = field(default_factory=dict)  # name -> PerStepReport

    def constants(self) -> dict:
        return {
            "M": self.M,
            "L": self.L,
            "alpha": self.params.alpha,
            "beta": self.params.beta,
            "gamma": self.params.gamma,
            "delta": self.params.delta,
            "alpha_bar": self.alpha_bar,
            "lambda_minus": self.lambda_minus,
            "lambda_plus": self.lambda_plus,
            "lambda": self.lam,
            "c1": self.c1,
            "c2": self.c2,
            "b_alpha": self.b_alpha,
            "delta1": self.delta1,
            "c3": self.c3,
            "zeta": self.zeta,
            "eta": self.eta,
            "kappa": self.kappa,
            "m_crit": self.m_crit,
            "ball_radius": self.ball_radius,
            "certified_params": self.certified_params,
        }

    def to_json(self, path) -> None:
        """Write certificate.json: the constants and every check's per-step arrays.

        In each check the per-step certified list takes the place of
        summary()'s certified count, right after steps.
        """
        payload = {
            "constants": self.constants(),
            "checks": {
                name: {
                    **rep.summary(),
                    "slack": rep.slack,
                    "passed": rep.passed,
                    "certified": rep.certified,
                }
                for name, rep in self.per_step.items()
            },
        }
        with open(path, "w") as fh:
            _dump_indent1(payload, fh)


def _dump_indent1(obj, fh, level: int = 0) -> None:
    """json.dump(obj, fh, indent=1), byte for byte, for nested dicts of
    scalars and of flat sequences (lists or 1-D arrays) of numbers and bools.

    With an indent json.dump encodes every list item in Python; here a
    sequence is streamed in chunks of _ROW_BLOCK items, each encoded at once
    by json's C encoder (json.dumps) with its ", " separators laid out one
    item per line, and written before the next is made. Only one chunk's
    list and text are alive at a time, whatever the sequence's length.
    """
    pad = "\n" + " " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            fh.write("{}")
            return
        sep = "{" + pad
        for key, value in obj.items():
            fh.write(sep + json.dumps(key) + ": ")
            _dump_indent1(value, fh, level + 1)
            sep = "," + pad
        fh.write("\n" + " " * level + "}")
    elif isinstance(obj, (list, np.ndarray)):
        if not len(obj):
            fh.write("[]")
            return
        sep = "[" + pad
        for i in range(0, len(obj), _ROW_BLOCK):
            chunk = obj[i:i + _ROW_BLOCK]
            text = json.dumps(chunk.tolist() if isinstance(chunk, np.ndarray) else chunk)
            fh.write(sep + text[1:-1].replace(", ", "," + pad))
            sep = "," + pad
        fh.write("\n" + " " * level + "]")
    else:
        fh.write(json.dumps(obj))


def lyapunov(problem: Problem, x, y, lam: float) -> float:
    """Energy f(x) + lam * ||x - y||^2 of the iterate pair (x, y)."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x - y
    return problem.value(x) + lam * float(d @ d)


def lyapunov_interval(M: float, params: MomentumParams):
    """Admissible Lyapunov weights and the descent margin at the midpoint.

    Returns (lambda_minus, lambda_plus, lambda_mid, c1). Requires
    alpha <= safe_alpha(M, params); the error names the violated bound.
    """
    a, b, g = params.alpha, params.beta, params.gamma
    bar = safe_alpha(M, params)
    if a > bar * (1.0 + 1e-15):
        if a > 1.0 / M:
            raise ValueError(f"alpha = {a} exceeds 1/M = {1.0 / M}")
        raise ValueError(
            f"alpha = {a} exceeds (1-beta^2)/(2(beta^2+2|beta-gamma|)M) = {bar}"
        )
    lo, hi, mid = _lambda_interval_raw(M, params)
    c1 = min(mid - lo, hi - mid)
    return lo, hi, mid, c1


def _lambda_interval_raw(M, params):
    a, b, g = params.alpha, params.beta, params.gamma
    lo = (1.0 / (2.0 * a) + M / 2.0) * b * b + abs(b - g) * M / 2.0
    hi = 1.0 / (2.0 * a) - abs(b - g) * M / 2.0
    mid = (b * b + 1.0 + M * b * b * a) / (4.0 * a)
    return lo, hi, mid


def gradient_bound_constants(M: float, params: MomentumParams, lam: float):
    """(b_alpha, c2): per-step bounds on ||grad f|| and ||grad H_lam||."""
    a, b, g = params.alpha, params.beta, params.gamma
    b_alpha = math.sqrt(2.0) * max(1.0 / a, abs(b) / a + M * abs(g))
    c2 = math.sqrt(2.0) * max(1.0 / a, abs(b) / a + M * (abs(g) + 1.0) + 4.0 * lam)
    return b_alpha, c2


def step_bound_delta1(L: float, params: MomentumParams) -> float:
    """Velocity bound delta1 with ||x_k - x_{k-1}|| <= delta1 * alpha.

    L is the gradient-norm bound of f itself (as returned by
    estimate_lipschitz); it is rescaled here by 1/(1-beta).
    """
    return params.delta + L / (1.0 - params.beta)


def length_constants(M: float, L: float, params: MomentumParams, m_crit: int):
    """(c3, zeta, eta, kappa) entering the iterate length formula.

    m_crit bounds the number of critical values in the trust region. L is
    again the raw gradient-norm bound of f; the 1/(1-beta) rescaling is
    applied internally.
    """
    if m_crit < 1:
        raise ValueError("m_crit must be >= 1")
    b, g, d = params.beta, params.gamma, params.delta
    L_scaled = L / (1.0 - b)
    c3 = 8.0 * math.sqrt(2.0) * (2.0 + abs(g) + 3.0 * abs(b)) / (1.0 - b * b)
    zeta = 2.0 * math.sqrt(2.0) * (d + L_scaled)
    eta = 2.0 * m_crit * d * d * (b * b + 1.0 + M * b * b) / 4.0
    kappa = 2.0 * m_crit * zeta
    return c3, zeta, eta, kappa


def build_certificate(
    M: float,
    L: float,
    params: MomentumParams,
    ball_center,
    ball_radius: float,
    m_crit: int = 1,
    strict: bool = True,
) -> Certificate:
    """Assemble all constants for a run inside B(ball_center, ball_radius).

    With strict=True an over-large alpha raises (same condition as
    lyapunov_interval); with strict=False the constants are still computed
    so that deliberate violations can be measured, and certified_params
    records the breach.
    """
    bar = safe_alpha(M, params)
    ok = params.alpha <= bar * (1.0 + 1e-15)
    if strict and not ok:
        lyapunov_interval(M, params)  # raises with the violated bound
    lo, hi, mid = _lambda_interval_raw(M, params)
    c1 = min(mid - lo, hi - mid)
    b_alpha, c2 = gradient_bound_constants(M, params, mid)
    c3, zeta, eta, kappa = length_constants(M, L, params, m_crit)
    return Certificate(
        M=M,
        L=L,
        params=params,
        alpha_bar=bar,
        lambda_minus=lo,
        lambda_plus=hi,
        lam=mid,
        c1=c1,
        c2=c2,
        b_alpha=b_alpha,
        delta1=step_bound_delta1(L, params),
        c3=c3,
        zeta=zeta,
        eta=eta,
        kappa=kappa,
        m_crit=m_crit,
        ball_center=np.asarray(ball_center, dtype=float),
        ball_radius=float(ball_radius),
        certified_params=bool(ok),
    )


class Columns:
    """The per-row columns and per-step reports of one trajectory.

    A run() sink: take() reduces each block of recorded rows to per-row
    scalars, checks each step whose last point the block holds, and drops
    the block, so a trajectory of K steps is held as three 8-byte columns
    (24 bytes a point) and three per-step reports whatever its dim.
    finish() joins them one at a time, dropping each column's or report's
    parts once it is joined. For points x_{-1}..x_K:

    - f and grad_norms (||grad f(x_k)||, as np.linalg.norm rounds it), one
      per point; f, and grads when a block carries none, are filled by
      optimizer._until_cut, and take cuts the block at its first point
      (x_0 or later) whose value or gradient is not finite and reports the
      cut: the one rule every recorder, run()'s Trace included, cuts by;
    - step_norms, ||x_k - x_{k-1}|| for k = 0..K;
    - certified, per step k = 0..K-1: False from the first step whose
      iterates leave cert's trust ball on;
    - reports, the PerStepReport of descent, gradient_bound and step_bound
      by name, all three on every trajectory.

    Step k reads x_{k-1}, x_k and x_{k+1}; take checks it once x_{k+1}
    arrives, carrying four scalars of a block's last point across the
    block edge. Each expression is evaluated on a block exactly as on the
    whole array, so nothing depends on where the blocks end. A stored
    Trace is certified through the same reducer: see Columns.of.
    """

    _NAMES = ("f", "grad_norms", "step_norms")
    _CHECKS = ("descent", "gradient_bound", "step_bound")

    def __init__(self, problem: Optional[Problem], cert: Certificate):
        self._problem = problem
        self._cert = cert
        self._limit = cert.ball_radius * (1.0 + 1e-12)
        # each column's parts, and each check's (slack, passed) parts
        self._parts = {name: [] for name in (*self._NAMES, *self._CHECKS)}
        # the joined (read-only) columns and the reports, set by finish
        self.f = self.grad_norms = self.step_norms = self.certified = self.reports = None
        self._last = None     # the last point taken
        self._carry = np.empty((4, 0))  # its take() rows entry, once it has a predecessor
        self._n = 0           # points taken
        self._exit = None     # index of the first point outside the ball
        self.stop_reason = None

    @classmethod
    def of(cls, trace, cert: Certificate) -> "Columns":
        """The columns of trace for cert: trace itself if it is Columns.

        A stored Trace passes its own points, grads and f through take, a
        row block at a time, afresh on every call: a caller that runs
        several checks on one Trace reduces it once and passes the Columns.
        """
        if isinstance(trace, Columns):
            return trace
        cols = cls(None, cert)
        n = len(trace.points)
        for i in range(0, n, _ROW_BLOCK):
            j = min(i + _ROW_BLOCK, n)
            cols.take(trace.points[i:j], trace.grads[i:j], trace.f[i:j])
        cols.finish(trace.stop_reason)
        return cols

    def take(self, points: np.ndarray, grads: Optional[np.ndarray], f=None) -> bool:
        """Reduce the next block of points (with their gradients and values,
        each evaluated here when None). Returns whether the block was cut
        at a point that is not finite, so the loop stops the run there."""
        first = self._last is None
        cut = False
        if f is None:
            points, f, grads, cut = _until_cut(self._problem, points, grads, first)
        if self._exit is None:
            out = np.flatnonzero(~(_norms_in_place(points - self._cert.ball_center) <= self._limit))
            if out.size:
                self._exit = self._n + int(out[0])
        # x_k - x_{k-1} for every point of the block that has a predecessor
        if first:
            d = points[1:] - points[:-1]
        else:
            d = np.empty_like(points)
            np.subtract(points[:1], self._last, out=d[:1])
            np.subtract(points[1:], points[:-1], out=d[1:])
        # grad H(x, y) = (grad f(x) + 2 lam (x - y), 2 lam (y - x)) at (x_k, x_{k-1})
        h = d * (2.0 * self._cert.lam)
        h_sq = _dot_self(h)
        grads_d = grads[len(grads) - len(d):]
        h += grads_d
        sn = _norms_in_place(d)
        H = sn**2  # H_lam(z_k), as lyapunov_values takes it
        H *= self._cert.lam
        H += f[len(f) - len(d):]
        # rows sn, ||grad H_lam|| (gH), gradient row norm (rn) and H: the last
        # point's carried entry, then one per point with a predecessor
        rows = np.concatenate(
            [self._carry, [sn, np.sqrt(_dot_self(h) + h_sq), _row_norms(grads_d), H]], axis=1)
        self._carry = rows[:, -1:].copy()
        self._n += len(points)
        columns = (f, np.linalg.norm(grads, axis=1), sn, *_checked(self._cert, *rows, self._n))
        for name, column in zip((*self._NAMES, *self._CHECKS), columns):
            self._parts[name].append(column)
        self._last = points[-1].copy()
        return cut

    def finish(self, reason: str) -> "Columns":
        """Join the columns and reports of a run that stopped for reason; returns self."""
        self.stop_reason = reason
        # one at a time, each column's or report's parts dropped once joined
        parts, self._parts = self._parts, None
        for name in self._NAMES:
            setattr(self, name, _joined(parts.pop(name)))
        # False from the first ball exit on: point index i is iterate x_{i-1},
        # and step k touches points k, k+1 and k+2
        exit_step = self.num_steps if self._exit is None else max(self._exit - 2, 0)
        self.certified = _joined([np.arange(self.num_steps) < exit_step])
        self.reports = {name: PerStepReport(name, *map(_joined, zip(*parts.pop(name))),
                                            self.certified) for name in self._CHECKS}
        return self

    @property
    def num_steps(self) -> int:
        return self._n - 2


def _joined(parts) -> np.ndarray:
    """The read-only concatenation of parts."""
    joined = np.concatenate(parts)
    joined.flags.writeable = False
    return joined


def lyapunov_values(trace, lam: float) -> np.ndarray:
    """H_lam(z_k) = f(x_k) + lam * ||x_k - x_{k-1}||^2 for k = 0..K.

    trace is a Trace or Columns: the f and step_norms of either.
    """
    # f + lam * sn**2, with its products and sums in place
    H = trace.step_norms**2  # sn[i] = ||x_i - x_{i-1}||, i = 0..K
    H *= lam
    H += trace.f[1:]
    return H


def check_descent(trace, cert: Certificate) -> PerStepReport:
    """Per-step Lyapunov decrease with margin c1.

    slack_k = H(z_k) - H(z_{k+1}) - c1 (||x_{k+1}-x_k||^2 + ||x_k-x_{k-1}||^2);
    a step passes iff slack_k >= -SLACK_RTOL * (1 + |H(z_k)|). trace is a
    Trace or its Columns, as for every check: the report is its Columns'.
    """
    return Columns.of(trace, cert).reports["descent"]


# The checks' expressions run elementwise on a block's rows, so a block
# gives the whole run's bits. Each is taken in place where a temporary
# would be dropped at once, with its products and sums in the inequality's order.

def _neg_tol(x: np.ndarray) -> np.ndarray:
    """-SLACK_RTOL * (1 + x), written into x."""
    x += 1.0
    x *= -SLACK_RTOL
    return x


def _first_max(a, b):
    """Elementwise max(a, b) as Python's max picks it (a on ties and NaN)."""
    return np.where(b > a, b, a)


def _first_min(a, b):
    """Elementwise min(a, b) as Python's min picks it (a on ties and NaN),
    written into a."""
    np.copyto(a, b, where=b < a)
    return a


def check_gradient_bound(trace, cert: Certificate) -> PerStepReport:
    """Both per-step gradient bounds: ||grad f(x_k)|| <= b_alpha ||z_{k+1}-z_k||
    and max(||grad H(z_k)||, ||grad H(z_{k+1})||) <= c2 ||z_{k+1}-z_k||.

    The reported slack is the smaller of the two normalized slacks.
    """
    return Columns.of(trace, cert).reports["gradient_bound"]


def check_step_bound(trace, cert: Certificate) -> PerStepReport:
    """Per-step velocity bounds from the geometric decay of momentum.

    Checks ||x_k - x_{k-1}|| <= delta1 * alpha, the sharper decaying form
    (delta |beta|^k + L/(1-beta)) * alpha, and the paired-step version
    ||z_k - z_{k-1}|| <= sqrt(2) delta1 alpha. Valid for beta >= 0; for
    beta < 0 the printed constant is optimistic and the report says so via
    its slack.
    """
    return Columns.of(trace, cert).reports["step_bound"]


def _checked(cert: Certificate, sn, gH, rn, H, n: int):
    """(slack, passed) of each check for the steps between entries i, i + 1 of
    Columns.take's rows (sn, gH, rn, H), whose last is point n - 1."""
    # float_power squares with pow(), as a float64 scalar ** 2 does; the
    # array ** 2 multiplies and can differ in the last bit
    sq = np.float_power(sn, 2.0)
    margin = sq[1:] + sq[:-1]
    margin *= cert.c1
    slack = H[:-1] - H[1:]
    slack -= margin
    descent = slack, slack >= _neg_tol(np.abs(H[:-1]))
    # ||z_{k+1} - z_k|| by math.hypot, which np.hypot does not match in the last bit
    z_gap = np.array(list(map(math.hypot, sn[1:].tolist(), sn[:-1].tolist())))
    # each bound times ||z_{k+1}-z_k|| serves its slack, then its tolerance
    b_gap = cert.b_alpha * z_gap
    slack = b_gap - rn[:-1]
    c_gap = cert.c2 * z_gap
    slack_c2 = c_gap - _first_max(gH[:-1], gH[1:])
    passed = (slack >= _neg_tol(b_gap)) & (slack_c2 >= _neg_tol(c_gap))
    gradient_bound = _first_min(slack, slack_c2), passed
    p = cert.params
    sn = sn[1:]  # ||x_{k+1} - x_k||, the result of step k
    L_scaled = cert.L / (1.0 - p.beta)
    flat = cert.delta1 * p.alpha - sn
    # (delta |beta|^(k+1) + L_scaled) alpha - sn[k] at the run's step index k;
    # float_power is the scalar pow of |beta| ** (k+1), np.power is not
    decay = np.float_power(abs(p.beta), np.arange(n - 1 - len(sn), n - 1))
    decay *= p.delta
    decay += L_scaled
    decay *= p.alpha
    decay -= sn
    z_bound = math.sqrt(2.0) * cert.delta1 * p.alpha - z_gap
    tol = SLACK_RTOL * (1.0 + cert.delta1 * p.alpha)
    passed = (flat >= -tol) & (decay >= -tol) & (z_bound >= -tol)
    return descent, gradient_bound, (_first_min(_first_min(flat, decay), z_bound), passed)


@dataclass
class LengthReport:
    total_length: float
    bound: float
    ratio: float
    passed: bool
    psi_at_gap: float
    kappa_alpha: float


def check_length_formula(trace, cert: Certificate, psi) -> LengthReport:
    """Iterate length against psi(f(x_0) - f(x_K) + eta*alpha) + kappa*alpha.

    psi may be a Desingularizer (its sample-covering inflation is applied)
    or any callable; callables are validated to be increasing and concave
    with psi(0) = 0 on a sample grid and rejected otherwise.
    """
    fn = _as_majorant(psi)
    cols = Columns.of(trace, cert)
    total = measure_length(cols)[0]
    gap = cols.f[1] - cols.f[-1] + cert.eta * cert.params.alpha
    psi_val = float(fn(max(gap, 0.0)))
    bound = psi_val + cert.kappa * cert.params.alpha
    ratio = total / bound if bound > 0 else math.inf
    passed = total <= bound * (1.0 + SLACK_RTOL)
    return LengthReport(total, bound, ratio, bool(passed), psi_val, cert.kappa * cert.params.alpha)


def measure_length(trace):
    """Total and per-k partial sums of ||x_{k+1} - x_k|| over steps 0..K-1.

    trace is a Trace or Columns: the step_norms of either (one of the three
    columns Columns keeps), summed in step order (np.cumsum) so that every
    report gives one total.
    """
    sn = trace.step_norms[1:]  # exclude the x_{-1} -> x_0 gap
    partial = np.cumsum(sn)
    total = float(partial[-1]) if partial.size else 0.0
    return total, partial


def _as_majorant(psi) -> Callable[[float], float]:
    inflated = getattr(psi, "majorant", None)
    if inflated is not None:
        return inflated
    if not callable(psi):
        raise TypeError("psi must be callable or a Desingularizer")
    if abs(psi(0.0)) > 1e-12:
        raise ValueError("psi(0) must be 0")
    ts = np.linspace(0.0, 10.0, 65)
    vals = np.array([psi(t) for t in ts])
    if np.any(np.diff(vals) <= 0):
        raise ValueError("psi must be strictly increasing")
    second = np.diff(vals, 2)  # uniform grid, so sign tests concavity
    if np.any(second > 1e-9 * (1.0 + np.abs(vals[:-2]))):
        raise ValueError("psi must be concave")
    return psi
