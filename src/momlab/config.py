"""Experiment configuration: YAML schema, validation, and problem assembly.

A config is one YAML document with nested sections. Every random choice is
seeded and the seeds are echoed into the outputs, so a config + seed pair
pins the experiment byte for byte.

Schema (defaults in parentheses):

    problem:
      kind: quadratic | indefinite_quadratic | quartic |
            matrix_factorization | matrix_sensing | linear_network
      dim: 2                 # synthetic fixtures
      m: 3; n: 3; rank: 1    # factorization / sensing shapes
      p: 6                   # sensing measurement count
      widths: [2, 3, 3, 2]   # linear network layer widths
      samples: 4             # data columns for linear networks
      seed: 0                # instance seed for random data
    params:
      alpha: auto | float    # auto = 0.9 * safe step bound
      beta: 0.0
      gamma: 0.0             # |gamma| <= 10 (harness cap)
      preset: generic | heavy_ball | nesterov
      delta: 0.0
    init:
      x0: [..] | {random: {radius: r, seed: s}}
      x_minus1: [..]         # optional; default respects delta
    lipschitz:
      mode: sampled (default) | analytic
      radius: float (problem.suggested_box)
      center: x0 (default) | origin | [..]
      seed: 0
    stop:
      max_iters: 2000; grad_tol: 0.0; box_radius: lipschitz.radius
    checks: [descent, grad_bounds, step_bounds, rate, length, kl_fit]
    m_crit: int              # critical-value count bound (problem default)
    track: {horizon: 1.0, alphas: [..]}          # cmd_track only
    saddle: {point: origin | [..], radius: 1e-3, trials: 100, seed: 0}
    sweep: {alphas: [..], betas: [..], gammas: [..], seeds: [..]}
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from .optimizer import MomentumParams, StopRules
from .problems import (
    Problem,
    linear_network,
    matrix_factorization,
    matrix_sensing,
    synthetic,
)

__all__ = ["ConfigError", "ExperimentConfig", "load_config"]

KNOWN_CHECKS = ("descent", "grad_bounds", "step_bounds", "rate", "length", "kl_fit")
GAMMA_CAP = 10.0  # harness limit: extreme gamma blows up the estimation ball
DEFAULT_M_CRIT = {"quadratic": 1, "indefinite_quadratic": 1, "quartic": 1}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _need(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required field")
    return section[key]


def _as_float(v, path):
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number, got {v!r}") from None


def _as_int(v, path):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    return v


@dataclass
class ExperimentConfig:
    raw: dict
    problem: Problem
    alpha_spec: object            # "auto" or float
    beta: float
    gamma: float
    preset: str
    delta: float
    x0_spec: object               # vector or {"random": {...}}
    x_minus1_spec: Optional[list]
    lipschitz_mode: str
    lipschitz_radius: Optional[float]
    lipschitz_center: object      # "x0" | "origin" | vector
    lipschitz_seed: int
    stop: StopRules
    checks: tuple
    m_crit: int
    notes: list = field(default_factory=list)
    track: Optional[dict] = None
    saddle: Optional[dict] = None
    sweep: Optional[dict] = None

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, default=str).encode()
        ).hexdigest()[:16]

    def resolve_x0(self, rng_seed_offset: int = 0) -> tuple[np.ndarray, dict]:
        """Concrete x0 plus the seeds actually used."""
        if isinstance(self.x0_spec, dict):
            spec = self.x0_spec["random"]
            seed = int(spec.get("seed", 0)) + rng_seed_offset
            rng = np.random.default_rng(seed)
            radius = float(spec.get("radius", 1.0))
            x0 = rng.uniform(-radius, radius, size=self.problem.dim)
            return x0, {"init_seed": seed, "init_radius": radius}
        x0 = np.asarray(self.x0_spec, dtype=float)
        if x0.shape != (self.problem.dim,):
            raise ConfigError(
                f"init.x0: length {x0.size} does not match problem dim {self.problem.dim}"
            )
        return x0, {}

    def momentum_params(self, alpha: float) -> MomentumParams:
        return MomentumParams(alpha, self.beta, self.gamma, self.preset, self.delta)


def _build_problem(section: dict) -> tuple[Problem, list]:
    notes = []
    kind = _need(section, "kind", "problem")
    seed = section.get("seed", 0)
    rng = np.random.default_rng(seed)
    if kind in ("quadratic", "indefinite_quadratic", "quartic"):
        dim = section.get("dim", 2 if kind != "quartic" else 1)
        return synthetic(kind, dim=_as_int(dim, "problem.dim")), notes
    if kind == "matrix_factorization":
        m = _as_int(section.get("m", 3), "problem.m")
        n = _as_int(section.get("n", 3), "problem.n")
        r = _as_int(section.get("rank", 1), "problem.rank")
        M = rng.standard_normal((m, n))
        prob = matrix_factorization(M, r)
        prob.info["seed"] = seed
        return prob, notes
    if kind == "matrix_sensing":
        m = _as_int(section.get("m", 3), "problem.m")
        n = _as_int(section.get("n", 3), "problem.n")
        r = _as_int(section.get("rank", 1), "problem.rank")
        p = _as_int(section.get("p", 6), "problem.p")
        A = [rng.standard_normal((m, n)) for _ in range(p)]
        X = rng.standard_normal((m, r))
        Y = rng.standard_normal((n, r))
        target = X @ Y.T
        b = [float(np.sum(Ai * target)) for Ai in A]
        prob = matrix_sensing(A, b, r)
        prob.info["seed"] = seed
        notes.append(
            "matrix sensing: no restricted-isometry check is performed; "
            "boundedness of gradient trajectories is assumed, not verified"
        )
        return prob, notes
    if kind == "linear_network":
        widths = section.get("widths", [2, 3, 3, 2])
        if not isinstance(widths, list) or len(widths) < 2:
            raise ConfigError("problem.widths: expected a list of at least two widths")
        cols = _as_int(section.get("samples", 4), "problem.samples")
        Xb = rng.standard_normal((int(widths[0]), cols))
        Yb = rng.standard_normal((int(widths[-1]), cols))
        prob = linear_network(Xb, Yb, widths)
        prob.info["seed"] = seed
        return prob, notes
    raise ConfigError(f"problem.kind: unknown kind {kind!r}")


def load_config(path, seed: Optional[int] = None) -> ExperimentConfig:
    """Read and validate a YAML config; seed, when given, replaces problem.seed."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as e:
        raise ConfigError(f"{path}: not valid YAML ({e})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    if seed is not None:
        raw["problem"] = dict(_need(raw, "problem", "<top>"), seed=seed)
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    problem, notes = _build_problem(_need(raw, "problem", "<top>"))

    pz = raw.get("params", {})
    alpha_spec = pz.get("alpha", "auto")
    if alpha_spec != "auto":
        alpha_spec = _as_float(alpha_spec, "params.alpha")
        if alpha_spec <= 0:
            raise ConfigError("params.alpha: must be positive or 'auto'")
    beta = _as_float(pz.get("beta", 0.0), "params.beta")
    if not -1 < beta < 1:
        raise ConfigError(f"params.beta: must lie in (-1, 1), got {beta}")
    preset = pz.get("preset", "generic")
    if preset == "heavy_ball":
        gamma = 0.0
    elif preset == "nesterov":
        gamma = beta
    elif preset == "generic":
        gamma = _as_float(pz.get("gamma", 0.0), "params.gamma")
    else:
        raise ConfigError(f"params.preset: unknown preset {preset!r}")
    if "gamma" in pz and preset in ("heavy_ball", "nesterov"):
        if _as_float(pz["gamma"], "params.gamma") != gamma:
            raise ConfigError(f"params.gamma: conflicts with preset {preset!r}")
    if abs(gamma) > GAMMA_CAP:
        raise ConfigError(
            f"params.gamma: |gamma| capped at {GAMMA_CAP} by this harness "
            "(estimation balls grow with |gamma|)"
        )
    delta = _as_float(pz.get("delta", 0.0), "params.delta")
    if delta < 0:
        raise ConfigError("params.delta: must be nonnegative")

    init = raw.get("init", {})
    x0_spec = init.get("x0", {"random": {"radius": 1.0, "seed": 0}})
    if isinstance(x0_spec, dict):
        if "random" not in x0_spec:
            raise ConfigError("init.x0: mapping form must be {random: {radius, seed}}")
    elif not isinstance(x0_spec, list):
        raise ConfigError("init.x0: expected a list or {random: ...}")
    x_minus1 = init.get("x_minus1")
    if x_minus1 is not None and not isinstance(x_minus1, list):
        raise ConfigError("init.x_minus1: expected a list")

    lz = raw.get("lipschitz", {})
    # alpha 'auto' always has a Lipschitz route: mode defaults to sampled
    mode = lz.get("mode", "sampled")
    if mode not in ("sampled", "analytic"):
        raise ConfigError(f"lipschitz.mode: expected sampled|analytic, got {mode!r}")
    radius = lz.get("radius")
    radius = None if radius is None else _as_float(radius, "lipschitz.radius")
    if radius is not None and radius <= 0:
        raise ConfigError("lipschitz.radius: must be positive")
    center = lz.get("center", "x0")
    if not (center in ("x0", "origin") or isinstance(center, list)):
        raise ConfigError("lipschitz.center: expected x0|origin|[..]")

    sz = raw.get("stop", {})
    stop = StopRules(
        max_iters=_as_int(sz.get("max_iters", 2000), "stop.max_iters"),
        grad_tol=_as_float(sz.get("grad_tol", 0.0), "stop.grad_tol"),
        box_radius=_as_float(sz["box_radius"], "stop.box_radius")
        if "box_radius" in sz
        else np.inf,
    )

    checks = raw.get("checks", ["descent", "grad_bounds", "step_bounds", "rate"])
    if not isinstance(checks, list):
        raise ConfigError("checks: expected a list")
    for c in checks:
        if c not in KNOWN_CHECKS:
            raise ConfigError(f"checks: unknown check {c!r}; known: {KNOWN_CHECKS}")

    kind = raw["problem"]["kind"]
    default_m = DEFAULT_M_CRIT.get(kind, 4)
    if kind not in DEFAULT_M_CRIT and "m_crit" not in raw:
        notes.append(
            f"m_crit defaulted to {default_m} for {kind}: the exact critical-value "
            "count is problem dependent and only finiteness is guaranteed"
        )
    m_crit = _as_int(raw.get("m_crit", default_m), "m_crit")
    if m_crit < 1:
        raise ConfigError("m_crit: must be >= 1")

    track = raw.get("track")
    if track is not None:
        alphas = track.get("alphas")
        if not isinstance(alphas, list) or len(alphas) < 2:
            raise ConfigError("track.alphas: need at least two step sizes for a slope")
        track = {
            "horizon": _as_float(track.get("horizon", 1.0), "track.horizon"),
            "alphas": [_as_float(a, "track.alphas") for a in alphas],
        }

    saddle = raw.get("saddle")
    if saddle is not None:
        point = saddle.get("point", "origin")
        if not (point == "origin" or isinstance(point, list)):
            raise ConfigError("saddle.point: expected origin|[..]")
        saddle = {
            "point": point,
            "radius": _as_float(saddle.get("radius", 1e-3), "saddle.radius"),
            "trials": _as_int(saddle.get("trials", 100), "saddle.trials"),
            "seed": _as_int(saddle.get("seed", 0), "saddle.seed"),
        }
        if saddle["trials"] < 1:
            raise ConfigError("saddle.trials: must be >= 1")

    sweep = raw.get("sweep")
    if sweep is not None:
        def grid_list(key, fallback):
            v = sweep.get(key, fallback)
            if not isinstance(v, list) or not v:
                raise ConfigError(f"sweep.{key}: expected a non-empty list")
            return v

        alphas = [
            a if a == "auto" else _as_float(a, "sweep.alphas")
            for a in grid_list("alphas", ["auto"])
        ]
        sweep = {
            "alphas": alphas,
            "betas": [_as_float(b, "sweep.betas") for b in grid_list("betas", [beta])],
            "gammas": [_as_float(g, "sweep.gammas") for g in grid_list("gammas", [gamma])],
            "seeds": [_as_int(s, "sweep.seeds") for s in grid_list("seeds", [0])],
        }
        cells = (
            len(sweep["alphas"]) * len(sweep["betas"]) * len(sweep["gammas"]) * len(sweep["seeds"])
        )
        if cells == 0:
            raise ConfigError("sweep: empty grid")
        if cells > 10_000:
            raise ConfigError(f"sweep: grid has {cells} cells, limit is 10000")

    return ExperimentConfig(
        raw=raw,
        problem=problem,
        alpha_spec=alpha_spec,
        beta=beta,
        gamma=gamma,
        preset=preset,
        delta=delta,
        x0_spec=x0_spec,
        x_minus1_spec=x_minus1,
        lipschitz_mode=mode,
        lipschitz_radius=radius,
        lipschitz_center=center,
        lipschitz_seed=_as_int(lz.get("seed", 0), "lipschitz.seed"),
        stop=stop,
        checks=tuple(checks),
        m_crit=m_crit,
        notes=notes,
        track=track,
        saddle=saddle,
        sweep=sweep,
    )
