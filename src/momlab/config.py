"""Experiment configuration: YAML schema, validation, and problem assembly.

A config is one YAML document with nested sections. Every random choice is
seeded and the seeds are echoed into the outputs, so a config + seed pair
pins the experiment byte for byte.

Schema (defaults in parentheses):

    problem:
      kind: quadratic | indefinite_quadratic | quartic |
            matrix_factorization | matrix_sensing | linear_network
      dim: 2                 # quadratic only
      m: 3; n: 3; rank: 1    # factorization / sensing shapes
      p: 6                   # sensing measurement count
      widths: [2, 3, 3, 2]   # linear network layer widths
      samples: 4             # data columns for linear networks
      seed: 0                # instance seed for random data (any kind)
    params:
      alpha: auto | float    # auto = 0.9 * safe step bound
      beta: 0.0
      gamma: 0.0             # |gamma| <= 10 (harness cap)
      preset: generic | heavy_ball | nesterov
      delta: 0.0
    init:
      x0: [..] | {random: {radius: 1.0, seed: 0}}
      x_minus1: [..]         # optional; default respects delta
    lipschitz:
      mode: sampled (default) | analytic
      radius: float (problem.suggested_box)
      center: x0 (default) | origin | [..]
      seed: 0
    stop:
      max_iters: 2000; grad_tol: 0.0; box_radius: lipschitz.radius
    checks: [descent, grad_bounds, step_bounds, rate, length, kl_fit]
                             # default all but length and kl_fit; a sweep
                             # takes only descent and rate (its default)
    m_crit: int              # critical-value count bound (problem default)
    track: {horizon: 1.0, alphas: [..]}   # horizon >= every alpha
    saddle: {point: origin | [..], radius: 1e-3, trials: 100, seed: 0}
    sweep: {alphas: [..], betas: [..], gammas: [..], seeds: [..]}

Every key a section does not list is rejected, and so are problem keys
that the chosen kind does not use and, by load_config, keys the command
it loads for does not read (COMMAND_KEYS): track reads only
problem, params.beta/gamma/preset, init.x0 and track; saddle only problem,
params, stop and saddle; run everything but track, saddle and sweep; sweep
everything but m_crit, track and saddle, and of the checks only the two
sweep.csv reports. Numbers (scalars and vector entries) must be finite and
not booleans, vectors must have problem-dim entries, seeds are integers
>= 0 and sizes integers >= 1, and neither track.alphas nor a sweep list may
repeat a value. track.horizon is at least every track.alphas entry, or
that rung would take no step.
A sweep cell is the config with its (alpha, beta, gamma) replaced; under a
heavy_ball or nesterov preset each cell's gamma follows the preset (0, or
the cell's beta), so sweep.gammas may be left out, and a value that
contradicts the preset is rejected before any cell runs. A sweep seed
offsets only the random init.x0 seed, so sweep.seeds holds one seed when
init.x0 is a list.
"""

from __future__ import annotations

import hashlib
import json
import math
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

# problem keys beyond kind and seed, by kind; a key the kind does not use is rejected
PROBLEM_KEYS = {
    "quadratic": ("dim",),
    "indefinite_quadratic": (),
    "quartic": (),
    "matrix_factorization": ("m", "n", "rank"),
    "matrix_sensing": ("m", "n", "rank", "p"),
    "linear_network": ("widths", "samples"),
}

# the config keys each command reads: a whole section, or "section.key" when
# it reads only some keys of that section; load_config rejects the others
COMMAND_KEYS = {
    "run": ("problem", "params", "init", "lipschitz", "stop", "checks", "m_crit"),
    "sweep": ("problem", "params", "init", "lipschitz", "stop", "checks", "sweep"),
    "track": ("problem", "params.beta", "params.gamma", "params.preset", "init.x0", "track"),
    "saddle": ("problem", "params", "stop", "saddle"),
}
# the checks sweep.csv reports (descent's min slack and rate's sup), and a
# sweep's default; its length column is the path length, which every cell has
SWEEP_CHECKS = ("descent", "rate")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


def _need(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required field")
    return section[key]


def _mapping(value, path: str, known) -> dict:
    """value as a mapping whose keys all appear in known; None reads as {}."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {value!r}")
    for key in value:
        if key not in known:
            raise ConfigError(
                f"{path}.{key}: unknown key; known: {', '.join(known) or 'none'}"
            )
    return value


def _as_float(v, path):
    """v as a finite float; booleans, NaN and infinities are rejected."""
    try:
        x = math.nan if isinstance(v, bool) else float(v)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {v!r}")
    return x


def _as_int(v, path):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    return v


def _int_at_least(v, path, low: int) -> int:
    v = _as_int(v, path)
    if v < low:
        raise ConfigError(f"{path}: must be >= {low}, got {v}")
    return v


def _positive(v, path) -> float:
    v = _as_float(v, path)
    if not v > 0:  # NaN fails too
        raise ConfigError(f"{path}: must be positive, got {v}")
    return v


def _nonnegative(v, path) -> float:
    v = _as_float(v, path)
    if not v >= 0:
        raise ConfigError(f"{path}: must be >= 0, got {v}")
    return v


def _vector(v, dim: int, path: str) -> list:
    """A list of dim finite numbers, returned unchanged."""
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list of {dim} numbers, got {v!r}")
    try:
        a = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        a = None
    if a is None or a.shape != (dim,):
        raise ConfigError(f"{path}: expected a list of {dim} numbers (problem dim), got {v!r}")
    if not np.isfinite(a).all() or any(isinstance(e, bool) for e in v):
        raise ConfigError(f"{path}: expected finite numbers, got {v!r}")
    return v


def _cell_gamma(preset: str, beta: float, gamma, beta_path: str, gamma_path: str) -> float:
    """The gamma of one (beta, gamma) pair, checked against preset.

    Checks params and every sweep cell alike. heavy_ball fixes gamma at 0
    and nesterov at beta; gamma None takes that value (0 under generic),
    and a given gamma must agree with it.
    """
    if not -1 < beta < 1:
        raise ConfigError(f"{beta_path}: must lie in (-1, 1), got {beta}")
    if preset == "generic":
        gamma = 0.0 if gamma is None else gamma
    else:
        fixed = beta if preset == "nesterov" else 0.0
        if gamma is not None and gamma != fixed:
            raise ConfigError(
                f"{gamma_path}: conflicts with preset {preset!r}, which sets gamma = {fixed}"
            )
        gamma = fixed
    if abs(gamma) > GAMMA_CAP:
        raise ConfigError(
            f"{gamma_path}: |gamma| capped at {GAMMA_CAP} by this harness "
            "(estimation balls grow with |gamma|)"
        )
    return gamma


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
    sweep: Optional[list] = None  # cells (alpha_spec, beta, gamma, seed), grid order

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
        return np.asarray(self.x0_spec, dtype=float), {}

    def momentum_params(self, alpha: float) -> MomentumParams:
        return MomentumParams(alpha, self.beta, self.gamma, self.preset, self.delta)


def _build_problem(section) -> tuple[Problem, list]:
    notes = []
    if not isinstance(section, dict):
        raise ConfigError(f"problem: expected a mapping, got {section!r}")
    kind = _need(section, "kind", "problem")
    if kind not in PROBLEM_KEYS:
        raise ConfigError(f"problem.kind: unknown kind {kind!r}")
    _mapping(section, "problem", ("kind", "seed") + PROBLEM_KEYS[kind])
    seed = _int_at_least(section.get("seed", 0), "problem.seed", 0)
    if kind == "quadratic":
        return synthetic(kind, dim=_int_at_least(section.get("dim", 2), "problem.dim", 1)), notes
    if kind in ("indefinite_quadratic", "quartic"):
        return synthetic(kind), notes
    # only the seeded kinds below draw: numpy.random is not loaded for the others
    rng = np.random.default_rng(seed)
    if kind == "matrix_factorization":
        m = _int_at_least(section.get("m", 3), "problem.m", 1)
        n = _int_at_least(section.get("n", 3), "problem.n", 1)
        r = _int_at_least(section.get("rank", 1), "problem.rank", 1)
        M = rng.standard_normal((m, n))
        prob = matrix_factorization(M, r)
        prob.info["seed"] = seed
        return prob, notes
    if kind == "matrix_sensing":
        m = _int_at_least(section.get("m", 3), "problem.m", 1)
        n = _int_at_least(section.get("n", 3), "problem.n", 1)
        r = _int_at_least(section.get("rank", 1), "problem.rank", 1)
        p = _int_at_least(section.get("p", 6), "problem.p", 1)
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
    widths = section.get("widths", [2, 3, 3, 2])
    if not isinstance(widths, list) or len(widths) < 2:
        raise ConfigError("problem.widths: expected a list of at least two widths")
    widths = [_int_at_least(w, "problem.widths", 1) for w in widths]
    cols = _int_at_least(section.get("samples", 4), "problem.samples", 1)
    Xb = rng.standard_normal((widths[0], cols))
    Yb = rng.standard_normal((widths[-1], cols))
    prob = linear_network(Xb, Yb, widths)
    prob.info["seed"] = seed
    return prob, notes


def _check_command_keys(raw: dict, command: str) -> None:
    """Reject every key of raw that command does not read, naming both."""
    known = COMMAND_KEYS[command]
    for section, value in raw.items():
        if section in known:
            continue
        keys = [k.split(".", 1)[1] for k in known if k.startswith(section + ".")]
        if not keys:
            raise ConfigError(f"{section}: not used by the {command} command")
        for key in value if isinstance(value, dict) else ():
            if key not in keys:
                raise ConfigError(f"{section}.{key}: not used by the {command} command")


def load_config(path, seed: Optional[int] = None, *, command: str) -> ExperimentConfig:
    """Read and validate a YAML config for command; seed, when given, replaces problem.seed.

    command is one of COMMAND_KEYS; once the config itself is valid, every
    key that command does not read is rejected, and for a sweep every check
    sweep.csv does not report (SWEEP_CHECKS, also its default).
    """
    if command not in COMMAND_KEYS:
        raise ValueError(f"unknown command {command!r}; known: {', '.join(COMMAND_KEYS)}")
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
    cfg = parse_config(raw)
    _check_command_keys(raw, command)
    if command == "sweep":
        cfg.checks = tuple(raw.get("checks", SWEEP_CHECKS))
        for c in cfg.checks:
            if c not in SWEEP_CHECKS:
                raise ConfigError(f"checks: {c} is not reported by the sweep command")
    return cfg


def _parse_sweep(sweep, alpha_spec, beta: float, gamma, preset: str, random_x0: bool) -> list:
    """Every cell (alpha_spec, beta, gamma, seed) of the grid, each one checked.

    A left-out list holds the params value; gamma None follows the preset.
    No list may repeat a value. A seed moves only the random init.x0, so
    with a list init.x0 there can be only one.
    """
    _mapping(sweep, "sweep", ("alphas", "betas", "gammas", "seeds"))

    def grid_list(key, fallback):
        v = sweep.get(key, fallback)
        if not isinstance(v, list) or not v:
            raise ConfigError(f"sweep.{key}: expected a non-empty list")
        return v

    alphas = [
        a if a == "auto" else _positive(a, "sweep.alphas")
        for a in grid_list("alphas", [alpha_spec])
    ]
    betas = [_as_float(b, "sweep.betas") for b in grid_list("betas", [beta])]
    gammas = [None if g is None else _as_float(g, "sweep.gammas")
              for g in grid_list("gammas", [gamma])]
    seeds = [_int_at_least(s, "sweep.seeds", 0) for s in grid_list("seeds", [0])]
    cells = len(alphas) * len(betas) * len(gammas) * len(seeds)
    if cells > 10_000:
        raise ConfigError(f"sweep: grid has {cells} cells, limit is 10000")
    if len(seeds) > 1 and not random_x0:
        raise ConfigError("sweep.seeds: init.x0 is a list, so every seed would run the "
                          "same cell; give one seed or a random init.x0")
    for key, values in (("alphas", alphas), ("betas", betas), ("seeds", seeds)):
        if len(set(values)) < len(values):
            raise ConfigError(f"sweep.{key}: a repeated value would run the same cells twice")
    cells = [
        (a, b, _cell_gamma(preset, b, g, "sweep.betas", "sweep.gammas"), s)
        for a in alphas for b in betas for g in gammas for s in seeds
    ]
    # the other lists are distinct, so only gammas that resolve alike repeat a cell
    if len(set(cells)) < len(cells):
        raise ConfigError("sweep.gammas: a repeated gamma (null follows the preset) would "
                          "run the same cells twice")
    return cells


def parse_config(raw: dict) -> ExperimentConfig:
    _mapping(raw, "<top>", ("problem", "params", "init", "lipschitz", "stop", "checks",
                            "m_crit", "track", "saddle", "sweep"))
    problem, notes = _build_problem(_need(raw, "problem", "<top>"))
    dim = problem.dim

    pz = _mapping(raw.get("params"), "params", ("alpha", "beta", "gamma", "preset", "delta"))
    alpha_spec = pz.get("alpha", "auto")
    if alpha_spec != "auto":
        alpha_spec = _positive(alpha_spec, "params.alpha")
    beta = _as_float(pz.get("beta", 0.0), "params.beta")
    preset = pz.get("preset", "generic")
    if preset not in ("generic", "heavy_ball", "nesterov"):
        raise ConfigError(f"params.preset: unknown preset {preset!r}")
    gamma_given = None if "gamma" not in pz else _as_float(pz["gamma"], "params.gamma")
    gamma = _cell_gamma(preset, beta, gamma_given, "params.beta", "params.gamma")
    delta = _nonnegative(pz.get("delta", 0.0), "params.delta")

    init = _mapping(raw.get("init"), "init", ("x0", "x_minus1"))
    x0_spec = init.get("x0", {"random": {"radius": 1.0, "seed": 0}})
    if isinstance(x0_spec, dict):
        _mapping(x0_spec, "init.x0", ("random",))
        if "random" not in x0_spec:
            raise ConfigError("init.x0: mapping form must be {random: {radius, seed}}")
        spec = _mapping(x0_spec["random"], "init.x0.random", ("radius", "seed"))
        _positive(spec.get("radius", 1.0), "init.x0.random.radius")
        _int_at_least(spec.get("seed", 0), "init.x0.random.seed", 0)
        x0_spec = {"random": spec}
    else:
        _vector(x0_spec, dim, "init.x0")
    x_minus1 = init.get("x_minus1")
    if x_minus1 is not None:
        _vector(x_minus1, dim, "init.x_minus1")

    lz = _mapping(raw.get("lipschitz"), "lipschitz", ("mode", "radius", "center", "seed"))
    # alpha 'auto' always has a Lipschitz route: mode defaults to sampled
    mode = lz.get("mode", "sampled")
    if mode not in ("sampled", "analytic"):
        raise ConfigError(f"lipschitz.mode: expected sampled|analytic, got {mode!r}")
    radius = lz.get("radius")
    if radius is not None:
        radius = _positive(radius, "lipschitz.radius")
    center = lz.get("center", "x0")
    if center not in ("x0", "origin"):
        if not isinstance(center, list):
            raise ConfigError("lipschitz.center: expected x0|origin|[..]")
        _vector(center, dim, "lipschitz.center")

    sz = _mapping(raw.get("stop"), "stop", ("max_iters", "grad_tol", "box_radius"))
    stop = StopRules(
        max_iters=_int_at_least(sz.get("max_iters", 2000), "stop.max_iters", 0),
        grad_tol=_nonnegative(sz.get("grad_tol", 0.0), "stop.grad_tol"),
        box_radius=_positive(sz["box_radius"], "stop.box_radius") if "box_radius" in sz
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
    m_crit = _int_at_least(raw.get("m_crit", default_m), "m_crit", 1)

    track = raw.get("track")
    if track is not None:
        _mapping(track, "track", ("horizon", "alphas"))
        alphas = track.get("alphas")
        if not isinstance(alphas, list) or len(alphas) < 2:
            raise ConfigError("track.alphas: need at least two step sizes for a slope")
        horizon = _positive(track.get("horizon", 1.0), "track.horizon")
        alphas = [_positive(a, "track.alphas") for a in alphas]
        if len(set(alphas)) < len(alphas):
            raise ConfigError("track.alphas: a repeated step size adds no point to the slope fit")
        if horizon < max(alphas):
            raise ConfigError(f"track.horizon: {horizon} is below the largest of track.alphas "
                              f"({max(alphas)}), so that rung would take no step")
        track = {"horizon": horizon, "alphas": alphas}

    saddle = raw.get("saddle")
    if saddle is not None:
        _mapping(saddle, "saddle", ("point", "radius", "trials", "seed"))
        point = saddle.get("point", "origin")
        if point != "origin":
            if not isinstance(point, list):
                raise ConfigError("saddle.point: expected origin|[..]")
            _vector(point, dim, "saddle.point")
        saddle = {
            "point": point,
            "radius": _positive(saddle.get("radius", 1e-3), "saddle.radius"),
            "trials": _int_at_least(saddle.get("trials", 100), "saddle.trials", 1),
            "seed": _int_at_least(saddle.get("seed", 0), "saddle.seed", 0),
        }

    sweep = raw.get("sweep")
    if sweep is not None:
        sweep = _parse_sweep(sweep, alpha_spec, beta, gamma if preset == "generic" else None,
                             preset, isinstance(x0_spec, dict))

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
        lipschitz_seed=_int_at_least(lz.get("seed", 0), "lipschitz.seed", 0),
        stop=stop,
        checks=tuple(checks),
        m_crit=m_crit,
        notes=notes,
        track=track,
        saddle=saddle,
        sweep=sweep,
    )
