"""Config validation: every key either takes effect or is rejected by name."""

import pytest
from conftest import ALL_KINDS

from momlab.cli import main
from momlab.config import ConfigError, load_config

# a run of a few steps; each case below adds or replaces one section
BASE = {
    "problem": "{kind: quadratic, dim: 2}",
    "params": "{alpha: 0.1, beta: 0.5, preset: heavy_ball}",
    "init": "{x0: [1.0, 0.0]}",
    "lipschitz": "{mode: analytic, center: origin, radius: 4.0}",
    "stop": "{max_iters: 10}",
    "checks": "[descent]",
}


def config_text(**sections) -> str:
    merged = {**BASE, **sections}
    return "".join(f"{key}: {body}\n" for key, body in merged.items() if body is not None)


def cli(tmp_path, capsys, command, text, *flags):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet",
               *flags])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("sections, field", [
    ({"params": "{alpah: 0.01, beta: 0.5}"}, "params.alpah"),
    ({"stop": "{max_iter: 10}"}, "stop.max_iter"),
    ({"chekcs": "[descent]"}, "<top>.chekcs"),
    ({"init": "{x0: [1.0, 0.0], x_minus_1: [1.0, 0.0]}"}, "init.x_minus_1"),
    ({"init": "{x0: {random: {radius: 0.5, sead: 3}}}"}, "init.x0.random.sead"),
    ({"init": "{x0: {random: {radius: 0.5}, uniform: 1}}"}, "init.x0.uniform"),
    ({"lipschitz": "{mode: analytic, centre: origin}"}, "lipschitz.centre"),
    ({"track": "{horizon: 1.0, alphas: [0.1, 0.05], horizn: 2.0}"}, "track.horizn"),
    ({"saddle": "{point: origin, trails: 5}"}, "saddle.trails"),
    ({"sweep": "{betas: [0.1], beta: [0.2]}"}, "sweep.beta"),
    # keys that do nothing for the chosen kind
    ({"problem": "{kind: indefinite_quadratic, dim: 3}", "init": None}, "problem.dim"),
    ({"problem": "{kind: quartic, dim: 1}", "init": None}, "problem.dim"),
    ({"problem": "{kind: matrix_factorization, m: 2, n: 2, rank: 1, p: 4}", "init": None},
     "problem.p"),
    ({"problem": "{kind: linear_network, widths: [2, 2], rank: 1}", "init": None},
     "problem.rank"),
])
def test_unknown_key_rejected_by_name(tmp_path, capsys, sections, field):
    rc, err = cli(tmp_path, capsys, "run", config_text(**sections))
    assert rc == 1
    assert f"error: {field}: unknown key" in err
    assert not (tmp_path / "out" / "trace.csv").exists()


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_problem_seed_accepted_for_every_kind(tmp_path, kind):
    # saddle_report.json echoes problem.seed, so it is meaningful for any kind
    path = tmp_path / "cfg.yaml"
    path.write_text(f"problem: {{kind: {kind}, seed: 4}}\n")
    assert load_config(path, command="run").raw["problem"]["seed"] == 4


def test_load_config_needs_a_known_command(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("problem: {kind: quadratic}\n")
    with pytest.raises(TypeError):
        load_config(path)
    with pytest.raises(ValueError, match="unknown command 'plot'"):
        load_config(path, command="plot")


@pytest.mark.parametrize("command, sections, field", [
    ("run", {"stop": "{max_iters: -1}"}, "stop.max_iters"),
    ("run", {"stop": "{grad_tol: -1.0e-3}"}, "stop.grad_tol"),
    ("run", {"stop": "{box_radius: 0.0}"}, "stop.box_radius"),
    ("run", {"stop": "{box_radius: -2.0}"}, "stop.box_radius"),
    ("track", {"track": "{horizon: 0.0, alphas: [0.1, 0.05]}"}, "track.horizon"),
    ("track", {"track": "{horizon: -1.0, alphas: [0.1, 0.05]}"}, "track.horizon"),
    ("track", {"track": "{horizon: 1.0, alphas: [0.1, -0.05]}"}, "track.alphas"),
    ("saddle", {"saddle": "{point: origin, radius: -1.0, trials: 3}"}, "saddle.radius"),
    ("saddle", {"saddle": "{point: origin, radius: 0.0, trials: 3}"}, "saddle.radius"),
    ("run", {"init": "{x0: [1.0, 0.0], x_minus1: [1.0, 0.0, 0.0]}"}, "init.x_minus1"),
    ("run", {"lipschitz": "{mode: analytic, center: [0.0], radius: 4.0}"},
     "lipschitz.center"),
    ("saddle", {"saddle": "{point: [0.0, 0.0, 0.0], trials: 3}"}, "saddle.point"),
    ("run", {"init": "{x0: {random: {radius: -1.0, seed: 1}}}"}, "init.x0.random.radius"),
    ("run", {"init": "{x0: {random: {radius: abc, seed: 1}}}"}, "init.x0.random.radius"),
    ("run", {"init": "{x0: {random: {radius: 0.5, seed: 1.5}}}"}, "init.x0.random.seed"),
    ("run", {"problem": "{kind: matrix_factorization, seed: abc}", "init": None},
     "problem.seed"),
    ("run", {"problem": "{kind: matrix_factorization, seed: -1}", "init": None},
     "problem.seed"),
    ("run", {"lipschitz": "{mode: sampled, radius: 4.0, seed: -2}"}, "lipschitz.seed"),
    ("run", {"problem": "{kind: quadratic, dim: 0}", "init": None}, "problem.dim"),
    ("run", {"problem": "{kind: linear_network, widths: [2, 0, 2]}", "init": None},
     "problem.widths"),
    ("run", {"problem": "{kind: matrix_sensing, p: 0}", "init": None}, "problem.p"),
    ("saddle", {"saddle": "{point: origin, trials: 3, seed: -1}"}, "saddle.seed"),
    ("sweep", {"sweep": "{alphas: [0.1, -0.1]}"}, "sweep.alphas"),
    ("sweep", {"sweep": "{betas: [0.5, 1.5]}"}, "sweep.betas"),
    ("sweep", {"init": "{x0: {random: {radius: 0.5}}}", "sweep": "{seeds: [0, -1]}"},
     "sweep.seeds"),
    ("sweep", {"init": "{x0: {random: {radius: 0.5}}}", "sweep": "{seeds: [3, 1, 3]}"},
     "sweep.seeds"),
    ("track", {"track": "{horizon: 1.0, alphas: [0.1, 0.1]}"}, "track.alphas"),
    # numbers must be finite and not booleans
    ("track", {"track": "{horizon: .inf, alphas: [0.1, 0.05]}"}, "track.horizon"),
    ("track", {"track": "{horizon: 1.0, alphas: [0.1, .inf]}"}, "track.alphas"),
    ("run", {"params": "{alpha: 0.1, beta: 0.5, preset: heavy_ball, delta: .inf}"},
     "params.delta"),
    ("run", {"params": "{alpha: true, beta: 0.5, preset: heavy_ball}"}, "params.alpha"),
    ("run", {"params": "{alpha: 0.1, beta: 0.5, gamma: false}"}, "params.gamma"),
    ("run", {"stop": "{max_iters: 10, grad_tol: .inf}"}, "stop.grad_tol"),
    ("run", {"stop": "{max_iters: 10, box_radius: .inf}"}, "stop.box_radius"),
    ("run", {"lipschitz": "{mode: analytic, center: origin, radius: .inf}"},
     "lipschitz.radius"),
    ("run", {"init": "{x0: {random: {radius: .inf, seed: 1}}}"}, "init.x0.random.radius"),
    ("saddle", {"saddle": "{point: origin, radius: .inf, trials: 3}"}, "saddle.radius"),
    ("sweep", {"sweep": "{alphas: [0.1, .inf]}"}, "sweep.alphas"),
    ("sweep", {"sweep": "{betas: [0.5, false]}"}, "sweep.betas"),
    ("sweep", {"sweep": "{gammas: [.nan]}", "params": "{alpha: 0.1, beta: 0.5}"},
     "sweep.gammas"),
    ("run", {"init": "{x0: [.inf, 0.5]}"}, "init.x0"),
    ("run", {"init": "{x0: [true, 0.5]}"}, "init.x0"),
    ("run", {"init": "{x0: [1.0, 0.0], x_minus1: [1.0, .nan]}"}, "init.x_minus1"),
    ("run", {"lipschitz": "{mode: analytic, center: [.nan, 0.0], radius: 4.0}"},
     "lipschitz.center"),
    ("saddle", {"saddle": "{point: [0.0, -.inf], trials: 3}"}, "saddle.point"),
    # a repeated grid value runs the same cells again
    ("sweep", {"sweep": "{alphas: [0.1, 0.1], betas: [0.3, 0.3]}"}, "sweep.alphas"),
    ("sweep", {"sweep": "{alphas: [auto, 0.1, auto]}"}, "sweep.alphas"),
    ("sweep", {"sweep": "{betas: [0.3, 0.5, 0.3]}"}, "sweep.betas"),
    ("sweep", {"sweep": "{gammas: [0.2, 0.2]}", "params": "{alpha: 0.1, beta: 0.5}"},
     "sweep.gammas"),
    ("sweep", {"sweep": "{gammas: [null, 0.0]}"}, "sweep.gammas"),  # heavy ball: both are 0
    # a rung whose alpha exceeds the horizon takes no step
    ("track", {"track": "{horizon: 0.001, alphas: [0.1, 0.05]}"}, "track.horizon"),
    ("track", {"track": "{horizon: 0.07, alphas: [0.05, 0.1]}"}, "track.horizon"),
])
def test_range_and_shape_errors_name_their_field(tmp_path, capsys, command, sections, field):
    rc, err = cli(tmp_path, capsys, command, config_text(**sections))
    assert rc == 1
    assert f"error: {field}: " in err
    assert not (tmp_path / "out").exists()  # rejected before anything ran


def sweep_rows(out):
    lines = (out / "sweep.csv").read_text().splitlines()[2:]
    return [line.split(",") for line in lines]


def test_nesterov_sweep_cells_take_gamma_from_beta(tmp_path, capsys):
    text = config_text(params="{alpha: 0.1, beta: 0.5, preset: nesterov}",
                       sweep="{betas: [0.3, 0.6]}")
    rc, err = cli(tmp_path, capsys, "sweep", text)
    assert rc == 0, err
    assert [(r[1], r[2]) for r in sweep_rows(tmp_path / "out")] == [
        ("0.29999999999999999", "0.29999999999999999"),
        ("0.59999999999999998", "0.59999999999999998"),
    ]


@pytest.mark.parametrize("params, sweep", [
    ("{alpha: 0.1, beta: 0.5, preset: nesterov}", "{betas: [0.3, 0.6], gammas: [0.3]}"),
    ("{alpha: 0.1, beta: 0.5, preset: heavy_ball}", "{betas: [0.3], gammas: [0.0, 0.5]}"),
])
def test_sweep_gammas_contradicting_preset_rejected_before_any_cell(
        tmp_path, capsys, params, sweep):
    rc, err = cli(tmp_path, capsys, "sweep", config_text(params=params, sweep=sweep))
    assert rc == 1
    assert "error: sweep.gammas: conflicts with preset" in err
    assert not (tmp_path / "out").exists()


def test_sweep_seeds_with_list_x0_rejected(tmp_path, capsys):
    # a seed moves only a random x0: with a list x0 every seed repeats the cell
    rc, err = cli(tmp_path, capsys, "sweep", config_text(sweep="{seeds: [0, 1, 2]}"))
    assert rc == 1
    assert "error: sweep.seeds: init.x0 is a list" in err
    assert not (tmp_path / "out").exists()
    rc, err = cli(tmp_path, capsys, "sweep", config_text(sweep="{seeds: [5]}"))
    assert rc == 0, err
    assert [r[3] for r in sweep_rows(tmp_path / "out")] == ["5"]


def test_sweep_without_alphas_uses_params_alpha(tmp_path, capsys):
    text = config_text(params="{alpha: 0.07, beta: 0.5}", sweep="{betas: [0.1, 0.2]}")
    rc, err = cli(tmp_path, capsys, "sweep", text)
    assert rc == 0, err
    assert [r[0] for r in sweep_rows(tmp_path / "out")] == ["0.070000000000000007"] * 2


# valid configs of the two commands that read only part of a run config
TRACK = {
    "problem": "{kind: quadratic, dim: 2}",
    "params": "{beta: 0.5}",
    "init": "{x0: [1.0, 0.0]}",
    "track": "{horizon: 1.0, alphas: [0.1, 0.05]}",
}
SADDLE = {
    "problem": "{kind: indefinite_quadratic}",
    "params": "{alpha: auto, beta: 0.5, preset: heavy_ball}",
    "stop": "{max_iters: 200, grad_tol: 1.0e-9, box_radius: 10.0}",
    "saddle": "{point: origin, trials: 3}",
}


@pytest.mark.parametrize("command, sections, field", [
    # the ladder sets its own alphas, x_{-1}, delta and step counts
    ("track", {**TRACK, "params": "{alpha: 0.3, beta: 0.5}"}, "params.alpha"),
    ("track", {**TRACK, "params": "{beta: 0.5, delta: 7}"}, "params.delta"),
    ("track", {**TRACK, "init": "{x0: [1.0, 0.0], x_minus1: [1.0, 0.0]}"}, "init.x_minus1"),
    ("track", {**TRACK, "stop": "{max_iters: 3, grad_tol: 0.5}"}, "stop"),
    ("track", {**TRACK, "checks": "[descent, length]"}, "checks"),
    ("track", {**TRACK, "lipschitz": "{mode: analytic}"}, "lipschitz"),
    # an escape study samples its own starts and certifies nothing
    ("saddle", {**SADDLE, "init": "{x0: [0.1, 0.2]}"}, "init"),
    ("saddle", {**SADDLE, "checks": "[descent]"}, "checks"),
    ("saddle", {**SADDLE, "lipschitz": "{mode: analytic}"}, "lipschitz"),
    ("saddle", {**SADDLE, "m_crit": "2"}, "m_crit"),
    ("run", {**BASE, "track": "{horizon: 1.0, alphas: [0.1, 0.05]}"}, "track"),
    ("run", {**BASE, "saddle": "{point: origin, trials: 3}"}, "saddle"),
    ("run", {**BASE, "sweep": "{betas: [0.1, 0.2]}"}, "sweep"),
    ("sweep", {**BASE, "sweep": "{betas: [0.1]}", "track": "{horizon: 1.0, alphas: [0.1, 0.05]}"},
     "track"),
    ("sweep", {**BASE, "sweep": "{betas: [0.1]}", "saddle": "{point: origin, trials: 3}"},
     "saddle"),
    # m_crit enters only the length formula, which no sweep output reads
    ("sweep", {**BASE, "sweep": "{betas: [0.1]}", "m_crit": "2"}, "m_crit"),
])
def test_key_the_command_does_not_read_rejected(tmp_path, capsys, command, sections, field):
    text = "".join(f"{key}: {body}\n" for key, body in sections.items())
    rc, err = cli(tmp_path, capsys, command, text)
    assert rc == 1
    assert f"error: {field}: not used by the {command} command" in err
    assert not (tmp_path / "out").exists()  # rejected before anything ran


@pytest.mark.parametrize("check", ["grad_bounds", "step_bounds", "length", "kl_fit"])
def test_check_the_sweep_does_not_report_rejected(tmp_path, capsys, check):
    # sweep.csv reports descent's min slack and rate's sup, and nothing of
    # the other checks
    text = config_text(checks=f"[descent, {check}, rate]", sweep="{betas: [0.1]}")
    rc, err = cli(tmp_path, capsys, "sweep", text)
    assert rc == 1
    assert f"error: checks: {check} is not reported by the sweep command" in err
    assert not (tmp_path / "out").exists()


def test_sweep_checks_default_to_what_it_reports(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(config_text(checks=None, sweep="{betas: [0.1]}"))
    assert load_config(path, command="sweep").checks == ("descent", "rate")


@pytest.mark.parametrize("command, sections", [
    ("track", TRACK),
    ("saddle", SADDLE),
    ("run", BASE),
    ("sweep", {**BASE, "sweep": "{betas: [0.1]}"}),
])
def test_keys_the_command_reads_accepted(tmp_path, capsys, command, sections):
    text = "".join(f"{key}: {body}\n" for key, body in sections.items())
    rc, err = cli(tmp_path, capsys, command, text)
    assert rc == 0, err


def _loaded(tmp_path, command, sections):
    path = tmp_path / "cfg.yaml"
    path.write_text("".join(f"{key}: {body}\n" for key, body in sections.items()
                            if body is not None))
    return load_config(path, command=command)


@pytest.mark.parametrize("command, sections", [
    ("track", {**TRACK, "track": None}),
    ("saddle", {**SADDLE, "saddle": None}),
    ("sweep", BASE),
])
def test_command_without_its_section_rejected(tmp_path, command, sections):
    with pytest.raises(ConfigError) as err:
        _loaded(tmp_path, command, sections)
    assert str(err.value) == f"{command}: section required for the {command} command"


def test_saddle_with_beta_zero_rejected(tmp_path):
    sections = {**SADDLE, "params": "{alpha: 0.1, beta: 0.0}"}
    with pytest.raises(ConfigError, match=r"^params\.beta: the escape guarantee requires"):
        _loaded(tmp_path, "saddle", sections)


def test_run_needs_no_command_section(tmp_path):
    cfg = _loaded(tmp_path, "run", {**BASE, "params": "{alpha: 0.1, beta: 0.0}"})
    assert cfg.track is None and cfg.saddle is None and cfg.sweep is None
