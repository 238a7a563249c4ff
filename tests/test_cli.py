import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from momlab import cli as momlab_cli
from momlab import config as momlab_config
from momlab.cli import main

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def momlab(*argv, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "momlab.cli", *argv],
        capture_output=True, text=True, env=env,
    )


def write_config(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


QUAD_CFG = """
problem: {kind: quadratic, dim: 2}
params: {alpha: auto, beta: 0.5, preset: heavy_ball}
init: {x0: [1.0, 0.0]}
lipschitz: {mode: analytic, center: origin, radius: 4.0}
stop: {max_iters: 500}
checks: [descent, grad_bounds, rate]
m_crit: 1
"""


class TestRunCommand:
    def test_quadratic_auto_alpha_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_CFG)
        res = momlab("run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
        assert res.returncode == 0, res.stderr
        out = tmp_path / "out"
        assert (out / "trace.csv").exists()
        assert (out / "certificate.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["descent"]["fail"] == 0
        assert report["rate"]["passed"]

    def test_trace_csv_has_fixed_columns(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_CFG)
        momlab("run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1] == "k,f,grad_norm,step_norm,H_lambda,descent_slack,gradbound_slack"

    def test_oversized_alpha_fails_checks(self, tmp_path):
        cfg = write_config(tmp_path, """
problem: {kind: quadratic, dim: 2}
params: {alpha: 30.0, beta: 0.5, preset: heavy_ball}
init: {x0: [1.0, 0.0]}
lipschitz: {mode: analytic, center: origin, radius: 4.0}
stop: {max_iters: 200, box_radius: 4.0}
checks: [descent]
""")
        res = momlab("run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
        assert res.returncode == 2

    def test_missing_config_exits_one_with_path(self, tmp_path):
        missing = tmp_path / "nope.yaml"
        res = momlab("run", "--config", str(missing), "--out", str(tmp_path / "out"))
        assert res.returncode == 1
        assert str(missing) in res.stderr

    def test_invalid_field_reports_path(self, tmp_path):
        cfg = write_config(tmp_path, "problem: {kind: spiral}\n")
        res = momlab("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert res.returncode == 1
        assert "problem.kind" in res.stderr

    def test_gamma_cap_enforced(self, tmp_path):
        cfg = write_config(tmp_path, """
problem: {kind: quadratic, dim: 2}
params: {alpha: 0.1, beta: 0.5, gamma: 11.0}
init: {x0: [1.0, 0.0]}
""")
        res = momlab("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert res.returncode == 1
        assert "gamma" in res.stderr

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_CFG)
        momlab("run", "--config", str(cfg), "--out", str(tmp_path / "a"), "--quiet")
        momlab("run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--quiet")
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        b = (tmp_path / "b" / "trace.csv").read_bytes()
        assert a == b

    def test_env_var_default_out(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_CFG)
        res = momlab("run", "--config", str(cfg), "--quiet",
                     env_extra={"MOMLAB_OUT": str(tmp_path / "envout")})
        assert res.returncode == 0
        assert (tmp_path / "envout" / "trace.csv").exists()

    def test_alpha_override_flag(self, tmp_path):
        cfg = write_config(tmp_path, QUAD_CFG)
        res = momlab("run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--alpha", "0.05", "--quiet")
        assert res.returncode == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["constants"]["alpha"] == 0.05

    def test_sensing_report_carries_rip_note(self, tmp_path):
        cfg = write_config(tmp_path, """
problem: {kind: matrix_sensing, m: 3, n: 3, rank: 1, p: 4, seed: 2}
params: {alpha: auto, beta: 0.5, preset: heavy_ball}
init: {x0: {random: {radius: 0.4, seed: 3}}}
lipschitz: {mode: sampled, center: x0, radius: 3.0}
stop: {max_iters: 400}
checks: [descent]
""")
        res = momlab("run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert any("isometry" in n for n in report["notes"])

    def test_kl_fit_scale_underflow_is_reported(self, tmp_path):
        # f runs to -2.9e180 inside a box as large as 1e300: the KL fit's
        # scale c underflows to 0, which report.json names instead of the
        # run failing with exit 1. The run leaves the trust ball, so it
        # certifies only its first steps and exits 2
        cfg = write_config(tmp_path, """
problem: {kind: indefinite_quadratic}
params: {alpha: 0.135, beta: 0.5, preset: heavy_ball}
init: {x0: [0.1369616873214543, -0.2302132862361297]}
lipschitz: {mode: analytic, center: x0, radius: 2.0}
stop: {max_iters: 1022, box_radius: 1.0e300}
checks: [descent, kl_fit]
""")
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
        report = json.loads((out / "report.json").read_text())
        assert report["final_f"] < -1e180
        assert "finite and positive" in report["kl_fit"]["error"]
        assert report["stop_reason"] == "max_iters" and report["iterations"] == 1022
        descent = report["checks"]["descent"]
        assert descent["certified"] < descent["steps"]
        assert rc == 2
        assert (out / "trace.csv").exists() and (out / "certificate.json").exists()


MF_CFG = """
problem: {kind: matrix_factorization, m: 3, n: 3, rank: 1, seed: SEED}
params: {alpha: auto, beta: 0.5, preset: heavy_ball}
init: {x0: {random: {radius: 0.4, seed: 4}}}
lipschitz: {mode: sampled, center: x0, radius: 3.0}
stop: {max_iters: 100}
checks: [descent]
"""


# runs the CLI in-process; prints its exit code and the scipy modules loaded
IN_PROCESS = """
import sys
import momlab.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
rc = momlab.cli.main(sys.argv[1:])
print(rc, any(m.split(".")[0] == "scipy" for m in sys.modules))
"""


class TestScipyImport:
    """No command loads scipy on the shipped configs, nor does importing the CLI."""

    def in_process(self, *argv):
        res = subprocess.run([sys.executable, "-c", IN_PROCESS, *argv],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return res.stdout.split()

    def test_run_leaves_scipy_unloaded(self, tmp_path):
        cfg = CONFIG_DIR / "quadratic.yaml"
        out = tmp_path / "out"
        assert self.in_process("run", "--config", str(cfg), "--out", str(out), "--quiet") == [
            "0", "False"]
        assert (out / "trace.csv").exists()

    def test_track_leaves_scipy_unloaded(self, tmp_path):
        cfg = CONFIG_DIR / "quadratic_track.yaml"
        out = tmp_path / "out"
        assert self.in_process("track", "--config", str(cfg), "--out", str(out), "--quiet") == [
            "0", "False"]
        assert len((out / "tracking.csv").read_text().splitlines()) > 2

    @pytest.mark.parametrize("command, config, output", [
        ("sweep", "quadratic_sweep.yaml", "sweep.csv"),
        ("saddle", "indefinite_saddle.yaml", "escape.json"),
    ], ids=["sweep", "saddle"])
    def test_command_leaves_scipy_unloaded(self, tmp_path, command, config, output):
        out = tmp_path / "out"
        assert self.in_process(command, "--config", str(CONFIG_DIR / config), "--out", str(out),
                               "--quiet") == ["0", "False"]
        assert (out / output).exists()


# the public names momlab exported when it imported every submodule eagerly
EXPORTED = """
Desingularizer FitError RateReport check_rate fit_desingularizer measure_length
Certificate Columns LengthReport PerStepReport build_certificate check_descent
check_gradient_bound check_length_formula check_step_bound gradient_bound_constants
length_constants lyapunov lyapunov_interval lyapunov_values step_bound_delta1
FlowTrajectory TrackingConstants companion_eigen integrate_flow tracking_constants
tracking_error tracking_ladder trajectory_length
LockstepResult MomentumParams StopRules Trace run run_lockstep safe_alpha step
MatrixShape Problem estimate_lipschitz linear_network matrix_factorization matrix_sensing
synthetic
CriticalPointAnalysis EscapeExperiment analyze_critical_point characteristic_roots
dense_hessian escape_experiment map_jacobian momentum_map saddle_safe_alpha
__version__
""".split()

# imports each exported name by itself in a fresh interpreter; prints the
# momlab submodules that importing momlab loaded
LAZY_EXPORTS = """
import sys
import momlab
print(sorted(m for m in sys.modules if m.startswith("momlab.")))
for name in sys.argv[1:]:
    namespace = {}
    exec(f"from momlab import {name}", namespace)
    assert name in dir(momlab) and namespace[name] is getattr(momlab, name), name
"""

# runs the CLI in-process; prints its exit code and the momlab modules loaded
LOADED = """
import sys
import momlab.cli
rc = momlab.cli.main(sys.argv[1:])
print(rc, *sorted(m for m in sys.modules if m.startswith("momlab.")))
"""


class TestLazyImports:
    """Each command loads only the modules it reaches."""

    def loaded(self, *argv):
        res = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True,
                             text=True)
        assert res.returncode == 0, res.stderr
        return res.stdout.split()

    def test_run_loads_neither_saddle_nor_gradient_flow(self, tmp_path):
        out = tmp_path / "out"
        rc, *modules = self.loaded("run", "--config", str(CONFIG_DIR / "quadratic.yaml"),
                                   "--out", str(out), "--quiet")
        assert rc == "0" and (out / "trace.csv").exists()
        assert "momlab.optimizer" in modules
        assert "momlab.saddle" not in modules and "momlab.gradient_flow" not in modules

    @pytest.mark.parametrize("command, config, module, absent", [
        ("track", "quadratic_track.yaml", "momlab.gradient_flow", "momlab.saddle"),
        ("saddle", "indefinite_saddle.yaml", "momlab.saddle", "momlab.gradient_flow"),
    ], ids=["track", "saddle"])
    def test_track_and_saddle_load_their_own_module(self, tmp_path, command, config, module,
                                                     absent):
        rc, *modules = self.loaded(command, "--config", str(CONFIG_DIR / config),
                                   "--out", str(tmp_path / "out"), "--quiet")
        assert rc == "0" and module in modules and absent not in modules

    def test_every_exported_name_imports(self):
        res = subprocess.run([sys.executable, "-c", LAZY_EXPORTS, *EXPORTED],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout == "[]\n"  # importing momlab loads no submodule
        import momlab

        assert sorted(momlab.__all__) == sorted(EXPORTED)
        with pytest.raises(AttributeError, match="no_such_name"):
            momlab.no_such_name

    def test_commands_call_lazy_names_through_the_module(self, tmp_path, monkeypatch):
        # a name rebound on momlab.cli, as a tracer does, is the one called
        calls = []
        for name in ("tracking_ladder", "analyze_critical_point", "escape_experiment"):
            fn = getattr(momlab_cli, name)
            monkeypatch.setattr(momlab_cli, name,
                                lambda *a, _fn=fn, _name=name, **k: calls.append(_name)
                                or _fn(*a, **k))
        for command, config in (("track", "quadratic_track.yaml"),
                                ("saddle", "indefinite_saddle.yaml")):
            assert main([command, "--config", str(CONFIG_DIR / config),
                         "--out", str(tmp_path / command), "--quiet"]) == 0
        assert calls == ["tracking_ladder", "analyze_critical_point", "escape_experiment"]
        with pytest.raises(AttributeError, match="no_such_name"):
            momlab_cli.no_such_name


class TestFlags:
    def test_workers_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUAD_CFG)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--workers", "2"])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_seed_override_in_memory(self, tmp_path, monkeypatch):
        tmp = tmp_path / "tmp"
        tmp.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmp))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        base = write_config(tmp_path, MF_CFG.replace("SEED", "5"), "base.yaml")
        pinned = write_config(tmp_path, MF_CFG.replace("SEED", "3"), "pinned.yaml")
        assert main(["run", "--config", str(base), "--out", str(tmp_path / "a"),
                     "--seed", "3", "--quiet"]) == 0
        assert main(["run", "--config", str(pinned), "--out", str(tmp_path / "b"),
                     "--quiet"]) == 0
        assert list(tmp.iterdir()) == []
        # same raw config, hence the same hash and bytes, as writing the seed in
        a = (tmp_path / "a" / "trace.csv").read_bytes()
        assert a == (tmp_path / "b" / "trace.csv").read_bytes()

    @pytest.mark.parametrize("command, config", [
        ("sweep", "quadratic_sweep.yaml"), ("track", "quadratic_track.yaml")])
    def test_alpha_flag_rejected_where_config_sets_step_sizes(
            self, tmp_path, capsys, command, config):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(CONFIG_DIR / config), "--out", str(tmp_path / "out"),
                  "--alpha", "0.1", "--quiet"])
        assert exc.value.code == 2
        assert "--alpha" in capsys.readouterr().err

    def test_seed_override_bad_config_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "params: {alpha: 0.1}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "3"]) == 1
        assert "problem" in capsys.readouterr().err


class TestTrackCommand:
    def test_ladder_writes_csv_and_slope(self, tmp_path):
        res = momlab("track", "--config", str(CONFIG_DIR / "quadratic_track.yaml"),
                     "--out", str(tmp_path / "out"), "--quiet")
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "out" / "tracking.csv").read_text().splitlines()
        assert lines[1] == "alpha,max_error"
        assert len(lines) == 5
        report = json.loads((tmp_path / "out" / "tracking_report.json").read_text())
        assert report["loglog_slope"] >= 0.9

    def test_gamma_changes_iterates(self, tmp_path):
        reports = {}
        for gamma in ("0.9", "0.0"):
            cfg = write_config(tmp_path, f"""
problem: {{kind: quadratic, dim: 2}}
params: {{beta: 0.5, gamma: {gamma}}}
init: {{x0: [1.0, 0.0]}}
track: {{horizon: 1.0, alphas: [0.1, 0.05]}}
""", name=f"g{gamma}.yaml")
            out = tmp_path / gamma
            assert main(["track", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
            reports[gamma] = json.loads((out / "tracking_report.json").read_text())
        assert reports["0.9"]["gamma"] == 0.9 and reports["0.0"]["gamma"] == 0.0
        rows = {g: (tmp_path / g / "tracking.csv").read_text().splitlines()[2:] for g in reports}
        assert rows["0.9"] != rows["0.0"]

    def test_single_alpha_rejected(self, tmp_path):
        cfg = write_config(tmp_path, """
problem: {kind: quadratic, dim: 2}
params: {beta: 0.5}
init: {x0: [1.0, 0.0]}
track: {horizon: 1.0, alphas: [0.1]}
""")
        res = momlab("track", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert res.returncode == 1
        assert "track.alphas" in res.stderr


class TestSaddleCommand:
    def test_indefinite_quadratic_escapes(self, tmp_path):
        cfg = write_config(tmp_path, """
problem: {kind: indefinite_quadratic}
params: {alpha: auto, beta: 0.5, preset: heavy_ball}
stop: {max_iters: 20000, grad_tol: 1.0e-9, box_radius: 10.0}
saddle: {point: origin, radius: 1.0e-3, trials: 10, seed: 0}
""")
        res = momlab("saddle", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet")
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "out" / "saddle_report.json").read_text())
        assert report["analysis"]["classification"] == "strict_saddle"
        assert report["escape_fraction"] == 1.0
        assert (tmp_path / "out" / "escape.json").exists()

    @pytest.mark.parametrize("seed_flag, problem_seed", [((), 2), (("--seed", "7"), 7)])
    def test_report_records_seeds(self, tmp_path, seed_flag, problem_seed):
        cfg = write_config(tmp_path, """
problem: {kind: indefinite_quadratic, seed: 2}
params: {alpha: auto, beta: 0.5, preset: heavy_ball}
stop: {max_iters: 20000, grad_tol: 1.0e-9, box_radius: 10.0}
saddle: {point: origin, radius: 1.0e-3, trials: 4, seed: 5}
""")
        out = tmp_path / "out"
        assert main(["saddle", "--config", str(cfg), "--out", str(out), "--quiet",
                     *seed_flag]) == 0
        report = json.loads((out / "saddle_report.json").read_text())
        assert report["meta"]["seeds"] == {"problem_seed": problem_seed, "saddle_seed": 5}

    def test_hessian_built_once_per_study(self, tmp_path, monkeypatch):
        from momlab import saddle

        calls = []
        build = saddle.dense_hessian
        monkeypatch.setattr(saddle, "dense_hessian", lambda *a: calls.append(a) or build(*a))
        cfg = CONFIG_DIR / "indefinite_saddle.yaml"
        assert main(["saddle", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        assert (tmp_path / "out" / "escape.json").exists()
        assert len(calls) == 1

    def test_convex_quadratic_no_escape_study(self, tmp_path):
        cfg = write_config(tmp_path, """
problem: {kind: quadratic, dim: 2}
params: {alpha: auto, beta: 0.5, preset: heavy_ball}
saddle: {point: origin, trials: 5}
""")
        res = momlab("saddle", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet")
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "out" / "saddle_report.json").read_text())
        assert report["analysis"]["classification"] == "local_min_candidate"
        assert "escape_fraction" not in report
        assert not (tmp_path / "out" / "escape.json").exists()

    def test_beta_zero_rejected(self, tmp_path):
        cfg = write_config(tmp_path, """
problem: {kind: indefinite_quadratic}
params: {alpha: 0.1, beta: 0.0}
saddle: {point: origin, trials: 5}
""")
        res = momlab("saddle", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert res.returncode == 1
        assert "beta" in res.stderr

    def test_noncritical_candidate_rejected_with_grad_norm(self, tmp_path):
        cfg = write_config(tmp_path, """
problem: {kind: indefinite_quadratic}
params: {alpha: auto, beta: 0.5, preset: heavy_ball}
saddle: {point: [1.0, 1.0], trials: 5}
""")
        res = momlab("saddle", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert res.returncode == 1
        assert "grad" in res.stderr


class TestSweepCommand:
    def test_grid_rows(self, tmp_path):
        res = momlab("sweep", "--config", str(CONFIG_DIR / "quadratic_sweep.yaml"),
                     "--out", str(tmp_path / "out"), "--quiet")
        assert res.returncode == 0, res.stderr
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[1] == "alpha,beta,gamma,seed,converged,length,min_slack,rate_sup"
        assert len(lines) == 2 + 9

    def test_one_parse_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        parse = momlab_config.parse_config
        monkeypatch.setattr(momlab_config, "parse_config",
                            lambda raw: calls.append(raw) or parse(raw))
        assert main(["sweep", "--config", str(CONFIG_DIR / "quadratic_sweep.yaml"),
                     "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert len(calls) == 1
        assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 2 + 9

    # a generic grid with random starts: the Lipschitz ball is centred at each
    # cell's x0 and its reach is max(|beta|, |gamma|), so the 24 cells share
    # 4 seeds x 4 reaches (0, 0.3, 0.5, 0.6) = 16 distinct estimates
    GENERIC_GRID_CFG = """
problem: {kind: matrix_factorization, m: 3, n: 3, rank: 1, seed: 5}
params: {alpha: auto, beta: 0.3, preset: generic}
init: {x0: {random: {radius: 0.4, seed: 2}}}
lipschitz: {mode: sampled, center: x0, radius: 3.0, seed: 1}
stop: {max_iters: 60}
checks: [descent, rate]
sweep: {alphas: [auto], betas: [0.0, 0.3, 0.6], gammas: [0.0, 0.5], seeds: [0, 1, 2, 3]}
"""

    def test_one_lipschitz_estimate_per_distinct_ball(self, tmp_path, monkeypatch):
        calls = []
        estimate = momlab_cli.estimate_lipschitz
        monkeypatch.setattr(momlab_cli, "estimate_lipschitz",
                            lambda *args, **kw: calls.append(kw["reach"]) or estimate(*args, **kw))
        cfg = write_config(tmp_path, self.GENERIC_GRID_CFG)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        assert len(calls) == 16
        assert sorted(set(calls)) == [0.0, 0.3, 0.5, 0.6]
        assert len((tmp_path / "out" / "sweep.csv").read_text().splitlines()) == 2 + 24

    def test_stepping_makes_no_single_point_gradient_calls(self, tmp_path, monkeypatch,
                                                           counted):
        # every cell steps in one stacked call per step, in lockstep, and its
        # columns evaluate f a block of rows at a time
        wrapped = []  # (counted problem, its counts), made on first use
        lockstep = momlab_cli.run_lockstep

        def count(problem):
            if not wrapped:
                wrapped.append(counted(problem))
            return wrapped[0][0]

        class CountedColumns(momlab_cli.Columns):
            def __init__(self, problem, cert):
                super().__init__(count(problem), cert)

        calls = []
        monkeypatch.setattr(momlab_cli, "Columns", CountedColumns)
        monkeypatch.setattr(momlab_cli, "run_lockstep", lambda problem, *args, **kw: (
            calls.append(1) or lockstep(count(problem), *args, **kw)))
        cfg = write_config(tmp_path, self.GENERIC_GRID_CFG)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
        assert len(calls) == 1
        counts = wrapped[0][1]
        assert counts["gradient"][0] == 0 and counts["value"][0] == 0
        # the grid has heavy-ball cells, so the loop takes grad f(x_k) of every
        # row at all 62 points and hands it to the columns; the 12 cells with
        # gamma = 0.5 add grad f(y_k) at each of their 60 steps
        assert counts["gradient"][1] == 62 * 24 + 60 * 12
        assert counts["value"][1] == 62 * 24

    def test_empty_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path, """
problem: {kind: quadratic, dim: 2}
init: {x0: [1.0, 0.0]}
sweep: {alphas: [], betas: [0.0], gammas: [0.0], seeds: [0]}
""")
        res = momlab("sweep", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert res.returncode == 1

    def test_oversize_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path, f"""
problem: {{kind: quadratic, dim: 2}}
init: {{x0: [1.0, 0.0]}}
sweep:
  alphas: {list(0.01 * (i + 1) for i in range(25))}
  betas: {list(0.03 * i for i in range(25))}
  gammas: [0.0, 0.1, 0.2, 0.3]
  seeds: [0, 1, 2, 3, 4]
""")
        res = momlab("sweep", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert res.returncode == 1
        assert "10000" in res.stderr

    def test_sweep_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, """
problem: {kind: matrix_factorization, m: 3, n: 3, rank: 1, seed: 5}
params: {alpha: auto, beta: 0.3, preset: heavy_ball}
init: {x0: {random: {radius: 0.4, seed: 2}}}
lipschitz: {mode: sampled, center: x0, radius: 3.0}
stop: {max_iters: 300}
checks: [descent, rate]
sweep: {alphas: [auto], betas: [0.0, 0.3], gammas: [0.0], seeds: [0, 1]}
""")
        momlab("sweep", "--config", str(cfg), "--out", str(tmp_path / "a"), "--quiet")
        momlab("sweep", "--config", str(cfg), "--out", str(tmp_path / "b"), "--quiet")
        assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()


class TestDivergedRunWarnings:
    """A diverging run overflows in its checks and its trace.csv columns as well
    as in its steps; the commands print no numpy warning for any of them."""

    # the quartic from x0 = 1 at alpha = 1 overflows within a few steps; the
    # box is as large as a float allows, so the run stops as 'diverged'
    RUN_CFG = """problem: {kind: quartic}
params: {alpha: 1.0, beta: 0.5, preset: heavy_ball}
init: {x0: [1.0]}
stop: {max_iters: 2000, box_radius: 1.0e308}
"""
    SWEEP_CFG = RUN_CFG + "sweep: {alphas: [0.01, 1.0, 10.0, 100.0, 500.0]}\n"
    # sha256 of the outputs, as written before the warnings were silenced
    DIGESTS = {
        "trace.csv": "abce8ae3a2afb195b80245f082a8ee1e42fec17debc7baa80a636c797072cb03",
        "certificate.json": "eccec59b78f48505ca4dcc400a4bfec5424fde81020adaed1438d31687aed4e8",
        "sweep.csv": "ca8c745ab83da88a64b8f096e1fd5707bd70197ea426d9fc554b1deef63b628f",
    }

    @pytest.mark.parametrize("command, text, code, outputs", [
        ("run", RUN_CFG, 2, ["trace.csv", "certificate.json"]),
        ("sweep", SWEEP_CFG, 0, ["sweep.csv"]),
    ], ids=["run", "sweep"])
    def test_no_runtime_warning(self, tmp_path, command, text, code, outputs):
        import hashlib

        cfg = write_config(tmp_path, text)
        res = momlab(command, "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                     env_extra={"PYTHONWARNINGS": "default"})
        assert res.returncode == code, res.stderr
        assert "RuntimeWarning" not in res.stderr
        assert res.stderr == ""
        for name in outputs:
            digest = hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            assert digest == self.DIGESTS[name], name
