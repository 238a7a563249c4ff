"""trace.csv and certificate.json equal their csv.writer / json.dump references byte for byte.

Both writers work a block of _ROW_BLOCK rows or list items at a time, so the
runs end on either side of the block edges.
"""

import json

import numpy as np
import pytest
from conftest import traced_peak
from oracles import reference_certificate_json, reference_trace_csv

from momlab import MomentumParams, StopRules, run, synthetic
from momlab.certificates import (
    PerStepReport,
    build_certificate,
    check_descent,
    check_gradient_bound,
    check_step_bound,
)
from momlab.cli import write_trace_csv
from momlab.optimizer import _ROW_BLOCK

B = _ROW_BLOCK

CHECKS = {
    "descent": check_descent,
    "gradient_bound": check_gradient_bound,
    "step_bound": check_step_bound,
}
META = 'config_sha256=abc seeds={"x0_seed": 0}'


def _certified_run(steps, checks=tuple(CHECKS)):
    # the iterates escape the saddle along x_2 and leave the trust ball, so
    # the certified and passed lists mix true and false
    p = synthetic("indefinite_quadratic")
    x0 = np.array([0.5, 0.01])
    params = MomentumParams(0.1, 0.5, 0.2)
    trace = run(p, x0, x0, params, StopRules(max_iters=steps))
    cert = build_certificate(1.0, 2.0, params, np.zeros(2), 2.0, strict=False)
    for name in checks:
        cert.per_step[name] = CHECKS[name](trace, cert)
    return trace, cert


def _assert_writers_match(tmp_path, trace, cert):
    write_trace_csv(tmp_path / "trace.csv", trace, cert, META)
    reference_trace_csv(tmp_path / "ref_trace.csv", trace, cert, META)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "ref_trace.csv").read_bytes()
    cert.to_json(tmp_path / "certificate.json")
    reference_certificate_json(cert, tmp_path / "ref_certificate.json")
    assert ((tmp_path / "certificate.json").read_bytes()
            == (tmp_path / "ref_certificate.json").read_bytes())


# K steps give K-item per-step lists and K + 1 csv rows: around the first
# block edge, past the second, and around the edge after the fourth block
@pytest.mark.parametrize("steps", [0, 1, B - 1, B, B + 1, 2 * B + 1, 4 * B - 1, 4 * B, 4 * B + 1])
def test_writers_at_block_edges(tmp_path, steps):
    trace, cert = _certified_run(steps)
    assert trace.num_steps == steps
    if steps > 100:
        certified = cert.per_step["descent"].certified
        assert certified.any() and not certified.all()
    _assert_writers_match(tmp_path, trace, cert)


@pytest.mark.parametrize("checks", [(), ("step_bound",), ("descent",), ("gradient_bound",),
                                    ("gradient_bound", "descent")])
def test_writers_with_checks_missing(tmp_path, checks):
    trace, cert = _certified_run(5, checks)
    _assert_writers_match(tmp_path, trace, cert)


def test_writers_with_non_finite_slack(tmp_path):
    trace, cert = _certified_run(6)
    for rep in cert.per_step.values():
        rep.slack = rep.slack.copy()  # a check's slack is read-only
        rep.slack[1:4] = [np.nan, np.inf, -np.inf]
    cert.per_step["descent"].slack[:] = np.nan  # min_slack is NaN as well
    _assert_writers_match(tmp_path, trace, cert)
    assert "NaN" in (tmp_path / "certificate.json").read_text()
    assert ",nan," in (tmp_path / "trace.csv").read_text()


def test_writers_with_empty_per_step_lists(tmp_path):
    trace, cert = _certified_run(4)
    for name in CHECKS:
        cert.per_step[name] = PerStepReport(name, np.empty(0), np.empty(0, dtype=bool),
                                            np.empty(0, dtype=bool))
    _assert_writers_match(tmp_path, trace, cert)
    assert '"slack": []' in (tmp_path / "certificate.json").read_text()


def test_certified_list_replaces_the_count_after_steps(tmp_path):
    trace, cert = _certified_run(3, ("descent",))
    cert.to_json(tmp_path / "certificate.json")
    check = json.loads((tmp_path / "certificate.json").read_text())["checks"]["descent"]
    assert list(check) == ["name", "steps", "certified", "pass", "fail", "min_slack",
                           "first_failure", "slack", "passed"]
    assert check["certified"] == cert.per_step["descent"].certified.tolist()


def test_certificate_json_streams_its_lists(tmp_path):
    # three 20,000-step checks: their lists are over 1.5 MB as Python floats
    # and bools and more as text; one chunk of one list is alive at a time
    n = 20_000
    cert = build_certificate(1.0, 2.0, MomentumParams(0.1, 0.5, 0.2), np.zeros(2), 2.0,
                             strict=False)
    rng = np.random.default_rng(0)
    for name in CHECKS:
        cert.per_step[name] = PerStepReport(name, rng.standard_normal(n), rng.random(n) < 0.9,
                                            np.arange(n) < 0.8 * n)
    cert.to_json(tmp_path / "warm.json")
    _, peak = traced_peak(lambda: cert.to_json(tmp_path / "certificate.json"))
    assert peak < 0.5e6
