"""Traced child: runs one pass of a workload's CLI invocations in-process.

    python perfbench/traced.py PLAN RESULT [--plain]

PLAN is a JSON list of {"argv": [...], "tmp": dir}. The child times
`import momlab.cli`, then (unless --plain) wraps the public functions the
CLI reaches, under the names it reaches them by, and the value / gradient /
hessian_vec callables of every Problem a config builds. It then calls
`momlab.cli.main(argv)` once per entry, with TMPDIR pointing at the entry's
own directory, and writes RESULT as JSON: the import time, each call's exit
code and wall time, every span, and the wrapped names that no longer exist.

Spans stay in memory until the pass ends. Each holds its name, start, end,
parent and thread, the evaluations its own code made (counted in rows: an
input of shape (B, dim) counts B) and the time spent in them. A span opened
on a pool thread with nothing open on that thread takes as parent the
innermost span open on the thread that started the trace.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import os
import sys
import tempfile
import threading
from time import perf_counter

# module -> names wrapped there: the CLI's imports, plus the names through
# which escape studies and tracking ladders call the stepping loop and the
# flow integrator, and the parser a sweep imports once per cell
TARGETS = {
    "momlab.cli": (
        "main", "cmd_run", "cmd_track", "cmd_saddle", "cmd_sweep", "load_config",
        "estimate_lipschitz", "run", "build_certificate", "lyapunov_values",
        "check_descent", "check_gradient_bound", "check_step_bound", "check_length_formula",
        "fit_desingularizer", "check_rate", "measure_length",
        "tracking_ladder", "analyze_critical_point", "escape_experiment",
    ),
    "momlab.config": ("parse_config",),
    "momlab.saddle": ("run",),
    "momlab.gradient_flow": ("run", "integrate_flow", "tracking_error"),
}
VALUE, GRAD, HVP = range(3)


def _run_info(args, kwargs, trace):
    params = kwargs["params"] if "params" in kwargs else args[3]
    return {"steps": trace.num_steps, "gamma": params.gamma}


def _check_info(args, kwargs, report):
    return {"steps": len(report.slack)}


def _escape_info(args, kwargs, exp):
    return {"trials": len(exp.outcomes), "steps": sum(o["iters"] for o in exp.outcomes),
            "inconclusive": exp.n_inconclusive}


# what each span records from its call; read defensively, since the names
# and types belong to the program and later versions may change them
INFO = {
    "momlab.cli.run": _run_info,
    "momlab.saddle.run": _run_info,
    "momlab.gradient_flow.run": _run_info,
    "momlab.cli.check_descent": _check_info,
    "momlab.cli.check_gradient_bound": _check_info,
    "momlab.cli.check_step_bound": _check_info,
    "momlab.cli.escape_experiment": _escape_info,
}


class Span:
    __slots__ = ("id", "name", "parent", "thread", "t0", "t1", "counts", "eval_s", "info")

    def __init__(self, id_, name, parent, t0):
        self.id, self.name, self.parent, self.t0, self.t1 = id_, name, parent, t0, t0
        self.thread = threading.get_ident()
        self.counts = [0, 0, 0]
        self.eval_s = 0.0
        self.info = None

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent, "thread": self.thread,
                "t0": self.t0, "t1": self.t1, "value": self.counts[VALUE],
                "grad": self.counts[GRAD], "hvp": self.counts[HVP], "eval_s": self.eval_s,
                "info": self.info}


class Tracer:
    """Per-thread span stacks; one list of every span, written when the pass ends."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count()
        self.spans = []
        self._root = self._stack()  # the stack of the thread that runs the CLI

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, stack: list) -> Span:
        parent = stack[-1] if stack else (self._root[-1] if self._root else None)
        span = Span(next(self._ids), name, None if parent is None else parent.id, perf_counter())
        self.spans.append(span)
        return span

    def current(self) -> Span:
        """Innermost open span of this thread, which is charged for evaluations."""
        stack = self._stack()
        if stack:
            return stack[-1]
        orphan = getattr(self._local, "orphan", None)
        if orphan is None:
            orphan = self._local.orphan = self._open("unattributed", stack)
        return orphan

    def wrap(self, name: str, fn, post=None):
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = self._open(name, stack)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = perf_counter()
                stack.pop()
            if info is not None:
                try:
                    span.info = info(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span.info = None
            return post(result) if post is not None else result

        return traced

    def count_problem(self, problem):
        """The Problem with counting value / gradient / hessian_vec callables."""
        if isinstance(problem.gradient, _Counted):
            return problem
        hvp = problem.hessian_vec
        return dataclasses.replace(
            problem,
            value=_Counted(self, problem.value, VALUE),
            gradient=_Counted(self, problem.gradient, GRAD),
            hessian_vec=None if hvp is None else _Counted(self, hvp, HVP),
        )

    def install(self) -> list:
        """Wrap every target that exists; return the names that do not."""
        absent = []

        def wrap_config(cfg):
            cfg.problem = self.count_problem(cfg.problem)
            return cfg

        for module_name, names in TARGETS.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name, None)
                full = f"{module_name}.{name}"
                if fn is None:
                    absent.append(full)
                    continue
                post = wrap_config if full == "momlab.config.parse_config" else None
                setattr(module, name, self.wrap(full, fn, post))
        return absent


class _Counted:
    """A Problem callable that charges its calls to the caller's innermost span."""

    __slots__ = ("tracer", "fn", "kind")

    def __init__(self, tracer, fn, kind):
        self.tracer, self.fn, self.kind = tracer, fn, kind

    def __call__(self, x, *rest):
        t0 = perf_counter()
        out = self.fn(x, *rest)
        dt = perf_counter() - t0
        span = self.tracer.current()
        span.counts[self.kind] += 1 if getattr(x, "ndim", 1) < 2 else len(x)
        span.eval_s += dt
        return out


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    plain = "--plain" in argv[2:]
    t0 = perf_counter()
    import momlab.cli

    import_s = perf_counter() - t0
    tracer = None if plain else Tracer()
    absent = [] if tracer is None else tracer.install()
    with open(plan_path) as fh:
        plan = json.load(fh)
    calls = []
    for entry in plan:
        os.environ["TMPDIR"] = tempfile.tempdir = entry["tmp"]
        t = perf_counter()
        try:
            rc = momlab.cli.main(entry["argv"])
        except SystemExit as e:  # argparse rejects bad arguments by exiting
            rc = e.code if isinstance(e.code, int) else 1
        calls.append({"rc": rc, "wall_s": perf_counter() - t})
    result = {"import_s": import_s, "calls": calls, "absent": absent,
              "spans": [] if tracer is None else [s.to_dict() for s in tracer.spans]}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
