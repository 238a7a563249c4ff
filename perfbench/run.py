"""momlab CLI benchmark.

    python3 perfbench/run.py --workload {certify,escape,survey} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout. It drives `python -m momlab.cli`, one child
at a time, on the workload's generated and shipped configs, and checks every
invocation's outputs (oracle.py). The CLI's default thread pool is what gets
measured: no --workers flag is passed.

--trace 0 repeats whole passes over the workload (at least two) for about
S seconds and reports, from outside the program, the end-to-end metrics: the median pass
wall time and CPU time of the children, the largest child RSS, and set-up
time (median of several `--version` children).

--trace 1 alternates a plain and a traced in-process pass (traced.py) for
about S seconds and reports the per-layer metrics of layers.py: medians over
the traced passes for times; counts, which must repeat exactly across
traced passes.

The last line of stdout is the result JSON; the line before it holds the
context block and the sample counts. Everything the benchmark writes lives
in `.perfbench_work/` under the checkout and is removed before it exits.
See README.md for why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import generate  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Child:
    """Exit code, wall time, CPU time and peak RSS of one finished child."""

    def __init__(self, argv, env, stdout: Path, stderr: Path):
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            self.wall_s = perf_counter() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stderr = stderr


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.work = work_dir(root)
        self.invocations = generate.workload(workload, seed, self.work / "configs")
        self.digests = oracle.pinned_digests(seed, workload)
        self.attempted = self.failed = 0
        self.leaked = []   # leftover temp files, per pass
        self._passes = 0

    def env(self, tmp: Path) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["TMPDIR"] = str(tmp)
        env.pop("MOMLAB_OUT", None)
        return env

    def new_dir(self, *parts) -> Path:
        path = self.work.joinpath(*parts)
        path.mkdir(parents=True)
        return path

    def record(self, name: str, problems: list, stderr: Path | None = None) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {self.workload}/{name}: {'; '.join(problems)}", file=sys.stderr)
            if stderr is not None and stderr.exists():
                print(stderr.read_text()[-2000:], file=sys.stderr)

    def settle(self, inv, rc: int, out: Path, tmp: Path, stderr: Path | None) -> int:
        """Check one invocation, count its leftover temp files, delete both dirs."""
        self.record(inv.name, oracle.check(inv.expect, rc, out, self.digests.get(inv.name)),
                    stderr)
        leaked = sum(1 for p in tmp.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(tmp, ignore_errors=True)
        return leaked

    def setup_s(self) -> list:
        """Wall time of `--version` children: interpreter start, import, parsing."""
        times = []
        for i in range(SETUP_REPEATS):
            d = self.new_dir("setup", str(i))
            c = Child([sys.executable, "-m", "momlab.cli", "--version"], self.env(d),
                      d / "stdout", d / "stderr")
            ok = c.rc == 0 and (d / "stdout").read_text().startswith("momlab ")
            self.record("--version", [] if ok else [f"exit {c.rc}, no version line"], c.stderr)
            times.append(c.wall_s)
        return times

    def cli_pass(self) -> tuple:
        """One pass, one child per invocation: (wall_s, cpu_s, peak RSS in MB)."""
        p = self._next_pass()
        wall = cpu = rss = 0.0
        leaked = 0
        for inv in self.invocations:
            d = self.new_dir(p, inv.name)
            out, tmp = d / "out", self.new_dir(p, inv.name, "tmp")
            c = Child([sys.executable, "-m", "momlab.cli", *inv.argv, "--out", str(out)],
                      self.env(tmp), d / "stdout", d / "stderr")
            leaked += self.settle(inv, c.rc, out, tmp, c.stderr)
            wall, cpu, rss = wall + c.wall_s, cpu + c.cpu_s, max(rss, c.rss_mb)
        self.leaked.append(leaked)
        return wall, cpu, rss

    def inprocess_pass(self, traced: bool) -> dict:
        """One pass in a single traced.py child; its parsed result."""
        p = self._next_pass()
        d = self.new_dir(p)
        plan, dirs = [], []
        for inv in self.invocations:
            out, tmp = d / inv.name / "out", self.new_dir(p, inv.name, "tmp")
            plan.append({"argv": [*inv.argv, "--out", str(out)], "tmp": str(tmp)})
            dirs.append((inv, out, tmp))
        (d / "plan.json").write_text(json.dumps(plan))
        argv = [sys.executable, str(HERE / "traced.py"), str(d / "plan.json"),
                str(d / "result.json")] + ([] if traced else ["--plain"])
        c = Child(argv, self.env(d), d / "stdout", d / "stderr")
        if c.rc != 0:
            raise RuntimeError(f"traced child exited {c.rc}: {c.stderr.read_text()[-2000:]}")
        result = json.loads((d / "result.json").read_text())
        result["leaked"] = sum(self.settle(inv, call["rc"], out, tmp, None)
                               for (inv, out, tmp), call in zip(dirs, result["calls"]))
        result["wall_s"] = sum(call["wall_s"] for call in result["calls"])
        self.leaked.append(result["leaked"])
        return result

    def _next_pass(self) -> str:
        self._passes += 1
        return f"pass{self._passes}"


def work_dir(root: Path) -> Path:
    return root / ".perfbench_work" / str(os.getpid())


def remove_work_dir(root: Path) -> None:
    shutil.rmtree(work_dir(root), ignore_errors=True)
    try:
        work_dir(root).parent.rmdir()
    except OSError:
        pass  # another run still uses it


def repeat(seconds: float, one_pass, at_least: int) -> list:
    """Run at least `at_least` passes, then more while the next one, as long
    as the last, still ends in time."""
    deadline = perf_counter() + seconds
    results = []
    while True:
        t0 = perf_counter()
        results.append(one_pass(len(results)))
        now = perf_counter()
        if len(results) >= at_least and now + (now - t0) > deadline:
            return results


def end_to_end(bench: Bench, seconds: float):
    setup = bench.setup_s()
    # two passes at least, so a median never rests on one sample
    passes = repeat(seconds, lambda i: bench.cli_pass(), at_least=2)
    walls, cpus, rsss = zip(*passes)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(rsss), "MB"),
    }
    samples = {"wall_s": len(walls), "cpu_s": len(cpus), "setup_s": len(setup),
               "peak_rss_mb": len(rsss) * len(bench.invocations)}
    return metrics, samples, {}, True


def traced_layers(bench: Bench, seconds: float):
    # alternate which of the pair goes first, so drift hits both alike
    pairs = repeat(seconds, lambda i: [bench.inprocess_pass(traced=(j + i) % 2 == 0)
                                       for j in range(2)], at_least=1)
    plain = [r for pair in pairs for r in pair if not r["spans"]]
    traced = [r for pair in pairs for r in pair if r["spans"]]
    runs = [layers.per_layer(r["spans"], r["import_s"], r["leaked"]) for r in traced]
    metrics, consistent = {}, True
    for name, unit in layers.PER_LAYER:
        values = [m[name] for m in runs]
        if unit not in ("count", "ratio"):
            metrics[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) > 1:
            consistent = False
            print(f"FAILED {name} differs between traced passes: {values}", file=sys.stderr)
        metrics[name] = (values[0], unit)
    extra = {
        "tracing_overhead": statistics.median(t["wall_s"] for t in traced)
        / statistics.median(p["wall_s"] for p in plain),
        "absent_names": sorted({n for r in traced for n in r["absent"]}),
    }
    return metrics, {"traced_passes": len(traced), "plain_passes": len(plain)}, extra, consistent


def context(root: Path, seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "pyyaml": version("PyYAML"),
        "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=generate.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "momlab" / "cli.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the root of a momlab checkout (src/momlab, configs/)",
              file=sys.stderr)
        return 2

    try:
        bench = Bench(root, args.workload, args.seed)
        measure = traced_layers if args.trace else end_to_end
        metrics, samples, extra, consistent = measure(bench, args.seconds)
    finally:
        remove_work_dir(root)
    ctx = context(root, args.seed)
    ctx.update(extra)
    ctx["leaked_tmp_files_per_pass"] = bench.leaked
    print(json.dumps({"context": ctx, "samples": samples}))
    print(json.dumps({
        "correct": bench.failed == 0 and consistent,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
