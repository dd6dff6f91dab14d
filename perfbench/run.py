"""
The idsa-lab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload domain-split --seed 7 --seconds 15 --trace 0

Run from anywhere inside a source checkout (it finds ``src/`` next to its
own directory).  Each sample runs in a fresh interpreter (``child.py``)
with the BLAS thread count fixed at 1.  Samples are started until the time
budget would be exceeded (always at least one).  After the timed part, one
invocation of the first sample is repeated in another fresh interpreter
and its CSV bodies must match byte for byte; every artifact is checked
against physics references (``workloads.py``).

``--trace 0`` reports the end-to-end metrics, medians over the run's
samples: ``wall_s`` (first ``cli.run`` call to the last artifact),
``cpu_s`` (user + sys time of the child over the same span) and
``peak_rss_mb`` of the child, and ``setup_s`` (import idsa_lab and
resolve the configs), the median over every child started.  Quartiles,
extremes and sample counts are in the detail line.
``--trace 1`` alternates untraced and traced runs of the same samples and
reports the per-layer metrics (``tracing.py``) of the traced sample with
the median wall time, with ``trace.overhead_s`` its wall time minus the
untraced median.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
quartiles, sample counts, failures and the environment.  An operation is
one experiment invocation; it fails on a nonzero exit code or a failed
check, and ``failed / attempted`` is the failure share.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from workloads import Invocation, check_invocation, csv_bodies, make_sample  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = Path(BENCH_DIR.name) / "work"       # relative to ROOT, the working directory
TRACES = Path(BENCH_DIR.name) / "traces"
CHILD = BENCH_DIR / "child.py"
MIN_SETUPS = 7
DEADLINE_S = 170.0  # hard stop for children; a run must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "idsa.us_per_step": "us", "idsa.steps": "count", "idsa.cell_steps": "count",
    "idsa.self_s": "s", "idsa.confirm_step_frac": "ratio",
    "quadrature.self_s": "s", "quadrature.calls": "count",
    "quadrature.integrand_evals": "count", "quadrature.panels": "count",
    "quadrature.max_live_panels": "count",
    "sphere.self_s": "s", "sphere.s_per_kappa": "s", "sphere.radii": "count",
    "reformed.us_per_step": "us", "reformed.steps": "count", "reformed.self_s": "s",
    "reformed.direct_s": "s", "reformed.closed_form_s": "s",
    "cli.self_s": "s", "cli.rows_written": "count", "cli.bytes_written": "B",
    "diagnostics.self_s": "s", "grids.self_s": "s", "config.parse_s": "s",
    "idsa_lab.import_s": "s", "reformed.import_s": "s",
    "trace.wall_s": "s", "trace.self_sum_s": "s", "trace.overhead_s": "s",
}


def _quartiles(xs) -> dict:
    xs = sorted(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], xs[0], xs[0])
    return {"median": statistics.median(xs), "q1": q1, "q3": q3,
            "min": xs[0], "max": xs[-1], "n": len(xs)}


def _import_times(stderr: str) -> dict:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            out[parts[2].strip()] = int(parts[1]) * 1e-6
    return out


def environment(seed: int) -> dict:
    import scipy

    def read(path, default=None):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    cpu = next((line.split(":", 1)[1].strip()
                for line in (read("/proc/cpuinfo", "") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if level and kind:
            caches[f"L{level} {kind}"] = read(index / "size")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_ENV,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Op:
    """One experiment invocation and whatever went wrong with it."""

    def __init__(self, inv: Invocation, sample: int):
        self.inv = inv
        self.sample = sample
        self.failures = []


class Run:
    def __init__(self, workload: str, seed: int, size: str, trace: bool, corrupt=None):
        self.workload, self.seed, self.size = workload, seed, size
        self.corrupt = corrupt
        self.deadline = time.monotonic() + DEADLINE_S
        self.ops: list[Op] = []
        self.errors: list[str] = []  # failures not tied to one invocation
        self.setups: list[float] = []
        self.dir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"

    def child(self, invs, trace=False, setup_only=False):
        job = {"src": str(SRC), "configs": [inv.config_text() for inv in invs],
               "trace": trace, "setup_only": setup_only}
        cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [str(CHILD)]
        try:
            proc = subprocess.run(
                cmd, input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
                timeout=max(1.0, self.deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            self.errors.append("child timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"child exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        out = json.loads(lines[-1])
        out["stderr"] = proc.stderr
        self.setups.append(out["setup_s"])
        return out

    def measure(self, invs, sample: int, trace=False):
        """Run one sample in a fresh child and check every artifact."""
        for inv in invs:
            shutil.rmtree(inv.output_dir, ignore_errors=True)
        ops = [Op(inv, sample) for inv in invs]
        self.ops += ops
        out = self.child(invs, trace=trace)
        if out is None:
            for op in ops:
                op.failures.append("no result from the child process")
            return None
        counts = Counter()
        for op, code in zip(ops, out["exit_codes"]):
            if self.corrupt is not None:
                self.corrupt(op.inv.output_dir)
            if code != 0:
                op.failures.append(f"{op.inv.values['experiment']} exited with code {code}")
                continue
            res = check_invocation(op.inv)
            op.failures += res.failures
            counts.update(res.counts)
        out["counts"] = dict(counts)
        return out

    def compare(self, a: Op, b: Op) -> None:
        """Repeated invocations of one config must write byte-identical CSV bodies."""
        if not (a.failures or b.failures) and csv_bodies(a.inv.output_dir) != csv_bodies(b.inv.output_dir):
            b.failures.append(f"CSV bodies differ between {a.inv.output_dir} and {b.inv.output_dir}")

    def sample_dir(self, k: int, tag: str = "") -> Path:
        return self.dir / f"s{k}{tag}"

    def timed_loop(self, seconds: float, body) -> None:
        """Call body(k) for k = 0, 1, ... while the next call fits in the budget."""
        rng = np.random.default_rng(self.seed)
        start, longest, k = time.monotonic(), 0.0, 0
        while True:
            t = time.monotonic()
            body(k, make_sample(self.workload, self.size, rng, self.sample_dir(k)))
            longest = max(longest, time.monotonic() - t)
            k += 1
            if time.monotonic() - start + longest > seconds or time.monotonic() + longest > self.deadline:
                return


def _end_to_end(run: Run, seconds: float):
    samples = []

    def body(k, invs):
        out = run.measure(invs, k)
        if out is not None:
            samples.append(out)
        if k > 0:
            shutil.rmtree(run.sample_dir(k), ignore_errors=True)

    run.timed_loop(seconds, body)
    first = [op for op in run.ops if op.sample == 0]
    if samples and not any(op.failures for op in first):
        # Repeat the cheapest invocation of sample 0 in a fresh interpreter.
        walls = samples[0]["invocation_wall_s"]
        original = first[min(range(len(walls)), key=walls.__getitem__)]
        repeat = Invocation(original.inv.values, run.dir / "repeat" / original.inv.output_dir.name)
        if run.measure([repeat], -1) is not None:
            run.compare(original, run.ops[-1])
    while samples and len(run.setups) < MIN_SETUPS and time.monotonic() < run.deadline - 5:
        run.child([op.inv for op in first], setup_only=True)
    if not samples:
        return None, {}
    stats = {
        "wall_s": _quartiles([s["wall_s"] for s in samples]),
        "setup_s": _quartiles(run.setups),
        "cpu_s": _quartiles([s["cpu_s"] for s in samples]),
        "peak_rss_mb": _quartiles([s["peak_rss_mb"] for s in samples]),
    }
    return {k: stats[k]["median"] for k in END_TO_END}, stats


def _layer_metrics(out: dict) -> dict:
    tr, art = out["trace"], out["counts"]
    self_s, incl, calls, cnt = tr["self_s"], tr["inclusive_s"], tr["calls"], tr["counts"]
    imports = _import_times(out["stderr"])
    idsa_steps = art.get("idsa.steps", 0)
    reformed_steps = art.get("reformed.snapshot_steps", 0) + cnt.get("reformed.stationarity_steps", 0)
    marching = incl.get("reformed.step", 0.0) + incl.get("reformed.run_to_stationarity", 0.0)
    kappas = calls.get("sphere.exact_moments", 0)
    return {
        "idsa.us_per_step": 1e6 * self_s["idsa"] / idsa_steps if idsa_steps else 0.0,
        "idsa.steps": idsa_steps,
        "idsa.cell_steps": art.get("idsa.cell_steps", 0),
        "idsa.self_s": self_s["idsa"],
        "idsa.confirm_step_frac": art.get("idsa.confirm_steps", 0) / idsa_steps if idsa_steps else 0.0,
        "quadrature.self_s": self_s["quadrature"],
        "quadrature.calls": calls.get("quadrature.integrate_batch", 0),
        "quadrature.integrand_evals": cnt.get("quadrature.integrand_evals", 0),
        "quadrature.panels": cnt.get("quadrature.panels", 0),
        "quadrature.max_live_panels": cnt.get("quadrature.max_live_panels", 0),
        "sphere.self_s": self_s["sphere"],
        "sphere.s_per_kappa": incl.get("sphere.exact_moments", 0.0) / kappas if kappas else 0.0,
        "sphere.radii": cnt.get("sphere.radii", 0),
        "reformed.us_per_step": 1e6 * marching / reformed_steps if reformed_steps else 0.0,
        "reformed.steps": reformed_steps,
        "reformed.self_s": self_s["reformed"],
        "reformed.direct_s": incl.get("reformed.stationary_direct", 0.0),
        "reformed.closed_form_s": incl.get("reformed.new_idsa_stationary_closed_form", 0.0),
        "cli.self_s": self_s["cli"],
        "cli.rows_written": art.get("cli.rows_written", 0),
        "cli.bytes_written": art.get("cli.bytes_written", 0),
        "diagnostics.self_s": self_s["diagnostics"],
        "grids.self_s": self_s["grids"],
        "config.parse_s": out["parse_s"],
        "idsa_lab.import_s": imports.get("idsa_lab", 0.0),
        "reformed.import_s": imports.get("idsa_lab.reformed", 0.0),
        "trace.wall_s": out["wall_s"],
        "trace.self_sum_s": sum(self_s.values()),
    }


def _per_layer(run: Run, seconds: float):
    plain, traced = [], []

    def body(k, invs):
        a = run.measure(invs, k)
        n = len(run.ops)
        twins = [Invocation(inv.values, run.sample_dir(k, "t") / inv.output_dir.name) for inv in invs]
        b = run.measure(twins, k, trace=True)
        for op_a, op_b in zip(run.ops[n - len(invs):n], run.ops[n:]):
            run.compare(op_a, op_b)
        if a is not None and b is not None:
            plain.append(a)
            traced.append(b)
        shutil.rmtree(run.sample_dir(k), ignore_errors=True)
        shutil.rmtree(run.sample_dir(k, "t"), ignore_errors=True)

    run.timed_loop(seconds, body)
    if not traced:
        return None, {}
    rows = [_layer_metrics(out) for out in traced]
    stats = {name: _quartiles([r[name] for r in rows]) for name in rows[0]}
    untraced = _quartiles([out["wall_s"] for out in plain])
    stats["untraced.wall_s"] = untraced
    # One whole sample, so its self times add up to its wall time.
    middle = sorted(range(len(rows)), key=lambda i: rows[i]["trace.wall_s"])[(len(rows) - 1) // 2]
    metrics = rows[middle]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced["median"]
    TRACES.mkdir(parents=True, exist_ok=True)
    (TRACES / f"{run.workload}-seed{run.seed}.json").write_text(json.dumps(
        {"fields": ["layer", "name", "start", "end", "parent"], "spans": traced[middle]["spans"]}))
    return metrics, stats


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", corrupt=None):
    """Measure one workload; returns (result line, detail record), or None
    for the result when no sample produced numbers.  ``corrupt(dir)``, when
    given, is applied to every sample invocation's artifacts before they
    are checked."""
    run = Run(workload, seed, size, trace, corrupt)
    try:
        metrics, stats = (_per_layer if trace else _end_to_end)(run, seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    failures = [f"{op.inv.values['experiment']} (sample {op.sample}): {msg}"
                for op in run.ops for msg in op.failures] + run.errors
    failed = sum(1 for op in run.ops if op.failures)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "stats": stats, "failures": failures,
        "failed_frac": failed / len(run.ops) if run.ops else 1.0,
        "environment": environment(seed),
    }
    if metrics is None:
        return None, detail
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not failures,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: small problems for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "idsa_lab" / "__init__.py").is_file():
        print(f"error: no idsa_lab sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))  # the artifact checks use the library's references

    result, detail = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for msg in detail["failures"]:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps(detail))
    if result is None:
        print("error: no sample completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
