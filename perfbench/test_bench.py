"""
Self-test of the benchmark at tiny sizes (about a minute):

    python3 -m pytest perfbench -q

Checks that BENCHMARK.json and run.py name the same metrics with the same
units, that every workload prints all of them, that corrupted artifacts
are counted as failed operations, and that the benchmark refuses to run
without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    spans_file = BENCH_DIR / "traces" / f"{workload}-seed3.json"
    spans_file.unlink(missing_ok=True)
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # Self times partition the traced wall time.
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.wall_s"], rel=0.05)
        spans = json.loads(spans_file.read_text())["spans"]
        assert spans and spans[0][:2] == ["cli", "run"]
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _drop_last_row(outdir: Path) -> None:
    for path in outdir.glob("*.csv"):
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-1]))


def _break_bound(outdir: Path) -> None:
    path = outdir / "instability.csv"
    lines = path.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[-1] = "1.5"  # sup(Jt + Js) far above B
    path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")


@pytest.mark.parametrize(
    "workload, corrupt",
    [(w, _drop_last_row) for w in workloads.WORKLOADS]
    + [("edge-instability", _break_bound)],
)
def test_corrupted_artifact_is_a_failed_operation(workload, corrupt, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "MIN_SETUPS", 1)
    result, detail = run.run_benchmark(workload, 5, 0.1, False, size="tiny", corrupt=corrupt)
    assert not result["correct"]
    assert result["failed"] >= 1
    sample_failures = [f for f in detail["failures"] if "(sample 0)" in f]
    assert sample_failures, detail["failures"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "work", "traces"))
    proc = _run_cli("--workload", "domain-split", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
