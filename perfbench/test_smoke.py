"""Smoke test of the benchmark itself: python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once on tiny inputs, traced and untraced, and shows that
a corrupted submission value, and a grid that learns nothing, are counted as
failed checks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import chain  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    """Scratch space inside the checkout's benchmark work directory."""
    path = run.WORK / f"smoke-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if not any(run.WORK.iterdir()):
        run.WORK.rmdir()


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload's inputs, keeping enough instances per pair for
    the quality check."""
    monkeypatch.setattr(run, "PAPER_CORPUS",
                        replace(run.PAPER_CORPUS, train=40, dev=8, test=3))
    monkeypatch.setattr(run, "WIDE_MEMBERS",
                        replace(run.WIDE_MEMBERS, dev=6, test=6))
    monkeypatch.setattr(run, "SETUP_LEAST", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_pass(workload, trace, tiny, capsys):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    stdout = capsys.readouterr().out
    assert code == 0, stdout
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, stdout
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_corrupted_submission_value_is_a_failure(workdir, tiny, monkeypatch):
    original = chain.check_submission

    def corrupt_then_check(sub_dir, expected):
        path = sub_dir / f"{min(expected)}.json"
        rows = json.loads(path.read_text())
        rows[0]["VA"] = "9.50#5.00"
        path.write_text(json.dumps(rows))
        return original(sub_dir, expected)

    monkeypatch.setattr(chain, "check_submission", corrupt_then_check)
    runner = chain.Runner(run.ROOT, time.monotonic() + 170)
    bench = run.Bench(run.WORKLOADS["ensemble-wide"], 7, workdir / "work",
                      runner)
    bench.set_up()
    bench.run_pass(0, traced=False)
    failed = [(name, detail) for name, ok, detail in bench.checks if not ok]
    pair = min(bench.inputs.keys["test"])
    assert failed == [(f"submission.{pair}", "bad values ['9.50#5.00']")]


def test_model_that_learns_nothing_fails_the_quality_check(workdir, tiny,
                                                          monkeypatch):
    # The default grid's learning rates leave the toy models where they start.
    grid = [{**c, "learning_rate": c["learning_rate"] / 3000}
            for c in run.RUN_CONFIG["grid"]]
    monkeypatch.setattr(run, "RUN_CONFIG", {"grid": grid})
    runner = chain.Runner(run.ROOT, time.monotonic() + 170)
    bench = run.Bench(run.WORKLOADS["paper-grid"], 7, workdir / "work", runner)
    bench.set_up()
    bench.run_pass(0, traced=False)
    failed = [name for name, ok, _ in bench.checks if not ok]
    assert failed == ["quality.beats_constant"]
    assert bench.dev_rmse[0] > 0.95 * bench.constant_rmse


def test_steal_time_reads_as_seconds():
    before = chain.steal_s()
    assert 0.0 <= before <= chain.steal_s()


def test_submission_format_check(workdir):
    rows = [{"ID": "r1", "Aspect": "a", "VA": "5.00#1.00"},
            {"ID": "r2", "Aspect": "b", "VA": "9.00#6.25"}]
    (workdir / "eng-res.json").write_text(json.dumps(rows))
    expected = {"eng-res": [("r1", "a"), ("r2", "b")]}
    assert all(ok for _, ok, _ in chain.check_submission(workdir, expected))
    for bad in ("5.5#5.00", "0.99#5.00", "5.00#9.01", "nan#5.00"):
        rows[0]["VA"] = bad
        (workdir / "eng-res.json").write_text(json.dumps(rows))
        results = chain.check_submission(workdir, expected)
        assert [ok for _, ok, _ in results] == [True, False], bad


def test_refuses_to_run_without_the_program(workdir):
    shutil.copytree(HERE, workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", workdir)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "paper-grid", "--seed", "1", "--seconds", "1",
                          "--trace", "0"],
                         cwd=workdir, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
