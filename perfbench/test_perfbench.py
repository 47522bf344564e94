"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py

Covers every workload in the timed and the traced run, the check that
traced and untraced result CSVs match, and a wrapped name gone missing.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import uncoupled  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}

TINY = {
    name: dataclasses.replace(
        w,
        n_r=(200,),
        min_draws=1,
        n_u=500 if w.synthetic else 0,
        csv_rows=0 if w.synthetic else 500,
    )
    for name, w in harness.WORKLOADS.items()
}


def test_workloads_match_benchmark_json():
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(harness.WORKLOADS) == set(run.WORKLOAD_NAMES) == names


@pytest.mark.parametrize("name", sorted(TINY))
def test_timed_run_reports_every_end_to_end_metric(name, tmp_path):
    result = harness.timed_run(TINY[name], 3, seconds=0, out_dir=tmp_path, setup_samples=1)
    assert result["correct"]
    assert (result["attempted"], result["failed"]) == (8, 0)
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result = harness.traced_run(TINY[name], 3, out_dir=tmp_path)
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER
    fit_kde = result["metrics"]["distributions.fit_kde_s"]["value"]
    assert (fit_kde > 0) == (name == "bench_kde")
    spans = (tmp_path / f"{name}-3.spans.jsonl").read_text().splitlines()
    assert {json.loads(s)["name"] for s in spans} >= {"sweep", "tt_fit", "minimize_gd.tt"}


def test_same_seed_gives_same_csv():
    assert harness.make_csv(50, 7) == harness.make_csv(50, 7)
    assert harness.make_csv(50, 7) != harness.make_csv(50, 8)


def test_traced_run_refuses_when_result_csv_differs(monkeypatch, tmp_path):
    # A predictor that drifts on every call gives the traced draw other
    # results than the untraced one.
    real = uncoupled.evaluation.tt_predict
    calls = []

    def drifting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs) + 1e-3 * len(calls)

    monkeypatch.setattr(uncoupled.evaluation, "tt_predict", drifting)
    with pytest.raises(harness.TraceMismatch):
        harness.traced_run(TINY["synth_desk"], 3, out_dir=tmp_path)


def test_missing_wrapped_name_reports_its_metrics_absent(monkeypatch, tmp_path):
    # The squared-loss ra fit is closed form, so the sweep never calls
    # risk_approx.minimize_gd and still runs without it.
    monkeypatch.delattr(uncoupled.risk_approx, "minimize_gd")
    lines = []
    result = harness.traced_run(TINY["synth_desk"], 3, out_dir=tmp_path, log=lines.append)
    aggregates = {"optimize.fun_evals", "optimize.grad_evals", "optimize.s", "optimize.converged_frac"}
    assert result["correct"]
    assert set(result["metrics"]) == PER_LAYER - aggregates
    assert any(line.startswith("absent") and "optimize.s" in line for line in lines)


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bench_kde", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
