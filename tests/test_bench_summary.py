"""scripts/bench_summary.py: parsing perfbench outputs, the summary it
writes, and the check that CI runs on committed BENCH_*.json files."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_summary", ROOT / "scripts" / "bench_summary.py")
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

MACHINE = {
    "nproc": 2, "cpu_model": "test cpu", "python": "3.11.7", "numpy": "2.4.6",
    "scipy": "1.17.1", "blas": "openblas", "blas_threads": 1,
    "blas_thread_env": {}, "git_commit": None, "seed": 1009,
}


def run_text(workload, seed, mode, sha, metrics):
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
    return "\n".join([
        f"perfbench {workload} seed={seed} mode={mode}",
        f"machine      {json.dumps({**MACHINE, 'source_sha256': sha})}",
        "cells        attempted 3, failed 0, fail_frac 0",
        json.dumps(result),
    ])


def timed(workload, rel, sha):
    metrics = {
        "repeat_rel": {"value": rel, "unit": "ratio"},
        "setup_s": {"value": 1.0, "unit": "s"},
        "peak_rss_mb": {"value": 150.0, "unit": "MB"},
    }
    return bench_summary.parse_run(run_text(workload, 1009, "timed", sha, metrics), "run")


def test_summary_has_quartiles_and_passes_check():
    traced = bench_summary.parse_run(
        run_text("bench_kde", 1, "traced", "b",
                 {"distributions.fit_kde_s": {"value": 0.1, "unit": "s"}}),
        "traced",
    )
    parent = [timed("bench_kde", r, "a") for r in (1.6, 1.7, 1.5, 1.8, 1.65)]
    change = [timed("bench_kde", r, "b") for r in (1.1, 1.2, 1.0, 1.9, 1.15)] + [traced]
    doc = bench_summary.summarise(10, [("parent", parent), ("change", change)])
    assert bench_summary.check(doc) == []
    rel = doc["workloads"]["bench_kde"]["parent"]["timed"]["metrics"]["repeat_rel"]
    assert (rel["q1"], rel["median"], rel["q3"]) == (1.6, 1.65, 1.7)
    assert doc["machine"]["cpu_model"] == "test cpu"
    assert doc["commits"]["change"]["source_sha256"] == "b"
    assert rel["values"] == [1.6, 1.7, 1.5, 1.8, 1.65]
    assert doc["workloads"]["bench_kde"]["change"]["traced"]["1"]["metrics"]


def test_check_rejects_wrong_units_and_missing_machine_fields():
    doc = bench_summary.summarise(10, [("parent", [timed("synth_desk", 0.8, "a")])])
    doc["workloads"]["synth_desk"]["parent"]["timed"]["metrics"]["setup_s"]["unit"] = "ms"
    del doc["machine"]["numpy"]
    problems = bench_summary.check(doc)
    assert any("setup_s unit" in p for p in problems)
    assert any("numpy" in p for p in problems)


def test_mixed_sources_under_one_label_are_refused():
    runs = [timed("bench_kde", 1.0, "a"), timed("bench_kde", 1.0, "b")]
    with pytest.raises(bench_summary.SummaryError):
        bench_summary.summarise(10, [("parent", runs)])
