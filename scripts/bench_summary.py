#!/usr/bin/env python3
"""Summarise perfbench runs into a benchmark history file, BENCH_<pr>.json.

Save the standard output of each `perfbench/run.py` run, timed or traced,
to its own file, with one directory per commit.  Then

    python scripts/bench_summary.py --pr N --out BENCH_N.json \\
        parent=runs/parent change=runs/change

writes, per workload and commit, the median and quartiles of each
end-to-end metric over the timed runs (with the values in seed and file
order, so that alternated runs can be paired), the per-layer metrics of
each traced run, and the machine block the runs share.

    python scripts/bench_summary.py --check BENCH_*.json

checks that each file parses and has the required keys, the units that
BENCHMARK.json declares, and a machine block.  Standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the machine-block fields that describe the machine, not the run; --check
# requires the first five
MACHINE_FIELDS = ("nproc", "cpu_model", "python", "numpy", "scipy", "blas", "blas_threads")


class SummaryError(Exception):
    pass


def declared_metrics() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric declarations of BENCHMARK.json, by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m for m in spec["end_to_end"]},
        {m["name"]: m for m in spec["per_layer"]},
    )


def parse_run(text: str, source: str) -> dict:
    """One run's standard output: its header line, machine block and the
    JSON result on the last line."""
    lines = text.strip().splitlines()
    if len(lines) < 3:
        raise SummaryError(f"{source}: too short for a perfbench run")
    head = lines[0].split()
    fields = dict(part.split("=", 1) for part in head[2:] if "=" in part)
    if head[:1] != ["perfbench"] or len(head) < 4 or "seed" not in fields or "mode" not in fields:
        raise SummaryError(f"{source}: first line is not a perfbench header: {lines[0]!r}")
    machine = next((ln.split(None, 1)[1] for ln in lines if ln.startswith("machine ")), None)
    if machine is None:
        raise SummaryError(f"{source}: no machine line")
    try:
        result = json.loads(lines[-1])
        machine = json.loads(machine)
    except json.JSONDecodeError as exc:
        raise SummaryError(f"{source}: {exc}") from None
    return {
        "source": source,
        "workload": head[1],
        "seed": int(fields["seed"]),
        "mode": fields["mode"],
        "machine": machine,
        "result": result,
    }


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(pr: int, labelled: list[tuple[str, list[dict]]]) -> dict:
    machine: dict | None = None
    commits: dict = {}
    workloads: dict = {}
    for label, runs in labelled:
        if not runs:
            raise SummaryError(f"{label}: no runs")
        shas = {r["machine"]["source_sha256"] for r in runs}
        if len(shas) != 1:
            raise SummaryError(f"{label}: runs of {len(shas)} different sources")
        commits[label] = {
            "source_sha256": shas.pop(),
            "git_commit": runs[0]["machine"].get("git_commit"),
        }
        for r in runs:
            block = {k: r["machine"].get(k) for k in MACHINE_FIELDS}
            if machine is None:
                machine = block
            elif block != machine:
                raise SummaryError(f"{r['source']}: machine block differs from the other runs")
        for name in sorted({r["workload"] for r in runs}):
            timed = sorted(
                (r for r in runs if r["workload"] == name and r["mode"] == "timed"),
                key=lambda r: r["seed"],
            )
            traced = [r for r in runs if r["workload"] == name and r["mode"] == "traced"]
            entry = workloads.setdefault(name, {}).setdefault(label, {})
            if timed:
                metrics = {}
                for metric in sorted(timed[0]["result"]["metrics"]):
                    values = [r["result"]["metrics"][metric]["value"] for r in timed]
                    metrics[metric] = {
                        "unit": timed[0]["result"]["metrics"][metric]["unit"],
                        **quartiles(values),
                        "values": values,
                    }
                entry["timed"] = {
                    "seeds": [r["seed"] for r in timed],
                    "all_correct": all(r["result"]["correct"] for r in timed),
                    "attempted": sum(r["result"]["attempted"] for r in timed),
                    "failed": sum(r["result"]["failed"] for r in timed),
                    "metrics": metrics,
                }
            if traced:
                entry["traced"] = {
                    str(r["seed"]): {
                        "correct": r["result"]["correct"],
                        "metrics": r["result"]["metrics"],
                    }
                    for r in traced
                }
    return {
        "pr": pr,
        "machine": machine,
        "commits": commits,
        "workloads": workloads,
    }


def check(doc: dict) -> list[str]:
    """Problems with one summary; empty when it is well formed."""
    end_to_end, per_layer = declared_metrics()
    problems = []
    for key in ("pr", "machine", "commits", "workloads"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if not isinstance(doc["pr"], int):
        problems.append("pr is not an integer")
    machine = doc["machine"]
    for key in MACHINE_FIELDS[:5]:
        if not isinstance(machine, dict) or machine.get(key) in (None, ""):
            problems.append(f"machine block lacks {key!r}")
    for label, commit in doc["commits"].items():
        if not isinstance(commit, dict) or not commit.get("source_sha256"):
            problems.append(f"commit {label!r} lacks source_sha256")
    if not doc["workloads"]:
        problems.append("no workloads")
    for name, by_label in doc["workloads"].items():
        for label, entry in by_label.items():
            where = f"{name}/{label}"
            if label not in doc["commits"]:
                problems.append(f"{where}: commit {label!r} not listed under commits")
            if not ("timed" in entry or "traced" in entry):
                problems.append(f"{where}: neither timed nor traced runs")
            for metric, stats in entry.get("timed", {}).get("metrics", {}).items():
                if metric not in end_to_end:
                    problems.append(f"{where}: {metric} is not a declared end-to-end metric")
                    continue
                if stats.get("unit") != end_to_end[metric]["unit"]:
                    problems.append(f"{where}: {metric} unit {stats.get('unit')!r}")
                if not all(isinstance(stats.get(k), (int, float)) for k in ("q1", "median", "q3")):
                    problems.append(f"{where}: {metric} lacks its median and quartiles")
                elif not stats["q1"] <= stats["median"] <= stats["q3"]:
                    problems.append(f"{where}: {metric} quartiles out of order")
            for seed, run in entry.get("traced", {}).items():
                for metric, value in run.get("metrics", {}).items():
                    if metric not in per_layer:
                        problems.append(f"{where} seed {seed}: {metric} is not a declared per-layer metric")
                    elif value.get("unit") != per_layer[metric]["unit"]:
                        problems.append(f"{where} seed {seed}: {metric} unit {value.get('unit')!r}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", nargs="+", metavar="BENCH_JSON", help="check committed files")
    ap.add_argument("--pr", type=int, help="number recorded in the summary")
    ap.add_argument("--out", type=Path, help="summary file to write")
    ap.add_argument("runs", nargs="*", metavar="LABEL=DIR",
                    help="a commit's label and the directory of its saved run outputs")
    args = ap.parse_args(argv)

    if args.check:
        bad = 0
        for path in args.check:
            try:
                problems = check(json.loads(Path(path).read_text()))
            except (OSError, json.JSONDecodeError) as exc:
                problems = [str(exc)]
            for p in problems:
                print(f"{path}: {p}", file=sys.stderr)
            bad += bool(problems)
            if not problems:
                print(f"{path}: ok")
        return 1 if bad else 0

    if args.pr is None or args.out is None or not args.runs:
        ap.error("give --check FILES, or --pr, --out and LABEL=DIR arguments")
    labelled = []
    try:
        for arg in args.runs:
            label, sep, directory = arg.partition("=")
            if not sep:
                ap.error(f"expected LABEL=DIR, got {arg!r}")
            files = sorted(p for p in Path(directory).iterdir() if p.is_file())
            labelled.append((label, [parse_run(p.read_text(), str(p)) for p in files]))
        doc = summarise(args.pr, labelled)
    except SummaryError as exc:
        print(f"bench_summary: {exc}", file=sys.stderr)
        return 1
    problems = check(doc)
    if problems:
        print("bench_summary: " + "; ".join(problems), file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
