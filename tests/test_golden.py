"""Seeded result CSVs against golden files in tests/golden/.

`#` metadata lines and the header must match exactly; every value must
match to 1e-12 relative, so BLAS round-off on another machine does not trip
the test while any real change of digits does.  After a change that is meant
to move digits, regenerate every golden file from the RUNS table with

    PYTHONPATH=src python tests/test_golden.py --regen

and say in the change log which digits moved and why.
"""

import os
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from uncoupled.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DATA_NAME = "golden_data.csv"  # recorded in the bench metadata line
SYNTH = ("synth", "--n-u", "2000", "--n-r", "100,400", "--repeats", "2",
         "--dim", "3", "--test-size", "200", "--seed", "11")
BENCH = ("bench", "--data", DATA_NAME, "--n-r", "100,400", "--repeats", "2",
         "--seed", "11")
RUNS = {
    "synth.csv": SYNTH,
    "bench_kde.csv": BENCH,
    "bench_ecdf.csv": BENCH + ("--empirical-cdf",),
}


def write_data(path) -> None:
    """400 rows: 4 standard-normal features and a log-normal target."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((400, 4))
    y = np.exp(0.4 * (x @ np.array([0.6, -0.5, 0.4, 0.2]) + 0.3 * rng.standard_normal(400)))
    lines = ["x1,x2,x3,x4,y"]
    lines.extend(",".join(f"{v:.6f}" for v in row) for row in np.column_stack([x, y]))
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def assert_same_table(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    # the # metadata lines and the column header, which must match exactly
    n_head = next(i for i, w in enumerate(want_lines) if not w.startswith("#")) + 1
    assert got_lines[:n_head] == want_lines[:n_head]
    for g, w in zip(got_lines[n_head:], want_lines[n_head:]):
        g_fields, w_fields = g.split(","), w.split(",")
        assert len(g_fields) == len(w_fields), g
        for gf, wf in zip(g_fields, w_fields):
            if gf != wf:
                a, b = float(gf), float(wf)
                assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), f"{g!r} != {w!r}"


@pytest.mark.parametrize("name", list(RUNS))
def test_result_csv_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_data(DATA_NAME)
    assert main([*RUNS[name], "--out", "result.csv"]) == 0
    capsys.readouterr()
    assert_same_table((tmp_path / "result.csv").read_text(), (GOLDEN / name).read_text())


def regenerate() -> None:
    """Rewrite every golden file from RUNS, run where the data file carries
    the name that the bench metadata line records."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_data(DATA_NAME)
            for name, argv in RUNS.items():
                if main([*argv, "--out", str(GOLDEN / name)]) != 0:
                    sys.exit(f"{name}: run failed")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    regenerate()
