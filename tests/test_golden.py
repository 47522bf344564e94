"""Seeded result CSVs against golden files in tests/golden/.

`#` metadata lines and the header must match exactly; every value must
match to 1e-12 relative, so BLAS round-off on another machine does not trip
the test while any real change of digits does.  After a change that is meant
to move digits, regenerate every golden file from the RUNS table with

    PYTHONPATH=src python tests/test_golden.py --regen

which prints every value that moved by more than the tolerance, and say in
the change log which digits moved and why.
"""

import contextlib
import io
import os
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from uncoupled.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
DATA_NAME = "golden_data.csv"  # recorded in the bench metadata line
TOLERANCE = 1e-12  # relative, per value
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
                assert abs(a - b) <= TOLERANCE * max(abs(a), abs(b)), f"{g!r} != {w!r}"


@pytest.mark.parametrize("name", list(RUNS))
def test_result_csv_matches_golden(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_data(DATA_NAME)
    assert main([*RUNS[name], "--out", "result.csv"]) == 0
    capsys.readouterr()
    assert_same_table((tmp_path / "result.csv").read_text(), (GOLDEN / name).read_text())


def moved(name: str, old: str, new: str) -> list[str]:
    """One line per value of the table new that differs from old by more
    than the tolerance, as `file row column old → new (relative change)`
    with the row named by its first two fields, and one per changed `#` or
    header line; a changed line count is reported alone."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{name}: {len(old_lines)} → {len(new_lines)} lines"]
    n_head = next(i for i, w in enumerate(new_lines) if not w.startswith("#")) + 1
    heads = zip(old_lines[:n_head], new_lines[:n_head])
    out = [f"{name}: {o!r} → {n!r}" for o, n in heads if o != n]
    columns = new_lines[n_head - 1].split(",")
    for o, n in zip(old_lines[n_head:], new_lines[n_head:]):
        row = n.split(",")
        for column, of, nf in zip(columns, o.split(","), row):
            if of == nf:
                continue
            where = f"{name} {','.join(row[:2])} {column} {of} → {nf}"
            try:
                a, b = float(of), float(nf)
            except ValueError:  # a label, not a value
                out.append(where)
                continue
            if abs(a - b) > TOLERANCE * max(abs(a), abs(b)):
                out.append(f"{where} ({(b - a) / abs(a):+.2e})" if a else where)
    return out


def test_moved_lists_the_values_past_the_tolerance():
    old = "# seed: 1\nmethod,n_r,mean_mse\nra,100,0.5\ntt,100,0.25\n"
    new = "# seed: 1\nmethod,n_r,mean_mse\nra,100,0.5000000000000001\ntt,100,0.26\n"
    assert moved("f.csv", old, new) == ["f.csv tt,100 mean_mse 0.25 → 0.26 (+4.00e-02)"]
    assert moved("f.csv", old, old.replace("1", "2", 1)) == ["f.csv: '# seed: 1' → '# seed: 2'"]
    assert moved("f.csv", old, old + "lr,100,0.5\n") == ["f.csv: 4 → 5 lines"]


def regenerate() -> None:
    """Rewrite every golden file from RUNS, run where the data file carries
    the name that the bench metadata line records, and print what moved."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_data(DATA_NAME)
            for name, argv in RUNS.items():
                path = GOLDEN / name
                old = path.read_text() if path.exists() else ""
                with contextlib.redirect_stdout(io.StringIO()):
                    status = main([*argv, "--out", str(path)])
                if status != 0:
                    sys.exit(f"{name}: run failed")
                lines = moved(name, old, path.read_text())
                print("\n".join(lines) if lines else f"{name}: unchanged (to {TOLERANCE:g})")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/test_golden.py --regen")
    regenerate()
