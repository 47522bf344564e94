"""End-to-end command-line behavior, exercised in process via main()."""

import numpy as np
import pytest

import uncoupled.evaluation
from uncoupled import ResultTable
from uncoupled.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SYNTH_SMALL = (
    "synth", "--n-u", "800", "--n-r", "60", "--repeats", "2",
    "--dim", "3", "--test-size", "100", "--seed", "7",
)


class TestSynth:
    def test_writes_four_method_rows(self, capsys, tmp_path):
        out = tmp_path / "res.csv"
        code, stdout, _ = run(capsys, *SYNTH_SMALL, "--out", str(out))
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        assert [r.method for r in table.rows] == ["lr", "rank", "ra", "tt"]
        assert all(r.n_r == 60 for r in table.rows)
        assert "lr" in stdout and "mean_mse" in stdout

    def test_reruns_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, *SYNTH_SMALL, "--out", str(a))
        run(capsys, *SYNTH_SMALL, "--jobs", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_zero_noise_least_squares_interpolates(self, capsys, tmp_path):
        out = tmp_path / "lr.csv"
        code, _, _ = run(
            capsys,
            "synth", "--methods", "lr", "--noise-std", "0", "--n-u", "400",
            "--n-r", "20", "--repeats", "1", "--dim", "3", "--test-size", "50",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        row = table.row("lr", 20)
        assert row.mean_mse <= 1e-10
        assert row.std_mse == 0.0  # single repeat

    def test_metadata_comments_in_csv(self, capsys, tmp_path):
        out = tmp_path / "meta.csv"
        run(capsys, *SYNTH_SMALL, "--out", str(out))
        text = out.read_text()
        assert "# seed: 7" in text
        assert "# std convention: sample std over repeats (ddof=1)" in text

    def test_plot_data_emission(self, capsys, tmp_path):
        plot = tmp_path / "plot.dat"
        code, _, _ = run(capsys, *SYNTH_SMALL, "--plot-data", str(plot))
        assert code == 0
        lines = plot.read_text().splitlines()
        assert lines[0].startswith("# n_r ")
        assert lines[1].split()[0] == "60"

    def test_duplicate_n_r_exits_two_before_any_fit(self, capsys, tmp_path, monkeypatch):
        fits = []
        for name in ("lr_fit", "ranker_fit", "ra_fit", "tt_fit"):
            monkeypatch.setattr(uncoupled.evaluation, name, lambda *a, name=name, **k: fits.append(name))
        out = tmp_path / "dup.csv"
        with pytest.raises(SystemExit) as exc:
            main([
                "synth", "--n-u", "200", "--n-r", "20,20", "--repeats", "1",
                "--test-size", "50", "--out", str(out),
            ])
        assert exc.value.code == 2
        assert "expected distinct integers, got '20,20'" in capsys.readouterr().err
        assert fits == [] and not out.exists()

    def test_desk_preset_accepts_overrides(self, capsys, tmp_path):
        out = tmp_path / "desk.csv"
        code, _, _ = run(
            capsys,
            "synth", "--preset", "desk", "--n-u", "500", "--n-r", "30,50",
            "--repeats", "2", "--dim", "2", "--test-size", "40",
            "--methods", "ra,tt", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        table = ResultTable.from_csv(out.read_text())
        assert {(r.method, r.n_r) for r in table.rows} == {
            ("ra", 30), ("ra", 50), ("tt", 30), ("tt", 50)
        }


def write_benchmark_csv(tmp_path, n=150, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 2))
    y = X @ np.array([1.0, -0.5]) + 0.1 * rng.standard_normal(n)
    lines = ["f1,f2,target"]
    for i in range(n):
        lines.append(f"{float(X[i, 0])!r},{float(X[i, 1])!r},{float(y[i])!r}")
    path = tmp_path / "bench.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestBench:
    def test_runs_and_reports(self, capsys, tmp_path):
        data = write_benchmark_csv(tmp_path)
        out = tmp_path / "bench_out.csv"
        code, stdout, _ = run(
            capsys,
            "bench", "--data", str(data), "--n-r", "40", "--repeats", "2",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert "loaded 150 rows x 2 features (0 dropped)" in stdout
        assert len(ResultTable.from_csv(out.read_text()).rows) == 4

    def test_jobs_do_not_change_bytes(self, capsys, tmp_path):
        data = write_benchmark_csv(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = (
            "bench", "--data", str(data), "--n-r", "40", "--repeats", "2",
            "--seed", "3",
        )
        run(capsys, *base, "--out", str(a))
        run(capsys, *base, "--jobs", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_target_column_exits_one(self, capsys, tmp_path):
        data = write_benchmark_csv(tmp_path)
        code, _, stderr = run(
            capsys, "bench", "--data", str(data), "--target-col", "nope"
        )
        assert code == 1
        assert "error: SchemaError" in stderr
        assert "nope" in stderr

    def test_target_only_file_exits_one(self, capsys, tmp_path):
        data = tmp_path / "target_only.csv"
        data.write_text("y\n1\n2\n3\n")
        code, _, stderr = run(capsys, "bench", "--data", str(data))
        assert code == 1
        assert "error: SchemaError" in stderr
        assert "target_only.csv" in stderr and "no feature column" in stderr

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "bench", "--data", str(tmp_path / "ghost.csv")
        )
        assert code == 1
        assert "error:" in stderr

    @pytest.mark.parametrize(
        "flags",
        [("--delimiter", ";;"), ("--delimiter", ""), ("--n-r", "40,40")],
        ids=["long-delimiter", "empty-delimiter", "duplicate-n-r"],
    )
    def test_bad_flag_value_exits_two(self, capsys, tmp_path, flags):
        data = write_benchmark_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", str(data), *flags])
        assert exc.value.code == 2
        assert "expected" in capsys.readouterr().err


class TestTune:
    def test_uniform_near_closed_form(self, capsys, tmp_path):
        out = tmp_path / "w.csv"
        code, stdout, _ = run(
            capsys, "tune", "--dist", "uniform", "--a", "0", "--b", "1",
            "--out", str(out),
        )
        assert code == 0
        printed_w1 = float(stdout.split("w1 = ")[1].split()[0])
        header, values = out.read_text().splitlines()
        assert header == "w1,w2,lambda"
        w1, w2, lam = map(float, values.split(","))
        assert w1 == pytest.approx(0.5, abs=0.02)
        assert w2 == pytest.approx(0.0, abs=0.02)
        assert lam == pytest.approx(0.5, abs=0.02)
        assert lam == pytest.approx(w1 + w2, abs=1e-12)
        assert printed_w1 == pytest.approx(w1, abs=1e-6)

    def test_uniform_weights_print_exactly(self, capsys):
        code, stdout, _ = run(capsys, "tune", "--dist", "uniform", "--a", "-1", "--b", "2")
        assert code == 0
        assert "w1 = 1.000000" in stdout.splitlines()
        assert "w2 = -0.500000" in stdout.splitlines()

    def test_gaussian_antisymmetric(self, capsys):
        code, stdout, _ = run(capsys, "tune", "--dist", "gaussian")
        assert code == 0
        w1 = float(stdout.split("w1 = ")[1].split()[0])
        w2 = float(stdout.split("w2 = ")[1].split()[0])
        assert w1 == pytest.approx(0.737, abs=0.01)
        assert w2 == pytest.approx(-w1, abs=1e-6)

    def test_targets_file_mode(self, capsys, tmp_path):
        targets = tmp_path / "targets.txt"
        rng = np.random.default_rng(4)
        np.savetxt(targets, rng.normal(2.0, 1.0, size=400))
        code, stdout, _ = run(capsys, "tune", "--targets-file", str(targets))
        assert code == 0
        assert "targets-file" in stdout and "n=400" in stdout
        w1 = float(stdout.split("w1 = ")[1].split()[0])
        w2 = float(stdout.split("w2 = ")[1].split()[0])
        # location enters through the weight midpoint: w1 + w2 tracks the mean
        assert w1 > w2
        assert w1 + w2 == pytest.approx(2.0, abs=0.4)

    def test_targets_file_with_byte_order_mark(self, capsys, tmp_path):
        text = "".join(f"{float(v)!r}\n" for v in np.random.default_rng(4).normal(2.0, 1.0, 50))
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        code, with_mark, _ = run(capsys, "tune", "--targets-file", str(marked))
        assert code == 0
        _, without_mark, _ = run(capsys, "tune", "--targets-file", str(plain))
        weights = [line for line in with_mark.splitlines() if " = " in line]
        assert weights == [line for line in without_mark.splitlines() if " = " in line]
        assert len(weights) == 3

    def test_dist_and_file_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--dist", "uniform", "--targets-file", "x.txt"])
        assert exc.value.code == 2


class TestCheck:
    def test_passing_suite_exits_zero(self, capsys):
        code, stdout, _ = run(
            capsys, "check", "--only", "unbiasedness", "--resamples", "300",
            "--seed", "12",
        )
        assert code == 0
        assert "[PASS] unbiasedness" in stdout
        assert "all checks passed" in stdout

    @pytest.mark.parametrize(
        "argv",
        [
            ("--only", "lemma1", "--samples", "10"),
            ("--samples", "50000"),
            ("--only", "theorem1", "--resamples", "10"),
            ("--only", "unbiasedness", "--resamples", "1"),
        ],
        ids=["lemma1-samples-10", "all-samples-50000", "theorem1-resamples-10",
             "unbiasedness-resamples-1"],
    )
    def test_under_minimum_budget_is_usage_error(self, capsys, argv):
        # rejected before any suite runs: with 50000 samples lemma1 would
        # pass, and only counterexample needs 100000
        with pytest.raises(SystemExit) as exc:
            main(["check", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: uncoupled check")
        assert "needs --" in captured.err

    def test_lemma1_alone_accepts_what_counterexample_would_not(self, capsys):
        code, stdout, _ = run(
            capsys, "check", "--only", "lemma1", "--samples", "50000"
        )
        assert code == 0
        assert "[PASS] lemma1" in stdout


class TestParser:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_negative_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--seed", "-3"])
        assert exc.value.code == 2

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--methods", "lr,foo"])
        assert exc.value.code == 2
        assert "unknown method 'foo'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "nan", "inf"])
    def test_bad_noise_std_is_usage_error(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--noise-std", value])
        assert exc.value.code == 2
        assert "--noise-std: expected a finite value >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--dist", "gaussian", "--std", "-1"], "need --std > 0"),
            (["--dist", "gaussian", "--std", "0"], "need --std > 0"),
            (["--dist", "gaussian", "--std", "nan"], "--std: expected a finite value"),
            (["--dist", "gaussian", "--mean", "inf"], "--mean: expected a finite value"),
            (["--dist", "uniform", "--a", "1", "--b", "0"], "need --a < --b"),
            (["--dist", "uniform", "--a", "1", "--b", "1"], "need --a < --b"),
            (["--dist", "uniform", "--b=-inf"], "--b: expected a finite value"),
        ],
        ids=["std-negative", "std-zero", "std-nan", "mean-inf", "b-below-a", "b-equals-a", "b-inf"],
    )
    def test_bad_distribution_flag_is_usage_error(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(["tune", *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: uncoupled tune")
        assert message in err

    def test_removed_lambda_flag_is_usage_error(self, capsys):
        # ra's lam is fixed at w1 + w2; there is no rule to choose
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--lambda-mode", "variance"])
        assert exc.value.code == 2

    def test_removed_standardize_flag_is_usage_error(self, capsys, tmp_path):
        # the fits work out the column scales themselves
        data = write_benchmark_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--data", str(data), "--standardize"])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "uncoupled" in capsys.readouterr().out
