"""Sweep protocol, result tables, and the Monte-Carlo check suites."""

import numpy as np
import pytest

from uncoupled import (
    CheckReport,
    Dataset,
    EmptyDataError,
    ExperimentSpec,
    METHOD_ORDER,
    ParameterError,
    ResultRow,
    ResultTable,
    SchemaError,
    ShapeError,
    check_counterexample,
    check_lemma1,
    check_theorem1_variance,
    check_unbiasedness,
    empirical_distribution,
    fit_kde,
    kde_distribution,
    mse,
    pairwise_from_arrays,
    ra_fit,
    run_benchmark,
    run_synthetic,
    tt_fit,
    tune_weights,
)
from uncoupled import evaluation
from uncoupled.evaluation import _lemma1_errors


class TestMse:
    def test_identical_vectors(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_offset(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_value(self):
        assert mse([1.0, 2.0, 3.0], [2.0, 2.0, 5.0]) == pytest.approx(5.0 / 3.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(EmptyDataError):
            mse([], [])


class TestExperimentSpec:
    def test_full_scale_defaults(self):
        spec = ExperimentSpec()
        assert spec.n_u == 100_000
        assert spec.repeats == 100
        assert spec.n_r_values == tuple(20 * 2**k for k in range(10))
        assert spec.n_r_values[-1] == 10_240
        assert spec.methods == METHOD_ORDER

    def test_desk_preset(self):
        spec = ExperimentSpec.desk()
        assert spec.n_u == 20_000
        assert spec.n_r_values == (100, 1000, 5000)
        assert spec.repeats == 20

    def test_methods_canonicalized(self):
        spec = ExperimentSpec(methods=("tt", "LR", "tt"))
        assert spec.methods == ("lr", "tt")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"methods": ()},
            {"methods": ("svm",)},
            {"n_r_values": (0,)},
            {"repeats": 0},
            {"n_u": 0},
            {"seed": -1},
            {"noise_std": -0.1},
            {"dim": 0},
            {"test_size": 0},
            {"n_r_values": (20, 20)},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ParameterError):
            ExperimentSpec(**kwargs)


class TestResultTable:
    def sample(self):
        rows = (
            ResultRow("lr", 100, 0.01, 0.002, 20),
            ResultRow("ra", 100, 0.04, 0.005, 20),
            ResultRow("ra", 1000, 0.02, 0.003, 20),
        )
        return ResultTable(rows=rows, metadata=("seed: 7", "config: demo"))

    def test_csv_round_trip_is_bitwise(self):
        table = self.sample()
        text = table.to_csv()
        back = ResultTable.from_csv(text)
        assert back == table
        assert back.to_csv() == text

    def test_metadata_emitted_as_comments(self):
        text = self.sample().to_csv()
        lines = text.splitlines()
        assert lines[0] == "# seed: 7"
        assert lines[1] == "# config: demo"
        assert lines[2] == "method,n_r,mean_mse,std_mse,repeats"

    def test_row_lookup(self):
        table = self.sample()
        assert table.row("ra", 1000).mean_mse == 0.02
        with pytest.raises(KeyError):
            table.row("tt", 100)

    def test_duplicate_rows_rejected(self):
        row = ResultRow("lr", 100, 0.01, 0.0, 5)
        with pytest.raises(ParameterError):
            ResultTable(rows=(row, row))

    def test_from_csv_rejects_wrong_header(self):
        with pytest.raises(SchemaError):
            ResultTable.from_csv("method,n_r,mean\nlr,100,0.1\n")

    def test_from_csv_rejects_short_rows(self):
        with pytest.raises(SchemaError):
            ResultTable.from_csv("method,n_r,mean_mse,std_mse,repeats\nlr,100,0.1\n")

    @pytest.mark.parametrize("row", ["lr,abc,0.1,0.1,2", "lr,100,x,0.1,2",
                                     "lr,100,0.1,0.1,2.5"])
    def test_from_csv_rejects_bad_fields(self, row):
        with pytest.raises(SchemaError, match="line 3"):
            ResultTable.from_csv(f"# seed: 7\nmethod,n_r,mean_mse,std_mse,repeats\n{row}\n")

    def test_plot_table_layout(self):
        text = self.sample().to_plot_table()
        lines = text.splitlines()
        assert lines[0] == "# n_r lr_mean lr_std ra_mean ra_std"
        first = lines[1].split()
        assert first[0] == "100"
        assert float(first[1]) == 0.01
        # lr has no n_r=1000 cell
        assert lines[2].split()[1] == "nan"

    def test_failed_cell_marker_round_trips(self):
        table = ResultTable(rows=(ResultRow("tt", 50, float("nan"), float("nan"), 0),))
        back = ResultTable.from_csv(table.to_csv())
        assert back.row("tt", 50).repeats == 0
        assert np.isnan(back.row("tt", 50).mean_mse)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "svm", "n_r": 10, "mean_mse": 0.1, "std_mse": 0.0, "repeats": 1},
            {"method": "lr", "n_r": 0, "mean_mse": 0.1, "std_mse": 0.0, "repeats": 1},
            {"method": "lr", "n_r": 10, "mean_mse": -0.1, "std_mse": 0.0, "repeats": 1},
            {"method": "lr", "n_r": 10, "mean_mse": 0.1, "std_mse": -0.1, "repeats": 1},
        ],
    )
    def test_row_validation(self, kwargs):
        with pytest.raises(ParameterError):
            ResultRow(**kwargs)


SMALL = dict(n_u=2000, n_r_values=(50, 400), repeats=3, dim=3, test_size=200, seed=11)


class TestRunSynthetic:
    def test_row_count_and_order(self):
        table = run_synthetic(ExperimentSpec(**SMALL))
        assert len(table.rows) == 4 * 2
        assert [r.method for r in table.rows[:2]] == ["lr", "lr"]

    def test_noise_free_least_squares_interpolates(self):
        spec = ExperimentSpec(
            methods=("lr",), n_u=500, n_r_values=(20,), repeats=1, dim=3,
            noise_std=0.0, test_size=100, seed=5,
        )
        table = run_synthetic(spec)
        assert table.row("lr", 20).mean_mse <= 1e-12

    def test_single_repeat_reports_zero_std(self):
        spec = ExperimentSpec(
            methods=("lr",), n_u=300, n_r_values=(20,), repeats=1, dim=2,
            test_size=50, seed=6,
        )
        assert run_synthetic(spec).row("lr", 20).std_mse == 0.0

    def test_bitwise_reproducible(self):
        spec = ExperimentSpec(**SMALL)
        assert run_synthetic(spec).to_csv() == run_synthetic(spec).to_csv()

    def test_worker_count_does_not_change_results(self):
        spec = ExperimentSpec(methods=("ra", "tt"), **{**SMALL, "repeats": 4})
        assert run_synthetic(spec, jobs=1).to_csv() == run_synthetic(spec, jobs=3).to_csv()

    def test_more_comparisons_never_hurt_ra(self):
        # shared repeat seeds across cells; comparison pools nest by prefix
        spec = ExperimentSpec(
            methods=("ra",), n_u=5000, n_r_values=(100, 2000), repeats=20,
            dim=5, test_size=300, seed=17,
        )
        table = run_synthetic(spec)
        assert table.row("ra", 2000).mean_mse <= table.row("ra", 100).mean_mse


def toy_benchmark(n=240, seed=0, constant=None):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 3))
    if constant is None:
        y = X @ np.array([1.0, -0.5, 0.25]) + 0.1 * rng.standard_normal(n)
    else:
        y = np.full(n, float(constant))
    return Dataset(features=X, targets=y)


class TestRunBenchmark:
    SPEC = ExperimentSpec(n_u=1, n_r_values=(60,), repeats=2, seed=9)

    def test_requires_targets(self):
        with pytest.raises(ParameterError):
            run_benchmark(toy_benchmark().without_targets(), self.SPEC)

    def test_constant_target_gives_zero_error_everywhere(self):
        table = run_benchmark(toy_benchmark(constant=4.5), self.SPEC)
        for row in table.rows:
            assert row.repeats == 2
            assert row.mean_mse <= 1e-12

    def test_bitwise_reproducible_and_jobs_invariant(self):
        data = toy_benchmark()
        a = run_benchmark(data, self.SPEC)
        b = run_benchmark(data, self.SPEC, jobs=2)
        assert a.to_csv() == b.to_csv()

    def test_empirical_cdf_mode_runs(self):
        table = run_benchmark(toy_benchmark(), self.SPEC, empirical_cdf=True)
        assert len(table.rows) == 4

    def test_lr_fits_an_intercept(self):
        """The sweep appends a constant-1 column: on a noise-free affine
        target, y = 50 + x.w, lr must reach an MSE below 1e-20, where lr on
        the raw features reads about 2.5e3."""
        rng = np.random.default_rng(4)
        X = rng.standard_normal((300, 3))
        data = Dataset(features=X, targets=50.0 + X @ np.array([1.0, -0.5, 0.25]))
        spec = ExperimentSpec(n_u=1, n_r_values=(60,), repeats=2, seed=9, methods=("lr",))
        assert run_benchmark(data, spec).row("lr", 60).mean_mse < 1e-20

    @pytest.mark.parametrize("empirical_cdf", [False, True], ids=["kde", "ecdf"])
    def test_uncoupled_methods_are_shift_equivariant(self, empirical_cdf):
        """Translation gate: shifting every noise-free target by 500 must
        shift every rank, ra and tt prediction by 500, so their MSEs stay
        equal to 1e-9 relative, with the KDE and with the empirical CDF.
        lr is left out: its noise-free MSE is rounding."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((2000, 3))
        y = X @ np.array([0.5, -1.0, 0.25])
        spec = ExperimentSpec(
            n_u=1, n_r_values=(20, 200), repeats=2, seed=5, methods=("rank", "ra", "tt")
        )
        base, shifted = (
            run_benchmark(Dataset(features=X, targets=c + y), spec, empirical_cdf=empirical_cdf)
            for c in (0.0, 500.0)
        )
        for row in base.rows:
            assert row.repeats == 2
            moved = shifted.row(row.method, row.n_r).mean_mse
            assert moved == pytest.approx(row.mean_mse, rel=1e-9), (row.method, row.n_r)

    def test_methods_are_invariant_to_feature_scale(self):
        """Scale gate: scaling and shifting the feature columns over several
        decades must leave the lr, ra and rank MSEs equal to 1e-9 relative,
        and tt's to 1e-6 at n_R >= 100 (damped Newton is affine invariant up
        to its absolute gradient tolerance; n_R = 20 is a blow-up cell)."""
        rng = np.random.default_rng(6)
        X = rng.standard_normal((2000, 6))
        y = np.exp(0.4 * (X @ np.array([0.6, -0.5, 0.4, 0.2, -0.3, 0.1])
                          + 0.3 * rng.standard_normal(2000)))
        scales = np.array([1e3, 1e-2, 5.0, 1.0, 300.0, 0.1])
        shifts = np.array([50.0, -3.0, 0.0, 1e3, 7.0, 0.0])
        spec = ExperimentSpec(n_u=1, n_r_values=(20, 100, 400), repeats=2, seed=3)
        base, moved = (
            run_benchmark(Dataset(features=features, targets=y), spec)
            for features in (X, X * scales + shifts)
        )
        for row in base.rows:
            assert row.repeats == 2
            if row.method == "tt" and row.n_r < 100:
                continue
            rel = 1e-6 if row.method == "tt" else 1e-9
            got = moved.row(row.method, row.n_r).mean_mse
            assert got == pytest.approx(row.mean_mse, rel=rel), (row.method, row.n_r)


class TestSweepFailures:
    """A failing fit or shared set-up marks its cells, never aborts the sweep.

    Each test patches one name in `uncoupled.evaluation`; the sweep must look
    it up at call time for the failure to show."""

    N_R = (20, 40)
    SPECS = {
        "synth": ExperimentSpec(
            n_u=300, n_r_values=N_R, repeats=2, dim=2, test_size=50, seed=3
        ),
        "bench": ExperimentSpec(n_u=1, n_r_values=N_R, repeats=2, seed=3),
    }

    def run(self, sweep):
        if sweep == "synth":
            return run_synthetic(self.SPECS[sweep])
        return run_benchmark(toy_benchmark(), self.SPECS[sweep])

    @staticmethod
    def break_name(monkeypatch, name):
        def broken(*args, **kwargs):
            raise RuntimeError(f"{name} is broken")

        monkeypatch.setattr(evaluation, name, broken)

    @staticmethod
    def expected(clean, failed_methods, errors):
        nan = float("nan")
        rows = tuple(
            ResultRow(r.method, r.n_r, nan, nan, 0) if r.method in failed_methods else r
            for r in clean.rows
        )
        return ResultTable(rows=rows, metadata=errors).to_csv()

    @pytest.mark.parametrize("sweep", ["synth", "bench"])
    def test_tt_fit_failure_marks_each_tt_cell(self, sweep, monkeypatch):
        clean = self.run(sweep)
        self.break_name(monkeypatch, "tt_fit")
        errors = tuple(
            f"error: repeat={k} method=tt n_r={n_r} RuntimeError: tt_fit is broken"
            for k in range(2)
            for n_r in self.N_R
        )
        assert self.run(sweep).to_csv() == self.expected(clean, {"tt"}, errors)

    @pytest.mark.parametrize("sweep", ["synth", "bench"])
    def test_lr_fit_failure_is_reported_once_per_repeat(self, sweep, monkeypatch):
        clean = self.run(sweep)
        self.break_name(monkeypatch, "lr_fit")
        errors = tuple(
            f"error: repeat={k} method=lr RuntimeError: lr_fit is broken"
            for k in range(2)
        )
        assert self.run(sweep).to_csv() == self.expected(clean, {"lr"}, errors)

    def test_too_few_unlabeled_rows_fail_every_ra_and_tt_cell(self):
        # one unlabeled row cannot pin two parameters; both fits refuse it
        n_r_values = (5, 20)
        spec = ExperimentSpec(
            n_u=1, n_r_values=n_r_values, repeats=2, dim=2, test_size=30, seed=4
        )
        table = run_synthetic(spec)
        message = "ParameterError: need n_U >= 2 rows, one per parameter, got 1"
        assert table.metadata == tuple(
            f"error: repeat={k} method={m} n_r={n_r} {message}"
            for k in range(2)
            for n_r in n_r_values
            for m in ("ra", "tt")
        )
        for row in table.rows:
            assert row.repeats == (0 if row.method in ("ra", "tt") else 2)

    def test_shared_setup_failure_marks_every_uncoupled_cell(self, monkeypatch):
        clean = self.run("bench")
        self.break_name(monkeypatch, "fit_kde")
        errors = tuple(
            f"error: repeat={k} method=shared RuntimeError: fit_kde is broken"
            for k in range(2)
        )
        want = self.expected(clean, {"rank", "ra", "tt"}, errors)
        assert self.run("bench").to_csv() == want


class TestUncouplingGuarantee:
    def test_density_path_ignores_target_order(self):
        # RA/TT consume features, comparisons, and a target marginal; the
        # marginal estimated from shuffled targets is the same marginal
        rng = np.random.default_rng(23)
        y = rng.standard_normal(400) * 2.0 + 1.0
        y_shuffled = rng.permutation(y)
        unl = Dataset(features=rng.standard_normal((500, 2)))
        idx = rng.integers(0, 500, size=(150, 2))
        scores = unl.features @ np.array([1.0, 1.0])
        a, b = idx[:, 0], idx[:, 1]
        win = np.where(scores[a] >= scores[b], a, b)
        lose = np.where(scores[a] >= scores[b], b, a)
        pairs = pairwise_from_arrays(
            unl.features[win], scores[win], unl.features[lose], scores[lose]
        )

        for estimate in (
            lambda t: kde_distribution(fit_kde(t)),
            empirical_distribution,
        ):
            dist_a = estimate(y)
            dist_b = estimate(y_shuffled)
            grid = np.linspace(-4.0, 6.0, 200)
            np.testing.assert_array_equal(dist_a.cdf(grid), dist_b.cdf(grid))
            cfg_a, cfg_b = tune_weights(dist_a), tune_weights(dist_b)
            assert (cfg_a.w1, cfg_a.w2, cfg_a.lam) == (cfg_b.w1, cfg_b.w2, cfg_b.lam)
            ra_a = ra_fit(unl, pairs, cfg_a)
            ra_b = ra_fit(unl, pairs, cfg_b)
            np.testing.assert_array_equal(ra_a.theta, ra_b.theta)
            tt_a = tt_fit(unl, pairs)
            tt_b = tt_fit(unl, pairs)
            np.testing.assert_array_equal(tt_a.theta, tt_b.theta)


class TestCheckReport:
    def test_string_format(self):
        report = CheckReport(name="demo", passed=True, lines=("a: ok", "b: ok"))
        assert str(report) == "[PASS] demo\n  a: ok\n  b: ok"
        failed = CheckReport(name="demo", passed=False, lines=("x",))
        assert str(failed).startswith("[FAIL] demo")


class TestCheckSuites:
    def test_lemma1_small_run_passes(self):
        report = check_lemma1(n_samples=100_000, seed=3)
        assert report.passed, str(report)

    def test_lemma1_rejects_tiny_samples(self):
        with pytest.raises(ParameterError):
            check_lemma1(n_samples=100)

    def test_lemma1_errors_shrink_with_sample_size(self):
        wins = 0
        for seed in range(100):
            small = sum(_lemma1_errors(10_000, seed))
            large = sum(_lemma1_errors(1_000_000, seed))
            wins += large < small
        assert wins >= 95

    def test_theorem1_reduced_run_passes(self):
        report = check_theorem1_variance(resamples=600, n_r=100, seed=2, slack=1.2)
        assert report.passed, str(report)

    def test_theorem1_single_comparison_stays_finite(self):
        report = check_theorem1_variance(resamples=500, n_r=1, seed=4, slack=10.0)
        values = [
            float(line.split("=")[-1].replace("<- center", ""))
            for line in report.lines
            if line.startswith("var(")
        ]
        assert values and all(np.isfinite(v) for v in values)

    def test_theorem1_input_validation(self):
        with pytest.raises(ParameterError):
            check_theorem1_variance(resamples=10)
        with pytest.raises(ParameterError):
            check_theorem1_variance(lambda_offsets=(0.5, 1.0))

    def test_counterexample_passes(self):
        # bin-spread tolerance is calibrated for the million-sample run
        report = check_counterexample(n_samples=1_000_000, seed=8)
        assert report.passed, str(report)

    def test_counterexample_rejects_tiny_samples(self):
        with pytest.raises(ParameterError):
            check_counterexample(n_samples=1000)

    def test_unbiasedness_passes(self):
        report = check_unbiasedness(resamples=400, n=400, seed=12)
        assert report.passed, str(report)
