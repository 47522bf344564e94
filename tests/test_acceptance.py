"""Top-level acceptance gate: one test and one printed verdict line per
criterion, at the stated tolerances.

The verdict lines print through pytest's capture so a full run shows the
scoreboard regardless of pass/fail.
"""

import pathlib

import numpy as np
import pytest

from uncoupled import (
    DEFAULT_SEED,
    CsvSchema,
    Dataset,
    ExperimentSpec,
    PairwiseSet,
    check_counterexample,
    check_lemma1,
    check_theorem1_variance,
    check_unbiasedness,
    err_objective,
    load_csv,
    run_benchmark,
    run_synthetic,
    tune_weights,
    uniform_distribution,
)
from uncoupled.core import RiskConfig
from uncoupled.risk_approx import identity_link, linked_risk
from uncoupled.target_transform import sigmoid_link
from uncoupled.cli import main as cli_main

HOUSING_PATH = pathlib.Path(__file__).resolve().parent.parent / "data" / "housing.csv"


def verdict(capsys, number, name, ok, detail):
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_unbiased_risk_estimate(capsys):
    report = check_unbiasedness(resamples=1000, n=500, theta=2.0, seed=DEFAULT_SEED)
    verdict(capsys, 1, "unbiased uniform-coupling risk", report.passed, report.lines[0])
    assert report.passed, str(report)


def test_criterion_2_err_exactness_and_weight_recovery(capsys):
    cases = [(0.0, 1.0), (0.0, 2.0), (-1.0, 3.0)]
    errs, gaps = [], []
    for a, b in cases:
        dist = uniform_distribution(a, b)
        errs.append(err_objective(dist, b / 2.0, a / 2.0))
        cfg = tune_weights(dist)
        gaps.append(max(abs(cfg.w1 - b / 2.0), abs(cfg.w2 - a / 2.0)))
    ok = max(errs) <= 1e-9 and max(gaps) <= 0.02
    detail = f"max err at exact weights = {max(errs):.2e}, max recovery gap = {max(gaps):.4f}"
    verdict(capsys, 2, "exact weights on uniform targets", ok, detail)
    assert max(errs) <= 1e-9, errs
    assert max(gaps) <= 0.02, gaps


def test_criterion_3_variance_optimal_lambda(capsys):
    report = check_theorem1_variance(
        lambda_offsets=(-1.0, -0.5, 0.0, 0.5, 1.0),
        resamples=2000,
        n_r=200,
        n_u_factor=50,
        slack=1.05,
        seed=DEFAULT_SEED,
    )
    verdict(capsys, 3, "variance-minimizing lambda", report.passed, report.lines[0])
    assert report.passed, str(report)


def test_criterion_4_pairwise_mean_identities(capsys):
    report = check_lemma1(n_samples=1_000_000, seed=DEFAULT_SEED, tol=0.02)
    detail = "; ".join(line.split(" tol")[0] for line in report.lines[:2])
    verdict(capsys, 4, "winner/loser mean identities", report.passed, detail)
    assert report.passed, str(report)


def test_criterion_5_indistinguishable_counterexample(capsys):
    report = check_counterexample(n_samples=1_000_000, seed=DEFAULT_SEED)
    detail = "; ".join(line.split(" (")[0] for line in report.lines[:2])
    verdict(capsys, 5, "matched-observables counterexample", report.passed, detail)
    assert report.passed, str(report)


def _random_instance(rng):
    dim = int(rng.integers(1, 5))
    n_u = int(rng.integers(5, 41))
    n_r = int(rng.integers(1, 21))
    unl = Dataset(features=rng.standard_normal((n_u, dim)))
    pairs = PairwiseSet(rng.standard_normal((n_r, dim)), rng.standard_normal((n_r, dim)))
    theta = rng.standard_normal(dim)
    return unl, pairs, theta


def _fd(f, theta, step=1e-6):
    g = np.empty_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (f(up) - f(dn)) / (2.0 * step)
    return g


def test_criterion_6_gradient_checks(capsys):
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for _ in range(50):
        unl, pairs, theta = _random_instance(rng)
        cfg = RiskConfig(
            w1=float(rng.uniform(-1, 1)),
            w2=float(rng.uniform(-1, 1)),
            lam=float(rng.uniform(-1, 1)),
        )
        fun, grad_fn, _ = linked_risk(identity_link, cfg, unl, pairs)
        grad = grad_fn(theta)
        fd = _fd(fun, theta)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    # the tt surrogate: the ra risk at (1/2, 0), lam = 1/2, on a sigmoid
    tt = RiskConfig(w1=0.5, w2=0.0, lam=0.5)
    for _ in range(50):
        unl, pairs, theta = _random_instance(rng)
        fun, grad_fn, _ = linked_risk(sigmoid_link, tt, unl, pairs)
        grad = grad_fn(theta)
        fd = _fd(fun, theta)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(grad - fd))) / scale)
    ok = worst < 1e-5
    verdict(capsys, 6, "analytic gradients", ok, f"worst relative error = {worst:.2e} over 2x50 instances")
    assert ok, worst


def test_criterion_7_desk_scale_method_ordering(capsys):
    spec = ExperimentSpec.desk(seed=DEFAULT_SEED)
    table = run_synthetic(spec, jobs=4)
    lr = table.row("lr", 5000).mean_mse
    rank = table.row("rank", 5000).mean_mse
    ra = table.row("ra", 5000).mean_mse
    tt = table.row("tt", 5000).mean_mse
    c_rank_ra = rank >= 3.0 * ra
    c_rank_tt = rank >= 3.0 * tt
    c_close_lr = max(ra, tt) <= 5.0 * lr
    ok = c_rank_ra and c_rank_tt and c_close_lr
    detail = (
        f"mean MSE at n_R=5000: lr={lr:.4f} rank={rank:.4f} ra={ra:.4f} tt={tt:.4f}; "
        f"rank/ra={rank / ra:.2f} (need >=3: {c_rank_ra}), "
        f"rank/tt={rank / tt:.2f} (need >=3: {c_rank_tt}), "
        f"max(ra,tt)/lr={max(ra, tt) / lr:.2f} (need <=5: {c_close_lr})"
    )
    verdict(capsys, 7, "desk-scale method ordering", ok, detail)
    assert ok, detail


def test_criterion_8_housing_benchmark(capsys):
    if not HOUSING_PATH.exists():
        verdict(capsys, 8, "housing benchmark", True, "SKIP: data/housing.csv not present")
        pytest.skip("optional criterion: local housing CSV not present")
    first_line = HOUSING_PATH.read_text().splitlines()[0]
    has_header = any(c.isalpha() for c in first_line.replace("e", "").replace("E", ""))
    data, dropped = load_csv(
        HOUSING_PATH, CsvSchema(target_column=-1, has_header=has_header)
    )
    spec = ExperimentSpec(
        n_u=1, n_r_values=(5000,), repeats=100, seed=DEFAULT_SEED
    )
    table = run_benchmark(data, spec, jobs=4)
    published = {"lr": (24.5, 5.0), "rank": (110.3, 29.5), "ra": (29.5, 6.9), "tt": (22.5, 6.2)}
    gaps = {}
    for method, (mean, std) in published.items():
        got = table.row(method, 5000).mean_mse
        gaps[method] = (got, abs(got - mean) <= 2.0 * std)
    ok = all(flag for _, flag in gaps.values())
    detail = ", ".join(f"{m}={v:.1f}({'ok' if f else 'off'})" for m, (v, f) in gaps.items())
    verdict(capsys, 8, "housing benchmark", ok, detail)
    assert ok, detail


def test_criterion_9_cli_reproducibility(capsys, tmp_path):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((120, 2))
    y = X @ np.array([1.0, -0.5]) + 0.1 * rng.standard_normal(120)
    lines = ["f1,f2,y"] + [
        f"{float(X[i, 0])!r},{float(X[i, 1])!r},{float(y[i])!r}" for i in range(120)
    ]
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(lines) + "\n")

    commands = {
        "synth": [
            "synth", "--n-u", "500", "--n-r", "40", "--repeats", "2", "--dim", "2",
            "--test-size", "60", "--seed", "7",
        ],
        "bench": [
            "bench", "--data", str(data_path), "--n-r", "40", "--repeats", "2",
            "--seed", "7",
        ],
        "tune": ["tune", "--dist", "gaussian", "--mean", "0", "--std", "1"],
    }
    mismatched = []
    for name, argv in commands.items():
        outputs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{name}-{attempt}.csv"
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0, (name, attempt)
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(name)
    capsys.readouterr()  # drop the CLI chatter from the captured stream
    ok = not mismatched
    detail = "synth/bench/tune CSVs byte-identical across reruns" if ok else f"mismatch: {mismatched}"
    verdict(capsys, 9, "seeded CLI reproducibility", ok, detail)
    assert ok, detail
