"""Experiment harness: metrics, repeated synthetic/benchmark sweeps, and
Monte-Carlo check suites for the estimators' statistical guarantees.

Reproducibility contract: every sweep is bitwise-deterministic in its spec
(seed included) regardless of worker count.  Per-repeat seeds are derived
from (seed, repeat) through a SeedSequence, and results are aggregated in
repeat order, never completion order.

Both sweeps run one repeat loop.  A per-runner builder makes the repeat's
labeled train set, test set and uncoupled setup (target marginal, RA
weights, comparison pool): run_synthetic draws them from the synthetic
model, run_benchmark splits the dataset 80/20 and estimates the marginal.
The RA weights are the tuned (w1, w2) with lam = w1 + w2, so RA, like RANK
and TT, predicts y + c when every target moves by c and the features carry
a constant column.  LR is fitted once per repeat; the pool is prefix-sliced
across the n_r grid.
A failed fit becomes a `error: repeat=R method=M n_r=N Type: message` line
(no n_r for `lr` and for the shared set-up `method=shared`), and a cell with
no successful fit gets repeats=0 and nan statistics.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .baselines import lr_fit, rank_predict, ranker_fit
from .core import (
    Dataset,
    EmptyDataError,
    LinearModel,
    PairwiseSet,
    ParameterError,
    RiskConfig,
    SchemaError,
    ShapeError,
    predict,
)
from .distributions import empirical_distribution, fit_kde, gaussian_distribution, kde_distribution
from .pairgen import (
    STREAM_AUX,
    STREAM_PAIRWISE,
    STREAM_TEST,
    STREAM_UNLABELED,
    CounterexampleVariant,
    SyntheticSpec,
    counterexample_sampler,
    generate_synthetic,
    pairwise_from_arrays,
    random_unit_vector,
    sample_pairwise_from_spec,
    stream_rng,
)
from .risk_approx import (
    estimate_variances,
    optimal_lambda,
    ra_empirical_risk,
    ra_fit,
    tune_weights,
    tune_weights_empirical,
)
from .target_transform import tt_fit, tt_predict

DEFAULT_SEED = 1729

METHOD_ORDER = ("lr", "rank", "ra", "tt")


def _full_scale_n_r() -> tuple[int, ...]:
    return tuple(20 * 2**k for k in range(10))  # 20 .. 10240


@dataclass(frozen=True)
class ExperimentSpec:
    """Settings for a repeated sweep over pairwise-sample sizes."""

    methods: tuple[str, ...] = METHOD_ORDER
    n_u: int = 100_000
    n_r_values: tuple[int, ...] = ()
    repeats: int = 100
    seed: int = DEFAULT_SEED
    noise_std: float = 0.1
    dim: int = 5
    test_size: int = 1000

    def __post_init__(self):
        methods = tuple(str(m).lower() for m in self.methods)
        if not methods:
            raise ParameterError("methods must be nonempty")
        for m in methods:
            if m not in METHOD_ORDER:
                raise ParameterError(f"unknown method {m!r}; choose from {METHOD_ORDER}")
        # store as a canonical-order, duplicate-free tuple
        object.__setattr__(
            self, "methods", tuple(m for m in METHOD_ORDER if m in methods)
        )
        n_r = tuple(int(v) for v in self.n_r_values)
        if not n_r:
            n_r = _full_scale_n_r()
        if any(v < 1 for v in n_r):
            raise ParameterError("all n_r values must be >= 1")
        if len(set(n_r)) != len(n_r):
            raise ParameterError(f"n_r values must be distinct, got {n_r}")
        object.__setattr__(self, "n_r_values", n_r)
        if self.n_u < 1:
            raise ParameterError("n_u must be >= 1")
        if self.repeats < 1:
            raise ParameterError("repeats must be >= 1")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0.0):
            raise ParameterError("noise_std must be finite and >= 0")
        if self.dim < 1:
            raise ParameterError("dim must be >= 1")
        if self.test_size < 1:
            raise ParameterError("test_size must be >= 1")

    @classmethod
    def desk(cls, **overrides) -> "ExperimentSpec":
        """Small-budget preset: n_U=20 000, n_R in {100, 1000, 5000}, 20
        repeats."""
        defaults = dict(n_u=20_000, n_r_values=(100, 1000, 5000), repeats=20)
        defaults.update(overrides)
        return cls(**defaults)


_CSV_HEADER = "method,n_r,mean_mse,std_mse,repeats"


@dataclass(frozen=True)
class ResultRow:
    method: str
    n_r: int
    mean_mse: float
    std_mse: float
    repeats: int

    def __post_init__(self):
        if self.method not in METHOD_ORDER:
            raise ParameterError(f"unknown method {self.method!r}")
        if self.n_r < 1:
            raise ParameterError("n_r must be >= 1")
        if self.repeats < 0:
            raise ParameterError("repeats must be >= 0")
        if self.repeats > 0:
            ok = (
                np.isfinite(self.mean_mse)
                and np.isfinite(self.std_mse)
                and self.mean_mse >= 0.0
                and self.std_mse >= 0.0
            )
            if not ok:
                raise ParameterError(
                    f"mean/std must be finite and >= 0, got "
                    f"({self.mean_mse!r}, {self.std_mse!r})"
                )
        # repeats == 0 marks a cell whose every fit failed; stats are nan


@dataclass(frozen=True)
class ResultTable:
    """Aggregated sweep results plus the comment lines (metadata and error
    markers) that accompany them in CSV form."""

    rows: tuple[ResultRow, ...]
    metadata: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "metadata", tuple(str(m) for m in self.metadata))
        keys = [(r.method, r.n_r) for r in self.rows]
        if len(set(keys)) != len(keys):
            raise ParameterError("duplicate (method, n_r) rows")

    def row(self, method: str, n_r: int) -> ResultRow:
        for r in self.rows:
            if r.method == method and r.n_r == n_r:
                return r
        raise KeyError((method, n_r))

    def to_csv(self) -> str:
        lines = [f"# {m}" for m in self.metadata]
        lines.append(_CSV_HEADER)
        for r in self.rows:
            lines.append(
                f"{r.method},{r.n_r},{r.mean_mse!r},{r.std_mse!r},{r.repeats}"
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        metadata: list[str] = []
        rows: list[ResultRow] = []
        header_seen = False
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.rstrip("\r")
            if not line.strip():
                continue
            if line.startswith("#"):
                metadata.append(line[1:].removeprefix(" "))
                continue
            if not header_seen:
                if line != _CSV_HEADER:
                    raise SchemaError(
                        f"expected header {_CSV_HEADER!r}, got {line!r}"
                    )
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise SchemaError(f"expected 5 fields, got {len(parts)}: {line!r}")
            try:
                n_r, mean_mse, std_mse, repeats = (
                    int(parts[1]), float(parts[2]), float(parts[3]), int(parts[4])
                )
            except ValueError as exc:
                raise SchemaError(f"line {lineno}: bad field in {line!r}: {exc}") from None
            rows.append(ResultRow(parts[0], n_r, mean_mse, std_mse, repeats))
        if not header_seen:
            raise SchemaError("missing header line")
        return cls(rows=tuple(rows), metadata=tuple(metadata))

    def to_plot_table(self) -> str:
        """Gnuplot-friendly whitespace table: one row per n_r, one
        mean/std column pair per method present."""
        methods = [m for m in METHOD_ORDER if any(r.method == m for r in self.rows)]
        n_r_values = sorted({r.n_r for r in self.rows})
        header = "# n_r " + " ".join(f"{m}_mean {m}_std" for m in methods)
        lines = [header]
        for n_r in n_r_values:
            cells = [str(n_r)]
            for m in methods:
                try:
                    r = self.row(m, n_r)
                    cells.append(f"{r.mean_mse!r} {r.std_mse!r}")
                except KeyError:
                    cells.append("nan nan")
            lines.append(" ".join(cells))
        return "\n".join(lines) + "\n"


def mse(predictions, targets) -> float:
    """Mean squared difference between two equal-length vectors."""
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(targets, dtype=float).ravel()
    if p.size != t.size:
        raise ShapeError(f"length mismatch: {p.size} predictions, {t.size} targets")
    if p.size == 0:
        raise EmptyDataError("mse needs at least one value")
    return float(np.mean((p - t) ** 2))


# ---------------------------------------------------------------------------
# sweep machinery


def _repeat_seed(seed: int, repeat: int) -> int:
    """Well-mixed nonnegative sub-seed for one repeat."""
    return int(np.random.SeedSequence((int(seed), int(repeat))).generate_state(1)[0])


class _RepeatData(NamedTuple):
    """One repeat's data.  `uncoupled()` returns (target marginal, RA risk
    weights, pool of max(n_r) comparisons); it runs only when an uncoupled
    method is asked for.  A non-None `constant` is the only train target,
    which every method then predicts."""

    train: Dataset
    test: Dataset
    uncoupled: Callable[[], tuple]
    constant: float | None = None


def _synthetic_data(cfg: RiskConfig, spec: ExperimentSpec, seed_r: int) -> _RepeatData:
    theta_true = random_unit_vector(spec.dim, stream_rng(seed_r, STREAM_AUX))
    sspec = SyntheticSpec(
        dim=spec.dim, noise_std=spec.noise_std, theta_true=theta_true, seed=seed_r
    )
    train = generate_synthetic(sspec, spec.n_u, stream=STREAM_UNLABELED)
    test = generate_synthetic(sspec, spec.test_size, stream=STREAM_TEST)

    def uncoupled():
        dist = gaussian_distribution(0.0, math.sqrt(1.0 + spec.noise_std**2))
        return dist, cfg, sample_pairwise_from_spec(sspec, max(spec.n_r_values))

    return _RepeatData(train, test, uncoupled)


def _benchmark_data(
    data: Dataset, empirical_cdf: bool, spec: ExperimentSpec, seed_r: int
) -> _RepeatData:
    n = data.n
    n_test = max(1, int(round(0.2 * n)))
    if n - n_test < 1:
        raise ParameterError(f"dataset too small for an 80/20 split: n={n}")
    perm = stream_rng(seed_r, STREAM_UNLABELED).permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    x, y = data.features[train_idx], data.targets[train_idx]

    def uncoupled():
        if empirical_cdf:
            dist, cfg = empirical_distribution(y), tune_weights_empirical(y)
        else:
            dist = kde_distribution(fit_kde(y))
            cfg = tune_weights(dist)
        rng_pairs = stream_rng(seed_r, STREAM_PAIRWISE)
        i = rng_pairs.integers(0, y.size, size=max(spec.n_r_values))
        j = rng_pairs.integers(0, y.size, size=max(spec.n_r_values))
        return dist, cfg, pairwise_from_arrays(x[i], y[i], x[j], y[j])

    return _RepeatData(
        train=Dataset(features=x, targets=y),
        test=Dataset(features=data.features[test_idx], targets=data.targets[test_idx]),
        uncoupled=uncoupled,
        # a degenerate marginal collapses every method's prediction to it
        constant=float(y[0]) if np.all(y == y[0]) else None,
    )


def _fit_predict(method, rep, unl, pairs, dist, cfg):
    """Fit one uncoupled method on features and comparisons; predict the
    repeat's test features."""
    x_test = rep.test.features
    if method == "rank":
        return rank_predict(ranker_fit(pairs), unl, dist, x_test)
    if method == "tt":
        return tt_predict(tt_fit(unl, pairs), dist, x_test)
    return predict(ra_fit(unl, pairs, cfg), x_test)


def _repeat(args):
    """One repeat of a sweep: (cell -> test MSE, error lines)."""
    build, spec, repeat = args
    rep = build(spec, _repeat_seed(spec.seed, repeat))
    y_test = rep.test.targets
    if rep.constant is not None:
        value = mse(np.full(y_test.size, rep.constant), y_test)
        return {(m, n_r): value for n_r in spec.n_r_values for m in spec.methods}, []

    values: dict[tuple[str, int], float] = {}
    errors: list[str] = []

    def fail(cell, exc):
        errors.append(f"error: repeat={repeat} {cell} {type(exc).__name__}: {exc}")

    if "lr" in spec.methods:
        try:
            lr_value = mse(predict(lr_fit(rep.train), rep.test.features), y_test)
            values.update((("lr", n_r), lr_value) for n_r in spec.n_r_values)
        except Exception as exc:  # noqa: BLE001 - record, don't abort the sweep
            fail("method=lr", exc)

    methods = [m for m in spec.methods if m != "lr"]
    if not methods:
        return values, errors
    try:
        dist, cfg, pool = rep.uncoupled()
    except Exception as exc:  # noqa: BLE001
        fail("method=shared", exc)
        return values, errors
    unl = rep.train.without_targets()
    for n_r in spec.n_r_values:
        pairs = PairwiseSet(winners=pool.winners[:n_r], losers=pool.losers[:n_r])
        for method in methods:
            try:
                preds = _fit_predict(method, rep, unl, pairs, dist, cfg)
                values[(method, n_r)] = mse(preds, y_test)
            except Exception as exc:  # noqa: BLE001
                fail(f"method={method} n_r={n_r}", exc)
    return values, errors


def _aggregate(spec: ExperimentSpec, outcomes) -> ResultTable:
    errors: list[str] = []
    for _, errs in outcomes:
        errors.extend(errs)
    rows = []
    for method in spec.methods:
        for n_r in sorted(spec.n_r_values):
            cell = [
                vals[(method, n_r)]
                for vals, _ in outcomes
                if (method, n_r) in vals
            ]
            if cell:
                arr = np.asarray(cell)
                std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
                rows.append(
                    ResultRow(
                        method=method,
                        n_r=n_r,
                        mean_mse=float(np.mean(arr)),
                        std_mse=std,
                        repeats=int(arr.size),
                    )
                )
            else:
                rows.append(
                    ResultRow(
                        method=method,
                        n_r=n_r,
                        mean_mse=float("nan"),
                        std_mse=float("nan"),
                        repeats=0,
                    )
                )
    return ResultTable(rows=tuple(rows), metadata=tuple(errors))


def _sweep(build, spec: ExperimentSpec, jobs: int) -> ResultTable:
    """Runs `_repeat` with the given data builder over the repeats of spec,
    in `jobs` worker processes when jobs > 1."""
    tasks = [(build, spec, r) for r in range(spec.repeats)]
    if jobs <= 1:
        outcomes = [_repeat(t) for t in tasks]
    else:
        # imported here: multiprocessing costs every fresh interpreter
        # milliseconds of CPU, and the default is one job
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_repeat, tasks))
    return _aggregate(spec, outcomes)


def run_synthetic(spec: ExperimentSpec, jobs: int = 1) -> ResultTable:
    """Repeated synthetic sweep.

    Each repeat draws a fresh unit-norm true direction, a fresh unlabeled
    set, a fresh comparison pool (prefix-sliced across the n_r grid so
    larger cells extend smaller ones), and a fresh test set.  LR trains on
    the true labels; RANK/RA/TT see only features, comparisons, and the
    analytic target marginal N(0, sqrt(1 + noise_std^2)), with the RA
    weights tuned to it once (lam = w1 + w2, which is 0 on a centered
    Gaussian).
    """
    dist = gaussian_distribution(0.0, math.sqrt(1.0 + spec.noise_std**2))
    return _sweep(partial(_synthetic_data, tune_weights(dist)), spec, jobs)


def run_benchmark(
    data: Dataset,
    spec: ExperimentSpec,
    jobs: int = 1,
    empirical_cdf: bool = False,
) -> ResultTable:
    """Repeated 80/20 benchmark sweep on a labeled dataset.

    Per repeat: random split; the target marginal is estimated from the
    train targets (cross-validated KDE, or the interpolated empirical CDF
    when empirical_cdf is set); comparisons pair uniformly resampled train
    rows by their true targets; supervised LR uses the labels directly.
    Uncoupled methods never see the (feature, target) pairing.  Every
    method fits an intercept: a constant-1 column is appended to the
    features once, before the split, which makes lr, ra, rank (and tt at
    n_R >= 100) invariant to per-column affine maps of the features.  RA's
    weights are tuned to the estimated marginal with lam = w1 + w2, so a
    shift of every target by c moves each method's predictions by c and its
    MSE only by rounding.  The data set fixes the sizes, so spec.n_u,
    spec.dim, spec.noise_std and spec.test_size are ignored.
    """
    if data.targets is None:
        raise ParameterError("run_benchmark needs a dataset with targets")
    ones = np.ones((data.n, 1))
    data = Dataset(features=np.hstack([data.features, ones]), targets=data.targets)
    return _sweep(partial(_benchmark_data, data, empirical_cdf), spec, jobs)


# ---------------------------------------------------------------------------
# Monte-Carlo check suites

# The smallest budgets the suites accept.  The CLI rejects a smaller
# --samples or --resamples as a usage error before any suite runs.
LEMMA1_MIN_SAMPLES = 10_000
COUNTEREXAMPLE_MIN_SAMPLES = 100_000
THEOREM1_MIN_RESAMPLES = 500
UNBIASEDNESS_MIN_RESAMPLES = 2


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    lines: tuple[str, ...]

    def __str__(self):
        body = "\n".join(f"  {line}" for line in self.lines)
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}\n{body}"


def _verdict(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def _lemma1_errors(n_samples: int, seed: int, dim: int = 5, noise_std: float = 0.1):
    """Relative errors of the two winner/loser mean identities and the
    absolute error of their half-half mixture, for h = the true direction."""
    theta = random_unit_vector(dim, stream_rng(seed, STREAM_AUX))
    sspec = SyntheticSpec(dim=dim, noise_std=noise_std, theta_true=theta, seed=seed)
    coupled = generate_synthetic(sspec, n_samples, stream=STREAM_UNLABELED)
    pairs = sample_pairwise_from_spec(sspec, n_samples)
    dist = gaussian_distribution(0.0, math.sqrt(1.0 + noise_std**2))
    model = LinearModel(theta)

    # phi'(h) = 2h
    score_u = 2.0 * predict(model, coupled.features)
    F = np.asarray(dist.cdf(coupled.targets), dtype=float)
    lhs_plus = float(np.mean(2.0 * predict(model, pairs.winners)))
    lhs_minus = float(np.mean(2.0 * predict(model, pairs.losers)))
    rhs_plus = float(2.0 * np.mean(F * score_u))
    rhs_minus = float(2.0 * np.mean((1.0 - F) * score_u))
    rel_plus = abs(lhs_plus - rhs_plus) / (abs(lhs_plus) + 1e-9)
    rel_minus = abs(lhs_minus - rhs_minus) / (abs(lhs_minus) + 1e-9)
    mix_abs = abs(float(np.mean(score_u)) - 0.5 * (lhs_plus + lhs_minus))
    return rel_plus, rel_minus, mix_abs


def check_lemma1(
    n_samples: int = 1_000_000, seed: int = DEFAULT_SEED, tol: float = 0.02
) -> CheckReport:
    """Monte-Carlo verification of the winner/loser mean identities: the
    winner (loser) mean of phi'(h) = 2h equals twice the F_Y-weighted
    (complement-weighted) mean over the marginal."""
    if n_samples < LEMMA1_MIN_SAMPLES:
        raise ParameterError(f"need n_samples >= {LEMMA1_MIN_SAMPLES}")
    rel_plus, rel_minus, mix_abs = _lemma1_errors(n_samples, seed)
    ok_p, ok_m, ok_mix = rel_plus < tol, rel_minus < tol, mix_abs < tol
    lines = (
        f"winner identity: rel_err={rel_plus:.6f} tol={tol:g} {_verdict(ok_p)}",
        f"loser identity: rel_err={rel_minus:.6f} tol={tol:g} {_verdict(ok_m)}",
        f"half-half mixture: abs_err={mix_abs:.6f} tol={tol:g} {_verdict(ok_mix)}",
    )
    return CheckReport(
        name="lemma1", passed=ok_p and ok_m and ok_mix, lines=lines
    )


def check_theorem1_variance(
    lambda_offsets: tuple[float, ...] = (-1.0, -0.5, 0.0, 0.5, 1.0),
    resamples: int = 2000,
    seed: int = DEFAULT_SEED,
    n_r: int = 200,
    n_u_factor: int = 50,
    slack: float = 1.05,
) -> CheckReport:
    """Empirical variance of the pairwise risk estimate across a lambda grid
    centered at the variance-optimal value.

    Passes when the grid minimum sits within one grid step of the optimal
    lambda, the center variance is within `slack` of every other grid
    point's, and strictly below the variance at the grid extremes.
    """
    if resamples < THEOREM1_MIN_RESAMPLES:
        raise ParameterError(f"need resamples >= {THEOREM1_MIN_RESAMPLES}")
    if n_r < 1:
        raise ParameterError("n_r must be >= 1")
    offsets = np.sort(np.asarray(lambda_offsets, dtype=float))
    if offsets.size < 2 or 0.0 not in offsets:
        raise ParameterError("lambda_offsets must contain 0 and one other offset")

    dim, noise_std = 5, 0.1
    dist = gaussian_distribution(0.0, math.sqrt(1.0 + noise_std**2))
    cfg = tune_weights(dist)
    theta = random_unit_vector(dim, stream_rng(seed, STREAM_AUX))
    model = LinearModel(theta)
    calib_spec = SyntheticSpec(dim=dim, noise_std=noise_std, theta_true=theta, seed=seed)
    calib = sample_pairwise_from_spec(calib_spec, 2000)
    lam_star = optimal_lambda(cfg.w1, cfg.w2, estimate_variances(model, calib))
    grid = lam_star + offsets
    center = int(np.argmin(np.abs(offsets)))

    n_u = n_u_factor * n_r
    risks = np.empty((resamples, grid.size))
    for k in range(resamples):
        sub = SyntheticSpec(
            dim=dim,
            noise_std=noise_std,
            theta_true=theta,
            seed=_repeat_seed(seed, k + 1),
        )
        unl = generate_synthetic(sub, n_u, stream=STREAM_UNLABELED).without_targets()
        pairs = sample_pairwise_from_spec(sub, n_r)
        for j, lam in enumerate(grid):
            risks[k, j] = ra_empirical_risk(
                model, unl, pairs, RiskConfig(w1=cfg.w1, w2=cfg.w2, lam=lam)
            )
    variances = np.var(risks, axis=0, ddof=1)

    argmin = int(np.argmin(variances))
    max_step = float(np.max(np.diff(grid)))
    ok_near = abs(grid[argmin] - lam_star) <= max_step + 1e-12
    others = [j for j in range(grid.size) if j != center]
    ok_slack = all(variances[center] <= slack * variances[j] for j in others)
    extremes = {0, grid.size - 1} - {center}
    ok_strict = all(variances[center] < variances[j] for j in extremes)

    lines = [
        f"optimal lambda = {lam_star:.6f} (w1={cfg.w1:.4f}, w2={cfg.w2:.4f})",
    ]
    for j in range(grid.size):
        tag = " <- center" if j == center else ""
        lines.append(f"var(lambda={grid[j]:+.4f}) = {variances[j]:.6e}{tag}")
    lines.append(
        f"grid argmin within one step of optimal: {_verdict(ok_near)} "
        f"(argmin at {grid[argmin]:+.4f}, step {max_step:g})"
    )
    lines.append(
        f"center var <= {slack:g} x every grid var: {_verdict(ok_slack)}"
    )
    lines.append(f"center var < extreme-offset vars: {_verdict(ok_strict)}")
    return CheckReport(
        name="theorem1",
        passed=ok_near and ok_slack and ok_strict,
        lines=tuple(lines),
    )


def _ecdf_sup_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample sup distance between empirical CDFs."""
    grid = np.sort(np.concatenate([a, b]))
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def check_counterexample(
    n_samples: int = 1_000_000, seed: int = DEFAULT_SEED
) -> CheckReport:
    """Verifies the two joint distributions that share feature/target
    marginals and the comparison distribution while their regression
    functions differ."""
    if n_samples < COUNTEREXAMPLE_MIN_SAMPLES:
        raise ParameterError(f"need n_samples >= {COUNTEREXAMPLE_MIN_SAMPLES}")
    base = counterexample_sampler(CounterexampleVariant.BASE, n_samples, seed)
    tilde = counterexample_sampler(CounterexampleVariant.TILDE, n_samples, seed)
    xb, yb = base.features[:, 0], base.targets
    xt, yt = tilde.features[:, 0], tilde.targets

    sup_x = _ecdf_sup_distance(xb, xt)
    sup_y = _ecdf_sup_distance(yb, yt)
    ok_x, ok_y = sup_x < 0.005, sup_y < 0.005

    # comparison-cell masses: sign of winner feature x sign of loser feature
    cell_lines = []
    ok_cells = True
    for variant in (CounterexampleVariant.BASE, CounterexampleVariant.TILDE):
        first = counterexample_sampler(variant, n_samples, seed, stream=1)
        second = counterexample_sampler(variant, n_samples, seed, stream=2)
        win = first.targets >= second.targets
        x_win = np.where(win, first.features[:, 0], second.features[:, 0])
        x_lose = np.where(win, second.features[:, 0], first.features[:, 0])
        masses = [
            float(np.mean((x_win < 0) & (x_lose < 0))),
            float(np.mean((x_win < 0) & (x_lose >= 0))),
            float(np.mean((x_win >= 0) & (x_lose < 0))),
            float(np.mean((x_win >= 0) & (x_lose >= 0))),
        ]
        worst = max(abs(m - 0.25) for m in masses)
        ok = worst < 0.01
        ok_cells = ok_cells and ok
        cell_lines.append(
            f"{variant.value} comparison cells = "
            + "/".join(f"{m:.4f}" for m in masses)
            + f" (max dev {worst:.4f}, tol 0.01) {_verdict(ok)}"
        )

    mean_t_neg = float(np.mean(yt[xt < 0]))
    mean_t_pos = float(np.mean(yt[xt >= 0]))
    mean_b_neg = float(np.mean(yb[xb < 0]))
    mean_b_pos = float(np.mean(yb[xb >= 0]))
    ok_neg = abs(mean_t_neg - 7.0 / 4.0) < 0.02
    ok_pos = abs(mean_t_pos - 23.0 / 12.0) < 0.02
    diff = abs(mean_t_pos - mean_b_pos)
    ok_diff = diff >= 0.05

    # base-variant regression function is constant in x
    edges = np.linspace(-1.0, 1.0, 9)
    bins = np.clip(np.digitize(xb, edges) - 1, 0, 7)
    bin_means = [float(np.mean(yb[bins == k])) for k in range(8)]
    spread = max(bin_means) - min(bin_means)
    ok_spread = spread < 0.03

    lines = (
        f"feature-marginal sup distance = {sup_x:.5f} (tol 0.005) {_verdict(ok_x)}",
        f"target-marginal sup distance = {sup_y:.5f} (tol 0.005) {_verdict(ok_y)}",
        *cell_lines,
        f"tilde mean y | x<0 = {mean_t_neg:.5f} vs 7/4 (tol 0.02) {_verdict(ok_neg)}",
        f"tilde mean y | x>=0 = {mean_t_pos:.5f} vs 23/12 (tol 0.02) {_verdict(ok_pos)}",
        f"|tilde - base| mean gap on x>=0 = {diff:.5f} (>= 0.05) {_verdict(ok_diff)}",
        f"base conditional-mean bin spread = {spread:.5f} (tol 0.03) "
        f"{_verdict(ok_spread)} (base means {mean_b_neg:.4f}/{mean_b_pos:.4f})",
    )
    passed = all(
        (ok_x, ok_y, ok_cells, ok_neg, ok_pos, ok_diff, ok_spread)
    )
    return CheckReport(name="counterexample", passed=passed, lines=lines)


def check_unbiasedness(
    resamples: int = 1000,
    n: int = 500,
    theta: float = 2.0,
    seed: int = DEFAULT_SEED,
) -> CheckReport:
    """Uniform-coupling unbiasedness: X ~ U[0,1], Y = X, weights (1/2, 0),
    lam = 0.  The mean of the pairwise risk estimate plus the model-free
    constant 1/3 should match the analytic risk (theta-1)^2/3 within three
    standard errors."""
    if resamples < UNBIASEDNESS_MIN_RESAMPLES:
        raise ParameterError(f"need resamples >= {UNBIASEDNESS_MIN_RESAMPLES}")
    if n < 2:
        raise ParameterError("need n >= 2")
    cfg = RiskConfig(w1=0.5, w2=0.0, lam=0.0)
    model = LinearModel(np.array([float(theta)]))
    values = np.empty(resamples)
    for k in range(resamples):
        rng = stream_rng(_repeat_seed(seed, k), STREAM_UNLABELED)
        xu = rng.random(n)
        x1 = rng.random(n)
        x2 = rng.random(n)
        pairs = pairwise_from_arrays(x1[:, None], x1, x2[:, None], x2)
        values[k] = ra_empirical_risk(model, Dataset(features=xu[:, None]), pairs, cfg)
    constant = 1.0 / 3.0  # E[Y^2] for Y ~ U[0,1]
    analytic = (float(theta) - 1.0) ** 2 / 3.0
    mean_risk = float(np.mean(values)) + constant
    se = float(np.std(values, ddof=1)) / math.sqrt(resamples)
    gap = abs(mean_risk - analytic)
    ok = gap <= 3.0 * se
    lines = (
        f"mean estimate + const = {mean_risk:.6f}",
        f"analytic risk = {analytic:.6f}",
        f"|gap| = {gap:.6f} <= 3*SE = {3.0 * se:.6f} {_verdict(ok)}",
    )
    return CheckReport(name="unbiasedness", passed=ok, lines=lines)
